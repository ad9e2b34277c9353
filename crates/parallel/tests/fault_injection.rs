//! Fault-injection suite: scripted transport failures against the BSP
//! executor, asserting that validation + bounded retry recover every
//! single-fault scenario in-step (bitwise), and that escalated faults roll
//! back through the supervisor and still converge to the fault-free state.

use proptest::prelude::*;
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::supervisor::{Recoverable, Supervisor, SupervisorConfig};
use sc_md::{build_fcc_lattice, LatticeSpec, Method};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, EngineConfig, Fault, FaultKind, FaultPlan};
use sc_potential::LennardJones;

fn lj_system() -> (AtomStore, SimulationBox) {
    build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42)
}

fn lj_ff() -> ForceField {
    ForceField {
        pair: Some(Box::new(LennardJones::reduced(2.5))),
        triplet: None,
        quadruplet: None,
        method: Method::ShiftCollapse,
    }
}

fn faulted(faults: FaultPlan) -> DistributedSim {
    let (store, bbox) = lj_system();
    let cfg = EngineConfig { faults, ..Default::default() };
    DistributedSim::build(store, bbox, IVec3::splat(2), lj_ff(), 0.002, cfg).unwrap()
}

fn mk_sim() -> DistributedSim {
    faulted(FaultPlan::none())
}

fn total_momentum(store: &AtomStore) -> Vec3 {
    let masses = store.species_masses().to_vec();
    let mut p = Vec3::ZERO;
    for i in 0..store.len() {
        p += store.velocities()[i] * masses[store.species()[i].index()];
    }
    p
}

fn assert_bitwise_eq(a: &AtomStore, b: &AtomStore, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: atom counts differ");
    let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    for i in 0..a.len() {
        assert_eq!(a.ids()[i], b.ids()[i], "{what}: id order differs at {i}");
        assert_eq!(
            bits(a.positions()[i]),
            bits(b.positions()[i]),
            "{what}: atom {i} position bits differ"
        );
        assert_eq!(
            bits(a.velocities()[i]),
            bits(b.velocities()[i]),
            "{what}: atom {i} velocity bits differ"
        );
    }
}

/// Positions/velocities match up to periodic wrapping within `tol`.
fn assert_close(bbox: &SimulationBox, a: &AtomStore, b: &AtomStore, tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: atom counts differ");
    for i in 0..a.len() {
        assert_eq!(a.ids()[i], b.ids()[i], "{what}: id order differs at {i}");
        let dr = bbox.min_image(a.positions()[i], b.positions()[i]).norm();
        let dv = (a.velocities()[i] - b.velocities()[i]).norm();
        assert!(dr < tol, "{what}: atom {i} position differs by {dr}");
        assert!(dv < tol, "{what}: atom {i} velocity differs by {dv}");
    }
}

#[test]
fn empty_fault_plan_is_bitwise_transparent() {
    let mut clean = mk_sim();
    let mut instrumented = faulted(FaultPlan::none());
    clean.run(6);
    instrumented.run(6);
    assert_bitwise_eq(&clean.gather(), &instrumented.gather(), "FaultPlan::none()");
    assert_eq!(instrumented.comm_stats().retries, 0);
    assert_eq!(instrumented.comm_stats().faults_detected, 0);
}

/// Every single-fault class the plan can script is absorbed by the
/// per-delivery retry protocol without touching the trajectory: the final
/// state is bitwise identical to the fault-free run.
#[test]
fn single_faults_recover_in_step_bitwise() {
    let mut clean = mk_sim();
    clean.run(6);
    let reference = clean.gather();
    let kinds = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Corrupt { header: false },
        FaultKind::Corrupt { header: true },
        FaultKind::Stall { attempts: 1 },
        FaultKind::Stall { attempts: 2 },
    ];
    for kind in kinds {
        let mut sim =
            faulted(FaultPlan::none().with(Fault { step: 2, rank: 1, channel: None, kind }));
        for _ in 0..6 {
            sim.try_step().unwrap_or_else(|e| panic!("{kind:?}: unrecovered fault {e}"));
        }
        let what = format!("{kind:?}");
        assert!(!sim.fault_plan().events().is_empty(), "{what}: fault never fired");
        assert!(sim.fault_plan().is_exhausted(), "{what}: fault still pending");
        let stats = sim.comm_stats();
        assert!(stats.retries > 0, "{what}: recovery must go through the retry path");
        assert!(stats.faults_detected > 0, "{what}: loss/corruption must be detected");
        assert_bitwise_eq(&reference, &sim.gather(), &what);
    }
}

/// A stall deeper than the retry budget escalates out of `try_step`; the
/// supervisor rolls back to the last checkpoint and replays until the
/// stalled rank's attempts are exhausted, converging to the fault-free
/// trajectory.
#[test]
fn escalated_stall_rolls_back_and_converges() {
    let mut clean = mk_sim();
    clean.run(6);
    let (_, bbox) = lj_system();

    let mut sim = faulted(FaultPlan::none().with(Fault {
        step: 3,
        rank: 2,
        channel: None,
        kind: FaultKind::Stall { attempts: 12 },
    }));
    let mut sup = Supervisor::new(SupervisorConfig {
        checkpoint_every: 2,
        max_rollbacks: 16,
        ..SupervisorConfig::default()
    });
    sup.run(&mut sim, 6).expect("supervision must outlast the stall");
    assert_eq!(sim.steps_done(), 6);
    assert!(sup.stats().rollbacks >= 1, "a 12-attempt stall must force at least one rollback");
    assert_eq!(sup.stats().comm_faults, sup.stats().rollbacks);
    assert!(sim.fault_plan().is_exhausted(), "replay must drain the stall");
    // Restore re-decomposes from an id-sorted gather, so continuation is
    // exact physics but rank-internal summation order may change: compare
    // with a tolerance, not bitwise.
    assert_close(&bbox, &clean.gather(), &sim.gather(), 1e-7, "stall + rollback");
}

/// Checkpoint/restore alone (no faults) continues the distributed
/// trajectory from the captured phase-space point.
#[test]
fn distributed_checkpoint_restore_continues_trajectory() {
    let (_, bbox) = lj_system();
    let mut sim = mk_sim();
    sim.run(3);
    let cp = Recoverable::checkpoint(&sim);
    assert_eq!(cp.step, 3);
    sim.run(3);
    let uninterrupted = sim.gather();

    sim.restore(&cp);
    assert_eq!(sim.steps_done(), 3);
    sim.run(3);
    assert_close(&bbox, &uninterrupted, &sim.gather(), 1e-7, "restore continuation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any seed-derived single-fault scenario, supervised recovery
    /// preserves the invariants the paper's runtime relies on: no atom is
    /// lost and total momentum matches the fault-free run.
    #[test]
    fn random_single_fault_conserves_atoms_and_momentum(seed in 0u64..10_000) {
        let mut clean = mk_sim();
        clean.run(6);
        let reference = clean.gather();

        let mut sim = faulted(FaultPlan::random(seed, 1, 6, 8));
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint_every: 2,
            max_rollbacks: 16,
            ..SupervisorConfig::default()
        });
        sup.run(&mut sim, 6).expect("single faults must always be recoverable");
        let out = sim.gather();
        prop_assert_eq!(out.len(), reference.len(), "atom count not conserved");
        let dp = (total_momentum(&out) - total_momentum(&reference)).norm();
        prop_assert!(dp < 1e-9, "momentum drifted by {} under seed {}", dp, seed);
    }

    /// Random fault scripts against *batched* frames: every in-budget
    /// fault script must be absorbed by the per-delivery retry path —
    /// per-section checksums localize corruption inside a batch — leaving
    /// the final state bitwise identical to a fault-free run.
    /// Faults land on distinct steps so no single delivery sees more than
    /// one fault (stacked stalls can legitimately exceed the retry budget
    /// and escalate; that path is the supervisor tests' job).
    #[test]
    fn random_fault_scripts_on_batched_frames_recover_bitwise(
        seed in 0u64..10_000,
        nfaults in 1usize..=3,
    ) {
        let mut clean = mk_sim();
        clean.run(6);

        let kinds = [
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Corrupt { header: false },
            FaultKind::Corrupt { header: true },
            FaultKind::Stall { attempts: 1 },
            FaultKind::Stall { attempts: 2 },
        ];
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut plan = FaultPlan::none();
        for i in 0..nfaults {
            plan = plan.with(Fault {
                step: i as u64 * 2, // distinct steps: one fault per delivery window
                rank: (next() % 8) as usize,
                channel: None,
                kind: kinds[(next() % kinds.len() as u64) as usize],
            });
        }
        let mut sim = faulted(plan);
        for step in 0..6 {
            let r = sim.try_step();
            prop_assert!(r.is_ok(), "seed {}: unrecovered fault at step {}: {:?}", seed, step, r);
        }
        let stats = sim.comm_stats();
        let fired = !sim.fault_plan().events().is_empty();
        prop_assert!(fired, "seed {}: scripted faults never fired", seed);
        prop_assert!(
            stats.retries > 0 || stats.faults_detected > 0,
            "seed {}: recovery left no trace in the counters", seed
        );
        let (a, b) = (clean.gather(), sim.gather());
        prop_assert_eq!(a.len(), b.len(), "atom count not conserved");
        for i in 0..a.len() {
            prop_assert_eq!(a.ids()[i], b.ids()[i], "id order differs at {}", i);
            let p_eq = a.positions()[i].x.to_bits() == b.positions()[i].x.to_bits()
                && a.positions()[i].y.to_bits() == b.positions()[i].y.to_bits()
                && a.positions()[i].z.to_bits() == b.positions()[i].z.to_bits();
            let v_eq = a.velocities()[i].x.to_bits() == b.velocities()[i].x.to_bits()
                && a.velocities()[i].y.to_bits() == b.velocities()[i].y.to_bits()
                && a.velocities()[i].z.to_bits() == b.velocities()[i].z.to_bits();
            prop_assert!(p_eq && v_eq, "seed {}: atom {} state bits differ", seed, i);
        }
    }
}
