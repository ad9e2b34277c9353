//! Crash-recovery suite: a scripted `FaultKind::Crash` must be detected
//! behaviourally by the health watchdog (the executor never sees the fault
//! plan's intent), escalated as `RuntimeError::RankDead`, and recovered by
//! the supervisor through online re-decomposition onto the survivors —
//! finishing within the drift guardrail of a fault-free reference. Also
//! covers restoring a distributed checkpoint onto a different rank
//! topology (shrink, reshape, round-trip).

use proptest::prelude::*;
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::supervisor::{Recoverable, Supervisor, SupervisorConfig};
use sc_md::{build_fcc_lattice, thermalize, LatticeSpec, Method, SnapshotLayout};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, EngineConfig, Fault, FaultKind, FaultPlan};
use sc_potential::{LennardJones, Vashishta};

fn lj_ff() -> ForceField {
    ForceField {
        pair: Some(Box::new(LennardJones::reduced(2.5))),
        triplet: None,
        quadruplet: None,
        method: Method::ShiftCollapse,
    }
}

fn lj_system() -> (AtomStore, SimulationBox) {
    build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42)
}

/// An 8-rank (2×2×2) LJ sim — big enough that losing one rank still
/// leaves a feasible survivor grid.
fn lj_sim8(faults: FaultPlan) -> DistributedSim {
    let (store, bbox) = lj_system();
    let cfg = EngineConfig { faults, ..Default::default() };
    DistributedSim::build(store, bbox, IVec3::splat(2), lj_ff(), 0.002, cfg).unwrap()
}

fn silica_ff() -> ForceField {
    let v = Vashishta::silica();
    ForceField {
        pair: Some(Box::new(v.pair.clone())),
        triplet: Some(Box::new(v.triplet.clone())),
        quadruplet: None,
        method: Method::ShiftCollapse,
    }
}

fn silica_system() -> (AtomStore, SimulationBox) {
    let v = Vashishta::silica();
    let (mut store, bbox) = sc_md::build_silica_like(4, 7.16, v.params().masses, 0.0, 42);
    thermalize(&mut store, 0.05, 42);
    (store, bbox)
}

/// An 8-rank (2×2×2) silica sim (box 28.64 per axis, sub-box 14.32 vs the
/// 5.5 cutoff — survivor grids down to 6 ranks stay feasible).
fn silica_sim8(faults: FaultPlan) -> DistributedSim {
    let (store, bbox) = silica_system();
    let cfg = EngineConfig { faults, ..Default::default() };
    DistributedSim::build(store, bbox, IVec3::splat(2), silica_ff(), 0.0005, cfg).unwrap()
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

/// Supervises `sim` for `steps` with a checkpoint cadence tight enough for
/// crash detection (the watchdog needs several rollback replays to accrue
/// enough consecutive failures to declare the rank dead).
fn supervise(sim: &mut DistributedSim, steps: u64) -> sc_md::supervisor::RecoveryStats {
    let mut sup = Supervisor::new(SupervisorConfig {
        checkpoint_every: 2,
        max_rollbacks: 16,
        ..SupervisorConfig::default()
    });
    sup.run(sim, steps).expect("crash must be recovered by re-decomposition");
    sup.stats()
}

/// The acceptance scenario: a rank of an 8-rank silica run crashes
/// mid-trajectory. The watchdog must declare it dead, the supervisor must
/// re-decompose onto the survivors, and the finished run must match a
/// fault-free reference within the drift guardrail.
#[test]
fn silica_crash_is_detected_and_recovered_by_redecomposition() {
    let mut clean = silica_sim8(FaultPlan::none());
    clean.run(8);
    let reference = clean.gather();
    let (_, bbox) = silica_system();

    let mut sim = silica_sim8(FaultPlan::none().with(Fault {
        step: 3,
        rank: 2,
        channel: None,
        kind: FaultKind::Crash,
    }));
    let stats = supervise(&mut sim, 8);

    assert_eq!(sim.steps_done(), 8);
    assert!(sim.degraded(), "losing a rank must flag the runtime degraded");
    assert_eq!(stats.redecompositions, 1, "exactly one re-decomposition");
    assert_eq!(stats.ranks_lost, 1);
    assert!(stats.rollbacks >= 1, "detection accrues over rollback replays");
    assert!(sim.health().counters().deaths >= 1, "watchdog must record the death");
    let survivors = sim.telemetry().per_rank.len();
    assert!(survivors < 8, "grid must shrink below 8 ranks, got {survivors}");
    assert_eq!(sim.gather().len(), reference.len(), "no atom may be lost");
    assert_close(&bbox, &reference, &sim.gather(), 1e-6, "crash + re-decomposition");
}

/// A crash with only one rank to lose: the survivor grid is 1×1×1 and the
/// run still finishes (the distributed runtime degrades to serial).
#[test]
fn crash_recovers_onto_single_rank_grid() {
    let (store, bbox) = lj_system();
    let mut clean = DistributedSim::new(store, bbox, IVec3::new(2, 1, 1), lj_ff(), 0.002).unwrap();
    clean.run(6);
    let reference = clean.gather();

    let (store, bbox) = lj_system();
    let cfg = EngineConfig {
        faults: FaultPlan::none().with(Fault {
            step: 2,
            rank: 1,
            channel: None,
            kind: FaultKind::Crash,
        }),
        ..Default::default()
    };
    let mut sim =
        DistributedSim::build(store, bbox, IVec3::new(2, 1, 1), lj_ff(), 0.002, cfg).unwrap();
    supervise(&mut sim, 6);
    assert_eq!(sim.steps_done(), 6);
    assert!(sim.degraded());
    assert_eq!(sim.telemetry().per_rank.len(), 1, "one survivor → serial grid");
    assert_close(&bbox, &reference, &sim.gather(), 1e-7, "shrink to 1×1×1");
}

/// Satellite: a distributed checkpoint restores onto arbitrary topologies.
/// Shrinking to 1×1×1, reshaping, and returning to the original grid all
/// preserve the phase-space point bitwise, and stepping the same
/// checkpoint on two different grids yields identical accepted-tuple
/// counters (the paper's decomposition-independence invariant).
#[test]
fn checkpoint_restores_across_topologies_bitwise() {
    let (_, bbox) = lj_system();
    let mut sim = lj_sim8(FaultPlan::none());
    sim.run(3);
    let cp = Recoverable::checkpoint(&sim);
    assert_eq!(cp.layout, SnapshotLayout::Grid { pdims: [2, 2, 2] });
    cp.require_layout(SnapshotLayout::Grid { pdims: [2, 2, 2] }).unwrap();
    assert!(cp.require_layout(SnapshotLayout::Serial).is_err(), "layout provenance must match");
    sim.run(3);
    let uninterrupted = sim.gather();
    let reference_tuples = sim.telemetry().tuples;

    // Shrink → reshape → original; every hop lands on the same point.
    for pdims in [IVec3::new(1, 1, 1), IVec3::new(1, 2, 2), IVec3::splat(2)] {
        sim.restore_onto(&cp, pdims).unwrap();
        assert_eq!(sim.steps_done(), 3);
        assert_bitwise_eq(&cp.to_store(), &sim.gather(), &format!("restore onto {pdims:?}"));
    }
    sim.run(3);
    assert_close(&bbox, &uninterrupted, &sim.gather(), 1e-7, "round-trip continuation");
    let tuples = sim.telemetry().tuples;
    assert_eq!(tuples.pair.accepted, reference_tuples.pair.accepted);
    assert_eq!(tuples.triplet.accepted, reference_tuples.triplet.accepted);
    assert_eq!(tuples.quadruplet.accepted, reference_tuples.quadruplet.accepted);

    // The same checkpoint stepped once on two different grids accepts
    // exactly the same tuples.
    let mut a = lj_sim8(FaultPlan::none());
    let mut b = lj_sim8(FaultPlan::none());
    a.restore_onto(&cp, IVec3::new(1, 1, 1)).unwrap();
    b.restore_onto(&cp, IVec3::new(2, 2, 1)).unwrap();
    a.run(1);
    b.run(1);
    let (ta, tb) = (a.telemetry().tuples, b.telemetry().tuples);
    assert_eq!(ta.pair.accepted, tb.pair.accepted, "pair acceptance is grid-independent");
    assert_eq!(ta.triplet.accepted, tb.triplet.accepted);
    // Rank-internal force summation order differs between grids, so one
    // step is exact physics but not bitwise (ulp-level divergence).
    assert_close(&bbox, &a.gather(), &b.gather(), 1e-10, "one step from the same checkpoint");
}

/// An infeasible survivor grid aborts with diagnostics instead of looping:
/// 2 ranks on a box whose halved sub-box is below the cutoff cannot shrink
/// (1×1×1 is fine) — but a re-decomposition budget of zero must surface
/// `RankLost` immediately.
#[test]
fn exhausted_redecomposition_budget_aborts_with_diagnostics() {
    let mut sim = lj_sim8(FaultPlan::none().with(Fault {
        step: 2,
        rank: 5,
        channel: None,
        kind: FaultKind::Crash,
    }));
    let mut sup = Supervisor::new(SupervisorConfig {
        checkpoint_every: 2,
        max_rollbacks: 16,
        max_redecompositions: 0,
        ..SupervisorConfig::default()
    });
    let err = sup.run(&mut sim, 6).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("rank 5"), "diagnostics must name the rank: {msg}");
    assert!(msg.contains("budget"), "diagnostics must name the exhausted budget: {msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any (step, rank) crash in an 8-rank LJ run is recovered: the run
    /// finishes on a survivor grid with no atom lost and total momentum
    /// matching the fault-free reference.
    #[test]
    fn random_crash_step_and_rank_recovers(step in 1u64..6, rank in 0usize..8) {
        let mut clean = lj_sim8(FaultPlan::none());
        clean.run(8);
        let reference = clean.gather();

        let mut sim = lj_sim8(FaultPlan::none().with(Fault {
            step,
            rank,
            channel: None,
            kind: FaultKind::Crash,
        }));
        let stats = supervise(&mut sim, 8);
        prop_assert_eq!(sim.steps_done(), 8);
        prop_assert!(sim.degraded(), "crash at step {} rank {} must degrade", step, rank);
        prop_assert_eq!(stats.ranks_lost, 1);
        let out = sim.gather();
        prop_assert_eq!(out.len(), reference.len(), "atom count not conserved");
        let dp = (total_momentum(&out) - total_momentum(&reference)).norm();
        prop_assert!(dp < 1e-9, "momentum drifted by {} (step {}, rank {})", dp, step, rank);
    }
}
