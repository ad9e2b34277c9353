//! Checkpoint/rollback contract for a serial run (the one engine on a
//! 1×1×1 grid): a restored run must continue the trajectory
//! bitwise-identically to one that was never interrupted, the supervisor
//! must recover injected physics-invariant violations from the last
//! snapshot, and inputs no grid can run are refused as typed errors.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::checkpoint::{Checkpoint, CheckpointError};
use sc_md::supervisor::{Supervisor, SupervisorConfig};
use sc_md::{build_fcc_lattice, BuildError, ForceField, LatticeSpec, Method};
use sc_parallel::{DistributedSim, SetupError};
use sc_potential::LennardJones;

fn lj(method: Method) -> ForceField {
    let pair = Some(Box::new(LennardJones::reduced(2.5)) as _);
    ForceField { pair, triplet: None, quadruplet: None, method }
}

fn serial(store: AtomStore, bbox: SimulationBox, dt: f64) -> Result<DistributedSim, SetupError> {
    DistributedSim::new(store, bbox, IVec3::splat(1), lj(Method::ShiftCollapse), dt)
}

fn mk_sim() -> DistributedSim {
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, 1.5599), 0.1, 42);
    serial(store, bbox, 0.002).unwrap()
}

/// Replaces the engine's state with `edit` applied to its own snapshot.
fn tamper(sim: &mut DistributedSim, edit: impl FnOnce(&mut Checkpoint)) {
    let mut cp = sim.checkpoint();
    edit(&mut cp);
    sim.restore(&cp);
}

fn state_bits(sim: &DistributedSim) -> Vec<[u64; 6]> {
    let s = sim.gather();
    (0..s.len())
        .map(|i| {
            let r = s.positions()[i];
            let v = s.velocities()[i];
            [
                r.x.to_bits(),
                r.y.to_bits(),
                r.z.to_bits(),
                v.x.to_bits(),
                v.y.to_bits(),
                v.z.to_bits(),
            ]
        })
        .collect()
}

/// Save, wreck the live state, restore (through a disk round-trip), and
/// continue: the trajectory must be bitwise identical to an uninterrupted
/// run of the same length.
#[test]
fn restore_continues_bitwise_identically() {
    let mut reference = mk_sim();
    reference.run(10);
    let expected = state_bits(&reference);

    let mut sim = mk_sim();
    sim.run(5);
    let cp = sim.checkpoint();
    assert_eq!(cp.step, 5);

    // Round-trip the snapshot through disk before trusting it.
    let path = std::env::temp_dir().join(format!("sc-ckpt-test-{}.sc", std::process::id()));
    cp.save(&path).unwrap();
    let loaded = sc_md::Checkpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Wreck the live state: the restore must not depend on anything left
    // behind.
    tamper(&mut sim, |cp| {
        cp.positions.iter_mut().for_each(|r| *r = Vec3::new(0.5, 3.0, 7.0));
        cp.velocities.iter_mut().for_each(|v| *v = Vec3::new(9.9, -1e3, 0.0));
    });

    sim.restore(&loaded);
    assert_eq!(sim.steps_done(), 5);
    sim.run(5);
    assert_eq!(state_bits(&sim), expected, "restored trajectory diverged bitwise");
}

/// The supervisor detects a non-finite state mid-run, rolls back to its
/// last checkpoint, and finishes the requested number of steps.
#[test]
fn supervisor_recovers_injected_blowup() {
    let mut reference = mk_sim();
    reference.run(8);
    let expected = state_bits(&reference);

    let mut sim = mk_sim();
    let mut sup =
        Supervisor::new(SupervisorConfig { checkpoint_every: 2, ..SupervisorConfig::default() });
    sup.run(&mut sim, 4).unwrap();
    // Inject a blowup: one atom's velocity goes non-finite.
    tamper(&mut sim, |cp| cp.velocities[0] = Vec3::new(f64::NAN, 0.0, 0.0));
    sup.run(&mut sim, 4).unwrap();
    assert_eq!(sim.steps_done(), 8);
    assert!(sup.stats().rollbacks >= 1, "the injected NaN must trigger a rollback");
    assert!(sup.stats().invariant_violations >= 1);
    // Rollback replays from the last snapshot of the same trajectory, so
    // the recovered run still matches the clean one bitwise.
    assert_eq!(state_bits(&sim), expected, "recovered trajectory diverged");
}

#[test]
fn builder_rejects_degenerate_timestep_and_atoms() {
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, 1.5599), 0.1, 1);
    let build = |store, dt| serial(store, bbox, dt).map(|_| ());
    for dt in [0.0, -0.001, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(
                build(store.clone(), dt),
                Err(SetupError::Build(BuildError::Config { field: "timestep", .. }))
            ),
            "dt {dt} must be rejected"
        );
    }
    let mut bad = store.clone();
    bad.positions_mut()[3].y = f64::NAN;
    assert_eq!(
        build(bad, 0.001),
        Err(SetupError::Build(BuildError::NonFiniteAtom { index: 3, what: "position" }))
    );
    let mut bad = store;
    bad.velocities_mut()[5].z = f64::INFINITY;
    assert_eq!(
        build(bad, 0.001),
        Err(SetupError::Build(BuildError::NonFiniteAtom { index: 5, what: "velocity" }))
    );
}

/// `save` must replace the previous snapshot atomically: a reader polling
/// the path while a writer overwrites it in a loop never sees a torn or
/// empty file (the window a SIGKILL mid-save used to leave behind), and no
/// temp file outlives the save.
#[test]
fn concurrent_load_never_observes_a_torn_save() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = std::env::temp_dir().join(format!("sc-ckpt-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.bin");
    let mut sim = mk_sim();
    let first = sim.checkpoint();
    first.save(&path).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut loads = 0u32;
            // Keep polling until the writer is done, and at least once after.
            loop {
                let finished = done.load(Ordering::SeqCst);
                let cp = sc_md::Checkpoint::load(&path)
                    .unwrap_or_else(|e| panic!("load {loads} observed a torn checkpoint: {e}"));
                assert_eq!(cp.ids.len(), first.ids.len());
                loads += 1;
                if finished {
                    return loads;
                }
            }
        });
        for _ in 0..200 {
            sim.run(1);
            sim.checkpoint().save(&path).unwrap();
        }
        done.store(true, Ordering::SeqCst);
        assert!(reader.join().unwrap() > 0);
    });

    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, [std::ffi::OsString::from("checkpoint.bin")], "temp file left behind");
    std::fs::remove_dir_all(&dir).ok();
}

/// A damaged snapshot decodes to a typed error and never panics or
/// allocates what the buffer cannot hold: every truncation, every
/// single-bit flip, and atom or species counts too large for the bytes
/// that follow them, resealed with a valid checksum (FNV-1a is no MAC, so
/// a hand-edited file passes it).
#[test]
fn damaged_snapshots_decode_to_typed_errors() {
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(1, 1.5599), 0.1, 42);
    let cp = Checkpoint::from_store(3, 0.002, &bbox, &store).with_label("job-1");
    let bytes = cp.to_bytes();
    let refused = |bytes: &[u8], what: &str| {
        let decoded = std::panic::catch_unwind(|| Checkpoint::from_bytes(bytes));
        match decoded {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("{what}: decoded"),
            Err(_) => panic!("{what}: panicked"),
        }
    };
    for len in 0..bytes.len() {
        refused(&bytes[..len], &format!("truncated to {len} bytes"));
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        refused(&flipped, &format!("bit {bit} flipped"));
    }
    // The atom count sits before the atoms (81 bytes each) and the
    // checksum; the species count before the masses and the atom count.
    let n_at = bytes.len() - 8 - 81 * cp.len() - 8;
    let species_at = n_at - 8 * cp.species_masses.len() - 4;
    let fnv1a = |bytes: &[u8]| {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    };
    let resealed = |at: usize, count: &[u8]| {
        let mut out = bytes[..bytes.len() - 8].to_vec();
        out[at..at + count.len()].copy_from_slice(count);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    };
    assert!(Checkpoint::from_bytes(&resealed(n_at, &(cp.len() as u64).to_le_bytes())).is_ok());
    for n in [1u64 << 40, 1 << 61, u64::MAX] {
        let bad = resealed(n_at, &n.to_le_bytes());
        assert!(
            matches!(Checkpoint::from_bytes(&bad), Err(CheckpointError::Truncated)),
            "{n} atoms"
        );
    }
    for n in [1u32 << 30, u32::MAX] {
        let bad = resealed(species_at, &n.to_le_bytes());
        assert!(
            matches!(Checkpoint::from_bytes(&bad), Err(CheckpointError::Truncated)),
            "{n} species"
        );
    }
}
