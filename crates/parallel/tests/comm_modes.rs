//! Contracts of the transport schedule's packing modes: per-neighbor
//! aggregation and compute/communication overlap are bitwise-neutral
//! (identical trajectories across every mode combination and executor),
//! their counters reconcile exactly against the per-channel baseline, and
//! the adaptive rebalance loop re-fits the rank grid without perturbing
//! conservation laws.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::{build_clustered_gas, build_fcc_lattice, build_silica_like, LatticeSpec, Method};
use sc_obs::trace::EventKind;
use sc_obs::{v_omega, CommCounters, Tracer};
use sc_parallel::rank::ForceField;
use sc_parallel::{CommConfig, DistributedSim, EngineConfig, ThreadedSim};
use sc_potential::{LennardJones, Vashishta};

fn lj_system() -> (AtomStore, SimulationBox) {
    build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42)
}

fn lj_ff(method: Method) -> ForceField {
    ForceField {
        pair: Some(Box::new(LennardJones::reduced(2.5))),
        triplet: None,
        quadruplet: None,
        method,
    }
}

fn silica_ff(method: Method) -> ForceField {
    let v = Vashishta::silica();
    ForceField {
        pair: Some(Box::new(v.pair.clone())),
        triplet: Some(Box::new(v.triplet.clone())),
        quadruplet: None,
        method,
    }
}

/// Every aggregation × overlap combination (rebalance off).
fn mode_matrix() -> [CommConfig; 4] {
    let mut out = [CommConfig::default(); 4];
    let mut i = 0;
    for aggregation in [false, true] {
        for overlap in [false, true] {
            out[i] = CommConfig { aggregation, overlap, rebalance_every: 0 };
            i += 1;
        }
    }
    out
}

fn run_bsp(
    system: &(AtomStore, SimulationBox),
    ff: ForceField,
    pdims: IVec3,
    dt: f64,
    steps: usize,
    comm: CommConfig,
) -> (AtomStore, CommCounters) {
    let (store, bbox) = system;
    let cfg = EngineConfig { comm, ..Default::default() };
    let mut d = DistributedSim::build(store.clone(), *bbox, pdims, ff, dt, cfg).unwrap();
    d.run(steps);
    (d.gather(), d.comm_stats())
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

#[test]
fn packing_modes_are_bitwise_identical_all_methods() {
    let system = lj_system();
    for method in Method::ALL {
        let (reference, _) = run_bsp(
            &system,
            lj_ff(method),
            IVec3::splat(2),
            0.002,
            4,
            CommConfig { aggregation: false, overlap: false, rebalance_every: 0 },
        );
        for comm in mode_matrix() {
            let (gathered, _) = run_bsp(&system, lj_ff(method), IVec3::splat(2), 0.002, 4, comm);
            assert_bitwise_eq(&reference, &gathered, &format!("{} {comm:?}", method.name()));
        }
    }
}

#[test]
fn packing_modes_are_bitwise_identical_silica() {
    // Triplet forces exercise the force-return path with non-trivial
    // ghost-force payloads; FS exercises the two-sided halo.
    let v = Vashishta::silica();
    let masses = v.params().masses;
    let system = build_silica_like(4, 7.16, masses, 0.01, 7);
    for method in [Method::ShiftCollapse, Method::FullShell] {
        let (reference, _) = run_bsp(
            &system,
            silica_ff(method),
            IVec3::new(2, 2, 1),
            0.0005,
            3,
            CommConfig { aggregation: false, overlap: false, rebalance_every: 0 },
        );
        for comm in mode_matrix() {
            let (gathered, _) =
                run_bsp(&system, silica_ff(method), IVec3::new(2, 2, 1), 0.0005, 3, comm);
            assert_bitwise_eq(&reference, &gathered, &format!("silica {} {comm:?}", method.name()));
        }
    }
}

/// The counter-equality regression for the aggregation bugfix: framed
/// batch bytes are counted once (section payload bytes, no double count
/// and no framing inflation), so byte/ghost/migration totals reconcile
/// exactly with the per-channel baseline and only the message count drops.
#[test]
fn aggregated_counters_reconcile_with_per_channel_baseline() {
    for method in [Method::ShiftCollapse, Method::FullShell] {
        let run = |aggregation: bool| {
            run_bsp(
                &lj_system(),
                lj_ff(method),
                IVec3::splat(2),
                0.002,
                2,
                CommConfig { aggregation, overlap: false, rebalance_every: 0 },
            )
            .1
        };
        let batched = run(true);
        let per_channel = run(false);
        let what = method.name();
        assert_eq!(batched.bytes, per_channel.bytes, "{what}: wire volume must not change");
        assert_eq!(batched.ghosts_imported, per_channel.ghosts_imported, "{what}");
        assert_eq!(batched.atoms_migrated, per_channel.atoms_migrated, "{what}");
        assert!(
            batched.messages < per_channel.messages,
            "{what}: batching must reduce message count ({} vs {})",
            batched.messages,
            per_channel.messages,
        );
        // On a 2×2×2 grid every rank has exactly one distinct neighbor per
        // axis, so the batched schedule sends one frame per neighbor per
        // phase: 9 phases per step (3 migrate + 3 ghost + 3 force) plus the
        // 6-phase priming exchange at step 0. The per-channel baseline
        // sends one message per channel: SC 12/step, FS 18/step.
        let ranks = 8u64;
        let steps = 2u64;
        assert_eq!(batched.messages, ranks * (9 * steps + 6), "{what}: one frame per neighbor");
        let per_channel_step = match method {
            Method::FullShell => 18,
            _ => 12,
        };
        let prime = per_channel_step - 6; // ghost + force phases only
        assert_eq!(per_channel.messages, ranks * (per_channel_step * steps + prime), "{what}");
    }
}

#[test]
fn threaded_executor_matches_bsp_across_modes() {
    let (store, bbox) = lj_system();
    for comm in mode_matrix() {
        let (reference, bsp_stats) = run_bsp(
            &(store.clone(), bbox),
            lj_ff(Method::ShiftCollapse),
            IVec3::new(2, 1, 1),
            0.002,
            3,
            comm,
        );
        let mut t = ThreadedSim::build(
            store.clone(),
            bbox,
            IVec3::new(2, 1, 1),
            lj_ff(Method::ShiftCollapse),
            0.002,
            EngineConfig { comm, ..Default::default() },
        )
        .unwrap();
        t.run(3);
        let stats = t.comm_stats();
        assert_bitwise_eq(&reference, &t.gather(), &format!("threaded {comm:?}"));
        // Same schedule ⇒ same counters, not just same physics.
        assert_eq!(stats.messages, bsp_stats.messages, "{comm:?}");
        assert_eq!(stats.bytes, bsp_stats.bytes, "{comm:?}");
        assert_eq!(stats.ghosts_imported, bsp_stats.ghosts_imported, "{comm:?}");
    }
}

#[test]
fn rebalance_refits_the_grid_on_clustered_load() {
    let system = build_clustered_gas(3000, 24.0, 2, 2.0, 9);
    let (store, bbox) = &system;
    let tracer = Tracer::new();
    let mut d = DistributedSim::build(
        store.clone(),
        *bbox,
        IVec3::new(2, 2, 2),
        lj_ff(Method::ShiftCollapse),
        0.002,
        EngineConfig {
            tracer: tracer.clone(),
            comm: CommConfig { rebalance_every: 2, ..CommConfig::default() },
            ..Default::default()
        },
    )
    .unwrap();
    d.run(6);
    assert_eq!(d.gather().len(), store.len(), "rebalance must conserve atoms");
    let redecompositions = tracer
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Redecompose { lost: false, .. }))
        .count();
    assert!(redecompositions >= 1, "the cadence must trigger at least one re-fit");
    let cuts = d.grid().cuts().expect("a rebalanced grid carries explicit cuts");
    let uneven = cuts.iter().flat_map(|axis| axis.iter()).any(|&w| {
        // with_splits normalizes to fractional widths; a clustered gas
        // cannot stay perfectly uniform.
        (w - 0.5).abs() > 1e-9
    });
    assert!(uneven, "clustered density must move at least one cut: {cuts:?}");
    // Counters survive the re-decomposition monotonically (the carried
    // fold): a fresh 2-step run can't have more traffic than 6 steps with
    // re-fits in between.
    let stats = d.comm_stats();
    assert!(stats.messages > 0 && stats.bytes > 0);
    assert!(d.telemetry().comm.messages == stats.messages);
}

#[test]
fn imbalance_report_cross_checks_measured_imports_against_eq33() {
    // Eq. 33: Vω = (l + n − 1)³ − l³ cells of import volume per rank. The
    // measured ghost count divided by the mean atoms-per-cell density must
    // land within a small factor of the prediction (boundary effects and
    // the non-cubic sub-box make it inexact, but the order must match).
    let system = lj_system();
    let (store, bbox) = &system;
    let mut d = DistributedSim::new(
        store.clone(),
        *bbox,
        IVec3::splat(2),
        lj_ff(Method::ShiftCollapse),
        0.002,
    )
    .unwrap();
    d.run(2);
    let report = d.imbalance_report();
    let predicted_cells =
        report.predicted_import_cells.expect("the BSP executor knows its sub-box geometry");
    // Per-axis cells per rank: sub-box edge / cutoff.
    let l = (bbox.lengths().x / 2.0 / 2.5).floor();
    assert_eq!(predicted_cells, v_omega(l, 2), "pair interactions predict n = 2");
    let atoms_per_cell = store.len() as f64 / 8.0 / l.powi(3);
    let predicted_ghosts = predicted_cells * atoms_per_cell;
    // Ghosts per rank per exchange: 2 steps + priming = 3 exchanges.
    let per_exchange =
        report.per_rank.iter().map(|r| r.ghosts_imported).sum::<u64>() as f64 / 8.0 / 3.0;
    let ratio = per_exchange / predicted_ghosts;
    assert!(
        (0.25..4.0).contains(&ratio),
        "measured {per_exchange:.0} ghosts/exchange vs Eq. 33 prediction {predicted_ghosts:.0} \
         (ratio {ratio:.2})"
    );
}
