//! Contracts of the exchange schedule: one frame per neighbor per phase
//! with counters pinned to the values recorded when the per-channel schedule
//! was deleted, and the adaptive rebalance loop re-fitting the rank grid
//! without perturbing conservation laws.

use sc_cell::AtomStore;
use sc_core::{import_volume_cubic, shift_collapse};
use sc_geom::{IVec3, SimulationBox};
use sc_md::{build_clustered_gas, build_fcc_lattice, LatticeSpec, Method};
use sc_obs::trace::EventKind;
use sc_obs::{CommCounters, Tracer};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, EngineConfig};
use sc_potential::LennardJones;

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

fn run_bsp(method: Method, pdims: IVec3, steps: usize) -> CommCounters {
    let (store, bbox) = lj_system();
    let mut d = DistributedSim::new(store, bbox, pdims, lj_ff(method), 0.002).unwrap();
    d.run(steps);
    d.comm_stats()
}

/// A frame counts its sections' payload bytes once — no double count, no
/// framing inflation — so bytes, ghosts and migrations equal what one
/// message per channel (SC 12, FS 18 per rank-step) moves; only the message
/// count is lower. The totals were recorded at c30cf48, the last commit that
/// could run both schedules and assert them equal.
#[test]
fn aggregated_counters_reconcile_with_per_channel_baseline() {
    for (method, bytes, ghosts) in
        [(Method::ShiftCollapse, 701_637, 10_548), (Method::FullShell, 1_888_797, 28_812)]
    {
        let stats = run_bsp(method, IVec3::splat(2), 2);
        let what = method.name();
        assert_eq!(stats.bytes, bytes, "{what}: wire volume");
        assert_eq!(stats.ghosts_imported, ghosts, "{what}");
        assert_eq!(stats.atoms_migrated, 281, "{what}");
        // On a 2×2×2 grid every rank has exactly one distinct neighbor per
        // axis, so every method sends one frame per neighbor per phase: 9
        // phases per step (3 migrate + 3 ghost + 3 force) plus the 6-phase
        // priming exchange at step 0. (Per channel it was 240 / 384.)
        let (ranks, steps) = (8u64, 2u64);
        assert_eq!(stats.messages, ranks * (9 * steps + 6), "{what}: one frame per neighbor");
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
        EngineConfig { tracer: tracer.clone(), rebalance_every: 2, ..Default::default() },
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
    let report = d.telemetry().imbalance().expect("a multi-rank run reports its imbalance");
    // Per-axis cells per rank: sub-box edge / cutoff; pair interactions
    // import the n = 2 shift-collapse volume.
    let l = (bbox.lengths().x / 2.0 / 2.5).floor();
    let predicted_cells = import_volume_cubic(l as u32, &shift_collapse(2)) as f64;
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
