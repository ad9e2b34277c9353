//! The distributed runtime's own contract beyond parity (which
//! `tests/parity.rs` sweeps against the brute-force oracle and the serial
//! engine): import volume and routing, migration, NVE drift, setup
//! refusals, and the telemetry, trace and metrics it reports.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::{build_fcc_lattice, LatticeSpec, Method};
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

#[test]
fn sc_imports_less_than_fs() {
    // The import-volume advantage (Eq. 33 vs the two-sided FS halo),
    // observed as actual ghost traffic.
    let run = |method: Method| {
        let (store, bbox) = lj_system();
        let mut d =
            DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(method), 0.002).unwrap();
        d.run(2);
        d.comm_stats()
    };
    let sc = run(Method::ShiftCollapse);
    let fs = run(Method::FullShell);
    assert!(
        sc.ghosts_imported < fs.ghosts_imported,
        "SC imported {} ghosts, FS {}",
        sc.ghosts_imported,
        fs.ghosts_imported
    );
    // With per-neighbor aggregation both methods send one frame per
    // neighbor per phase, so message counts match — the savings show up
    // as wire volume (SC's one-sided halo vs FS's two-sided shell).
    assert!(sc.bytes < fs.bytes, "SC sent {} bytes, FS {}", sc.bytes, fs.bytes);
}

#[test]
fn sc_rank_talks_only_to_face_neighbors() {
    let (store, bbox) = lj_system();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    d.run(2);
    // Forwarded routing: every rank's direct partners are face neighbours
    // only (≤ 6 distinct ranks), even though 7 neighbours' data arrives.
    for (r, stats) in d.telemetry().per_rank.iter().enumerate() {
        assert!(stats.partners.len() <= 6, "rank {r} has {} direct partners", stats.partners.len());
    }
}

#[test]
fn atom_count_conserved_under_migration() {
    // Hot gas: lots of migration.
    let (mut store, bbox) = lj_system();
    for v in store.velocities_mut() {
        *v = *v * 20.0 + Vec3::new(5.0, -3.0, 2.0);
    }
    let n0 = store.len();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.001)
            .unwrap();
    d.run(10);
    let g = d.gather();
    assert_eq!(g.len(), n0);
    let stats = d.comm_stats();
    assert!(stats.atoms_migrated > 0, "hot gas should migrate atoms");
    // Gathered ids are exactly 0..n0.
    for (i, &id) in g.ids().iter().enumerate() {
        assert_eq!(id, i as u64);
    }
}

#[test]
fn distributed_nve_conserves_energy() {
    let (store, bbox) = lj_system();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    let e0 = d.total_energy();
    d.run(30);
    let e1 = d.total_energy();
    assert!(((e1 - e0) / e0.abs()).abs() < 1e-3, "distributed NVE drift: {e0} → {e1}");
}

#[test]
fn timings_and_load_are_reported() {
    let (store, bbox) = lj_system();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    d.run(3);
    let t = d.telemetry().total_phases;
    assert!(t.total_s() > 0.0);
    assert!(t.compute_s() > 0.0, "compute must dominate in-process: {t:?}");
    assert!((0.0..=1.0).contains(&t.comm_fraction()));
    // A uniform FCC crystal decomposes almost perfectly: max(owned) /
    // mean(owned) across ranks stays near 1.
    let mut owned = [0usize; 8];
    for &r in d.gather().positions() {
        owned[d.grid().owner_of(r)] += 1;
    }
    let imb = *owned.iter().max().unwrap() as f64 / (owned.iter().sum::<usize>() as f64 / 8.0);
    assert!((1.0..1.2).contains(&imb), "imbalance {imb}");
}

#[test]
fn too_many_ranks_rejected() {
    let (store, bbox) = lj_system(); // box ≈ 10.9, rcut 2.5
    let err =
        DistributedSim::new(store, bbox, IVec3::splat(5), lj_ff(Method::ShiftCollapse), 0.002);
    assert!(err.is_err(), "sub-box 2.18 < cutoff 2.5 should be rejected");
}

/// The ranks time their own bin / enumerate / reduce, and the executor the
/// exchanges — on one rank too, whose exchanges are all self-sends.
#[test]
fn bsp_phase_breakdown_is_recorded() {
    for pdims in [IVec3::splat(2), IVec3::splat(1)] {
        let (store, bbox) = lj_system();
        let ff = lj_ff(Method::ShiftCollapse);
        let mut d = DistributedSim::new(store, bbox, pdims, ff, 0.002).unwrap();
        d.run(2);
        let p = d.telemetry().comm.phases;
        assert!(p.bin_s() > 0.0, "{pdims}: ranks timed their binning: {p:?}");
        assert!(p.enumerate_s() > 0.0, "{pdims}: ranks timed their enumeration: {p:?}");
        assert!(p.reduce_s() > 0.0, "{pdims}: ranks timed their scratch merge: {p:?}");
        assert_eq!(p.exchange_s(), 0.0, "BSP exchange time is counted centrally in PhaseTimings");
        assert!(d.telemetry().total_phases.exchange_s() > 0.0, "{pdims}: exchanges are timed");
        // The fine-grained rank view nests inside the coarse compute wall time.
        assert!(d.telemetry().total_phases.compute_s() > 0.0);
        assert_eq!(p, d.comm_stats().phases);
        // Reduce is the ranks' scratch merges *plus* the executor's wall
        // clock around the rank-to-rank force return.
        let reduce = d.telemetry().total_phases.reduce_s();
        assert!(reduce > p.reduce_s(), "force return missing from reduce: {reduce} vs {p:?}");
    }
}

/// `Telemetry::phases` is the most recent step, as its doc says, while
/// `total_phases` accumulates.
#[test]
fn telemetry_phases_report_the_last_step() {
    use sc_obs::Phase;

    let (store, bbox) = lj_system();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    d.run(1);
    let first = d.telemetry().total_phases;
    d.run(1);
    let t = d.telemetry();
    for (phase, secs) in t.phases.iter() {
        let last = t.total_phases.get(phase) - first.get(phase);
        assert!((secs - last).abs() <= 1e-12, "{}: {secs} vs {last}", phase.name());
    }
    let integrate = (t.phases.integrate_s(), t.total_phases.integrate_s());
    assert!(integrate.0 > 0.0 && integrate.0 < integrate.1, "integrate {integrate:?}");
    assert!(t.phases.get(Phase::Exchange) > 0.0);
}

#[test]
fn telemetry_snapshot_carries_every_section() {
    use sc_obs::Phase;
    use sc_parallel::{Fault, FaultKind, FaultPlan};

    let (store, bbox) = lj_system();
    let cfg = EngineConfig {
        faults: FaultPlan::none().with(Fault {
            step: 1,
            rank: 1,
            channel: None,
            kind: FaultKind::Drop,
        }),
        ..Default::default()
    };
    let ff = lj_ff(Method::ShiftCollapse);
    let mut d = DistributedSim::build(store, bbox, IVec3::splat(2), ff, 0.002, cfg).unwrap();
    for _ in 0..3 {
        d.try_step().unwrap();
    }

    let t = d.telemetry();
    assert_eq!(t.step, 3);
    assert!(t.energy.total() != 0.0);
    // Per-phase timings: per-rank CPU phases and executor wall phases.
    for phase in [Phase::Bin, Phase::Enumerate, Phase::Reduce, Phase::Exchange, Phase::Compute] {
        assert!(t.phases.get(phase) > 0.0, "missing {} timing: {:?}", phase.name(), t.phases);
    }
    // Per-rank communication counters.
    assert_eq!(t.per_rank.len(), 8);
    assert!(t.per_rank.iter().all(|r| r.bytes > 0 && r.messages > 0));
    // The injected drop left its trace in the aggregate fault counters.
    assert!(t.comm.retries > 0, "the injected drop recovers via retry");
    assert!(t.comm.faults_detected > 0);
    assert!(t.alloc_events > 0, "rank scratch growth is accounted");

    // The JSON line round-trips and the per-rank section is intact.
    let v = sc_obs::json::Json::parse(&t.to_json()).unwrap();
    assert_eq!(v.get("step").unwrap().as_f64(), Some(3.0));
    assert_eq!(v.get("per_rank").unwrap().as_array().unwrap().len(), 8);
    assert!(v.get("comm").unwrap().get("retries").unwrap().as_f64().unwrap() > 0.0);
}

/// The ranks' force scratch is accounted like the serial lanes': sized by
/// the first step, then flat in the steady state (a perfect crystal at rest
/// keeps every rank's atom and ghost counts).
#[test]
fn rank_scratch_growth_is_counted_and_then_flat() {
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.0, 42);
    let ff = lj_ff(Method::ShiftCollapse);
    let mut d = DistributedSim::new(store, bbox, IVec3::splat(2), ff, 0.002).unwrap();
    d.step();
    let warm = d.telemetry().alloc_events;
    assert!(warm > 0, "the first step sized every rank's scratch");
    d.run(20);
    assert_eq!(d.telemetry().alloc_events, warm, "steady-state steps grow no scratch");
}

#[test]
fn bsp_trace_events_agree_with_comm_counters() {
    use sc_obs::{EventKind, Tracer};

    let (store, bbox) = lj_system();
    let tracer = Tracer::new();
    let cfg = EngineConfig { tracer: tracer.clone(), ..Default::default() };
    let ff = lj_ff(Method::ShiftCollapse);
    let mut d = DistributedSim::build(store, bbox, IVec3::splat(2), ff, 0.002, cfg).unwrap();
    d.run(2);
    assert_eq!(tracer.dropped(), 0, "the default ring holds a short run without wrapping");

    let events = tracer.events();
    let nranks = 8u32;
    // Every send the stats counted is on the timeline, rank by rank, with
    // matching byte totals — and every send has a matching receive.
    for (r, stats) in d.telemetry().per_rank.iter().enumerate() {
        let sends: Vec<_> = events
            .iter()
            .filter(|e| e.rank == r as u32 && matches!(e.kind, EventKind::Send { .. }))
            .collect();
        assert_eq!(sends.len() as u64, stats.messages, "rank {r} send count");
        let bytes: u64 = sends
            .iter()
            .map(|e| match e.kind {
                EventKind::Send { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(bytes, stats.bytes, "rank {r} send bytes");
        let recvs = events
            .iter()
            .filter(|e| e.rank == r as u32 && matches!(e.kind, EventKind::Recv { .. }))
            .count();
        assert!(recvs > 0, "rank {r} received something");
        // Each rank's row carries its fine-grained compute phases.
        assert!(
            events.iter().any(|e| e.rank == r as u32
                && matches!(e.kind, EventKind::Phase(p) if p == sc_obs::Phase::Bin)),
            "rank {r} binning interval traced"
        );
    }
    // The executor's synchronous wall phases land on the synthetic
    // rank-`nranks` row.
    for phase in [
        sc_obs::Phase::Exchange,
        sc_obs::Phase::Compute,
        sc_obs::Phase::Reduce,
        sc_obs::Phase::Integrate,
        sc_obs::Phase::Migrate,
    ] {
        assert!(
            events.iter().any(|e| e.rank == nranks && e.kind == EventKind::Phase(phase)),
            "executor row traced {}",
            phase.name()
        );
    }
}

/// The `threaded` executor spelling builds this engine; its telemetry, fed
/// step by step into a metrics registry, reports the aggregated totals and
/// the ranks' own phases.
#[test]
fn threaded_run_with_metrics_reports_totals() {
    use sc_md::MetricsFeed;
    use sc_obs::{Phase, Registry};
    let reg = Registry::new();
    let mut feed = MetricsFeed::new(reg.clone());
    let (store, bbox) = lj_system();
    let ff = lj_ff(Method::ShiftCollapse);
    let mut sim = DistributedSim::new(store, bbox, IVec3::splat(2), ff, 0.002).unwrap();
    for _ in 0..3 {
        sim.step();
        feed.step(&sim.telemetry());
    }
    let stats = sim.comm_stats();
    assert_eq!(reg.counter("sim.steps").get(), 3);
    assert_eq!(reg.counter("comm.messages").get(), stats.messages);
    assert_eq!(reg.counter("comm.bytes").get(), stats.bytes);
    assert_eq!(reg.counter("comm.ghosts_imported").get(), stats.ghosts_imported);
    assert_eq!(reg.histogram("comm.step_bytes", &[]).count(), 3);
    assert!(reg.counter("tuples.pair.accepted").get() > 0, "tuple counts are reported");
    assert!(reg.phase_s(Phase::Exchange) > 0.0, "exchange wall time is reported");
    assert!(reg.phase_s(Phase::Bin) > 0.0);
}

#[test]
fn imbalance_report_is_consistent_with_aggregated_comm_counters() {
    let (store, bbox) = lj_system();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    d.run(3);
    let t = d.telemetry();
    let report = t.imbalance().expect("multi-rank telemetry carries the imbalance report");
    assert_eq!(report.per_rank.len(), 8);
    // Per-rank comm seconds are exactly the comm slots of that rank's
    // phase breakdown, so the comm-wait fractions are consistent with the
    // aggregated comm.* counters the registry sees.
    let mut ghosts = 0;
    for (load, counters) in report.per_rank.iter().zip(&t.per_rank) {
        let comm_s =
            counters.phases.exchange_s() + counters.phases.migrate_s() + counters.phases.reduce_s();
        assert!((load.comm_s - comm_s).abs() < 1e-12, "rank {} comm seconds", load.rank);
        assert_eq!(load.ghosts_imported, counters.ghosts_imported);
        ghosts += load.ghosts_imported;
    }
    assert_eq!(ghosts, t.comm.ghosts_imported, "imbalance ghosts sum to the aggregate counter");
    assert!(report.compute_imbalance() >= 1.0);
    assert!((0.0..=1.0).contains(&report.comm_wait_fraction()));
}

/// Each rank's imbalance record carries the tuples it accepted in the most
/// recent force computation, so on every method the records sum to the
/// snapshot's accepted total: every tuple is computed by exactly one rank.
#[test]
fn imbalance_tuples_sum_to_the_accepted_total() {
    for method in Method::ALL {
        let (store, bbox) = lj_system();
        let mut d =
            DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(method), 0.002).unwrap();
        d.run(2);
        let t = d.telemetry();
        let report = t.imbalance().expect("multi-rank telemetry carries the imbalance report");
        let per_rank: Vec<u64> = report.per_rank.iter().map(|l| l.tuples).collect();
        assert!(per_rank.iter().all(|&n| n > 0), "{}: {per_rank:?}", method.name());
        assert_eq!(per_rank.iter().sum::<u64>(), t.tuples.total_accepted(), "{}", method.name());
    }
}

/// An observed run of the `threaded` spelling's engine: the traced sends
/// add up to the aggregated counters, every rank's row receives, the
/// lockstep exchange interval sits on the executor's row, and the merged
/// timeline is in order.
#[test]
fn threaded_run_observed_traces_every_rank() {
    use sc_obs::{EventKind, Tracer};

    let tracer = Tracer::new();
    let (store, bbox) = lj_system();
    let cfg = EngineConfig { tracer: tracer.clone(), ..Default::default() };
    let ff = lj_ff(Method::ShiftCollapse);
    let mut sim = DistributedSim::build(store, bbox, IVec3::splat(2), ff, 0.002, cfg).unwrap();
    sim.run(2);
    let stats = sim.comm_stats();

    let events = tracer.events();
    let send_bytes: u64 = events
        .iter()
        .map(|e| match e.kind {
            EventKind::Send { bytes, .. } => bytes,
            _ => 0,
        })
        .sum();
    assert_eq!(send_bytes, stats.bytes, "traced send bytes equal the aggregated counters");
    let sends = events.iter().filter(|e| matches!(e.kind, EventKind::Send { .. })).count();
    assert_eq!(sends as u64, stats.messages);
    let nranks = 8u32;
    assert!(
        events
            .iter()
            .any(|e| e.rank == nranks && e.kind == EventKind::Phase(sc_obs::Phase::Exchange)),
        "exchange interval traced on the executor row"
    );
    for r in 0..nranks {
        assert!(
            events.iter().any(|e| e.rank == r && matches!(e.kind, EventKind::Recv { .. })),
            "rank {r} receives traced"
        );
    }
    // Merged ordering: sorted by (step, rank, t_ns, lane), the executor row
    // and the pool lanes' compute rows included.
    let keys: Vec<_> = events.iter().map(|e| (e.step, e.rank, e.t_ns, e.lane)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}
