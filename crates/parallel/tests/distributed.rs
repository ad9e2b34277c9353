//! Distributed-vs-serial equivalence: the correctness contract of the
//! parallel runtime. Whatever the rank count or method, the physics must
//! match the serial engine.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::{build_fcc_lattice, build_silica_like, LatticeSpec, Method, Simulation};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, EngineConfig};
use sc_potential::{LennardJones, TorsionToy, Vashishta};

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

fn serial_lj(method: Method) -> Simulation {
    let (store, bbox) = lj_system();
    Simulation::builder(store, bbox)
        .pair_potential(Box::new(LennardJones::reduced(2.5)))
        .method(method)
        .timestep(0.002)
        .build()
        .unwrap()
}

/// Compares per-atom positions/velocities of a gathered store against a
/// serial store (both sorted by id), up to periodic wrapping.
fn assert_stores_match(bbox: &SimulationBox, a: &AtomStore, b: &AtomStore, tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: atom counts differ");
    for i in 0..a.len() {
        assert_eq!(a.ids()[i], b.ids()[i], "{what}: id order differs at {i}");
        let dr = bbox.min_image(a.positions()[i], b.positions()[i]).norm();
        let dv = (a.velocities()[i] - b.velocities()[i]).norm();
        assert!(dr < tol, "{what}: atom {i} position differs by {dr}");
        assert!(dv < tol, "{what}: atom {i} velocity differs by {dv}");
    }
}

fn serial_snapshot(sim: &Simulation) -> AtomStore {
    // The serial engine re-sorts atoms into Morton order as it runs, so the
    // snapshot must be brought back to id order to line up with gather().
    let mut store = sim.store().clone();
    store.sort_by_id();
    store
}

#[test]
fn single_rank_matches_serial_lj() {
    let (store, bbox) = lj_system();
    let mut dist =
        DistributedSim::new(store, bbox, IVec3::splat(1), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    let mut serial = serial_lj(Method::ShiftCollapse);
    let e_d = dist.total_energy();
    let e_s = serial.total_energy();
    assert!((e_d - e_s).abs() < 1e-9 * e_s.abs(), "single-rank energy {e_d} vs serial {e_s}");
    dist.run(5);
    serial.run(5);
    assert_stores_match(&bbox, &dist.gather(), &serial_snapshot(&serial), 1e-8, "1-rank LJ");
}

#[test]
fn eight_ranks_match_serial_all_methods() {
    for method in Method::ALL {
        let (store, bbox) = lj_system();
        let mut dist =
            DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(method), 0.002).unwrap();
        let mut serial = serial_lj(method);
        let e_d = dist.total_energy();
        let e_s = serial.total_energy();
        assert!(
            (e_d - e_s).abs() < 1e-9 * e_s.abs(),
            "{}: energy {e_d} vs serial {e_s}",
            method.name()
        );
        dist.run(5);
        serial.run(5);
        assert_stores_match(&bbox, &dist.gather(), &serial_snapshot(&serial), 1e-7, method.name());
    }
}

#[test]
fn anisotropic_rank_grid_matches_serial() {
    let (store, bbox) = lj_system();
    let mut dist =
        DistributedSim::new(store, bbox, IVec3::new(2, 1, 2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    let mut serial = serial_lj(Method::ShiftCollapse);
    dist.run(4);
    serial.run(4);
    assert_stores_match(&bbox, &dist.gather(), &serial_snapshot(&serial), 1e-7, "2x1x2");
}

#[test]
fn silica_distributed_matches_serial() {
    let v = Vashishta::silica();
    let masses = v.params().masses;
    for method in Method::ALL {
        let (store, bbox) = build_silica_like(4, 7.16, masses, 0.01, 7);
        let ff = ForceField {
            pair: Some(Box::new(v.pair.clone())),
            triplet: Some(Box::new(v.triplet.clone())),
            quadruplet: None,
            method,
        };
        let mut dist =
            DistributedSim::new(store.clone(), bbox, IVec3::splat(2), ff, 0.0005).unwrap();
        let mut serial = Simulation::builder(store, bbox)
            .pair_potential(Box::new(v.pair.clone()))
            .triplet_potential(Box::new(v.triplet.clone()))
            .method(method)
            .timestep(0.0005)
            .build()
            .unwrap();
        let e_d = dist.total_energy();
        let e_s = serial.total_energy();
        assert!(
            (e_d - e_s).abs() < 1e-8 * e_s.abs().max(1.0),
            "{}: silica energy {e_d} vs serial {e_s}",
            method.name()
        );
        // Triplet work is real.
        assert!(dist.telemetry().tuples.triplet.accepted > 0);
        dist.run(3);
        serial.run(3);
        assert_stores_match(
            &bbox,
            &dist.gather(),
            &serial_snapshot(&serial),
            1e-6,
            &format!("silica {}", method.name()),
        );
    }
}

#[test]
fn quadruplet_distributed_matches_serial() {
    let torsion = TorsionToy::new(0.05, 1.0, 0.3);
    for method in Method::ALL {
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.2), 0.02, 13);
        let ff = ForceField {
            pair: Some(Box::new(LennardJones::reduced(1.2))),
            triplet: None,
            quadruplet: Some(Box::new(torsion)),
            method,
        };
        let mut dist =
            DistributedSim::new(store.clone(), bbox, IVec3::splat(2), ff, 0.001).unwrap();
        let mut serial = Simulation::builder(store, bbox)
            .pair_potential(Box::new(LennardJones::reduced(1.2)))
            .quadruplet_potential(Box::new(torsion))
            .method(method)
            .timestep(0.001)
            .build()
            .unwrap();
        let e_d = dist.total_energy();
        let serial_stats = serial.compute_forces();
        let e_s = serial_stats.energy.total() + serial.store().kinetic_energy();
        assert!(
            (e_d - e_s).abs() < 1e-8 * e_s.abs().max(1.0),
            "{}: quad energy {e_d} vs serial {e_s}",
            method.name()
        );
        assert!(dist.telemetry().tuples.quadruplet.accepted > 0, "{}", method.name());
        assert_eq!(
            dist.telemetry().tuples.quadruplet.accepted,
            serial_stats.tuples.quadruplet.accepted,
            "{}: distributed and serial find different quad counts",
            method.name()
        );
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
fn subdivided_distributed_matches_serial() {
    // §6 extension under the distributed runtime: reach-2 patterns on
    // half-size rank-local cells, same physics.
    let v = Vashishta::silica();
    let masses = v.params().masses;
    let (store, bbox) = build_silica_like(4, 7.16, masses, 0.01, 5);
    let ff = ForceField {
        pair: Some(Box::new(v.pair.clone())),
        triplet: Some(Box::new(v.triplet.clone())),
        quadruplet: None,
        method: Method::ShiftCollapse,
    };
    let cfg = EngineConfig { subdivision: 2, ..Default::default() };
    let mut dist =
        DistributedSim::build(store.clone(), bbox, IVec3::splat(2), ff, 0.0005, cfg).unwrap();
    let mut serial = Simulation::builder(store, bbox)
        .pair_potential(Box::new(v.pair.clone()))
        .triplet_potential(Box::new(v.triplet.clone()))
        .method(Method::ShiftCollapse)
        .timestep(0.0005)
        .build()
        .unwrap();
    let e_d = dist.total_energy();
    let e_s = serial.total_energy();
    assert!(
        (e_d - e_s).abs() < 1e-8 * e_s.abs().max(1.0),
        "subdivided distributed energy {e_d} vs serial {e_s}"
    );
    dist.run(3);
    serial.run(3);
    assert_stores_match(&bbox, &dist.gather(), &serial_snapshot(&serial), 1e-6, "subdivided");
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

#[test]
fn single_rank_matches_serial_silica() {
    // 1×1×1 degenerates every exchange to self-sends; the one rank must
    // still reproduce the serial silica trajectory exactly (one rank ⇒
    // identical summation order up to the scratch merge).
    let v = Vashishta::silica();
    let masses = v.params().masses;
    let (store, bbox) = build_silica_like(3, 7.16, masses, 0.01, 7);
    let ff = ForceField {
        pair: Some(Box::new(v.pair.clone())),
        triplet: Some(Box::new(v.triplet.clone())),
        quadruplet: None,
        method: Method::ShiftCollapse,
    };
    let mut sim = DistributedSim::new(store.clone(), bbox, IVec3::splat(1), ff, 0.0005).unwrap();
    sim.run(3);
    let (gathered, t) = (sim.gather(), sim.telemetry());
    let (energy, stats) = (t.energy, t.comm);
    let mut serial = Simulation::builder(store, bbox)
        .pair_potential(Box::new(v.pair.clone()))
        .triplet_potential(Box::new(v.triplet.clone()))
        .method(Method::ShiftCollapse)
        .timestep(0.0005)
        .build()
        .unwrap();
    serial.run(3);
    assert_stores_match(&bbox, &gathered, &serial_snapshot(&serial), 1e-9, "1x1x1");
    let e_s = serial.telemetry().energy.total();
    assert!(
        (energy.total() - e_s).abs() < 1e-9 * e_s.abs().max(1.0),
        "1x1x1 energy {} vs serial {e_s}",
        energy.total()
    );
    // The per-rank phase metrics rode along in the comm stats, and the
    // self-sends were timed as exchanges.
    assert!(stats.phases.bin_s() > 0.0);
    assert!(stats.phases.enumerate_s() > 0.0);
    assert!(stats.phases.reduce_s() > 0.0);
    assert!(t.total_phases.exchange_s() > 0.0, "self-sends are timed as exchanges");
}

#[test]
fn bsp_phase_breakdown_is_recorded() {
    let (store, bbox) = lj_system();
    let mut d =
        DistributedSim::new(store, bbox, IVec3::splat(2), lj_ff(Method::ShiftCollapse), 0.002)
            .unwrap();
    d.run(2);
    let p = d.telemetry().comm.phases;
    assert!(p.bin_s() > 0.0, "ranks timed their binning: {p:?}");
    assert!(p.enumerate_s() > 0.0, "ranks timed their enumeration: {p:?}");
    assert!(p.reduce_s() > 0.0, "ranks timed their scratch merge: {p:?}");
    assert_eq!(p.exchange_s(), 0.0, "BSP exchange time is counted centrally in PhaseTimings");
    // The fine-grained rank view nests inside the coarse compute wall time.
    assert!(d.telemetry().total_phases.compute_s() > 0.0);
    assert_eq!(p, d.comm_stats().phases);
    // Reduce is the ranks' scratch merges *plus* the executor's wall clock
    // around the rank-to-rank force return.
    let reduce = d.telemetry().total_phases.reduce_s();
    assert!(reduce > p.reduce_s(), "force return missing from reduce: {reduce} vs {p:?}");
}

/// `Telemetry::phases` is the most recent step, as its doc says and as the
/// serial engine reports it, while `total_phases` accumulates.
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

/// Serial Hybrid-MD and the BSP Hybrid-MD ranks of `grid` drive the same
/// list walkers (`NeighborList::visit_*` through `sc_md::apply`), one over
/// the periodic lattice and the others over ghost halos: together the ranks
/// accept the same n ≥ 3 tuples and every term's energy agrees. (A rank's
/// list also holds the halo's ghost–ghost pairs, and the triplet walk's
/// candidate count depends on the order of a row's entries, so those
/// counters differ.)
fn assert_rank_hybrid_matches_serial(
    what: &str,
    (store, bbox): (AtomStore, SimulationBox),
    grid: IVec3,
    k: i32,
    hybrid_ff: fn() -> ForceField,
) {
    let cfg = EngineConfig { subdivision: k, ..Default::default() };
    let mut dist =
        DistributedSim::build(store.clone(), bbox, grid, hybrid_ff(), 0.001, cfg).unwrap();
    let ff = hybrid_ff();
    let mut builder = Simulation::builder(store, bbox)
        .pair_potential(ff.pair.expect("hybrid has a pair term"))
        .method(ff.method)
        .cell_subdivision(k)
        .timestep(0.001);
    if let Some(t) = ff.triplet {
        builder = builder.triplet_potential(t);
    }
    if let Some(q) = ff.quadruplet {
        builder = builder.quadruplet_potential(q);
    }
    let serial = builder.build().unwrap().compute_forces();
    dist.total_energy();
    let rank = dist.telemetry();
    let accepted = |t: &sc_md::TupleCounts| (t.triplet.accepted, t.quadruplet.accepted);
    assert_eq!(accepted(&rank.tuples), accepted(&serial.tuples), "{what}: accepted tuples");
    for (term, a, b) in [
        ("pair", rank.energy.pair, serial.energy.pair),
        ("triplet", rank.energy.triplet, serial.energy.triplet),
        ("quadruplet", rank.energy.quadruplet, serial.energy.quadruplet),
    ] {
        assert!(b != 0.0 || a == 0.0, "{what}: {term} energy {a} vs {b}");
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{what}: {term} energy {a} vs {b}");
    }
}

#[test]
fn rank_hybrid_matches_serial_hybrid_term_by_term() {
    let silica_ff = || {
        let v = Vashishta::silica();
        ForceField {
            pair: Some(Box::new(v.pair)),
            triplet: Some(Box::new(v.triplet)),
            quadruplet: None,
            method: Method::Hybrid,
        }
    };
    let silica = || build_silica_like(4, 7.16, Vashishta::silica().params().masses, 0.01, 7);
    let one = IVec3::splat(1);
    assert_rank_hybrid_matches_serial("lj", lj_system(), one, 1, || lj_ff(Method::Hybrid));
    assert_rank_hybrid_matches_serial("silica", silica(), one, 1, silica_ff);
    // Two ranks: each triplet is computed by its vertex's owner, each pair
    // by one end's, out of lists that overlap in the halo.
    assert_rank_hybrid_matches_serial("silica 2×1×1", silica(), IVec3::new(2, 1, 1), 1, silica_ff);
    // Subdivided cells need reach-2 rows under the list build.
    assert_rank_hybrid_matches_serial("silica k = 2", silica(), one, 2, silica_ff);
    let fcc = build_fcc_lattice(&LatticeSpec::cubic(6, 1.2), 0.02, 13);
    assert_rank_hybrid_matches_serial("torsion", fcc, one, 1, || ForceField {
        pair: Some(Box::new(LennardJones::reduced(1.2))),
        triplet: None,
        quadruplet: Some(Box::new(TorsionToy::new(0.05, 1.0, 0.3))),
        method: Method::Hybrid,
    });
}

/// The grids where a rank is its own neighbour along an axis (one rank
/// wide: both bands of an axis, and under FS / Hybrid both images of an
/// atom, come from the rank itself) or meets the same neighbour on both
/// sides (two wide). A force must return through the slot its ghost was
/// forwarded from, whichever other images of the atom the rank holds: every
/// term's energy equals the brute-force reference.
#[test]
fn self_neighbour_grids_match_the_reference_and_each_other() {
    use sc_md::reference::{pair_forces, triplet_forces};

    // Off the perfect lattices, where every force is zero by symmetry.
    let shaken = |(mut store, bbox): (AtomStore, SimulationBox), by: f64| {
        for (i, r) in store.positions_mut().iter_mut().enumerate() {
            let t = i as f64;
            *r += Vec3::new((1.3 * t).sin(), (2.1 * t + 1.0).sin(), (0.7 * t + 2.0).sin()) * by;
        }
        (store, bbox)
    };
    let v = Vashishta::silica();
    let lj = shaken(lj_system(), 0.05);
    let silica = shaken(build_silica_like(4, 7.16, v.params().masses, 0.01, 7), 0.08);
    let lj_pair = pair_forces(&mut lj.0.clone(), &lj.1, &LennardJones::reduced(2.5));
    let mut scratch = silica.0.clone();
    let silica_pair = pair_forces(&mut scratch, &silica.1, &v.pair);
    let silica_triplet = triplet_forces(&mut scratch, &silica.1, &v.triplet);
    let silica_ff = |method| {
        let v = Vashishta::silica();
        ForceField {
            pair: Some(Box::new(v.pair)),
            triplet: Some(Box::new(v.triplet)),
            quadruplet: None,
            method,
        }
    };
    let check = |what: &str,
                 (store, bbox): &(AtomStore, SimulationBox),
                 ff: &dyn Fn() -> ForceField,
                 dt: f64,
                 pdims: IVec3,
                 k: i32,
                 terms: [f64; 2]| {
        let cfg = EngineConfig { subdivision: k, ..Default::default() };
        let mut bsp = DistributedSim::build(store.clone(), *bbox, pdims, ff(), dt, cfg).unwrap();
        bsp.total_energy();
        let e = bsp.telemetry().energy;
        for (term, got, want) in [("pair", e.pair, terms[0]), ("triplet", e.triplet, terms[1])] {
            let tol = 1e-12 * want.abs();
            assert!((got - want).abs() <= tol, "{what}: {term} energy {got} vs reference {want}");
        }
    };
    for pdims in [IVec3::new(1, 1, 2), IVec3::new(2, 1, 1), IVec3::new(2, 2, 1)] {
        for (method, k) in [
            (Method::ShiftCollapse, 1),
            (Method::FullShell, 1),
            (Method::Hybrid, 1),
            (Method::ShiftCollapse, 2),
            (Method::Hybrid, 2),
        ] {
            let what = |system| format!("{system} {} k = {k} on {pdims:?}", method.name());
            check(&what("lj"), &lj, &|| lj_ff(method), 0.002, pdims, k, [lj_pair, 0.0]);
            let terms = [silica_pair, silica_triplet];
            check(&what("silica"), &silica, &|| silica_ff(method), 0.0005, pdims, k, terms);
        }
    }
}
