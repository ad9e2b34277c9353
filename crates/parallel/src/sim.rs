//! Whole runs on an engine built as one rank (a 1×1×1 grid, the
//! `serial` executor): its input refusals, physics, lane splitting,
//! allocation and telemetry.

#[cfg(test)]
mod tests {
    use crate::rank::ForceField;
    use crate::{DistributedSim, EngineConfig, SetupError};
    use sc_cell::AtomStore;
    use sc_geom::{IVec3, SimulationBox};
    use sc_md::supervisor::Recoverable;
    use sc_md::ThreadPool;
    use sc_md::{
        build_fcc_lattice, build_silica_like, random_gas, BuildError, LatticeSpec, Method,
    };
    use sc_obs::{EventKind, Phase, Registry, Tracer};
    use sc_potential::{LennardJones, StillingerWeber, TorsionToy, Vashishta};

    /// A serial run: the one engine on a 1×1×1 grid.
    fn serial(
        (store, bbox): (AtomStore, SimulationBox),
        ff: ForceField,
        dt: f64,
        cfg: EngineConfig,
    ) -> Result<DistributedSim, SetupError> {
        DistributedSim::build(store, bbox, IVec3::splat(1), ff, dt, cfg)
    }

    fn ff(method: Method, pair: f64) -> ForceField {
        let pair = Some(Box::new(LennardJones::reduced(pair)) as _);
        ForceField { pair, triplet: None, quadruplet: None, method }
    }

    fn silica_ff(method: Method) -> ForceField {
        let v = Vashishta::silica();
        let (pair, triplet) = (Some(Box::new(v.pair) as _), Some(Box::new(v.triplet) as _));
        ForceField { pair, triplet, quadruplet: None, method }
    }

    fn silica(noise: f64) -> (AtomStore, SimulationBox) {
        build_silica_like(3, 7.16, Vashishta::silica().params().masses, noise, 7)
    }

    /// The 648-atom silica system on `lanes` force lanes.
    fn silica_sim(method: Method, lanes: usize) -> DistributedSim {
        let cfg = EngineConfig { lanes, ..EngineConfig::default() };
        serial(silica(0.01), silica_ff(method), 0.0005, cfg).unwrap()
    }

    fn lj_sim(method: Method) -> DistributedSim {
        let system = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
        serial(system, ff(method, 2.5), 0.002, EngineConfig::default()).unwrap()
    }

    /// Forces from the current positions, and the telemetry they leave.
    fn forces(sim: &mut DistributedSim) -> sc_md::Telemetry {
        sim.total_energy();
        sim.telemetry()
    }

    fn refusal(built: Result<DistributedSim, SetupError>) -> SetupError {
        built.err().expect("the inputs must be refused")
    }

    #[test]
    fn builder_rejects_empty_potentials() {
        let ff = ForceField { pair: None, triplet: None, quadruplet: None, method: Method::Hybrid };
        let refused = refusal(serial(random_gas(10, 8.0, 1), ff, 0.001, EngineConfig::default()));
        assert_eq!(refused, SetupError::Build(BuildError::NoTerms));
    }

    /// A Hybrid run without a pair term has no list to prune its tuples
    /// from: refused at build, never a panic mid-step.
    #[test]
    fn hybrid_requires_pair_term() {
        let (store, bbox) = silica(0.01);
        for pdims in [IVec3::splat(1), IVec3::new(2, 1, 1)] {
            let triplet = Some(Box::new(StillingerWeber::silicon()) as _);
            let ff = ForceField { pair: None, triplet, quadruplet: None, method: Method::Hybrid };
            let built = DistributedSim::new(store.clone(), bbox, pdims, ff, 0.001);
            assert_eq!(refusal(built), SetupError::Build(BuildError::HybridNeedsPair));
        }
    }

    #[test]
    fn hybrid_rejects_a_chain_cutoff_above_the_pair_cutoff() {
        let mut ff = ff(Method::Hybrid, 1.2);
        ff.quadruplet = Some(Box::new(TorsionToy::new(0.05, 1.5, 0.3)));
        let system = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
        let refused = refusal(serial(system, ff, 0.001, EngineConfig::default()));
        assert_eq!(
            refused,
            SetupError::Build(BuildError::CutoffOrder { n: 4, rcut_n: 1.5, rcut2: 1.2 })
        );
    }

    #[test]
    fn lj_nve_conserves_energy() {
        let mut sim = lj_sim(Method::ShiftCollapse);
        let e0 = sim.total_energy();
        sim.run(50);
        let e1 = sim.total_energy();
        assert!(((e1 - e0) / e0.abs()).abs() < 1e-3, "NVE drift over 50 steps: {e0} → {e1}");
    }

    #[test]
    fn sc_searches_fewer_candidates_than_fs() {
        let s_sc = forces(&mut silica_sim(Method::ShiftCollapse, 1));
        let s_fs = forces(&mut silica_sim(Method::FullShell, 1));
        let ratio = s_fs.tuples.triplet.candidates as f64 / s_sc.tuples.triplet.candidates as f64;
        assert!(ratio > 1.7, "FS/SC triplet candidate ratio {ratio}");
        // Identical accepted tuple counts: same force set.
        assert_eq!(s_fs.tuples.triplet.accepted, s_sc.tuples.triplet.accepted);
    }

    #[test]
    fn subdivided_triplet_search_examines_fewer_candidates() {
        // The §6 trade-off: at silica-like density, reach-2 cells prune the
        // triplet candidate space (reach_theory::search_volume_ratio < 1).
        let run = |subdivision| {
            let cfg = EngineConfig { subdivision, ..EngineConfig::default() };
            let mut sim = serial(silica(0.01), silica_ff(Method::ShiftCollapse), 0.0005, cfg);
            forces(sim.as_mut().unwrap())
        };
        let (s1, s2) = (run(1), run(2));
        assert_eq!(s1.tuples.triplet.accepted, s2.tuples.triplet.accepted);
        assert!(
            s2.tuples.triplet.candidates < s1.tuples.triplet.candidates,
            "k=2 candidates {} should be below k=1 candidates {}",
            s2.tuples.triplet.candidates,
            s1.tuples.triplet.candidates
        );
        assert!(
            (s1.energy.triplet - s2.energy.triplet).abs() < 1e-9 * s1.energy.triplet.abs().max(1.0)
        );
    }

    #[test]
    fn many_body_virial_matches_dilation_derivative() {
        // W = −dU/dλ at λ = 1 under uniform dilation — checks the pair,
        // triplet, and quadruplet virial formulas at once.
        let torsion_sw = |method| {
            let mut sw = StillingerWeber::silicon();
            sw.sigma *= 0.9 / (sw.a * sw.sigma);
            let mut ff = ff(method, 1.2);
            ff.triplet = Some(Box::new(sw));
            ff.quadruplet = Some(Box::new(TorsionToy::new(0.05, 1.0, 0.3)));
            ff
        };
        // a = 1.25 keeps every FCC neighbour shell comfortably away from
        // the LJ cutoff (1.2): nearest 0.884, second 1.25. A shell sitting
        // exactly on the cutoff would put the dilation derivative on a
        // tuple-set knife edge.
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, 1.25), 0.02, 23);
        let at = |lambda: f64| {
            let mut store = store.clone();
            store.positions_mut().iter_mut().for_each(|r| *r *= lambda);
            let system = (store, SimulationBox::new(bbox.lengths() * lambda));
            let cfg = EngineConfig::default();
            forces(&mut serial(system, torsion_sw(Method::ShiftCollapse), 0.001, cfg).unwrap())
        };
        let w = at(1.0).virial;
        let h = 1e-6;
        let dudl = (at(1.0 + h).energy.total() - at(1.0 - h).energy.total()) / (2.0 * h);
        assert!((w + dudl).abs() < 1e-4 * w.abs().max(1.0), "virial {w} vs -dU/dlambda {}", -dudl);
    }

    #[test]
    fn hybrid_virial_matches_cell_methods() {
        let virials: Vec<f64> =
            Method::ALL.into_iter().map(|m| forces(&mut silica_sim(m, 1)).virial).collect();
        for w in &virials[1..] {
            assert!(
                (w - virials[0]).abs() < 1e-7 * virials[0].abs().max(1.0),
                "virials differ: {virials:?}"
            );
        }
    }

    #[test]
    fn thermostat_drives_temperature() {
        let system = build_fcc_lattice(&LatticeSpec::cubic(5, 1.7), 0.5, 3);
        let cfg = EngineConfig { thermostat: Some((0.7, 0.1)), ..EngineConfig::default() };
        let mut sim = serial(system, ff(Method::ShiftCollapse, 2.5), 0.002, cfg).unwrap();
        sim.run(200);
        let t = sim.gather().temperature();
        assert!((t - 0.7).abs() < 0.2, "temperature {t} should approach 0.7");
    }

    #[test]
    fn parallel_forces_deterministic_for_fixed_lane_count() {
        // Same lane count ⇒ same span → lane partition ⇒ bitwise-identical
        // forces across runs (merges happen in span order).
        let forces = || {
            let mut sim = silica_sim(Method::ShiftCollapse, 3);
            sim.total_energy();
            sim.gather().forces().to_vec()
        };
        assert_eq!(forces(), forces(), "fixed lane count must be bitwise deterministic");
    }

    #[test]
    fn steady_state_hybrid_steps_do_not_allocate_scratch() {
        // The Verlet list is rebuilt in place and the rank's accumulator is
        // sized once: nothing grows once the first steps have sized it.
        let cfg = EngineConfig { lanes: 1, ..EngineConfig::default() };
        let mut sim = serial(silica(0.05), silica_ff(Method::Hybrid), 0.0005, cfg).unwrap();
        sim.run(2);
        let warm = sim.telemetry().alloc_events;
        assert!(warm >= 1, "the accumulator was sized");
        sim.run(14);
        assert_eq!(sim.telemetry().alloc_events, warm);
    }

    #[test]
    fn steady_state_steps_do_not_allocate_scratch() {
        // Regression for the zero-allocation guarantee: steady state must
        // add no allocations per step anywhere — neither in the lanes'
        // force scratch nor in the (inert) tracer.
        let mut sim = silica_sim(Method::ShiftCollapse, 2);
        sim.run(2); // warm up: every lane sizes its accumulator
        let warm = sim.telemetry().alloc_events;
        // One event per lane sizes its accumulator; the triplet sweeps'
        // link-row buffers, kept with the accumulators, account for the
        // rest — so the flat-line assertion below covers them too.
        assert!(warm > 2, "warm-up must have grown the link rows");
        sim.run(5);
        assert_eq!(
            sim.telemetry().alloc_events,
            warm,
            "steady-state steps must reuse the lanes' accumulators, not allocate"
        );
        // The default tracer is the inert one: no rings, no events, and
        // (asserted in sc-obs) no clock reads on any emit path.
        assert!(!sim.tracer().enabled());
        assert!(sim.tracer().events().is_empty());
        assert_eq!(sim.tracer().dropped(), 0);
    }

    #[test]
    fn tracing_emits_every_phase_and_integrate_spans() {
        let tracer = Tracer::new();
        let cfg = EngineConfig { tracer: tracer.clone(), ..EngineConfig::default() };
        let mut sim = serial(silica(0.01), silica_ff(Method::ShiftCollapse), 0.0005, cfg).unwrap();
        sim.run(2);
        assert!(sim.tracer().enabled());
        let events = tracer.events();
        // Every slot of the taxonomy appears at least once, zero-length ones
        // (evaluation is timed inside enumerate) included.
        for phase in Phase::ALL {
            assert!(
                events.iter().any(|e| e.kind == EventKind::Phase(phase)),
                "no trace event for phase {phase:?}"
            );
        }
        // The aggregate Compute interval and the Integrate spans carry real
        // durations; events are step-stamped.
        let ns = |phase| -> u64 {
            let of = events.iter().filter(|e| e.kind == EventKind::Phase(phase));
            of.map(|e| e.dur_ns).sum()
        };
        assert!(ns(Phase::Compute) > 0);
        assert!(ns(Phase::Integrate) > 0);
        assert!(events.iter().any(|e| e.step == 1));
        assert_eq!(tracer.dropped(), 0);
        // Merged events arrive sorted by (step, rank, t_ns, lane).
        let keys: Vec<_> = events.iter().map(|e| (e.step, e.rank, e.t_ns, e.lane)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn registry_counters_sum_exactly_across_pool_lanes() {
        // Worker lanes of an engine's thread pool hammer one counter; the
        // total must be exact (atomicity under the pool).
        let reg = Registry::new();
        let c = reg.counter("lane.work");
        let pool = ThreadPool::new(4);
        let mut lanes = [(); 4];
        for _ in 0..50 {
            pool.for_each_mut(&mut lanes, |_, _| {
                for _ in 0..1000 {
                    c.inc();
                }
            });
        }
        assert_eq!(c.get(), 200_000);
    }

    #[test]
    fn step_phases_are_recorded() {
        let mut sim = silica_sim(Method::ShiftCollapse, 2);
        let first = forces(&mut sim);
        assert!(first.phases.bin_s() > 0.0, "binning was timed");
        assert!(first.phases.enumerate_s() > 0.0, "enumeration was timed");
        assert!(first.phases.reduce_s() > 0.0, "reduction was timed");
        assert!(first.phases.exchange_s() > 0.0, "the one rank imports its own halo");
        assert_eq!(first.phases.eval_s(), 0.0, "evaluation is timed inside enumerate");
        assert_eq!(first.phases, first.total_phases);
        // After a step the snapshot covers that step alone, integration
        // included, while the totals keep the computation before it.
        sim.step();
        let step = sim.telemetry();
        assert!(step.phases.integrate_s() > 0.0);
        for (phase, secs) in step.phases.iter() {
            let own = step.total_phases.get(phase) - first.total_phases.get(phase);
            assert!((secs - own).abs() < 1e-12, "{}: {secs} s, own {own} s", phase.name());
        }
    }

    #[test]
    fn build_rejects_bad_scalars_with_field_names() {
        let build = |dt: f64, thermostat| {
            let cfg = EngineConfig { thermostat, ..EngineConfig::default() };
            serial(random_gas(10, 8.0, 1), ff(Method::ShiftCollapse, 2.5), dt, cfg).map(|_| ())
        };
        match build(-0.5, None) {
            Err(SetupError::Build(BuildError::Config { field: "timestep", value, .. })) => {
                assert_eq!(value, -0.5)
            }
            other => panic!("expected timestep Config error, got {other:?}"),
        }
        for (thermostat, field) in
            [((f64::NAN, 0.1), "thermostat.target"), ((1.0, 1.5), "thermostat.dt_over_tau")]
        {
            match build(0.001, Some(thermostat)) {
                Err(SetupError::Build(BuildError::Config { field: got, .. })) => {
                    assert_eq!(got, field)
                }
                other => panic!("expected {field} Config error, got {other:?}"),
            }
        }
        assert!(build(0.001, Some((0.5, 0.3))).is_ok());
    }

    #[test]
    fn build_rejects_cutoffs_beyond_half_the_box() {
        // A cutoff of half the box edge or more leaves fewer than three
        // cells per axis, where pattern offsets would alias through the
        // periodic wrap; subdivided cells must not let such a box through.
        let build = |rcut: f64| {
            let cfg = EngineConfig { subdivision: 2, ..EngineConfig::default() };
            serial(random_gas(10, 8.0, 1), ff(Method::ShiftCollapse, rcut), 0.001, cfg)
        };
        for rcut in [4.0, 4.0 + 1e-9] {
            match refusal(build(rcut)) {
                e @ SetupError::LatticeTooSmall { needed: 3, .. } => {
                    let msg = e.to_string();
                    assert!(!msg.contains("positive and finite"), "{msg}");
                }
                other => panic!("expected LatticeTooSmall at rcut {rcut}, got {other:?}"),
            }
        }
        // Comfortably inside the limit still builds.
        assert!(build(2.5).is_ok());
    }

    #[test]
    fn removal_then_step_stays_finite_and_conserves_momentum() {
        let mut sim = lj_sim(Method::ShiftCollapse);
        sim.run(2); // warm lattices, store already Morton-sorted
        let mut cp = sim.checkpoint();
        let n0 = cp.len();
        cp.ids.remove(3);
        cp.species.remove(3);
        cp.positions.remove(3);
        cp.velocities.remove(3);
        cp.forces.remove(3);
        sim.restore(&cp);
        assert_eq!(sim.atom_count(), n0 - 1);
        // The restore re-decomposes the smaller store; the next step primes
        // forces on it before integrating.
        sim.step();
        let store = sim.gather();
        assert!(sim.state_is_finite());
        // Newton's third law over the surviving atoms.
        assert!(store.net_force().norm() < 1e-7, "net force {:?}", store.net_force());
    }
}
