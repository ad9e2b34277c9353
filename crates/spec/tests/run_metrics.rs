//! The run owns the metrics: a `RunHandle` feeds each step's telemetry into
//! its registry, keeps the series monotone across rollbacks and
//! re-decompositions, and reports the serial engine's whole step.

use sc_md::supervisor::{Supervisor, SupervisorConfig};
use sc_obs::Phase;
use sc_spec::ScenarioSpec;

/// A 4-step LJ spec on `executor` (7 FCC cells, enough for a 2×1×1 grid).
fn spec(executor: &str, metrics: bool) -> ScenarioSpec {
    ScenarioSpec::from_json_str(&format!(
        r#"{{"schema": "sc-scenario/1", "name": "t", "method": "sc",
            "system": {{"kind": "lj", "cells": 7, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}}, "dt": 0.002, "steps": 4,
            "executor": {executor}, "observability": {{"metrics": {metrics}}}}}"#
    ))
    .unwrap()
}

#[test]
fn serial_telemetry_covers_the_whole_step() {
    let mut sim = spec(r#"{"kind": "serial"}"#, false).instantiate().unwrap();
    sim.try_step().unwrap();
    let t = sim.telemetry();
    assert!(t.phases.integrate_s() > 0.0, "{:?}", t.phases);
    assert!(t.phases.bin_s() > 0.0 && t.phases.enumerate_s() > 0.0);
    assert_eq!(t.total_phases.integrate_s(), t.phases.integrate_s());
}

/// The handle registers every series up front and then feeds each step:
/// steady-state steps only touch atomics, on either engine.
#[test]
fn enabled_registry_allocates_only_at_registration() {
    for executor in [r#"{"kind": "serial"}"#, r#"{"kind": "bsp", "grid": [2, 1, 1]}"#] {
        let mut sim = spec(executor, true).instantiate().unwrap();
        let registered = sim.metrics().allocation_events();
        assert!(registered > 0, "the handle registers the series up front");
        let mut accepted = 0;
        for _ in 0..3 {
            sim.try_step().unwrap();
            accepted += sim.telemetry().tuples.pair.accepted;
        }
        let reg = sim.metrics();
        assert_eq!(reg.allocation_events(), registered, "{executor}: steps register nothing");
        // The registry saw the run: one step's tuples per step, the
        // cumulative counters and the whole steps' phases.
        let t = sim.telemetry();
        assert_eq!(reg.counter("sim.steps").get(), 3);
        assert_eq!(reg.counter("tuples.pair.accepted").get(), accepted);
        assert_eq!(reg.counter("comm.bytes").get(), t.comm.bytes);
        assert_eq!(reg.counter("comm.messages").get(), t.comm.messages);
        assert_eq!(reg.histogram("comm.step_bytes", &[]).count(), 3);
        assert!(reg.phase_s(Phase::Bin) > 0.0);
        assert!((reg.phase_s(Phase::Integrate) - t.total_phases.integrate_s()).abs() < 1e-6);
        // The JSON line's allocation count includes the registrations.
        let mut dark = spec(executor, false).instantiate().unwrap();
        dark.run(3);
        assert!(!dark.metrics().enabled());
        assert_eq!(t.alloc_events, dark.telemetry().alloc_events + registered);
    }
}

#[test]
fn supervised_fault_storm_counters_never_decrease() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/fault-storm.json");
    let mut spec = ScenarioSpec::from_path(std::path::Path::new(path)).unwrap();
    spec.observability.metrics = true;
    // As checked in, the storm's transient faults are all absorbed by
    // in-step retries. A crash budget of one adds a rank crash: its silent
    // deliveries fail steps (each one a rollback) until the watchdog
    // declares it dead and the supervisor re-decomposes onto the survivor —
    // both of the handle's restore paths.
    spec.fault_plan.as_mut().unwrap().max_crashes = 1;
    let mut sim = spec.instantiate().unwrap();
    let mut sup = Supervisor::new(SupervisorConfig {
        checkpoint_every: spec.checkpoint.as_ref().unwrap().every,
        max_rollbacks: 64,
        ..SupervisorConfig::default()
    });
    let mut last = sim.metrics().snapshot();
    while sim.steps_done() < spec.steps {
        sup.run(&mut sim, 1).unwrap();
        let now = sim.metrics().snapshot();
        for ((name, before), (_, after)) in last.counters.iter().zip(&now.counters) {
            assert!(after >= before, "{name} went down from {before} to {after}");
        }
        for (phase, before) in last.phases.iter() {
            assert!(now.phases.get(phase) >= before, "{} went down", phase.name());
        }
        last = now;
    }
    let stats = sup.stats();
    assert!(stats.rollbacks >= 1 && stats.redecompositions == 1, "{stats:?}");
    let counter = |name: &str| last.counters.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(counter("comm.faults_detected") > 0);
    assert!(counter("health.deaths") > 0);
    assert!(counter("sim.steps") >= spec.steps);
    // A failed step's traffic reaches `comm.bytes`, but only completed
    // steps are observed by the per-step histogram.
    assert_eq!(last.histograms[0].name, "comm.step_bytes");
    assert_eq!(last.histograms[0].count, counter("sim.steps"));
}
