//! One engine, two spellings: `"kind": "threaded"` builds the same
//! distributed engine as `"kind": "bsp"`, so a spec that differs only in
//! the spelling runs the same trajectory and exports the same series. And
//! one metrics feed: the serial engine and every grid export the same
//! series names too.

use sc_cell::AtomStore;
use sc_obs::MetricsSnapshot;
use sc_spec::{RunHandle, ScenarioSpec};

const STEPS: u64 = 4;

/// Instantiates the LJ workload on `executor` with metrics on and runs it
/// to the end.
fn run(executor: &str) -> RunHandle {
    let doc = format!(
        r#"{{"schema": "sc-scenario/1", "name": "parity", "method": "sc",
            "system": {{"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}}, "dt": 0.002, "steps": {STEPS},
            "executor": {executor},
            "observability": {{"metrics": true}}}}"#
    );
    let spec = ScenarioSpec::from_json_str(&doc).unwrap();
    let mut handle = spec.instantiate().unwrap();
    handle.run(spec.steps as usize);
    handle
}

/// Slot order and exact phase-space bits of a gathered run.
fn bits(s: &AtomStore) -> (Vec<u64>, Vec<[u64; 3]>) {
    let all = s.positions().iter().chain(s.velocities());
    (s.ids().to_vec(), all.map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect())
}

/// Every exported series name: counters, gauges, histograms and phase
/// slots.
fn names(s: &MetricsSnapshot) -> Vec<String> {
    let counters = s.counters.iter().map(|(n, _)| n.clone());
    let gauges = s.gauges.iter().map(|(n, _)| format!("gauge {n}"));
    let histograms = s.histograms.iter().map(|h| format!("histogram {}", h.name));
    let phases = s.phases.iter().map(|(p, _)| format!("phase {}", p.name()));
    counters.chain(gauges).chain(histograms).chain(phases).collect()
}

/// Both spellings build the `bsp` engine, gather the same bits, count the
/// same tuples and export the same series with the same counter values; the
/// serial engine and a one-rank grid export the same names.
#[test]
fn both_executors_export_the_same_series() {
    let serial = run(r#"{"kind": "serial"}"#);
    let one_rank = run(r#"{"kind": "bsp", "grid": [1, 1, 1]}"#);
    let bsp = run(r#"{"kind": "bsp", "grid": [2, 2, 2]}"#);
    let threaded = run(r#"{"kind": "threaded", "grid": [2, 2, 2]}"#);
    assert_eq!((bsp.executor_kind(), threaded.executor_kind()), ("bsp", "bsp"));
    assert!(bits(&bsp.gather()) == bits(&threaded.gather()), "phase-space bits differ");
    assert_eq!(bsp.telemetry().tuples, threaded.telemetry().tuples);

    let runs =
        [("serial", &serial), ("bsp 1x1x1", &one_rank), ("bsp", &bsp), ("threaded", &threaded)];
    let snaps: Vec<(&str, MetricsSnapshot)> =
        runs.iter().map(|(kind, h)| (*kind, h.metrics().snapshot())).collect();
    let reference = names(&snaps[0].1);
    for series in ["sim.steps", "tuples.pair.accepted", "comm.messages", "health.deaths"] {
        assert!(reference.iter().any(|n| n == series), "{series} missing");
    }
    assert!(reference.iter().any(|n| n == "histogram comm.step_bytes"));
    for (kind, snap) in &snaps {
        assert_eq!(names(snap), reference, "{kind} exports another series set");
        let steps = snap.counters.iter().find(|(n, _)| n == "sim.steps").map(|(_, v)| *v);
        assert_eq!(steps, Some(STEPS), "{kind}: sim.steps");
    }
    // The serial engine has no communication layer: its comm series are
    // registered and zero.
    let serial_snap = &snaps[0].1;
    assert!(serial_snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("comm."))
        .all(|(_, v)| *v == 0));
    assert!(serial_snap.phases.integrate_s() > 0.0, "serial integrate time is exported");

    let counted = |s: &MetricsSnapshot| -> Vec<(String, u64)> {
        let keep = |n: &str| n.starts_with("comm.") || n.starts_with("tuples.") || n == "sim.steps";
        s.counters.iter().filter(|(n, _)| keep(n)).cloned().collect()
    };
    let (bsp, threaded) = (&snaps[2].1, &snaps[3].1);
    assert_eq!(counted(bsp), counted(threaded));
    assert!(counted(bsp).iter().any(|(n, v)| n == "comm.messages" && *v > 0));
    let observations = |s: &MetricsSnapshot| s.histograms[0].count;
    assert_eq!(bsp.histograms[0].name, "comm.step_bytes");
    assert_eq!(observations(bsp), STEPS);
    assert_eq!(observations(bsp), observations(threaded));
}
