//! One engine, three spellings: `"kind": "threaded"` decodes to
//! `"kind": "bsp"`, and a one-thread `"kind": "serial"` builds the same
//! engine as a 1×1×1 `bsp` grid, so specs that differ only in the spelling
//! run the same trajectory and export the same series. And one metrics
//! feed: every grid exports the same series names.

use sc_cell::AtomStore;
use sc_obs::MetricsSnapshot;
use sc_spec::{RunHandle, ScenarioSpec};

const STEPS: u64 = 4;

/// The LJ workload on `executor` with metrics on.
fn spec(executor: &str) -> ScenarioSpec {
    let doc = format!(
        r#"{{"schema": "sc-scenario/1", "name": "parity", "method": "sc",
            "system": {{"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}}, "dt": 0.002, "steps": {STEPS},
            "executor": {executor},
            "observability": {{"metrics": true}}}}"#
    );
    ScenarioSpec::from_json_str(&doc).unwrap()
}

/// Instantiates [`spec`] and runs it to the end.
fn run(executor: &str) -> RunHandle {
    let spec = spec(executor);
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

/// `threaded` decodes to `bsp` on its grid; one-thread `serial` and `bsp`
/// on a 1×1×1 grid (which gets one lane) gather the same bits and export
/// the same series with the same counter values; every run exports the
/// same names.
#[test]
fn both_executors_export_the_same_series() {
    let grid = r#"{"kind": "bsp", "grid": [2, 2, 2]}"#;
    assert_eq!(spec(r#"{"kind": "threaded", "grid": [2, 2, 2]}"#), spec(grid));
    let serial = run(r#"{"kind": "serial", "threads": 1}"#);
    let one_rank = run(r#"{"kind": "bsp", "grid": [1, 1, 1]}"#);
    let bsp = run(grid);
    assert!(bits(&serial.gather()) == bits(&one_rank.gather()), "serial is not the 1×1×1 grid");

    let runs = [("serial", &serial), ("bsp 1x1x1", &one_rank), ("bsp", &bsp)];
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
    assert!(snaps[0].1.phases.integrate_s() > 0.0, "serial integrate time is exported");

    let counted = |s: &MetricsSnapshot| -> Vec<(String, u64)> {
        let keep = |n: &str| n.starts_with("comm.") || n.starts_with("tuples.") || n == "sim.steps";
        s.counters.iter().filter(|(n, _)| keep(n)).cloned().collect()
    };
    // One rank still exchanges: every hop is a self-send.
    assert_eq!(counted(&snaps[0].1), counted(&snaps[1].1));
    assert!(counted(&snaps[0].1).iter().any(|(n, v)| n == "comm.messages" && *v > 0));
    let bsp = &snaps[2].1;
    assert!(counted(bsp).iter().any(|(n, v)| n == "comm.messages" && *v > 0));
    assert_eq!(bsp.histograms[0].name, "comm.step_bytes");
    assert_eq!(bsp.histograms[0].count, STEPS);
}
