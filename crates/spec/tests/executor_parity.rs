//! One spec, two schedulers: the BSP and threaded executors run the same
//! rank-step protocol, so a spec that differs only in `executor.kind` must
//! produce the same decomposition, the same trajectory, and the same
//! exported series.

use sc_cell::AtomStore;
use sc_spec::{RunHandle, ScenarioSpec};

const LJ: &str = r#""system": {"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42},
    "potential": {"kind": "lj", "cutoff": 2.5}, "dt": 0.002"#;
const SILICA: &str = r#""system": {"kind": "silica", "cells": 4, "a": 7.16, "temp": 0.05, "seed": 42},
    "potential": {"kind": "vashishta"}, "dt": 0.0005"#;

/// Instantiates `workload` on `kind` over `grid` and runs it to the end.
fn run(workload: &str, kind: &str, grid: &str, extra: &str) -> RunHandle {
    let doc = format!(
        r#"{{"schema": "sc-scenario/1", "name": "parity", {workload}, "method": "sc",
            "executor": {{"kind": "{kind}", "grid": {grid}}}, "steps": 4{extra}}}"#
    );
    let spec = ScenarioSpec::from_json_str(&doc).unwrap();
    let mut handle = spec.instantiate().unwrap();
    handle.run(spec.steps as usize);
    handle
}

fn assert_bitwise_eq(a: &AtomStore, b: &AtomStore, what: &str) {
    assert_eq!(a.ids(), b.ids(), "{what}: id order differs");
    let bits = |s: &AtomStore| -> Vec<[u64; 3]> {
        let all = s.positions().iter().chain(s.velocities());
        all.map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
    };
    assert!(bits(a) == bits(b), "{what}: phase-space bits differ");
}

#[test]
fn subdivision_reaches_both_executors() {
    for (workload, grid) in [(LJ, "[2, 2, 2]"), (SILICA, "[2, 2, 1]")] {
        let bsp = run(workload, "bsp", grid, r#", "subdivision": 2"#);
        let threaded = run(workload, "threaded", grid, r#", "subdivision": 2"#);
        assert_bitwise_eq(&bsp.gather(), &threaded.gather(), grid);
        // Candidates depend on the cell edge, so they only agree when both
        // executors really subdivided.
        assert_eq!(bsp.telemetry().tuples, threaded.telemetry().tuples, "{grid}");
        let coarse = run(workload, "threaded", grid, "");
        assert_ne!(coarse.telemetry().tuples, threaded.telemetry().tuples, "{grid}: k ignored");
    }
}

#[test]
fn both_executors_export_the_same_series() {
    let metrics = r#", "observability": {"metrics": true}"#;
    let bsp = run(LJ, "bsp", "[2, 2, 2]", metrics).metrics().snapshot();
    let threaded = run(LJ, "threaded", "[2, 2, 2]", metrics).metrics().snapshot();

    let names = |s: &sc_obs::MetricsSnapshot| -> Vec<String> {
        let counters = s.counters.iter().map(|(n, _)| n.clone());
        let gauges = s.gauges.iter().map(|(n, _)| n.clone());
        counters.chain(gauges).chain(s.histograms.iter().map(|h| h.name.clone())).collect()
    };
    assert_eq!(names(&bsp), names(&threaded));
    for series in ["comm.step_bytes", "health.deaths", "health.suspects"] {
        assert!(names(&threaded).iter().any(|n| n == series), "{series} missing");
    }

    let counted = |s: &sc_obs::MetricsSnapshot| -> Vec<(String, u64)> {
        let keep = |n: &str| n.starts_with("comm.") || n == "dist.steps";
        s.counters.iter().filter(|(n, _)| keep(n)).cloned().collect()
    };
    assert_eq!(counted(&bsp), counted(&threaded));
    assert!(counted(&bsp).iter().any(|(n, v)| n == "dist.steps" && *v == 4));
    let observations = |s: &sc_obs::MetricsSnapshot| s.histograms[0].count;
    assert_eq!(bsp.histograms[0].name, "comm.step_bytes");
    assert_eq!(observations(&bsp), observations(&threaded));
}
