//! One engine, two spellings: `"kind": "threaded"` builds the same
//! distributed engine as `"kind": "bsp"`, so a spec that differs only in
//! the spelling runs the same trajectory and exports the same series.

use sc_cell::AtomStore;
use sc_spec::{RunHandle, ScenarioSpec};

/// Instantiates the LJ workload on `kind` over a 2×2×2 grid with metrics on
/// and runs it to the end.
fn run(kind: &str) -> RunHandle {
    let doc = format!(
        r#"{{"schema": "sc-scenario/1", "name": "parity", "method": "sc",
            "system": {{"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}}, "dt": 0.002, "steps": 4,
            "executor": {{"kind": "{kind}", "grid": [2, 2, 2]}},
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

/// Both spellings build the `bsp` engine, gather the same bits, count the
/// same tuples and export the same series with the same counter values.
#[test]
fn both_executors_export_the_same_series() {
    let (bsp, threaded) = (run("bsp"), run("threaded"));
    assert_eq!((bsp.executor_kind(), threaded.executor_kind()), ("bsp", "bsp"));
    assert!(bits(&bsp.gather()) == bits(&threaded.gather()), "phase-space bits differ");
    assert_eq!(bsp.telemetry().tuples, threaded.telemetry().tuples);

    let (bsp, threaded) = (bsp.metrics().snapshot(), threaded.metrics().snapshot());
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
