//! Every run parameter a spec can carry either reaches the engine the spec
//! names or is refused by name — never accepted and dropped. One table over
//! the three executors and every key that is not the workload itself.

use sc_cell::AtomStore;
use sc_spec::{RunHandle, ScenarioSpec, SpecError};

const EXECUTORS: [(&str, &str); 3] = [
    ("serial", r#"{"kind": "serial"}"#),
    ("bsp", r#"{"kind": "bsp", "grid": [2, 1, 1]}"#),
    ("threaded", r#"{"kind": "threaded", "grid": [2, 1, 1]}"#),
];

fn spec(executor: &str, extra: &str) -> Result<ScenarioSpec, SpecError> {
    ScenarioSpec::from_json_str(&format!(
        r#"{{"schema": "sc-scenario/1", "name": "keys", "method": "hybrid",
            "system": {{"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}}, "dt": 0.002, "steps": 4,
            "executor": {executor}{extra}}}"#
    ))
}

fn run(spec: &ScenarioSpec) -> RunHandle {
    let mut handle = spec.instantiate().unwrap();
    handle.run(spec.steps as usize);
    handle
}

/// Slot order and exact phase-space bits of a gathered run.
fn state(s: &AtomStore) -> (Vec<u64>, Vec<[u64; 3]>) {
    let all = s.positions().iter().chain(s.velocities());
    (s.ids().to_vec(), all.map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect())
}

/// What a key must do on an executor.
#[derive(Clone, Copy)]
enum Expect {
    /// `validate()` refuses the key by this dotted name.
    Refused(&'static str),
    /// The built run differs observably from the run without the key.
    Effect(fn(&RunHandle, &RunHandle) -> bool),
    /// Not a key at all: the decoder refuses it by this dotted name as an
    /// unknown field.
    Unknown(&'static str),
}
use Expect::{Effect, Refused, Unknown};

fn candidates_moved(base: &RunHandle, run: &RunHandle) -> bool {
    base.telemetry().tuples.total_candidates() != run.telemetry().tuples.total_candidates()
}

fn state_moved(base: &RunHandle, run: &RunHandle) -> bool {
    state(&base.gather()) != state(&run.gather())
}

fn more_messages(base: &RunHandle, run: &RunHandle) -> bool {
    run.telemetry().comm.messages > base.telemetry().comm.messages
}

fn faults_detected(_: &RunHandle, run: &RunHandle) -> bool {
    run.telemetry().comm.faults_detected > 0
}

#[test]
fn every_spec_key_reaches_the_engine_or_is_refused() {
    let table: [(&str, [Expect; 3]); 11] = [
        // Smaller cells prune the candidate space on every engine.
        (r#""subdivision": 2"#, [Effect(candidates_moved); 3]),
        // Without the Morton re-sort a rank sums its forces in another
        // order.
        (r#""resort_every": 0"#, [Effect(state_moved); 3]),
        // A Verlet list kept across steps would need ranks whose ghosts
        // keep their slots between steps: not a key, on any executor.
        (r#""verlet_skin": 0.5"#, [Unknown("verlet_skin"); 3]),
        // The exchange schedule has no knobs: the keys that once selected a
        // packing mode or an import schedule are unknown everywhere.
        (r#""comm": {"overlap": false}"#, [Unknown("comm.overlap"); 3]),
        (r#""comm": {"aggregation": false}"#, [Unknown("comm.aggregation"); 3]),
        // A re-decomposition re-primes: one more exchange cycle.
        (
            r#""comm": {"rebalance_every": 2}"#,
            [Refused("comm.rebalance_every"), Effect(more_messages), Effect(more_messages)],
        ),
        // A serial run's one rank faults its own self-messages.
        (
            r#""fault_plan": {"seed": 7, "count": 3, "max_crashes": 0}"#,
            [Effect(faults_detected); 3],
        ),
        (r#""thermostat": {"target": 0.2, "dt_over_tau": 0.5}"#, [Effect(state_moved); 3]),
        (
            r#""observability": {"metrics": true}"#,
            [Effect(|b, r| !b.metrics().enabled() && r.metrics().enabled()); 3],
        ),
        (
            r#""observability": {"trace": true}"#,
            [Effect(|b, r| b.tracer().events().is_empty() && !r.tracer().events().is_empty()); 3],
        ),
        (
            r#""observability": {"trace": true, "ring": 0}"#,
            [Effect(|_, r| !r.tracer().enabled() && r.tracer().events().is_empty()); 3],
        ),
    ];
    for (i, (kind, executor)) in EXECUTORS.iter().enumerate() {
        let base = run(&spec(executor, "").unwrap());
        for (key, expect) in &table {
            let what = format!("{kind} × {key}");
            let decoded = spec(executor, &format!(", {key}"));
            match &expect[i] {
                Refused(field) => match decoded {
                    Err(SpecError::BadValue { field: got, .. }) => {
                        assert_eq!(&got, field, "{what}")
                    }
                    other => panic!("{what}: expected a refusal naming {field}, got {other:?}"),
                },
                Effect(differs) => {
                    let spec = decoded.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(differs(&base, &run(&spec)), "{what}: accepted but without effect");
                }
                Unknown(field) => match decoded {
                    Err(SpecError::UnknownField { field: got }) => {
                        assert_eq!(&got, field, "{what}")
                    }
                    other => panic!("{what}: expected an unknown key {field}, got {other:?}"),
                },
            }
        }
    }
}
