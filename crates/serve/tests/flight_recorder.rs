//! Flight-recorder contract tests: `dump` on a running BSP job yields a
//! merge-ordered Chrome-trace document with events inside the step
//! window, and a job whose spec disables its ring answers with a typed
//! error instead of an empty trace.

use sc_serve::{DumpError, JobId, Scheduler, SchedulerConfig, WatchEvent};
use sc_spec::ScenarioSpec;
use std::time::{Duration, Instant};

const IDLE: Duration = Duration::from_secs(120);

/// A 2-rank BSP LJ scenario; `extra` appends spec fields.
fn bsp_spec(name: &str, steps: u64, extra: &str) -> ScenarioSpec {
    let doc = format!(
        r#"{{
            "schema": "sc-scenario/1",
            "name": "{name}",
            "system": {{"kind": "lj", "cells": 7, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}},
            "method": "sc",
            "executor": {{"kind": "bsp", "grid": [2, 1, 1]}},
            "dt": 0.002,
            "steps": {steps}{extra}
        }}"#
    );
    ScenarioSpec::from_json_str(&doc).unwrap()
}

#[test]
fn dump_on_a_running_bsp_job_is_merge_ordered_and_inside_the_step_window() {
    let total = 200;
    let cfg = SchedulerConfig {
        lanes: 1,
        slice_steps: 4,
        watch_queue: 256,
        start_paused: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg, false).unwrap();
    // No `trace` and no `ring` in the spec: the scheduler's default
    // flight ring must arm the recorder on its own.
    let id = sched.submit(bsp_spec("flight", total, "")).unwrap();
    let watch = sched.watch(id, Some(0)).unwrap();
    sched.start();
    // The first snapshot proves at least one slice ran — with 200 steps
    // total the job is still mid-flight when we dump right after.
    match watch.recv(Duration::from_secs(60)) {
        WatchEvent::Snapshot { .. } => {}
        other => panic!("expected a first snapshot, got {other:?}"),
    }
    let dump = sched.dump(id).unwrap();
    assert_eq!(dump.id, id);
    assert!(dump.step >= 4, "dump landed before the first slice: step {}", dump.step);
    assert!(dump.step < total, "dump landed after completion: step {}", dump.step);
    assert!(dump.events > 0, "an armed ring must have captured events");

    let rows = dump.doc.get("traceEvents").unwrap().as_array().unwrap();
    let mut steps = Vec::new();
    for row in rows {
        if row.get("ph").and_then(|v| v.as_str()) == Some("M") {
            continue; // process-name metadata
        }
        // Chrome Trace Format: every event row carries the required fields.
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(row.get(key).is_some(), "trace row missing '{key}': {row}");
        }
        let step = row
            .get("args")
            .and_then(|a| a.get("step"))
            .and_then(|v| v.as_f64())
            .expect("every event is stamped with its step") as u64;
        steps.push(step);
    }
    assert_eq!(steps.len() as u64, dump.events);
    // The supervisor checkpoints before the first step, into the job's ring.
    assert!(
        rows.iter().any(|r| r.get("name").and_then(|v| v.as_str()) == Some("checkpoint")),
        "no supervisor checkpoint marker in the dump"
    );
    // events() merges the per-thread rings by (step, rank, time): the
    // document must come out step-ordered, all inside the run's window.
    assert!(steps.windows(2).all(|w| w[0] <= w[1]), "merge order broken: {steps:?}");
    assert!(steps.iter().all(|s| *s <= total), "event outside the step window: {steps:?}");

    assert!(sched.wait_idle(IDLE));
    assert!(sched.results(id).is_some(), "the dumped job still finishes normally");
}

#[test]
fn disabled_ring_and_unknown_jobs_answer_with_typed_errors() {
    let cfg = SchedulerConfig {
        lanes: 1,
        slice_steps: 4,
        start_paused: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg, false).unwrap();
    // `ring: 0` explicitly opts out of the scheduler's default flight ring.
    let id = sched.submit(bsp_spec("dark", 8, r#", "observability": {"ring": 0}"#)).unwrap();
    // Lanes admit even while paused: wait for the engine to exist, then
    // the refusal must be Disabled (ring off), not NotStarted.
    let deadline = Instant::now() + IDLE;
    loop {
        match sched.dump(id) {
            Err(DumpError::NotStarted) => {
                assert!(Instant::now() < deadline, "job was never admitted");
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(DumpError::Disabled) => break,
            other => panic!("expected Disabled, got {other:?}"),
        }
    }
    assert!(matches!(sched.dump(JobId(99)), Err(DumpError::UnknownJob)));
    sched.start();
    assert!(sched.wait_idle(IDLE));
}
