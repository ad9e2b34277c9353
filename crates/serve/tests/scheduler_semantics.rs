//! Scheduler-semantics contract tests: deterministic fair-share,
//! backpressure, cancellation releasing lanes, and daemon-restart resume
//! producing bitwise-identical results.

use sc_serve::{JobId, JobState, Scheduler, SchedulerConfig, SubmitError, TRACE_SLICES};
use sc_spec::{observables_doc, ScenarioSpec};
use std::path::PathBuf;
use std::time::Duration;

const IDLE: Duration = Duration::from_secs(120);

/// A small, fast LJ scenario (~500 atoms serial).
fn lj_spec(name: &str, steps: u64, extra: &str) -> ScenarioSpec {
    lj_spec_on(r#"{"kind": "serial"}"#, 5, name, steps, extra)
}

/// An LJ scenario of `cells`³ FCC cells on `executor`.
fn lj_spec_on(executor: &str, cells: usize, name: &str, steps: u64, extra: &str) -> ScenarioSpec {
    let doc = format!(
        r#"{{
            "schema": "sc-scenario/1",
            "name": "{name}",
            "system": {{"kind": "lj", "cells": {cells}, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}},
            "method": "sc",
            "executor": {executor},
            "dt": 0.002,
            "steps": {steps}{extra}
        }}"#
    );
    ScenarioSpec::from_json_str(&doc).unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sc-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fair_share_round_robin_is_deterministic() {
    let cfg = SchedulerConfig {
        lanes: 1,
        slice_steps: 4,
        start_paused: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg, false).unwrap();
    for i in 0..3 {
        let id = sched.submit(lj_spec(&format!("fair-{i}"), 12, "")).unwrap();
        assert_eq!(id, JobId(i));
    }
    sched.start();
    assert!(sched.wait_idle(IDLE), "jobs did not finish");
    // Strict round-robin: with equal jobs on one lane, slices interleave
    // 0,1,2,0,1,2,0,1,2 and each slice advances exactly `slice_steps`.
    let expected: Vec<(JobId, u64)> =
        (1..=3).flat_map(|round| (0..3).map(move |j| (JobId(j), round * 4))).collect();
    assert_eq!(sched.trace(), expected);
    for rec in sched.list() {
        assert_eq!(rec.state, JobState::Done, "{rec:?}");
        assert_eq!(rec.steps_done, 12);
    }
}

#[test]
fn the_slice_record_keeps_only_the_newest_slices() {
    let cfg = SchedulerConfig { lanes: 1, slice_steps: 1, ..SchedulerConfig::default() };
    let sched = Scheduler::new(cfg, false).unwrap();
    let steps = TRACE_SLICES as u64 + 3;
    let id = sched.submit(lj_spec("long", steps, "")).unwrap();
    assert!(sched.wait_idle(IDLE), "job did not finish");
    let trace = sched.trace();
    assert_eq!(trace.len(), TRACE_SLICES, "{:?}", sched.status(id));
    assert_eq!(trace.last(), Some(&(id, steps)));
}

#[test]
fn fair_share_holds_under_a_seeded_fault_storm() {
    // Two BSP jobs with seeded fault plans, sharing one lane with a clean
    // serial job. The storm is deterministic, recovery is supervised, and
    // every tenant must still finish.
    let storm = r#"{
        "schema": "sc-scenario/1",
        "name": "storm",
        "system": {"kind": "lj", "cells": 7, "temp": 1.0, "seed": 42},
        "potential": {"kind": "lj", "cutoff": 2.5},
        "method": "sc",
        "executor": {"kind": "bsp", "grid": [2, 1, 1]},
        "dt": 0.002,
        "steps": 8,
        "fault_plan": {"seed": 7, "count": 2, "max_crashes": 0},
        "checkpoint": {"every": 2}
    }"#;
    let cfg = SchedulerConfig { lanes: 1, slice_steps: 2, ..SchedulerConfig::default() };
    let sched = Scheduler::new(cfg, false).unwrap();
    let storm_id = sched.submit(ScenarioSpec::from_json_str(storm).unwrap()).unwrap();
    let clean_id = sched.submit(lj_spec("clean", 8, "")).unwrap();
    assert!(sched.wait_idle(IDLE), "storm jobs did not finish: {:?}", sched.list());
    for id in [storm_id, clean_id] {
        let rec = sched.status(id).unwrap();
        assert_eq!(rec.state, JobState::Done, "{rec:?}");
        assert_eq!(rec.steps_done, 8);
        assert!(sched.results(id).is_some());
    }
}

#[test]
fn backpressure_rejects_above_capacity_with_a_typed_error() {
    let cfg = SchedulerConfig {
        lanes: 1,
        queue_capacity: 2,
        start_paused: true, // nothing completes, so the queue stays full
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg, false).unwrap();
    sched.submit(lj_spec("a", 4, "")).unwrap();
    sched.submit(lj_spec("b", 4, "")).unwrap();
    match sched.submit(lj_spec("c", 4, "")) {
        Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Rejected submissions leave no trace and burn no ids.
    assert_eq!(sched.list().len(), 2);
    sched.start();
    assert!(sched.wait_idle(IDLE));
    // Capacity freed: the same spec is admitted now.
    sched.submit(lj_spec("c", 4, "")).unwrap();
    assert!(sched.wait_idle(IDLE));
}

#[test]
fn unservable_and_invalid_specs_are_rejected_at_submit() {
    let dir = tmp_dir("unservable");
    let cfg = SchedulerConfig { state_dir: Some(dir.clone()), ..SchedulerConfig::default() };
    let sched = Scheduler::new(cfg, false).unwrap();
    let mut invalid = lj_spec("x", 4, "");
    invalid.dt = -1.0;
    match sched.submit(invalid) {
        Err(SubmitError::Spec(e)) => assert!(e.to_string().contains("dt"), "{e}"),
        other => panic!("expected Spec error, got {other:?}"),
    }
    // A job whose state cannot be persisted is not admitted: `jobs/` is a
    // file now, so no job directory can be made under it.
    std::fs::remove_dir_all(dir.join("jobs")).unwrap();
    std::fs::write(dir.join("jobs"), "").unwrap();
    match sched.submit(lj_spec("y", 4, "")) {
        Err(SubmitError::Unservable(why)) => assert!(why.contains("persist"), "{why}"),
        other => panic!("expected Unservable, got {other:?}"),
    }
    assert_eq!(sched.list().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threaded_specs_are_served_like_any_distributed_spec() {
    let spec = ScenarioSpec::from_json_str(
        r#"{
            "schema": "sc-scenario/1",
            "name": "t",
            "system": {"kind": "lj", "cells": 7, "temp": 1.0, "seed": 42},
            "potential": {"kind": "lj", "cutoff": 2.5},
            "method": "sc",
            "executor": {"kind": "threaded", "grid": [2, 1, 1]},
            "dt": 0.002,
            "steps": 4
        }"#,
    )
    .unwrap();
    let cfg = SchedulerConfig { lanes: 1, slice_steps: 2, ..SchedulerConfig::default() };
    let sched = Scheduler::new(cfg, false).unwrap();
    let id = sched.submit(spec.clone()).unwrap();
    assert!(sched.wait_idle(IDLE), "threaded job did not finish: {:?}", sched.list());
    assert_eq!(sched.status(id).unwrap().state, JobState::Done);
    // Sliced and supervised, it ends where a standalone run of the spec does.
    let mut standalone = spec.instantiate().unwrap();
    standalone.run(spec.steps as usize);
    let energy = standalone.total_energy();
    let doc = observables_doc(&spec.name, standalone.steps_done(), &standalone.gather(), energy);
    assert_eq!(sched.results(id).unwrap().to_string(), doc.to_string());
}

#[test]
fn cancel_releases_the_lane_for_queued_work() {
    let cfg = SchedulerConfig {
        lanes: 1,
        queue_capacity: 2,
        slice_steps: 1,
        start_paused: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg, false).unwrap();
    let long = sched.submit(lj_spec("long", 100_000, "")).unwrap();
    let short = sched.submit(lj_spec("short", 2, "")).unwrap();
    assert!(sched.cancel(long), "live job must be cancellable");
    sched.start();
    // The cancelled job retires at its first slice boundary; the short job
    // then owns the lane and finishes. If cancel failed to release the
    // lane, the 100k-step job would hold it far past the timeout.
    assert!(sched.wait_idle(IDLE), "lane never freed: {:?}", sched.list());
    assert_eq!(sched.status(long).unwrap().state, JobState::Cancelled);
    assert_eq!(sched.status(short).unwrap().state, JobState::Done);
    // Cancelling a terminal job reports false.
    assert!(!sched.cancel(long));
    assert!(!sched.cancel(short));
    assert!(!sched.cancel(JobId(99)));
    // A cancelled job has no results.
    assert!(sched.results(long).is_none());
}

/// A job parked mid-run by a shutdown and resumed by a fresh scheduler
/// writes the results of an uninterrupted run, byte for byte, on the
/// serial executor (one rank) and on a rank grid (a checkpoint keeps every
/// rank's slot order).
#[test]
fn restart_resume_matches_an_uninterrupted_run_bitwise() {
    let extra = r#", "checkpoint": {"every": 4}"#;
    let grid = r#"{"kind": "bsp", "grid": [2, 1, 1]}"#;
    for (tag, spec) in [
        ("serial", lj_spec("resume-me", 16, extra)),
        ("bsp", lj_spec_on(grid, 7, "resume-me", 16, extra)),
    ] {
        let reference = uninterrupted_results(&spec, &format!("uninterrupted-{tag}"));

        // Interrupted: the scheduler shuts down mid-run (the job parks with
        // a labelled checkpoint) and a fresh scheduler resumes.
        let dir = tmp_dir(&format!("interrupted-{tag}"));
        let cfg = SchedulerConfig {
            lanes: 1,
            slice_steps: 4,
            state_dir: Some(dir.clone()),
            start_paused: true,
            ..SchedulerConfig::default()
        };
        let sched = Scheduler::new(cfg.clone(), false).unwrap();
        let id = sched.submit(spec.clone()).unwrap();
        sched.start();
        // Let it make partial progress, then stop the daemon.
        let deadline = std::time::Instant::now() + IDLE;
        loop {
            let rec = sched.status(id).unwrap();
            if rec.steps_done >= 4 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{tag}: no progress: {rec:?}");
            std::thread::yield_now();
        }
        sched.shutdown();
        let parked = sched_record(&dir);
        assert!(!parked.1.is_terminal(), "{tag}: job must park non-terminal, got {parked:?}");

        let resumed = Scheduler::new(SchedulerConfig { start_paused: false, ..cfg }, true).unwrap();
        let rec = resumed.status(id).expect("resumed table entry");
        assert_eq!(rec.spec_name, "resume-me");
        assert!(resumed.wait_idle(IDLE), "{tag}: resumed job did not finish: {:?}", resumed.list());
        assert_eq!(resumed.status(id).unwrap().state, JobState::Done);
        let resumed_bytes = std::fs::read(dir.join("jobs/job-0/results.json")).unwrap();
        assert_eq!(
            reference, resumed_bytes,
            "{tag}: resumed observables must be byte-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `results.json` one scheduler writes running `spec` start to finish.
fn uninterrupted_results(spec: &ScenarioSpec, tag: &str) -> Vec<u8> {
    let dir = tmp_dir(tag);
    let cfg = SchedulerConfig {
        lanes: 1,
        slice_steps: 4,
        state_dir: Some(dir.clone()),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg, false).unwrap();
    let id = sched.submit(spec.clone()).unwrap();
    assert!(sched.wait_idle(IDLE));
    assert_eq!(sched.status(id).unwrap().state, JobState::Done);
    sched.shutdown();
    let results = std::fs::read(dir.join("jobs").join(id.to_string()).join("results.json"));
    let _ = std::fs::remove_dir_all(&dir);
    results.expect("reference results")
}

/// Reads the parked job's manifest (id, state) from a state dir.
fn sched_record(dir: &std::path::Path) -> (String, JobState) {
    let text = std::fs::read_to_string(dir.join("jobs/job-0/manifest.json")).unwrap();
    let doc = sc_obs::json::Json::parse(&text).unwrap();
    let rec = sc_serve::JobRecord::from_json(&doc).unwrap();
    (rec.id.to_string(), rec.state)
}

#[test]
fn terminal_jobs_and_results_survive_resume() {
    let dir = tmp_dir("terminal-resume");
    let cfg =
        SchedulerConfig { lanes: 1, state_dir: Some(dir.clone()), ..SchedulerConfig::default() };
    let sched = Scheduler::new(cfg.clone(), false).unwrap();
    let done = sched.submit(lj_spec("done", 4, "")).unwrap();
    let cancelled = sched.submit(lj_spec("cancelled", 100_000, "")).unwrap();
    sched.cancel(cancelled);
    assert!(sched.wait_idle(IDLE));
    let results = sched.results(done).unwrap().to_string();
    sched.shutdown();

    let resumed = Scheduler::new(cfg, true).unwrap();
    assert!(resumed.wait_idle(IDLE));
    assert_eq!(resumed.status(done).unwrap().state, JobState::Done);
    assert_eq!(resumed.status(cancelled).unwrap().state, JobState::Cancelled);
    assert_eq!(resumed.results(done).unwrap().to_string(), results);
    // Ids keep counting up from the persisted table.
    let next = resumed.submit(lj_spec("next", 2, "")).unwrap();
    assert_eq!(next, JobId(2));
    assert!(resumed.wait_idle(IDLE));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites one job file, requiring that `from` occurs in it.
fn edit(path: PathBuf, from: &str, to: &str) {
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(from), "{}: no {from:?} in {text}", path.display());
    std::fs::write(&path, text.replace(from, to)).unwrap();
}

/// A job left with a checkpoint past its spec's step count fails as stale
/// on resume instead of running. A job whose manifest no longer parses is
/// skipped, but its id stays spent: the next submission must not take it
/// and restore the skipped job's checkpoint.
#[test]
fn resume_never_runs_a_job_from_a_checkpoint_past_its_end() {
    let dir = tmp_dir("stale-checkpoint");
    let cfg = SchedulerConfig {
        lanes: 1,
        slice_steps: 4,
        state_dir: Some(dir.clone()),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::new(cfg.clone(), false).unwrap();
    sched.submit(lj_spec("twelve", 12, r#", "checkpoint": {"every": 4}"#)).unwrap();
    assert!(sched.wait_idle(IDLE));
    sched.shutdown();
    let job = |file: &str| dir.join("jobs/job-0").join(file);
    assert!(job("checkpoint.bin").exists());

    edit(job("spec.json"), r#""steps":12"#, r#""steps":8"#);
    edit(job("manifest.json"), r#""state":"done""#, r#""state":"queued""#);
    let resumed = Scheduler::new(cfg.clone(), true).unwrap();
    assert!(resumed.wait_idle(IDLE), "{:?}", resumed.list());
    let rec = resumed.status(JobId(0)).unwrap();
    let why = rec.error.clone().unwrap_or_default();
    assert_eq!(rec.state, JobState::Failed, "{rec:?}");
    assert!(why.starts_with("stale checkpoint") && why.contains("beyond"), "{why}");
    resumed.shutdown();

    edit(job("manifest.json"), "{", "[");
    let resumed = Scheduler::new(cfg, true).unwrap();
    assert!(resumed.status(JobId(0)).is_none(), "the unreadable job is skipped");
    let next = resumed.submit(lj_spec("eight", 8, "")).unwrap();
    assert_eq!(next, JobId(1));
    assert!(resumed.wait_idle(IDLE), "{:?}", resumed.list());
    let rec = resumed.status(next).unwrap();
    assert_eq!((rec.state, rec.steps_done), (JobState::Done, 8), "{rec:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage to a parked job's state directory ends typed on resume. Two jobs
/// park; one job's `manifest.json`, `spec.json` or `checkpoint.bin` is then
/// truncated to half or has its middle byte flipped. The damaged job either
/// fails with a reason or is skipped with its id spent, and the undamaged
/// sibling resumes to the results of an uninterrupted run, byte for byte.
/// Both jobs share the one lane, the damaged job first, so a lane thread
/// that panics leaves the sibling unfinished.
#[test]
fn a_damaged_state_directory_fails_one_job_and_resumes_its_sibling() {
    let extra = r#", "checkpoint": {"every": 4}"#;
    let sibling = lj_spec("sibling", 8, extra);
    let reference = uninterrupted_results(&sibling, "damage-reference");
    for file in ["manifest.json", "spec.json", "checkpoint.bin"] {
        for how in ["truncated", "flipped"] {
            let what = format!("{file} {how}");
            // Park both jobs at step 0: a paused lane admits them, and the
            // shutdown checkpoints them.
            let dir = tmp_dir(&format!("damaged-{file}-{how}"));
            let cfg = SchedulerConfig {
                lanes: 1,
                slice_steps: 4,
                state_dir: Some(dir.clone()),
                start_paused: true,
                ..SchedulerConfig::default()
            };
            let sched = Scheduler::new(cfg.clone(), false).unwrap();
            let (damaged, sib) = (
                sched.submit(lj_spec("damaged", 8, extra)).unwrap(),
                sched.submit(sibling.clone()).unwrap(),
            );
            sched.shutdown();
            let path = dir.join("jobs").join(damaged.to_string()).join(file);
            let mut bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
            let mid = bytes.len() / 2;
            match how {
                "truncated" => bytes.truncate(mid),
                _ => bytes[mid] ^= 0xff,
            }
            std::fs::write(&path, bytes).unwrap();

            let resumed =
                Scheduler::new(SchedulerConfig { start_paused: false, ..cfg }, true).unwrap();
            assert!(resumed.wait_idle(IDLE), "{what}: {:?}", resumed.list());
            match resumed.status(damaged) {
                None => {
                    let next = resumed.submit(lj_spec("next", 1, "")).unwrap();
                    assert_eq!(next, JobId(2), "{what}: the skipped job's id must stay spent");
                    assert!(resumed.wait_idle(IDLE), "{what}: {:?}", resumed.list());
                    println!("{what}: skipped");
                }
                Some(rec) => {
                    let why = rec.error.clone().unwrap_or_default();
                    assert!(rec.state == JobState::Failed && !why.is_empty(), "{what}: {rec:?}");
                    println!("{what}: failed: {why}");
                }
            }
            assert_eq!(resumed.status(sib).unwrap().state, JobState::Done, "{what}");
            resumed.shutdown();
            let results =
                std::fs::read(dir.join("jobs").join(sib.to_string()).join("results.json"));
            assert_eq!(results.unwrap(), reference, "{what}: the sibling's results differ");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
