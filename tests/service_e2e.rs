//! End-to-end exercise of the job service over a real Unix socket: the
//! `scmd serve` daemon as a child process, driven by the `scmd`
//! submit/status/cancel/results client verbs and the library client.
//!
//! Covers the service contract the CI `service-smoke` job relies on:
//! several concurrent jobs of mixed specs, cancellation releasing a lane,
//! kill -9 + `--resume true` continuing bitwise-exactly, the daemon's
//! results document matching a standalone `scmd run` of the same spec
//! byte for byte, and hostile specs refused at submit by a typed error
//! while the daemon keeps answering.

use shift_collapse_md::obs::json::Json;
use shift_collapse_md::serve::{client, Request, Response};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scmd() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_scmd"));
    c.stdout(Stdio::piped()).stderr(Stdio::piped());
    c
}

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let dir = std::env::temp_dir().join(format!("scmd-e2e-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A daemon child that is SIGKILLed if a panic unwinds past it.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn spawn_daemon(socket: &Path, state: &Path, resume: bool) -> DaemonGuard {
    // Wrapped in the guard immediately so the child is reaped even if the
    // readiness wait below panics.
    let guard = DaemonGuard(
        scmd()
            .args([
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--state",
                state.to_str().unwrap(),
                "--lanes",
                "2",
                "--slice",
                "2",
                "--resume",
                if resume { "true" } else { "false" },
            ])
            .spawn()
            .expect("daemon spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if matches!(client::request(socket, &Request::Ping), Ok(Response::Pong { .. })) {
            return guard;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon did not come up on {}", socket.display());
}

fn lj_spec(name: &str, steps: u64, extra: &str) -> String {
    format!(
        r#"{{
            "schema": "sc-scenario/1",
            "name": "{name}",
            "system": {{"kind": "lj", "cells": 5, "a": 1.5599, "temp": 1.0, "seed": 42}},
            "potential": {{"kind": "lj", "cutoff": 2.5}},
            "method": "sc",
            "executor": {{"kind": "serial"}},
            "dt": 0.002,
            "steps": {steps}{extra}
        }}"#
    )
}

fn job(socket: &Path, id: &str) -> Json {
    match client::request(socket, &Request::Status { id: Some(id.into()) }).unwrap() {
        Response::Status { jobs } => jobs.into_iter().next().expect("job exists"),
        other => panic!("unexpected response {}", other.to_json()),
    }
}

fn state_of(socket: &Path, id: &str) -> String {
    job(socket, id).get("state").and_then(|v| v.as_str()).unwrap().to_string()
}

fn wait_for_state(socket: &Path, id: &str, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if state_of(socket, id) == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("{id} never reached {want}; job: {}", job(socket, id));
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("scmd runs");
    assert!(
        out.status.success(),
        "scmd failed (status {:?}): {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Mixed-spec concurrency, CLI client verbs, cancellation, and the
/// standalone-vs-served bitwise results contract.
#[test]
fn daemon_serves_mixed_jobs_with_cancellation_and_bitwise_results() {
    let dir = TestDir::new("smoke");
    let socket = dir.path("scmd.sock");
    let _daemon = spawn_daemon(&socket, &dir.path("state"), false);

    // Four concurrent jobs across 2 lanes: two LJ serial runs, one
    // distributed BSP run, and a long job destined for cancellation.
    let lj_path = dir.path("e2e-lj.json");
    std::fs::write(&lj_path, lj_spec("e2e-lj", 12, r#", "checkpoint": {"every": 4}"#)).unwrap();
    let submit_out = run_ok(scmd().args([
        "submit",
        "--spec",
        lj_path.to_str().unwrap(),
        "--socket",
        socket.to_str().unwrap(),
    ]));
    let lj_id = submit_out.trim().to_string();
    assert!(lj_id.starts_with("job-"), "unexpected submit output {submit_out:?}");

    let submit = |text: String| -> String {
        let spec = Json::parse(&text).unwrap();
        match client::request(&socket, &Request::Submit { spec }).unwrap() {
            Response::Submitted { id } => id,
            other => panic!("unexpected response {}", other.to_json()),
        }
    };
    let silica_id = submit(
        r#"{
            "schema": "sc-scenario/1",
            "name": "e2e-silica",
            "system": {"kind": "silica", "cells": 3, "a": 7.16, "temp": 0.05, "seed": 42},
            "potential": {"kind": "vashishta"},
            "method": "sc",
            "executor": {"kind": "serial"},
            "dt": 0.0005,
            "steps": 4
        }"#
        .to_string(),
    );
    let bsp_id = submit(
        r#"{
            "schema": "sc-scenario/1",
            "name": "e2e-bsp",
            "system": {"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42},
            "potential": {"kind": "lj", "cutoff": 2.5},
            "method": "sc",
            "executor": {"kind": "bsp", "grid": [2, 1, 1]},
            "dt": 0.002,
            "steps": 6,
            "checkpoint": {"every": 2}
        }"#
        .to_string(),
    );
    let doomed_id = submit(lj_spec("e2e-doomed", 200000, ""));

    // Cancel through the CLI verb; the lane must come free again.
    run_ok(scmd().args(["cancel", "--id", &doomed_id, "--socket", socket.to_str().unwrap()]));
    wait_for_state(&socket, &doomed_id, "cancelled");

    for id in [&lj_id, &silica_id, &bsp_id] {
        wait_for_state(&socket, id, "done");
    }

    // The status table lists all four jobs.
    let table = run_ok(scmd().args(["status", "--socket", socket.to_str().unwrap()]));
    for (id, frag) in [(&lj_id, "e2e-lj"), (&silica_id, "e2e-silica"), (&bsp_id, "e2e-bsp")] {
        assert!(table.contains(id.as_str()) && table.contains(frag), "table:\n{table}");
    }

    // Served results must byte-match a standalone run of the same spec.
    let served = dir.path("served.json");
    run_ok(scmd().args([
        "results",
        "--id",
        &lj_id,
        "--socket",
        socket.to_str().unwrap(),
        "--out",
        served.to_str().unwrap(),
    ]));
    let standalone = dir.path("standalone.json");
    run_ok(scmd().args([
        "run",
        "--spec",
        lj_path.to_str().unwrap(),
        "--results",
        standalone.to_str().unwrap(),
    ]));
    let (a, b) = (std::fs::read(&served).unwrap(), std::fs::read(&standalone).unwrap());
    assert!(!a.is_empty() && a == b, "served and standalone observables differ");

    // A graceful shutdown parks the daemon.
    run_ok(scmd().args(["shutdown", "--socket", socket.to_str().unwrap()]));
}

/// SIGKILL mid-run, restart with `--resume true`: the job continues from
/// its last persisted checkpoint and the final observables are
/// byte-identical to an uninterrupted standalone run.
#[test]
fn killed_daemon_resumes_bitwise() {
    let dir = TestDir::new("resume");
    let socket = dir.path("scmd.sock");
    let state = dir.path("state");
    let spec_path = dir.path("e2e-resume.json");
    std::fs::write(&spec_path, lj_spec("e2e-resume", 4000, r#", "checkpoint": {"every": 50}"#))
        .unwrap();

    let mut daemon = spawn_daemon(&socket, &state, false);
    let id = {
        let spec = Json::parse(&std::fs::read_to_string(&spec_path).unwrap()).unwrap();
        match client::request(&socket, &Request::Submit { spec }).unwrap() {
            Response::Submitted { id } => id,
            other => panic!("unexpected response {}", other.to_json()),
        }
    };

    // Let it make real progress (past at least one persisted checkpoint),
    // then kill without ceremony.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = job(&socket, &id).get("steps_done").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if done >= 100.0 {
            break;
        }
        assert!(done < 4000.0, "job finished before the kill — raise the step count");
        assert!(Instant::now() < deadline, "job made no progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();

    let _daemon = spawn_daemon(&socket, &state, true);
    wait_for_state(&socket, &id, "done");
    let resumed = match client::request(&socket, &Request::Results { id: id.clone() }).unwrap() {
        Response::Results { doc, .. } => doc.to_string(),
        other => panic!("unexpected response {}", other.to_json()),
    };

    let standalone = dir.path("standalone.json");
    run_ok(scmd().args([
        "run",
        "--spec",
        spec_path.to_str().unwrap(),
        "--results",
        standalone.to_str().unwrap(),
    ]));
    assert_eq!(
        resumed,
        std::fs::read_to_string(&standalone).unwrap(),
        "resumed results drifted from the uninterrupted run"
    );
}

/// Specs that would make the daemon allocate without bound or run another
/// grid than the one asked for are refused at submit with a typed error
/// naming the field, and the daemon stays up.
#[test]
fn hostile_submits_get_typed_errors_and_the_daemon_survives() {
    let dir = TestDir::new("hostile");
    let socket = dir.path("scmd.sock");
    let _daemon = spawn_daemon(&socket, &dir.path("state"), false);
    let wrapped_grid = lj_spec("wrapped-grid", 4, "")
        .replace(r#"{"kind": "serial"}"#, r#"{"kind": "bsp", "grid": [4294967297, 1, 1]}"#);
    for (spec, field) in [
        (lj_spec("huge-ring", 4, r#", "observability": {"ring": 1e15}"#), "observability.ring"),
        (wrapped_grid, "executor.grid"),
    ] {
        let spec = Json::parse(&spec).unwrap();
        match client::request(&socket, &Request::Submit { spec }).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, "bad-spec", "{message}");
                assert!(message.contains(field), "{field} not named in {message:?}");
            }
            other => panic!("{field}: expected a typed error, got {}", other.to_json()),
        }
    }
    match client::request(&socket, &Request::Status { id: None }) {
        Ok(Response::Status { jobs }) => assert!(jobs.is_empty(), "refused specs queued no job"),
        other => panic!("status after hostile submits: {other:?}"),
    }
}
