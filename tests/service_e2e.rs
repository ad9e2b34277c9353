//! End-to-end exercise of the job service over a real Unix socket: the
//! `scmd serve` daemon as a child process, driven by the `scmd`
//! submit/status/cancel/results client verbs and the library client.
//!
//! Covers the service contract the CI `service-smoke` job relies on:
//! several concurrent jobs of mixed specs, cancellation releasing a lane,
//! kill -9 + `--resume true` continuing bitwise-exactly, the daemon's
//! results document matching a standalone `scmd run` of the same spec
//! byte for byte (a rank crash included), hostile specs refused at submit by a typed error
//! while the daemon keeps answering, connections beyond the daemon's cap
//! refused with one typed line, a client that half-closes mid-line, and
//! zero counts refused on the command line.

use shift_collapse_md::obs::json::Json;
use shift_collapse_md::serve::{client, Request, Response, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
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

/// A rank crash under a served job and under `scmd run` takes the same
/// recovery ladder: the checked-in fault storm on a 2×2×1 grid with a
/// crash budget of one ends `done` in the daemon, and the standalone run of
/// the same document exits 0 with byte-equal results.
#[test]
fn crashed_rank_run_standalone_equals_served() {
    let dir = TestDir::new("crash");
    let socket = dir.path("scmd.sock");
    let storm = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/fault-storm.json"),
    )
    .unwrap()
    .replace(r#""grid": [2, 1, 1]"#, r#""grid": [2, 2, 1]"#)
    .replace(
        r#""seed": 7, "count": 3, "max_crashes": 0"#,
        r#""seed": 2, "count": 4, "max_crashes": 1"#,
    );
    assert!(storm.contains(r#""max_crashes": 1"#), "fault-storm.json changed shape");
    let spec_path = dir.path("crash-storm.json");
    std::fs::write(&spec_path, &storm).unwrap();

    let _daemon = spawn_daemon(&socket, &dir.path("state"), false);
    let id = match client::request(&socket, &Request::Submit { spec: Json::parse(&storm).unwrap() })
        .unwrap()
    {
        Response::Submitted { id } => id,
        other => panic!("unexpected response {}", other.to_json()),
    };
    wait_for_state(&socket, &id, "done");
    let served = match client::request(&socket, &Request::Results { id }).unwrap() {
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
    assert_eq!(served, std::fs::read_to_string(&standalone).unwrap(), "served ≠ standalone");
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
    let huge_lattice =
        lj_spec("huge-lattice", 4, "").replace(r#""cells": 5"#, r#""cells": 100000"#);
    for (spec, field) in [
        (lj_spec("huge-ring", 4, r#", "observability": {"ring": 1e15}"#), "observability.ring"),
        (wrapped_grid, "executor.grid"),
        (huge_lattice, "system.cells"),
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

/// Idle clients hold the daemon's connections up to its cap; the next one
/// gets one typed `busy` line and is closed, and every held connection
/// still answers.
#[test]
fn connections_beyond_the_cap_are_refused_and_the_daemon_keeps_answering() {
    let dir = TestDir::new("connection-cap");
    let socket = dir.path("scmd.sock");
    let _daemon = spawn_daemon(&socket, &dir.path("state"), false);
    let held: Vec<UnixStream> =
        (0..MAX_CONNECTIONS).map(|_| UnixStream::connect(&socket).unwrap()).collect();
    let refused = UnixStream::connect(&socket).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut line = String::new();
    BufReader::new(refused).read_line(&mut line).unwrap();
    match Response::from_json(&Json::parse(line.trim()).unwrap()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "busy", "{line}"),
        other => panic!("over the cap: expected busy, got {}", other.to_json()),
    }
    let status = Request::Status { id: None }.to_json().to_string();
    for mut conn in held.iter().rev().take(2) {
        writeln!(conn, "{status}").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "a held connection answers status: {line}");
    }
    drop(held);
    // The slots free as the idle connections' threads see them close.
    let status = || client::request(&socket, &Request::Status { id: None });
    let answers = |_| matches!(status(), Ok(Response::Status { .. })) || pause(50);
    assert!((0..400).any(answers), "the daemon stopped answering");
}

/// A client that writes half a request line and then shuts down its write
/// side gets one typed `bad-request` line for the fragment and then the end
/// of the stream, and the daemon keeps answering `scmd status`.
#[test]
fn a_half_closed_request_line_leaves_the_daemon_answering() {
    let dir = TestDir::new("half-close");
    let socket = dir.path("scmd.sock");
    let _daemon = spawn_daemon(&socket, &dir.path("state"), false);
    let mut conn = UnixStream::connect(&socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    conn.write_all(br#"{"verb": "sta"#).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    let lines: Vec<&str> = reply.lines().collect();
    match lines[..] {
        [line] => match Response::from_json(&Json::parse(line).unwrap()).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, "bad-request", "{line}"),
            other => panic!("half a line: expected bad-request, got {}", other.to_json()),
        },
        _ => panic!("half a line: expected one reply line, got {reply:?}"),
    }
    run_ok(scmd().args(["status", "--socket", socket.to_str().unwrap()]));
}

/// A client that sends `watch` and then never reads: its snapshots pile up
/// in the socket and the subscription's bounded queue, while `scmd status`
/// still answers, the watched job ends `done`, and its results byte-match a
/// standalone `scmd run` of the same spec.
#[test]
fn a_watcher_that_never_reads_stalls_nothing() {
    let dir = TestDir::new("deaf-watcher");
    let socket = dir.path("scmd.sock");
    let _daemon = spawn_daemon(&socket, &dir.path("state"), false);
    let submit = |text: String| match client::request(
        &socket,
        &Request::Submit { spec: Json::parse(&text).unwrap() },
    )
    .unwrap()
    {
        Response::Submitted { id } => id,
        other => panic!("unexpected response {}", other.to_json()),
    };
    // Two long jobs hold both lanes, so the watched job is still queued (and
    // watchable) when the watch arrives.
    let blockers =
        [submit(lj_spec("e2e-block-a", 200000, "")), submit(lj_spec("e2e-block-b", 200000, ""))];
    let spec_path = dir.path("e2e-watched.json");
    std::fs::write(&spec_path, lj_spec("e2e-watched", 400, "")).unwrap();
    let watched = submit(std::fs::read_to_string(&spec_path).unwrap());
    let mut deaf = UnixStream::connect(&socket).unwrap();
    let watch = Request::Watch { id: watched.clone(), every: Some(1) };
    writeln!(deaf, "{}", watch.to_json()).unwrap();
    for id in &blockers {
        run_ok(scmd().args(["cancel", "--id", id, "--socket", socket.to_str().unwrap()]));
    }
    wait_for_state(&socket, &watched, "done");
    let table = run_ok(scmd().args(["status", "--socket", socket.to_str().unwrap()]));
    assert!(table.contains(watched.as_str()), "table:\n{table}");
    // The watch was live: the job pushed snapshots the client never read.
    let metrics = run_ok(scmd().args(["metrics", "--socket", socket.to_str().unwrap()]));
    let pushed = metrics.lines().find_map(|l| l.strip_prefix("serve_watch_snapshots_total "));
    assert!(pushed.is_some_and(|n| n != "0"), "no snapshot was pushed:\n{metrics}");
    let served = dir.path("served.json");
    run_ok(
        scmd()
            .args(["results", "--id", &watched, "--socket", socket.to_str().unwrap()])
            .args(["--out", served.to_str().unwrap()]),
    );
    let standalone = dir.path("standalone.json");
    run_ok(
        scmd()
            .args(["run", "--spec", spec_path.to_str().unwrap()])
            .args(["--results", standalone.to_str().unwrap()]),
    );
    let (a, b) = (std::fs::read(&served).unwrap(), std::fs::read(&standalone).unwrap());
    assert!(!a.is_empty() && a == b, "served and standalone observables differ");
    drop(deaf);
}

/// Sleeps `ms` milliseconds; false, so polling loops can call it inline.
fn pause(ms: u64) -> bool {
    std::thread::sleep(Duration::from_millis(ms));
    false
}

/// `scmd serve` refuses a zero lane count, slice length or queue capacity
/// with the typed flag error (exit 2, naming the flag), not a panic.
#[test]
fn serve_refuses_zero_counts_by_flag() {
    let dir = TestDir::new("zero-counts");
    for flag in ["--lanes", "--slice", "--queue"] {
        let mut child = DaemonGuard(
            scmd()
                .args(["serve", "--socket", dir.path("scmd.sock").to_str().unwrap()])
                .args(["--state", dir.path("state").to_str().unwrap(), flag, "0"])
                .spawn()
                .unwrap(),
        );
        let poll = |c: &mut DaemonGuard| c.0.try_wait().unwrap().ok_or_else(|| pause(20));
        let exited = (0..1000).find_map(|_| poll(&mut child).ok());
        let status = exited.unwrap_or_else(|| panic!("scmd serve {flag} 0 kept running"));
        let stderr = std::io::read_to_string(child.0.stderr.take().unwrap()).unwrap();
        assert_eq!(status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(&format!("bad value for {flag}: \"0\"")), "{stderr}");
        assert!(stderr.contains("positive integer") && !stderr.contains("panicked"), "{stderr}");
    }
}
