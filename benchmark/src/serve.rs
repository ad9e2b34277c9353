//! The serve part of a workload: an in-process `Daemon` on a Unix socket,
//! closed-loop clients that submit a job, wait for `done` and fetch its
//! results, each request on its own connection as `scmd` makes them.

use crate::catalog::Metrics;
use crate::run::{Ops, Opts};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted};
use sc_obs::json::Json;
use sc_serve::client::{request, watch};
use sc_serve::{Daemon, DaemonConfig, Request, Response, SchedulerConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon configuration every workload is served with.
pub const LANES: usize = 2;
pub const SLICE_STEPS: u64 = 4;
pub const QUEUE_CAPACITY: usize = 8;
/// Pause between two `Status` polls of a waiting client: 2 % of a job, so
/// that latency resolves to that, and long enough that the polling itself
/// does not load the cores the lanes step on (at 1 ms, 250 connections per
/// job, eight runs spread by 0.16 to 0.19 on every serve metric; at 5 ms by
/// 0.08).
const POLL: Duration = Duration::from_millis(5);
/// A job that has not finished by then is failed (a stalled lane).
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// A daemon serving on its own thread.
pub struct Served {
    pub socket: PathBuf,
    pub state_dir: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Binds a daemon under `dir` (state directory set, so journaling and
/// checkpoints are on), serves it, and waits for the first `Ping` answer.
/// Returns the bind → first-pong seconds: the serve path's set-up time.
pub fn start(dir: &Path) -> Result<(Served, f64), String> {
    let socket = dir.join("d.sock");
    let state_dir = dir.join("state");
    let t0 = Instant::now();
    let daemon = Daemon::bind(DaemonConfig {
        socket: socket.clone(),
        scheduler: SchedulerConfig {
            lanes: LANES,
            slice_steps: SLICE_STEPS,
            queue_capacity: QUEUE_CAPACITY,
            state_dir: Some(state_dir.clone()),
            ..SchedulerConfig::default()
        },
        resume: false,
        metrics_addr: None,
    })
    .map_err(|e| format!("daemon bind on {} failed: {e}", socket.display()))?;
    let thread = std::thread::Builder::new()
        .name("bench-daemon".into())
        .spawn(move || daemon.run())
        .map_err(|e| format!("daemon thread: {e}"))?;
    match request(&socket, &Request::Ping) {
        Ok(Response::Pong { .. }) => {}
        other => return Err(format!("first ping answered {other:?}")),
    }
    Ok((Served { socket, state_dir, thread }, t0.elapsed().as_secs_f64()))
}

impl Served {
    /// Asks the daemon to stop and waits until its thread has ended.
    pub fn stop(self) -> Result<(), String> {
        request(&self.socket, &Request::Shutdown).map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon ended with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// What one client did with one job.
#[derive(Debug, Clone)]
struct Job {
    submit_rtt_us: f64,
    status_rtt_us: Vec<f64>,
    latency_ms: f64,
    /// Submit → first watch snapshot (watched jobs only).
    first_progress_ms: Option<f64>,
    /// When `done` was observed, seconds since the loop started.
    done_at_s: f64,
    wall_ms: f64,
    steps: f64,
}

#[derive(Default)]
struct ClientLog {
    jobs: Vec<Job>,
    ops: Ops,
}

fn status_of(resp: &Response, key: &str) -> Option<Json> {
    match resp {
        Response::Status { jobs } => jobs.first().and_then(|j| j.get(key)).cloned(),
        _ => None,
    }
}

fn one_job(
    socket: &Path,
    spec: &Json,
    expected: &str,
    watched: bool,
    loop_start: Instant,
    rec: &mut Recorder,
) -> Result<Job, String> {
    let span = rec.begin("job");
    let job = submit_wait_fetch(socket, spec, expected, watched, loop_start, rec);
    rec.end(span);
    job
}

fn submit_wait_fetch(
    socket: &Path,
    spec: &Json,
    expected: &str,
    watched: bool,
    loop_start: Instant,
    rec: &mut Recorder,
) -> Result<Job, String> {
    let t_submit = Instant::now();
    let id = match request(socket, &Request::Submit { spec: spec.clone() }) {
        Ok(Response::Submitted { id }) => id,
        Ok(Response::Error { code, message }) => return Err(format!("refused [{code}] {message}")),
        other => return Err(format!("submit answered {other:?}")),
    };
    let submitted = Instant::now();
    rec.record("serve.submit", t_submit, submitted);
    let wait_span = rec.begin("serve.wait");
    let mut first_progress_ms = None;
    if watched {
        // One subscription, dropped at the first snapshot: the submit →
        // first progress time. A job that already finished refuses it.
        let _ = watch(socket, &id, Some(0), |resp| {
            if matches!(resp, Response::Telemetry { .. }) {
                first_progress_ms = Some(t_submit.elapsed().as_secs_f64() * 1e3);
                return false;
            }
            true
        });
    }
    let mut status_rtt_us = Vec::new();
    let status = loop {
        let t = Instant::now();
        let resp = request(socket, &Request::Status { id: Some(id.clone()) })
            .map_err(|e| format!("{id}: status: {e}"))?;
        status_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        let state = status_of(&resp, "state");
        match state.as_ref().and_then(Json::as_str) {
            Some("done") => break resp,
            Some("failed") | Some("cancelled") => {
                return Err(format!("{id}: ended {:?}: {:?}", state, status_of(&resp, "error")))
            }
            Some(_) => {}
            None => return Err(format!("{id}: status answered {resp:?}")),
        }
        if t_submit.elapsed() > JOB_TIMEOUT {
            return Err(format!("{id}: not done after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    };
    let done = Instant::now();
    rec.end(wait_span);
    let results = match request(socket, &Request::Results { id: id.clone() }) {
        Ok(Response::Results { doc, .. }) => doc.to_string(),
        other => return Err(format!("{id}: results answered {other:?}")),
    };
    rec.record("serve.results", done, Instant::now());
    if results != expected {
        return Err(format!("{id}: served results differ from the standalone run: {results}"));
    }
    let num = |key| status_of(&status, key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    let latency_ms = (done - t_submit).as_secs_f64() * 1e3;
    Ok(Job {
        submit_rtt_us: (submitted - t_submit).as_secs_f64() * 1e6,
        status_rtt_us,
        latency_ms,
        // A job that ended before the subscription landed showed its first
        // progress no later than its completion.
        first_progress_ms: watched.then(|| first_progress_ms.unwrap_or(latency_ms)),
        done_at_s: (done - loop_start).as_secs_f64(),
        wall_ms: num("wall_ms"),
        steps: num("steps_done"),
    })
}

/// Everything the serve part measures.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    pub ops: Ops,
    pub setup_s: Vec<f64>,
    /// Σ over clients of 1 ÷ the client's median `done`-to-`done` time: a
    /// closed-loop client finishes one job per cycle, and the median cycle
    /// shrugs off the odd stalled job that a count over the wall would not.
    pub jobs_per_s: f64,
    pub steps_per_job: f64,
    pub latency_ms: Vec<f64>,
    /// Per job: the daemon's `wall_ms` ÷ `steps_done`.
    pub served_step_ms: Vec<f64>,
    pub ping_rtt_us: Vec<f64>,
    pub submit_rtt_us: Vec<f64>,
    pub status_rtt_us: Vec<f64>,
    pub first_progress_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub lane_busy_frac: f64,
    pub slices_per_job: f64,
    pub checkpoints_per_job: f64,
    pub manifests_per_job: f64,
    pub rejected: f64,
    pub slice_ms_mean: f64,
    pub state_bytes_per_job: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The value of an unlabelled sample in a Prometheus text exposition.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// The daemon's metrics once its counters have stopped moving: a client
/// sees `done` a moment before the lane has written that job's last
/// checkpoint and manifest.
fn settled_exposition(socket: &Path) -> String {
    let read = || match request(socket, &Request::Metrics) {
        Ok(Response::Metrics { text }) => text,
        _ => String::new(),
    };
    let counters = |text: &str| {
        ["serve_slices_total", "serve_checkpoints_written_total", "serve_manifests_written_total"]
            .map(|name| sample(text, name).to_bits())
    };
    // Settled = five reads in a row, 20 ms apart, that agree.
    let mut last = read();
    let mut agreeing = 0;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let now = read();
        agreeing = if counters(&now) == counters(&last) { agreeing + 1 } else { 0 };
        last = now;
        if agreeing == 4 {
            break;
        }
    }
    last
}

/// Jobs every client submits in a segment however short it is, so that a
/// completion-to-completion rate exists.
const MIN_JOBS: u32 = 2;

/// One segment of the closed loop: every client submits, waits and fetches
/// until `deadline`. Returns each client's log.
fn segment(
    socket: &Path,
    specs: &[Json],
    expected: &[String],
    deadline: Instant,
    opts: Opts,
    loop_start: Instant,
    rec: &mut Recorder,
) -> Vec<ClientLog> {
    let (epoch, on) = (rec.epoch(), rec.on());
    let logs: Vec<(ClientLog, Recorder)> = std::thread::scope(|scope| {
        let clients: Vec<_> = specs
            .iter()
            .zip(expected)
            .enumerate()
            .map(|(c, (spec, expected))| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, c as u32 + 1, on);
                    let mut log = ClientLog::default();
                    let expected =
                        if opts.self_test { format!("{expected} ") } else { expected.clone() };
                    loop {
                        let n = log.ops.attempted as u32;
                        if n >= MIN_JOBS && Instant::now() >= deadline {
                            break;
                        }
                        rec.set_repeat(n);
                        let watched = on && n % 4 == 1;
                        let job = one_job(socket, spec, &expected, watched, loop_start, &mut rec);
                        log.ops.one(match job {
                            Ok(job) => {
                                log.jobs.push(job);
                                Ok(())
                            }
                            Err(why) => Err(format!("client {c}: {why}")),
                        });
                    }
                    (log, rec)
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    logs.into_iter()
        .map(|(log, client_rec)| {
            rec.absorb(client_rec);
            log
        })
        .collect()
}

/// Serves `docs[c]` to client `c` in a closed loop for `seconds`, split
/// into `segments` equal segments; every served results document must equal
/// `expected[c]` byte for byte. `between` runs in the pause between two
/// segments (the caller measures standalone stepping there, so slow machine
/// drift hits both sides of `served_over_standalone` alike). When `rec`
/// records, every fourth job of a client also measures submit → first
/// progress through a `Watch` subscription.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    dir: &Path,
    docs: &[String],
    expected: &[String],
    seconds: f64,
    segments: u32,
    between: &mut dyn FnMut(&mut Recorder),
    setup_samples: u32,
    opts: Opts,
    rec: &mut Recorder,
) -> ServeOutcome {
    let mut out = ServeOutcome::default();
    // Set-up samples: bind → first pong, each on a fresh daemon; half of
    // them before the loop and half after it.
    let set_ups = |out: &mut ServeOutcome, range: std::ops::Range<u32>| {
        for i in range {
            let sub = dir.join(format!("setup{i}"));
            match start(&sub).and_then(|(d, s)| d.stop().map(|()| s)) {
                Ok(s) => out.setup_s.push(s),
                Err(why) => out.ops.one(Err(why)),
            }
        }
    };
    set_ups(&mut out, 1..setup_samples / 2 + 1);
    let span = rec.begin("serve.bind");
    let started = start(dir);
    rec.end(span);
    let (daemon, setup_s) = match started {
        Ok(ok) => ok,
        Err(why) => {
            out.ops.one(Err(why));
            return out;
        }
    };
    out.setup_s.push(setup_s);
    for _ in 0..if opts.quick { 5 } else { 200 } {
        let t = Instant::now();
        if request(&daemon.socket, &Request::Ping).is_ok() {
            out.ping_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let specs: Vec<Json> =
        docs.iter().map(|d| Json::parse(d).expect("generated documents are JSON")).collect();
    let socket = daemon.socket.as_path();
    let segment_s = seconds / f64::from(segments);
    let loop_start = Instant::now();
    let mut busy_s = 0.0;
    let mut all: Vec<Job> = Vec::new();
    // Per client: seconds from one job's `done` to the next one's.
    let mut cycles_s: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    for seg in 0..segments {
        if seg > 0 {
            between(rec);
        }
        let t = Instant::now();
        let deadline = t + Duration::from_secs_f64(segment_s);
        let logs = segment(socket, &specs, expected, deadline, opts, loop_start, rec);
        busy_s += t.elapsed().as_secs_f64();
        for (log, cycles) in logs.into_iter().zip(&mut cycles_s) {
            out.ops.absorb(log.ops);
            cycles.extend(log.jobs.windows(2).map(|w| w[1].done_at_s - w[0].done_at_s));
            all.extend(log.jobs);
        }
    }
    out.jobs_per_s = cycles_s.iter().map(|c| 1.0 / median(c)).sum();

    let exposition = settled_exposition(socket);
    let state_bytes = dir_bytes(&daemon.state_dir);
    if let Err(why) = daemon.stop() {
        out.ops.one(Err(why));
    }
    set_ups(&mut out, setup_samples / 2 + 1..setup_samples);
    let n = all.len() as f64;
    if all.is_empty() {
        return out;
    }
    let wall_ms: f64 = all.iter().map(|j| j.wall_ms).sum();
    let steps: f64 = all.iter().map(|j| j.steps).sum();
    out.steps_per_job = steps / n;
    out.lane_busy_frac = wall_ms / 1e3 / (LANES as f64 * busy_s);
    for j in &all {
        out.latency_ms.push(j.latency_ms);
        out.served_step_ms.push(j.wall_ms / j.steps);
        out.submit_rtt_us.push(j.submit_rtt_us);
        out.status_rtt_us.extend(&j.status_rtt_us);
        out.first_progress_ms.extend(j.first_progress_ms);
        out.queue_wait_ms.push(j.latency_ms - j.wall_ms);
    }
    out.slices_per_job = sample(&exposition, "serve_slices_total") / n;
    out.checkpoints_per_job = sample(&exposition, "serve_checkpoints_written_total") / n;
    out.manifests_per_job = sample(&exposition, "serve_manifests_written_total") / n;
    out.rejected = sample(&exposition, "serve_backpressure_rejected_total");
    out.slice_ms_mean = sample(&exposition, "serve_slice_duration_ms_sum")
        / sample(&exposition, "serve_slice_duration_ms_count");
    out.state_bytes_per_job = state_bytes as f64 / n;
    out
}

impl ServeOutcome {
    /// The `serve.*` layer metrics.
    pub fn layer_metrics(&self) -> Metrics {
        vec![
            ("serve.ping_rtt_us_p50", median(&self.ping_rtt_us)),
            ("serve.submit_rtt_us_p50", median(&self.submit_rtt_us)),
            ("serve.status_rtt_us_p50", median(&self.status_rtt_us)),
            ("serve.first_progress_ms_p50", median(&self.first_progress_ms)),
            ("serve.queue_wait_ms_p50", median(&self.queue_wait_ms)),
            ("serve.job_latency_ms_p90", percentile(&sorted(self.latency_ms.clone()), 90.0)),
            ("serve.lane_busy_frac", self.lane_busy_frac),
            ("serve.slices_per_job", self.slices_per_job),
            ("serve.checkpoints_per_job", self.checkpoints_per_job),
            ("serve.manifests_per_job", self.manifests_per_job),
            ("serve.rejected", self.rejected),
            ("serve.slice_ms_mean", self.slice_ms_mean),
            ("serve.state_bytes_per_job", self.state_bytes_per_job),
        ]
    }
}
