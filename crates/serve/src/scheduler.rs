//! The multi-tenant job scheduler: worker lanes, fair round-robin
//! time-slicing, bounded admission, cancellation, and per-job checkpoint
//! persistence.
//!
//! ## Design
//!
//! Jobs are pinned to a **lane** (`id % lanes`) at submission; each lane
//! is one worker thread that owns its jobs' live simulation state and
//! steps them cooperatively, [`SchedulerConfig::slice_steps`] at a time,
//! in strict round-robin order. Pinning keeps the engines on the thread
//! that created them (no `Send` requirement on executor internals) and
//! makes per-lane scheduling order deterministic — the fairness tests
//! assert the exact interleaving.
//!
//! Each job is driven through the per-job [`sc_md::Supervisor`] its spec
//! builds ([`ScenarioSpec::supervisor`]) over the engine's `Recoverable`
//! impl, so a served job with a fault plan gets the same
//! rollback/re-decomposition ladder as `scmd run`.
//! Unrecovered faults fail only that job; the lane and its other tenants
//! keep running.
//!
//! With a state directory configured, every job persists its spec, a
//! manifest, and (on its checkpoint schedule and at graceful shutdown) a
//! labelled checkpoint — enough for [`Scheduler::new`] with
//! `resume = true` to reload the table and continue interrupted jobs
//! after a daemon restart. Trajectories are deterministic and checkpoint
//! restore is bitwise, so a resumed job's final observables are
//! byte-identical to an uninterrupted run's.

use crate::job::{JobId, JobRecord, JobState};
use crate::metrics::DaemonMetrics;
use crate::watch::{WatchHandle, WatchShared};
use sc_md::supervisor::Supervisor;
use sc_md::{Checkpoint, CheckpointError};
use sc_obs::json::Json;
use sc_obs::{chrome_trace, MetricsSnapshot, Registry, Tracer};
use sc_parallel::DistributedSim;
use sc_spec::{observables_doc, ScenarioSpec, SpecError};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Slices the slice record ([`Scheduler::trace`]) keeps: the newest ones.
pub const TRACE_SLICES: usize = 1024;

/// Scheduler policy.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker lanes (stepping threads). Jobs are pinned `id % lanes`.
    pub lanes: usize,
    /// Maximum live (queued + running) jobs; submission beyond this is
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Steps granted per scheduling slice.
    pub slice_steps: u64,
    /// Persistence root (specs, manifests, checkpoints, results). `None`
    /// runs fully in-memory (no restart resume).
    pub state_dir: Option<PathBuf>,
    /// Start with the lanes admitting but not stepping, until
    /// [`Scheduler::start`] — lets a batch of submissions land before any
    /// slicing begins, making the scheduling order exactly reproducible
    /// (the fairness tests rely on this).
    pub start_paused: bool,
    /// Per-subscriber watch queue capacity, in snapshots. A subscriber
    /// that falls further behind loses its **oldest** snapshots (counted,
    /// never blocking the lane).
    pub watch_queue: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            lanes: 2,
            queue_capacity: 8,
            slice_steps: 4,
            state_dir: None,
            start_paused: false,
            watch_queue: 16,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The live-job cap is reached; retry after a job finishes.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The spec failed validation.
    Spec(SpecError),
    /// The spec is valid but the job cannot be admitted (its state cannot
    /// be persisted).
    Unservable(String),
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full: {capacity} jobs already live")
            }
            SubmitError::Spec(e) => write!(f, "invalid spec: {e}"),
            SubmitError::Unservable(why) => write!(f, "spec cannot be served: {why}"),
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a watch subscription was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchError {
    /// No job with that id.
    UnknownJob,
    /// The job is already terminal; there is nothing left to stream.
    Terminal(JobState),
}

impl fmt::Display for WatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchError::UnknownJob => write!(f, "no such job"),
            WatchError::Terminal(state) => write!(f, "job is already {state}"),
        }
    }
}

/// Why a flight-recorder dump was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpError {
    /// No job with that id.
    UnknownJob,
    /// The job has no live engine in this daemon (still queued, or a
    /// terminal job reloaded from a previous daemon's state directory).
    NotStarted,
    /// The job's trace ring is explicitly disabled
    /// (`observability.ring: 0` with the scheduler's flight ring off).
    Disabled,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::UnknownJob => write!(f, "no such job"),
            DumpError::NotStarted => write!(f, "job has no live trace in this daemon"),
            DumpError::Disabled => write!(f, "job's flight-recorder ring is disabled"),
        }
    }
}

/// A flight-recorder snapshot of a (typically still running) job.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// The job the trace came from.
    pub id: JobId,
    /// The job's `steps_done` at snapshot time.
    pub step: u64,
    /// Events captured in the dump.
    pub events: u64,
    /// Ring-overflow drops since the job started (older history lost).
    pub dropped: u64,
    /// The Chrome Trace Format document.
    pub doc: Json,
}

/// One job's bookkeeping entry.
struct JobEntry {
    record: JobRecord,
    spec: ScenarioSpec,
    /// Cooperative cancellation flag; the lane honours it at the next
    /// slice boundary.
    cancel: bool,
    /// The observables document, once [`JobState::Done`].
    results: Option<Json>,
    /// Live watch subscriptions; the lane fans snapshots out to these at
    /// slice boundaries.
    watchers: Vec<Arc<WatchShared>>,
    /// Clone of the running engine's registry (Arc-backed, thread-safe)
    /// so the daemon can scrape a job the lane exclusively owns.
    metrics: Option<Registry>,
    /// Clone of the running engine's tracer, for mid-run `Dump`.
    tracer: Option<Tracer>,
}

impl JobEntry {
    fn new(record: JobRecord, spec: ScenarioSpec, results: Option<Json>) -> JobEntry {
        JobEntry {
            record,
            spec,
            cancel: false,
            results,
            watchers: Vec::new(),
            metrics: None,
            tracer: None,
        }
    }
}

struct Inner {
    jobs: BTreeMap<u64, JobEntry>,
    next_id: u64,
    shutting_down: bool,
    /// `(job, steps_done)` after each of the newest [`TRACE_SLICES`]
    /// completed slices — the scheduling trace the fairness tests assert on.
    trace: VecDeque<(JobId, u64)>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signalled on every terminal transition (and slice) for
    /// [`Scheduler::wait_idle`].
    progress: Condvar,
    cfg: SchedulerConfig,
    /// Daemon-level service metrics (queue depth, admissions, slice
    /// durations, journal counters, ...).
    metrics: DaemonMetrics,
}

enum LaneMsg {
    Run(u64),
    /// Begin slicing (only sent when configured `start_paused`).
    Start,
    Shutdown,
}

/// The job service's scheduling core (used directly by tests and wrapped
/// by the socket daemon).
pub struct Scheduler {
    shared: Arc<Shared>,
    lanes: Vec<Sender<LaneMsg>>,
    /// Drained by [`Scheduler::shutdown`] (shared-reference shutdown lets
    /// the daemon park jobs while connection threads still hold the
    /// scheduler behind an `Arc`).
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the lanes. With `resume` set and a state directory
    /// configured, reloads persisted jobs first: terminal jobs reappear
    /// with their results, interrupted jobs restart from their last
    /// checkpoint (or from scratch) and run to completion.
    ///
    /// # Errors
    /// I/O problems creating or scanning the state directory.
    pub fn new(cfg: SchedulerConfig, resume: bool) -> std::io::Result<Scheduler> {
        assert!(cfg.lanes >= 1, "scheduler needs at least one lane");
        assert!(cfg.slice_steps >= 1, "slices must make progress");
        if let Some(dir) = &cfg.state_dir {
            std::fs::create_dir_all(dir.join("jobs"))?;
        }
        let metrics = DaemonMetrics::new();
        metrics.lanes_total.set(cfg.lanes as f64);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                next_id: 0,
                shutting_down: false,
                trace: VecDeque::with_capacity(TRACE_SLICES),
            }),
            progress: Condvar::new(),
            cfg: cfg.clone(),
            metrics,
        });
        let mut lanes = Vec::new();
        let mut threads = Vec::new();
        for lane in 0..cfg.lanes {
            let (tx, rx) = channel();
            let shared2 = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sc-serve-lane-{lane}"))
                    .spawn(move || lane_loop(lane, shared2, rx))?,
            );
            lanes.push(tx);
        }
        let sched = Scheduler { shared, lanes, threads: Mutex::new(threads) };
        if resume {
            sched.resume_persisted()?;
        }
        Ok(sched)
    }

    /// Submits a spec as a new job.
    ///
    /// # Errors
    /// See [`SubmitError`]; admission is atomic — a rejected submission
    /// leaves no trace.
    pub fn submit(&self, spec: ScenarioSpec) -> Result<JobId, SubmitError> {
        spec.validate().map_err(SubmitError::Spec)?;
        let (id, lane) = {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.shutting_down {
                return Err(SubmitError::ShuttingDown);
            }
            let live = inner.jobs.values().filter(|j| !j.record.state.is_terminal()).count();
            if live >= self.shared.cfg.queue_capacity {
                self.shared.metrics.rejected.inc();
                return Err(SubmitError::QueueFull { capacity: self.shared.cfg.queue_capacity });
            }
            let id = JobId(inner.next_id);
            inner.next_id += 1;
            let lane = (id.0 as usize) % self.lanes.len();
            let record = JobRecord::new(id, &spec.name, spec.steps, lane);
            if let Some(dir) = job_dir(&self.shared.cfg, id) {
                // Persist spec + manifest before the job becomes visible,
                // so a crash never leaves an unrecoverable table entry.
                let persisted = std::fs::create_dir_all(&dir)
                    .and_then(|()| {
                        write_atomic(&dir.join("spec.json"), &spec.to_json().to_string())
                    })
                    .and_then(|()| {
                        write_atomic(&dir.join("manifest.json"), &record.to_json().to_string())
                    });
                if let Err(e) = persisted {
                    return Err(SubmitError::Unservable(format!("cannot persist job state: {e}")));
                }
            }
            inner.jobs.insert(id.0, JobEntry::new(record, spec, None));
            self.shared.metrics.submitted.inc();
            refresh_gauges(&inner, &self.shared.metrics);
            (id, lane)
        };
        // The lane threads outlive every submit (they only exit in
        // shutdown, which flips `shutting_down` first).
        self.lanes[lane].send(LaneMsg::Run(id.0)).expect("lane thread alive");
        Ok(id)
    }

    /// One job's current record.
    pub fn status(&self, id: JobId) -> Option<JobRecord> {
        self.shared.inner.lock().unwrap().jobs.get(&id.0).map(|j| j.record.clone())
    }

    /// The whole job table, ordered by id.
    pub fn list(&self) -> Vec<JobRecord> {
        self.shared.inner.lock().unwrap().jobs.values().map(|j| j.record.clone()).collect()
    }

    /// Requests cancellation. Returns `true` if the job was live (the
    /// lane will retire it at the next slice boundary and release its
    /// slot), `false` if unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut inner = self.shared.inner.lock().unwrap();
        match inner.jobs.get_mut(&id.0) {
            Some(entry) if !entry.record.state.is_terminal() => {
                entry.cancel = true;
                true
            }
            _ => false,
        }
    }

    /// A finished job's observables document.
    pub fn results(&self, id: JobId) -> Option<Json> {
        self.shared.inner.lock().unwrap().jobs.get(&id.0).and_then(|j| j.results.clone())
    }

    /// Blocks until every job is terminal (or `timeout`); returns whether
    /// the table is idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if inner.jobs.values().all(|j| j.record.state.is_terminal()) {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self.shared.progress.wait_timeout(inner, left).unwrap();
            inner = guard;
        }
    }

    /// The slice-order trace: `(job, steps_done)` after each slice, in
    /// execution order. Only the newest [`TRACE_SLICES`] slices are kept,
    /// so a long-lived daemon's record stays bounded. Test observability
    /// for fairness assertions.
    pub fn trace(&self) -> Vec<(JobId, u64)> {
        self.shared.inner.lock().unwrap().trace.iter().copied().collect()
    }

    /// Subscribes to a live job's periodic telemetry snapshots. `every`
    /// is the snapshot cadence in steps (`None` or `0`: every slice
    /// boundary). The subscription is bounded
    /// ([`SchedulerConfig::watch_queue`]): a slow consumer loses its
    /// oldest snapshots, counted, and the lane never blocks on it.
    ///
    /// # Errors
    /// [`WatchError::UnknownJob`] / [`WatchError::Terminal`].
    pub fn watch(&self, id: JobId, every: Option<u64>) -> Result<WatchHandle, WatchError> {
        let mut inner = self.shared.inner.lock().unwrap();
        let Some(entry) = inner.jobs.get_mut(&id.0) else {
            return Err(WatchError::UnknownJob);
        };
        if entry.record.state.is_terminal() {
            return Err(WatchError::Terminal(entry.record.state));
        }
        let every = every.unwrap_or(0);
        let shared = WatchShared::new(self.shared.cfg.watch_queue, every);
        entry.watchers.push(Arc::clone(&shared));
        Ok(WatchHandle { shared })
    }

    /// Snapshots a job's flight-recorder ring — the recent trace history
    /// of a (typically still running) job — as a Chrome Trace Format
    /// document. Safe mid-run: each ring is copied whole under its lock,
    /// so the dump holds whole events only.
    ///
    /// # Errors
    /// [`DumpError::UnknownJob`] / [`DumpError::NotStarted`] /
    /// [`DumpError::Disabled`].
    pub fn dump(&self, id: JobId) -> Result<TraceDump, DumpError> {
        let (tracer, step) = {
            let inner = self.shared.inner.lock().unwrap();
            let Some(entry) = inner.jobs.get(&id.0) else {
                return Err(DumpError::UnknownJob);
            };
            match &entry.tracer {
                Some(tracer) => (tracer.clone(), entry.record.steps_done),
                None => return Err(DumpError::NotStarted),
            }
        };
        if !tracer.enabled() {
            return Err(DumpError::Disabled);
        }
        let events = tracer.events();
        Ok(TraceDump {
            id,
            step,
            events: events.len() as u64,
            dropped: tracer.dropped(),
            doc: chrome_trace(&events),
        })
    }

    /// The daemon-level service metrics snapshot (unlabeled).
    pub fn daemon_metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// Every live job registry's snapshot (label = job id) paired with
    /// its tenant (spec name), for the merged Prometheus export. Jobs
    /// whose spec left `observability.metrics` off have no registry and
    /// are skipped.
    pub fn job_metrics(&self) -> Vec<(MetricsSnapshot, String)> {
        let inner = self.shared.inner.lock().unwrap();
        inner
            .jobs
            .values()
            .filter_map(|e| {
                let registry = e.metrics.as_ref().filter(|r| r.enabled())?;
                Some((registry.snapshot(), e.record.spec_name.clone()))
            })
            .collect()
    }

    /// Releases lanes started under [`SchedulerConfig::start_paused`].
    pub fn start(&self) {
        for tx in &self.lanes {
            let _ = tx.send(LaneMsg::Start);
        }
    }

    /// Stops accepting work, checkpoints in-flight jobs, and joins the
    /// lanes. Queued/running jobs stay non-terminal in the persisted
    /// manifests, so a later `resume` continues them. Open watch streams
    /// end with the job's state at park time. Idempotent; takes `&self`
    /// so the daemon can shut down while connection threads still share
    /// the scheduler.
    pub fn shutdown(&self) {
        self.shared.inner.lock().unwrap().shutting_down = true;
        for tx in &self.lanes {
            let _ = tx.send(LaneMsg::Shutdown);
        }
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        // With the lanes parked nothing will stream again: end every
        // remaining subscription at the job's parked state.
        let mut inner = self.shared.inner.lock().unwrap();
        for entry in inner.jobs.values_mut() {
            let state = entry.record.state;
            for w in entry.watchers.drain(..) {
                w.close(state.as_str());
            }
        }
    }

    /// Reloads the persisted job table (see [`Scheduler::new`]).
    fn resume_persisted(&self) -> std::io::Result<()> {
        let Some(dir) = self.shared.cfg.state_dir.clone() else {
            return Ok(());
        };
        let mut job_ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir.join("jobs"))? {
            if let Some(id) = entry?.file_name().to_str().and_then(JobId::parse).map(|j| j.0) {
                job_ids.push(id);
            }
        }
        job_ids.sort_unstable();
        let mut restarts = Vec::new();
        {
            let mut inner = self.shared.inner.lock().unwrap();
            for raw in job_ids {
                // Every directory's id is spent, readable or not: a new job
                // must never inherit a skipped job's checkpoint.
                inner.next_id = inner.next_id.max(raw + 1);
                let id = JobId(raw);
                let dir = job_dir(&self.shared.cfg, id).expect("state_dir is set");
                let Ok(mut record) = read_json(&dir.join("manifest.json"))
                    .and_then(|doc| JobRecord::from_json(&doc))
                else {
                    continue; // torn write of a brand-new job: skip
                };
                let Ok(spec) = read_json(&dir.join("spec.json"))
                    .and_then(|doc| ScenarioSpec::from_json(&doc).map_err(|e| e.to_string()))
                else {
                    continue;
                };
                let results = read_json(&dir.join("results.json")).ok();
                if !record.state.is_terminal() {
                    // Interrupted: re-queue on the lane derived from the id
                    // (the lane count may have changed across restarts).
                    record.state = JobState::Queued;
                    record.lane = (raw as usize) % self.lanes.len();
                    restarts.push((raw, record.lane));
                }
                inner.jobs.insert(raw, JobEntry::new(record, spec, results));
            }
            refresh_gauges(&inner, &self.shared.metrics);
        }
        for (raw, lane) in restarts {
            self.lanes[lane].send(LaneMsg::Run(raw)).expect("lane thread alive");
        }
        Ok(())
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Recomputes the daemon's job-table gauges (call with the table lock
/// held, after any state transition). Lane business is the number of
/// distinct lanes holding at least one non-terminal job.
fn refresh_gauges(inner: &Inner, metrics: &DaemonMetrics) {
    let mut counts = [0u64; 5];
    let mut busy: Vec<usize> = Vec::new();
    for entry in inner.jobs.values() {
        let state = entry.record.state;
        counts[match state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
        }] += 1;
        if !state.is_terminal() && !busy.contains(&entry.record.lane) {
            busy.push(entry.record.lane);
        }
    }
    metrics.jobs_queued.set(counts[0] as f64);
    metrics.jobs_running.set(counts[1] as f64);
    metrics.jobs_done.set(counts[2] as f64);
    metrics.jobs_failed.set(counts[3] as f64);
    metrics.jobs_cancelled.set(counts[4] as f64);
    metrics.queue_depth.set((counts[0] + counts[1]) as f64);
    metrics.lanes_busy.set(busy.len() as f64);
}

/// Ends every subscription on a job that just went terminal, delivering
/// the terminal state after any still-queued snapshots.
fn close_watchers(shared: &Arc<Shared>, id: JobId) {
    let watchers = {
        let mut inner = shared.inner.lock().unwrap();
        match inner.jobs.get_mut(&id.0) {
            Some(entry) => {
                let state = entry.record.state;
                let drained: Vec<_> = entry.watchers.drain(..).collect();
                refresh_gauges(&inner, &shared.metrics);
                drained.into_iter().map(|w| (w, state)).collect::<Vec<_>>()
            }
            None => Vec::new(),
        }
    };
    for (w, state) in watchers {
        w.close(state.as_str());
    }
}

fn job_dir(cfg: &SchedulerConfig, id: JobId) -> Option<PathBuf> {
    cfg.state_dir.as_ref().map(|d| d.join("jobs").join(id.to_string()))
}

/// Writes via a temp file + rename, so readers never observe torn JSON.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text).map_err(|e| e.to_string())
}

/// A job resident on a lane: its live engine plus supervision state.
struct ActiveJob {
    id: JobId,
    sim: DistributedSim,
    sup: Supervisor,
    total: u64,
    /// Persist a checkpoint whenever `steps_done` crosses a multiple of
    /// this (`None`: only at graceful shutdown).
    persist_every: Option<u64>,
    last_persisted: u64,
    /// Wall seconds this job has spent on the lane, accumulated across
    /// slices (seeded from the manifest's `wall_ms` after a resume).
    wall_s: f64,
}

fn lane_loop(lane: usize, shared: Arc<Shared>, rx: Receiver<LaneMsg>) {
    let mut local: VecDeque<ActiveJob> = VecDeque::new();
    let mut paused = shared.cfg.start_paused;
    loop {
        // Block when there is nothing to step; otherwise just drain
        // whatever arrived.
        let first = if local.is_empty() || paused {
            match rx.recv() {
                Ok(msg) => Some(msg),
                Err(_) => return,
            }
        } else {
            rx.try_recv().ok()
        };
        let mut incoming = first.into_iter().chain(std::iter::from_fn(|| rx.try_recv().ok()));
        let mut shutdown = false;
        for msg in &mut incoming {
            match msg {
                LaneMsg::Shutdown => {
                    shutdown = true;
                    break;
                }
                LaneMsg::Start => paused = false,
                LaneMsg::Run(id) => {
                    if let Some(job) = admit(JobId(id), &shared) {
                        local.push_back(job);
                    }
                }
            }
        }
        if shutdown {
            // Park in-flight jobs resumably: persist a labelled
            // checkpoint and leave the manifest non-terminal.
            for job in &mut local {
                persist_checkpoint(&shared, job);
                persist_manifest(&shared, job.id);
            }
            return;
        }
        let Some(mut job) = local.pop_front() else { continue };
        match run_slice(lane, &shared, &mut job) {
            SliceOutcome::MoreWork => local.push_back(job),
            SliceOutcome::Retired => {}
        }
    }
}

enum SliceOutcome {
    MoreWork,
    Retired,
}

/// Instantiates a newly assigned job (restoring its checkpoint when one
/// exists). Returns `None` when the job fails to build or was cancelled
/// before starting — in both cases the table entry is finalized here.
fn admit(id: JobId, shared: &Arc<Shared>) -> Option<ActiveJob> {
    let (spec, wall_ms) = {
        let mut inner = shared.inner.lock().unwrap();
        let entry = inner.jobs.get_mut(&id.0)?;
        if entry.cancel {
            entry.record.state = JobState::Cancelled;
            drop(inner);
            close_watchers(shared, id);
            persist_manifest(shared, id);
            shared.progress.notify_all();
            return None;
        }
        entry.record.state = JobState::Running;
        let out = (entry.spec.clone(), entry.record.wall_ms);
        refresh_gauges(&inner, &shared.metrics);
        out
    };
    persist_manifest(shared, id);
    let sim = match spec.instantiate_flight(Some(&id.to_string())) {
        Ok(sim) => sim,
        Err(e) => {
            finalize_failed(shared, id, &format!("instantiation failed: {e}"));
            return None;
        }
    };
    // Publish Arc-backed handles into the table so Metrics/Dump can read
    // a job the lane exclusively owns.
    {
        let mut inner = shared.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(&id.0) {
            entry.metrics = Some(sim.metrics().clone());
            entry.tracer = Some(sim.tracer().clone());
        }
    }
    let sup = spec.supervisor(&sim);
    let mut job = ActiveJob {
        id,
        sim,
        sup,
        total: spec.steps,
        persist_every: spec.checkpoint.as_ref().map(|c| c.every),
        last_persisted: 0,
        wall_s: wall_ms as f64 / 1e3,
    };
    // Resume: restore the persisted checkpoint if the previous daemon
    // instance parked one (labels guard against cross-job mixups, and a
    // checkpoint past the job's end is not this job's).
    if let Some(dir) = job_dir(&shared.cfg, id) {
        let path = dir.join("checkpoint.bin");
        if path.exists() {
            let steps = job.total;
            let loaded = Checkpoint::load(&path).and_then(|cp| {
                cp.require_label(&id.to_string())?;
                let step = cp.step;
                (step <= steps).then_some(cp).ok_or(CheckpointError::StepBeyondRun { step, steps })
            });
            match loaded {
                Ok(cp) => {
                    job.sim.restore(&cp);
                    job.last_persisted = cp.step;
                    let mut inner = shared.inner.lock().unwrap();
                    if let Some(entry) = inner.jobs.get_mut(&id.0) {
                        entry.record.steps_done = cp.step;
                    }
                }
                Err(e) => {
                    finalize_failed(shared, id, &format!("stale checkpoint: {e}"));
                    return None;
                }
            }
        }
    }
    Some(job)
}

fn run_slice(_lane: usize, shared: &Arc<Shared>, job: &mut ActiveJob) -> SliceOutcome {
    // Honour cancellation at the slice boundary; the slot frees here.
    let cancelled = {
        let mut inner = shared.inner.lock().unwrap();
        match inner.jobs.get_mut(&job.id.0) {
            Some(entry) if entry.cancel => {
                entry.record.state = JobState::Cancelled;
                true
            }
            Some(_) => false,
            None => true,
        }
    };
    if cancelled {
        close_watchers(shared, job.id);
        persist_manifest(shared, job.id);
        shared.progress.notify_all();
        return SliceOutcome::Retired;
    }
    let prev = job.sim.steps_done();
    let n = shared.cfg.slice_steps.min(job.total - prev);
    let slice_start = Instant::now();
    if let Err(e) = job.sup.run(&mut job.sim, n) {
        finalize_failed(shared, job.id, &e.to_string());
        return SliceOutcome::Retired;
    }
    let elapsed = slice_start.elapsed().as_secs_f64();
    job.wall_s += elapsed;
    shared.metrics.slices.inc();
    shared.metrics.slice_ms.observe(elapsed * 1e3);
    let done = job.sim.steps_done();
    let due: Vec<Arc<WatchShared>> = {
        let mut inner = shared.inner.lock().unwrap();
        let due = match inner.jobs.get_mut(&job.id.0) {
            Some(entry) => {
                entry.record.steps_done = done;
                entry.record.wall_ms = (job.wall_s * 1e3) as u64;
                entry.watchers.iter().filter(|w| w.due(prev, done)).cloned().collect()
            }
            None => Vec::new(),
        };
        if inner.trace.len() == TRACE_SLICES {
            inner.trace.pop_front();
        }
        inner.trace.push_back((job.id, done));
        due
    };
    if !due.is_empty() {
        // One telemetry snapshot per slice, shared (cloned) across every
        // due subscriber; the engine is only read here, on its own lane.
        let doc = job.sim.telemetry().to_json_value();
        for w in &due {
            shared.metrics.watch_snapshots.inc();
            if w.push(doc.clone()) {
                shared.metrics.watch_dropped.inc();
            }
        }
    }
    if let Some(every) = job.persist_every {
        if done / every > job.last_persisted / every {
            if persist_checkpoint(shared, job) {
                job.last_persisted = done;
            }
            persist_manifest(shared, job.id);
        }
    }
    if done < job.total {
        shared.progress.notify_all();
        return SliceOutcome::MoreWork;
    }
    finalize_done(shared, job);
    SliceOutcome::Retired
}

fn finalize_done(shared: &Arc<Shared>, job: &mut ActiveJob) {
    let energy = job.sim.total_energy();
    let store = job.sim.gather();
    let final_snapshot = job.sim.telemetry().to_json_value();
    let (doc, metrics_doc, watchers) = {
        let mut inner = shared.inner.lock().unwrap();
        let Some(entry) = inner.jobs.get_mut(&job.id.0) else { return };
        let doc = observables_doc(&entry.spec.name, job.sim.steps_done(), &store, energy);
        entry.record.state = JobState::Done;
        entry.record.steps_done = job.sim.steps_done();
        entry.record.wall_ms = (job.wall_s * 1e3) as u64;
        entry.results = Some(doc.clone());
        let metrics_doc = entry
            .spec
            .observability
            .metrics
            .then(|| sc_obs::json_value(&job.sim.metrics().snapshot()));
        let watchers: Vec<_> = entry.watchers.drain(..).collect();
        refresh_gauges(&inner, &shared.metrics);
        (doc, metrics_doc, watchers)
    };
    // Every subscriber sees the completed-state snapshot before End,
    // whatever its cadence.
    for w in &watchers {
        shared.metrics.watch_snapshots.inc();
        if w.push(final_snapshot.clone()) {
            shared.metrics.watch_dropped.inc();
        }
        w.close(JobState::Done.as_str());
    }
    if let Some(dir) = job_dir(&shared.cfg, job.id) {
        let _ = write_atomic(&dir.join("results.json"), &doc.to_string());
        // Telemetry is persisted separately: it carries wall times, which
        // must not leak into the bitwise-comparable results document.
        if let Some(m) = metrics_doc {
            let _ = write_atomic(&dir.join("metrics.json"), &m.to_string());
        }
        persist_checkpoint(shared, job);
    }
    persist_manifest(shared, job.id);
    shared.progress.notify_all();
}

fn finalize_failed(shared: &Arc<Shared>, id: JobId, why: &str) {
    {
        let mut inner = shared.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(&id.0) {
            entry.record.state = JobState::Failed;
            entry.record.error = Some(why.to_string());
        }
    }
    close_watchers(shared, id);
    persist_manifest(shared, id);
    shared.progress.notify_all();
}

fn persist_manifest(shared: &Arc<Shared>, id: JobId) {
    let Some(dir) = job_dir(&shared.cfg, id) else { return };
    let record = {
        let inner = shared.inner.lock().unwrap();
        match inner.jobs.get(&id.0) {
            Some(entry) => entry.record.clone(),
            None => return,
        }
    };
    if write_atomic(&dir.join("manifest.json"), &record.to_json().to_string()).is_ok() {
        shared.metrics.manifests.inc();
    }
}

/// Returns whether the labelled checkpoint actually hit disk.
fn persist_checkpoint(shared: &Arc<Shared>, job: &ActiveJob) -> bool {
    let Some(dir) = job_dir(&shared.cfg, job.id) else { return false };
    let cp = job.sim.checkpoint().with_label(job.id.to_string());
    let saved = cp.save(&dir.join("checkpoint.bin")).is_ok();
    if saved {
        shared.metrics.checkpoints.inc();
    }
    saved
}
