//! One run of one workload: the end-to-end pass (tracing off) or the
//! traced pass (spans and layer probes), with its output checks, as the
//! `--workload` command line and the suite both call it.

use crate::catalog::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::probes::layer_probes;
use crate::run::{oracle_check, run_repeats, Ops, Opts, RunPart};
use crate::serve::{closed_loop, ServeOutcome};
use crate::spans::{Recorder, Span};
use crate::stats::{iqr, median, percentile, sorted, tail_percentile};
use crate::workloads::{Kind, Scale, Workload, SERVE_CLIENTS};
use sc_obs::Phase;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Segments the serve workload's closed loop is split into, with a
/// standalone stepping window before, between and after them.
const SERVE_SEGMENTS: u32 = 4;

pub struct Outcome {
    pub workload: &'static str,
    pub ops: Ops,
    /// Every end-to-end metric (tracing off) or every layer metric (traced),
    /// in catalog order.
    pub metrics: Metrics,
    /// Timed steps behind `step_ms_p50`.
    pub samples: usize,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The benchmark's output directory: `<package>/out`, relative to the
/// working directory when it lies beneath it (Unix socket paths are short).
pub fn out_dir() -> PathBuf {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match std::env::current_dir() {
        Ok(cwd) => abs.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(abs),
        Err(_) => abs,
    }
}

/// A scratch directory of this call's own, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_spec(name: &str, doc: &str) -> Result<(), String> {
    let dir = out_dir().join("specs");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{name}.json")), doc))
        .map_err(|e| format!("writing {name}.json under {}: {e}", dir.display()))
}

/// The six end-to-end metrics of a run workload. The last three describe
/// the serve workload; the driver wants every metric from every run, so
/// here a job is one repeat, in process: spec text in, results document out.
fn run_end_to_end(part: &RunPart) -> Metrics {
    let step_ms = median(&part.step_ms);
    let job_s = median(&part.job_wall_s);
    vec![
        ("setup_s", median(&part.setup_s)),
        ("steps_per_s", median(&part.block_rate)),
        ("step_ms_p50", step_ms),
        ("jobs_per_s", 1.0 / job_s),
        ("job_latency_ms_p50", job_s * 1e3),
        ("served_over_standalone", job_s * 1e3 / f64::from(part.job_steps) / step_ms),
    ]
}

/// The six end-to-end metrics of the serve workload. `steps_per_s` and
/// `step_ms_p50` describe the run workloads; here they are the steps all
/// lanes finish per second and the daemon's own `wall_ms` per step.
/// `standalone_step_ms` are the same specs stepped bare in this process.
fn serve_end_to_end(served: &ServeOutcome, standalone_step_ms: &[f64]) -> Metrics {
    vec![
        ("setup_s", median(&served.setup_s)),
        ("steps_per_s", served.jobs_per_s * served.steps_per_job),
        ("step_ms_p50", median(&served.served_step_ms)),
        ("jobs_per_s", served.jobs_per_s),
        ("job_latency_ms_p50", median(&served.latency_ms)),
        ("served_over_standalone", median(&served.served_step_ms) / median(standalone_step_ms)),
    ]
}

/// Layer metrics read off the run part itself.
fn run_layer_metrics(part: &RunPart, step_probe_ms: f64, spans: usize) -> Metrics {
    let mut m = vec![
        ("spec.parse_us", median(&part.parse_us)),
        ("spec.instantiate_ms", median(&part.instantiate_ms)),
        ("spec.first_step_ms", median(&part.first_step_ms)),
        ("spec.results_doc_us", median(&part.results_doc_us)),
        ("md.energy_drift_rel", part.drift_rel),
    ];
    let fixed = part.fixed.unwrap_or_default();
    m.extend([
        ("md.candidates_per_step", fixed.candidates as f64),
        ("md.accepted_per_step", fixed.accepted as f64),
        ("parallel.messages_per_step", fixed.messages_per_step),
        ("parallel.bytes_per_step", fixed.bytes_per_step),
        ("parallel.ghosts_per_step", fixed.ghosts_per_step),
        ("parallel.migrated_per_step", fixed.migrated_per_step),
        ("parallel.retries", fixed.retries as f64),
        ("parallel.faults_detected", fixed.faults as f64),
    ]);
    if let Some((handle, ..)) = &part.last {
        let t = handle.telemetry();
        let per_step = |p: Phase| t.total_phases.get(p) * 1e3 / t.step.max(1) as f64;
        m.extend([
            ("reported.bin_ms", per_step(Phase::Bin)),
            ("reported.exchange_ms", per_step(Phase::Exchange)),
            ("reported.enumerate_ms", per_step(Phase::Enumerate)),
            ("reported.eval_ms", per_step(Phase::Eval)),
            ("reported.reduce_ms", per_step(Phase::Reduce)),
            ("reported.migrate_ms", per_step(Phase::Migrate)),
            ("reported.integrate_ms", per_step(Phase::Integrate)),
            ("reported.compute_ms", per_step(Phase::Compute)),
        ]);
    }
    let all: Vec<f64> = part.step_ms.iter().chain(&part.step_ms_traced).copied().collect();
    if !all.is_empty() {
        let s = sorted(all);
        let tail = tail_percentile(s.len()).unwrap_or(50.0);
        m.extend([
            ("run.samples", s.len() as f64),
            ("run.step_ms_p95", percentile(&s, 95.0)),
            ("run.step_ms_max", s[s.len() - 1]),
            ("run.step_ms_iqr", iqr(&s)),
            ("run.tail_pct", tail),
            ("run.step_ms_tail", percentile(&s, tail)),
        ]);
    }
    m.extend([
        ("trace.spans", spans as f64),
        ("trace.overhead_frac", median(&part.span_overhead)),
        ("trace.probe_coverage", step_probe_ms / median(&part.step_ms)),
    ]);
    m
}

/// Orders `found` as the catalog lists them. NaN or infinity is a harness
/// error, and so is an end-to-end metric that is missing; a layer metric is
/// missing on every workload whose path does not cross that layer.
fn in_catalog_order(defs: &[MetricDef], found: &[(&'static str, f64)]) -> Result<Metrics, String> {
    let mut ordered = Vec::new();
    for d in defs {
        match found.iter().find(|(n, _)| *n == d.name) {
            Some(&(_, v)) if v.is_finite() => ordered.push((d.name, v)),
            Some(&(_, v)) => return Err(format!("metric {} came out as {v}", d.name)),
            None if d.bound.is_some() => return Err(format!("metric {} was not measured", d.name)),
            None => {}
        }
    }
    Ok(ordered)
}

/// One repeat's worth of steps and no extra set-ups: a reference run.
fn reference_scale(scale: Scale) -> Scale {
    Scale { setup_samples: 0, ..scale }
}

/// One run in progress: what every pass of it shares.
struct Run {
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    opts: Opts,
    scale: Scale,
    scratch: Scratch,
    rec: Recorder,
    ops: Ops,
}

impl Run {
    /// Repeats of `doc` for `budget_s`, their operations tallied.
    fn repeats(&mut self, doc: &str, scale: Scale, budget_s: f64, traced: bool) -> RunPart {
        let mut part = run_repeats(doc, scale, self.w.drift_tol, budget_s, traced, &mut self.rec);
        self.ops.absorb(std::mem::take(&mut part.ops));
        part
    }

    /// One standalone repeat of `doc` and no extra set-ups: a reference
    /// run. Its results document is what a served run must equal.
    fn standalone(&mut self, doc: &str, scale: Scale) -> (RunPart, String) {
        let mut part = self.repeats(doc, reference_scale(scale), 0.0, false);
        let results = part.last.take().map(|(_, _, results)| results).unwrap_or_default();
        (part, results)
    }

    /// The closed loop against a daemon under this run's scratch
    /// directory, its operations tallied.
    fn serve(
        &mut self,
        docs: &[String],
        expected: &[String],
        seconds: f64,
        segments: u32,
        between: &mut dyn FnMut(&mut Recorder),
    ) -> ServeOutcome {
        let dir = &self.scratch.0;
        let setup_samples = self.scale.setup_samples;
        let mut served = closed_loop(
            dir,
            docs,
            expected,
            seconds,
            segments,
            between,
            setup_samples,
            self.opts,
            &mut self.rec,
        );
        self.ops.absorb(std::mem::take(&mut served.ops));
        served
    }

    /// The end-to-end pass of a run workload.
    fn run_pass(&mut self, doc: &str) -> (Metrics, usize) {
        let part = self.repeats(doc, self.scale, self.seconds, false);
        (run_end_to_end(&part), part.step_ms.len())
    }

    /// The end-to-end pass of the serve workload. Standalone references
    /// first: the results every served job must equal, and the bare
    /// per-step time of the same specs. More standalone windows follow
    /// between the segments of the loop and after it, so both sides of
    /// `served_over_standalone` see the same machine.
    fn serve_pass(&mut self, docs: &[String]) -> (Metrics, usize) {
        let (scale, drift_tol) = (self.scale, self.w.drift_tol);
        let mut expected = Vec::new();
        let mut standalone_ms = Vec::new();
        for doc in docs {
            let (part, results) = self.standalone(doc, scale);
            standalone_ms.extend(part.step_ms);
            expected.push(results);
        }
        let mut windows: Vec<RunPart> = Vec::new();
        let mut window = |rec: &mut Recorder| {
            for doc in docs {
                windows.push(run_repeats(doc, reference_scale(scale), drift_tol, 0.0, false, rec));
            }
        };
        let served = self.serve(docs, &expected, self.seconds, SERVE_SEGMENTS, &mut window);
        window(&mut self.rec);
        for part in windows {
            self.ops.absorb(part.ops);
            standalone_ms.extend(part.step_ms);
        }
        (serve_end_to_end(&served, &standalone_ms), served.served_step_ms.len())
    }

    /// The traced pass: the run part (spans around every call, every other
    /// block also a span per step; the serve workload steps its own job
    /// spec), the layer probes on its last state, and for the serve workload
    /// its closed loop with a span per request.
    fn traced_pass(&mut self, docs: &[String]) -> Result<(Metrics, usize), String> {
        let (w, scale) = (self.w, self.scale);
        let run_share = if w.kind == Kind::Run { 0.6 } else { 0.2 };
        let mut part = self.repeats(&docs[0], scale, self.seconds * run_share, true);
        let (mut handle, spec, results) = part
            .last
            .take()
            .ok_or_else(|| format!("no repeat finished: {:?}", self.ops.failures))?;
        let probed =
            layer_probes(w, self.seed, scale, &mut handle, &spec, self.opts, &mut self.rec)?;
        part.last = Some((handle, spec, results.clone()));
        let mut found = probed.metrics;
        if w.kind == Kind::Serve {
            let mut expected = vec![results];
            for doc in &docs[1..] {
                expected.push(self.standalone(doc, scale).1);
            }
            let served = self.serve(docs, &expected, self.seconds * 0.4, 1, &mut |_| {});
            found.extend(served.layer_metrics());
        }
        let spans = self.rec.spans().len();
        found.extend(run_layer_metrics(&part, probed.step_probe_ms, spans));
        Ok((found, part.step_ms.len() + part.step_ms_traced.len()))
    }
}

/// The documents of `w`'s own run, one per serve client, also written to
/// `out/specs/` for `scmd run --spec`.
fn main_docs(w: &Workload, seed: u64, scale: Scale) -> Result<Vec<String>, String> {
    let clients = if w.kind == Kind::Serve { SERVE_CLIENTS } else { 1 };
    let docs: Vec<String> = (0..clients).map(|c| w.main_doc(seed, c, scale)).collect();
    for (c, doc) in docs.iter().enumerate() {
        let name = if clients == 1 { w.name.to_string() } else { format!("{}-c{c}", w.name) };
        write_spec(&name, doc)?;
    }
    Ok(docs)
}

/// The brute-force oracle on `w`'s first step: one operation, about a
/// second at 5184 atoms, so callers run it once per workload, outside every
/// timed window.
pub fn oracle(w: &Workload, seed: u64, opts: Opts) -> Result<(), String> {
    oracle_check(&w.main_doc(seed, 0, w.step_scale(opts.quick)), opts)
}

/// Runs `w` for about `seconds`: the end-to-end pass, or with `traced` the
/// traced pass. `Err` is a harness failure, not a failed operation.
pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    opts: Opts,
) -> Result<Outcome, String> {
    let mut run = Run {
        w,
        seed,
        seconds,
        opts,
        scale: w.step_scale(opts.quick),
        scratch: Scratch::new()?,
        rec: Recorder::new(Instant::now(), 0, traced),
        ops: Ops::default(),
    };
    let root = run.rec.begin(w.name);
    let docs = main_docs(w, seed, run.scale)?;
    let (found, samples) = match (w.kind, traced) {
        (_, true) => run.traced_pass(&docs)?,
        (Kind::Run, false) => run.run_pass(&docs[0]),
        (Kind::Serve, false) => run.serve_pass(&docs),
    };
    run.rec.end(root);
    let Run { ops, rec, .. } = run;
    let defs = if traced { PER_LAYER } else { END_TO_END };
    // Failed operations may leave a metric without samples; the caller
    // sees the failures and an empty metric list. With every operation
    // good, a missing metric is the harness's own fault.
    let metrics = match in_catalog_order(defs, &found) {
        Ok(metrics) => metrics,
        Err(_) if ops.failed() > 0 => Vec::new(),
        Err(why) => return Err(format!("{}: {why}", w.name)),
    };
    Ok(Outcome { workload: w.name, ops, metrics, samples, spans: rec.into_spans() })
}
