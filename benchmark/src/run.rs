//! The run part of a workload: repeats of spec text → `instantiate` →
//! `try_step` → results document, timed from outside through `RunHandle`,
//! with the output checks that decide `ops_failed`.

use crate::spans::Recorder;
use crate::workloads::Scale;
use sc_md::supervisor::Recoverable;
use sc_md::Telemetry;
use sc_spec::{observables_doc, RunHandle, ScenarioSpec};
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Tiny step counts and single-shot probes (the smoke test).
    pub quick: bool,
    /// Check against deliberately wrong expectations: every check must fail.
    pub self_test: bool,
}

/// Operations attempted, and why the failed ones failed.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn one(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Counters read at fixed step indices of a repeat (the end of warm-up and
/// the end of the first timed block; the executors' comm counters are all
/// cumulative), so they repeat bit-for-bit per seed however many steps the
/// time budget allows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FixedCounters {
    pub candidates: u64,
    pub accepted: u64,
    pub ghosts_per_step: f64,
    pub migrated_per_step: f64,
    pub messages_per_step: f64,
    pub bytes_per_step: f64,
    pub retries: u64,
    pub faults: u64,
}

#[derive(Default)]
pub struct RunPart {
    pub setup_s: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub instantiate_ms: Vec<f64>,
    pub first_step_ms: Vec<f64>,
    pub results_doc_us: Vec<f64>,
    /// Timed steps with no span recorded, pooled over repeats.
    pub step_ms: Vec<f64>,
    /// Timed steps that also recorded a span (traced runs, odd blocks).
    pub step_ms_traced: Vec<f64>,
    /// Steps per second of each timed block with no span recorded.
    pub block_rate: Vec<f64>,
    /// Per block that recorded a span per step: the rate of the block before
    /// it, which recorded none, over its own, minus one. A block's wall
    /// includes the recording, and neighbours see the same machine.
    pub span_overhead: Vec<f64>,
    /// Wall of each whole repeat: spec text in, results document out.
    pub job_wall_s: Vec<f64>,
    /// Steps each repeat integrates.
    pub job_steps: u32,
    pub ops: Ops,
    /// Largest relative NVE drift over a repeat.
    pub drift_rel: f64,
    pub fixed: Option<FixedCounters>,
    /// The last repeat's engine, spec and results document, kept for the
    /// layer probes and the served-equals-standalone comparison.
    pub last: Option<(RunHandle, ScenarioSpec, String)>,
}

/// Spec text → end of the first `try_step`: parse, validate, pattern
/// generation, lattice build, lazy pool spin-up, first force computation.
pub struct SetUp {
    pub handle: RunHandle,
    pub spec: ScenarioSpec,
    pub parse_s: f64,
    pub instantiate_s: f64,
    pub first_step_s: f64,
}

impl SetUp {
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.instantiate_s + self.first_step_s
    }
}

pub fn set_up(doc: &str, rec: &mut Recorder) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_json_str(doc).map_err(|e| format!("spec rejected: {e}"))?;
    let t1 = Instant::now();
    let mut handle = spec.instantiate().map_err(|e| format!("instantiate failed: {e}"))?;
    let t2 = Instant::now();
    handle.try_step().map_err(|e| format!("first step failed: {e}"))?;
    let t3 = Instant::now();
    rec.record("spec.parse", t0, t1);
    rec.record("spec.instantiate", t1, t2);
    rec.record("spec.first_step", t2, t3);
    Ok(SetUp {
        handle,
        spec,
        parse_s: (t1 - t0).as_secs_f64(),
        instantiate_s: (t2 - t1).as_secs_f64(),
        first_step_s: (t3 - t2).as_secs_f64(),
    })
}

fn record_set_up(part: &mut RunPart, s: &SetUp) {
    part.setup_s.push(s.total_s());
    part.parse_us.push(s.parse_s * 1e6);
    part.instantiate_ms.push(s.instantiate_s * 1e3);
    part.first_step_ms.push(s.first_step_s * 1e3);
}

fn fixed_counters(
    at_warmup: &Telemetry,
    after_block: &Telemetry,
    block_steps: u32,
) -> FixedCounters {
    let per_step = |a: u64, b: u64| (b - a) as f64 / f64::from(block_steps);
    FixedCounters {
        candidates: at_warmup.tuples.total_candidates(),
        accepted: at_warmup.tuples.total_accepted(),
        ghosts_per_step: per_step(at_warmup.comm.ghosts_imported, after_block.comm.ghosts_imported),
        migrated_per_step: per_step(at_warmup.comm.atoms_migrated, after_block.comm.atoms_migrated),
        messages_per_step: per_step(at_warmup.comm.messages, after_block.comm.messages),
        bytes_per_step: per_step(at_warmup.comm.bytes, after_block.comm.bytes),
        retries: after_block.comm.retries,
        faults: after_block.comm.faults_detected,
    }
}

/// One repeat. `Err` is a failed operation.
fn repeat(
    doc: &str,
    scale: Scale,
    drift_tol: f64,
    traced: bool,
    part: &mut RunPart,
    rec: &mut Recorder,
) -> Result<(), String> {
    let job_start = Instant::now();
    let s = set_up(doc, rec)?;
    record_set_up(part, &s);
    let SetUp { mut handle, spec, .. } = s;
    let atoms = handle.atom_count();
    let e0 = handle.total_energy_estimate();
    for _ in 1..scale.warmup {
        handle.try_step().map_err(|e| format!("warm-up step failed: {e}"))?;
    }
    let at_warmup = (part.fixed.is_none()).then(|| handle.telemetry());
    for block in 0..scale.blocks {
        let with_span = traced && block % 2 == 1;
        let block_start = Instant::now();
        for _ in 0..scale.block_steps {
            let t = Instant::now();
            let stepped = handle.try_step();
            let end = Instant::now();
            stepped.map_err(|e| format!("step {} failed: {e}", handle.steps_done()))?;
            let ms = (end - t).as_secs_f64() * 1e3;
            if with_span {
                rec.record("step", t, end);
                part.step_ms_traced.push(ms);
            } else {
                part.step_ms.push(ms);
            }
        }
        let rate = f64::from(scale.block_steps) / block_start.elapsed().as_secs_f64();
        match (with_span, part.block_rate.last()) {
            (true, Some(before)) => part.span_overhead.push(before / rate - 1.0),
            _ => part.block_rate.push(rate),
        }
        if let (0, Some(t0)) = (block, &at_warmup) {
            part.fixed = Some(fixed_counters(t0, &handle.telemetry(), scale.block_steps));
        }
    }
    let e1 = handle.total_energy_estimate();
    let t = Instant::now();
    let energy = handle.total_energy();
    let store = handle.gather();
    let results = observables_doc(&spec.name, handle.steps_done(), &store, energy).to_string();
    let end = Instant::now();
    rec.record("spec.results_doc", t, end);
    part.results_doc_us.push((end - t).as_secs_f64() * 1e6);
    part.job_wall_s.push(job_start.elapsed().as_secs_f64());

    let drift = ((e1 - e0) / e0).abs();
    part.drift_rel = part.drift_rel.max(drift);
    let conserved = store.len() == atoms && handle.atom_count() == atoms;
    part.last = Some((handle, spec, results));
    if !conserved {
        return Err(format!("atom count changed from {atoms} to {}", store.len()));
    }
    if drift.is_nan() || drift > drift_tol {
        return Err(format!("relative NVE drift {drift:.3e} above {drift_tol:.1e}"));
    }
    Ok(())
}

/// Runs repeats of `doc` until `budget_s` is spent (always at least one),
/// then tops the set-up samples up to `scale.setup_samples`.
pub fn run_repeats(
    doc: &str,
    scale: Scale,
    drift_tol: f64,
    budget_s: f64,
    traced: bool,
    rec: &mut Recorder,
) -> RunPart {
    let mut part = RunPart {
        job_steps: scale.warmup + scale.block_steps * scale.blocks,
        ..RunPart::default()
    };
    let start = Instant::now();
    let mut n = 0u32;
    loop {
        rec.set_repeat(n);
        let span = rec.begin("repeat");
        let t = Instant::now();
        let repeated = repeat(doc, scale, drift_tol, traced, &mut part, rec);
        part.ops.one(repeated.map_err(|why| format!("repeat {n}: {why}")));
        rec.end(span);
        n += 1;
        let last = t.elapsed().as_secs_f64();
        if part.ops.failed() > 0 || start.elapsed().as_secs_f64() + last > budget_s {
            break;
        }
    }
    let span = rec.begin("setup_only");
    while part.setup_s.len() < scale.setup_samples as usize && part.ops.failed() == 0 {
        match set_up(doc, rec) {
            Ok(s) => record_set_up(&mut part, &s),
            Err(why) => part.ops.one(Err(format!("set-up: {why}"))),
        }
    }
    rec.end(span);
    part
}

/// Accepted-tuple counts of the first step against the brute-force oracle
/// of `sc_md::reference`. One operation, outside every timed window.
pub fn oracle_check(doc: &str, opts: Opts) -> Result<(), String> {
    let mut rec = Recorder::new(Instant::now(), 0, false);
    let SetUp { handle, spec, .. } = set_up(doc, &mut rec)?;
    let tuples = handle.telemetry().tuples;
    let store = handle.gather();
    let bbox = handle.checkpoint().bbox();
    let ff = spec.force_field();
    let skew = u64::from(opts.self_test);
    if let Some(pair) = &ff.pair {
        let want = sc_md::reference::all_pairs(&store, &bbox, pair.cutoff()).len() as u64 + skew;
        if tuples.pair.accepted != want {
            return Err(format!(
                "oracle: {} pairs accepted, brute force finds {want}",
                tuples.pair.accepted
            ));
        }
    }
    if let Some(triplet) = &ff.triplet {
        let want =
            sc_md::reference::all_triplets(&store, &bbox, triplet.cutoff()).len() as u64 + skew;
        if tuples.triplet.accepted != want {
            return Err(format!(
                "oracle: {} triplets accepted, brute force finds {want}",
                tuples.triplet.accepted
            ));
        }
    }
    Ok(())
}
