//! The whole suite: the oracle check, every workload's end-to-end pass
//! (rounds interleaved round-robin so slow machine drift cancels), then the
//! traced pass; the printed table, the results document, the merged trace,
//! and `--aa`.

use crate::bench::{oracle, out_dir, run_workload, Outcome};
use crate::catalog::{self, MetricDef, Metrics, END_TO_END};
use crate::run::{Ops, Opts};
use crate::spans::{chrome_document, chrome_events, self_time_by_name, Span};
use crate::stats::{median, sorted};
use crate::workloads::{Workload, ALL};
use sc_obs::json::Json;
use std::time::Instant;

/// Schema identifier of `out/results.json`.
pub const RESULTS_SCHEMA_ID: &str = "sc-benchmark/1";
/// Differences in `setup_s` below this many seconds never fail A/A: a few
/// milliseconds of set-up are scheduler noise, whatever share they are.
const SETUP_FLOOR_S: f64 = 0.002;

#[derive(Debug, Clone, Copy)]
pub struct SuiteOpts {
    pub seed: u64,
    /// Seconds of one end-to-end round, and of the traced run, of one
    /// workload.
    pub seconds: f64,
    pub opts: Opts,
}

impl SuiteOpts {
    pub fn new(seed: u64, opts: Opts) -> Self {
        SuiteOpts { seed, seconds: if opts.quick { 0.2 } else { 8.0 }, opts }
    }

    /// End-to-end rounds per set.
    fn rounds(&self) -> u32 {
        if self.opts.quick {
            1
        } else {
            3
        }
    }
}

/// One workload's merged result.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub ops: Ops,
    /// Median over rounds of every end-to-end metric that describes the
    /// workload.
    pub end_to_end: Metrics,
    /// Per end-to-end metric: (largest − smallest round) ÷ median round.
    pub round_spread: Metrics,
    /// Timed steps (or jobs) behind the medians, summed over rounds.
    pub samples: usize,
    /// The traced run's layer metrics and spans.
    pub per_layer: Metrics,
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    fn new(workload: &'static Workload) -> Self {
        WorkloadResult {
            workload,
            ops: Ops::default(),
            end_to_end: Vec::new(),
            round_spread: Vec::new(),
            samples: 0,
            per_layer: Vec::new(),
            spans: Vec::new(),
        }
    }
}

fn progress(pass: &str, o: &Outcome, took: f64) {
    let head = o.metrics.iter().take(3).map(|(n, v)| format!("{n}={v:.4}")).collect::<Vec<_>>();
    eprintln!(
        "[{pass}] {:<22} {took:>5.1} s  ops {}/{} ok  {}",
        o.workload,
        o.ops.attempted - o.ops.failed(),
        o.ops.attempted,
        head.join(" ")
    );
    for why in &o.ops.failures {
        eprintln!("    failed: {why}");
    }
}

/// One end-to-end run of one workload, its operations tallied.
fn one_run(
    s: &SuiteOpts,
    label: &str,
    r: &mut WorkloadResult,
    runs: &mut Vec<Outcome>,
) -> Result<(), String> {
    let t = Instant::now();
    let o = run_workload(r.workload, s.seed, s.seconds, false, s.opts)?;
    progress(label, &o, t.elapsed().as_secs_f64());
    r.ops.absorb(o.ops.clone());
    r.samples += o.samples;
    runs.push(o);
    Ok(())
}

/// Every end-to-end metric that describes a workload is the median over
/// its rounds. A run prints the others too, because the driver wants every
/// metric from every workload; the suite leaves them out.
fn merge_rounds(results: &mut [WorkloadResult], rounds: &[Vec<Outcome>]) {
    for (r, per_round) in results.iter_mut().zip(rounds) {
        (r.end_to_end, r.round_spread) = END_TO_END
            .iter()
            .filter(|d| d.gate_on(r.workload.name).is_some())
            .filter_map(|d| {
                let values: Vec<f64> = per_round.iter().filter_map(|o| o.get(d.name)).collect();
                let s = sorted(values);
                let mid = median(&s);
                (!s.is_empty()).then(|| ((d.name, mid), (d.name, (s[s.len() - 1] - s[0]) / mid)))
            })
            .unzip();
    }
}

/// The brute-force oracle, once per workload.
pub fn oracle_pass(s: &SuiteOpts, results: &mut [WorkloadResult]) {
    for r in results {
        let t = Instant::now();
        let checked = oracle(r.workload, s.seed, s.opts);
        let took = t.elapsed().as_secs_f64();
        eprintln!("[oracle] {:<22} {took:>5.1} s  {checked:?}", r.workload.name);
        r.ops.one(checked);
    }
}

/// The end-to-end pass: rounds, each running every workload once.
pub fn end_to_end_pass(s: &SuiteOpts, results: &mut [WorkloadResult]) -> Result<(), String> {
    let mut rounds: Vec<Vec<Outcome>> = results.iter().map(|_| Vec::new()).collect();
    for round in 0..s.rounds() {
        let label = format!("round {}/{}", round + 1, s.rounds());
        for (r, runs) in results.iter_mut().zip(&mut rounds) {
            one_run(s, &label, r, runs)?;
        }
    }
    merge_rounds(results, &rounds);
    Ok(())
}

/// The traced pass: one traced run per workload.
pub fn traced_pass(s: &SuiteOpts, results: &mut [WorkloadResult]) -> Result<(), String> {
    for r in results.iter_mut() {
        let t = Instant::now();
        let o = run_workload(r.workload, s.seed, s.seconds, true, s.opts)?;
        progress("traced", &o, t.elapsed().as_secs_f64());
        r.ops.absorb(o.ops);
        r.per_layer = o.metrics;
        r.spans = o.spans;
    }
    Ok(())
}

pub fn new_results() -> Vec<WorkloadResult> {
    ALL.iter().map(WorkloadResult::new).collect()
}

/// Where the numbers were taken: enough to tell two hosts apart, and a
/// `noisy` mark when the machine was already busy.
pub fn host_fingerprint() -> Json {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()));
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::Obj(vec![
        ("nproc".into(), Json::num(nproc as f64)),
        ("cpu".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(command("rustc", &["--version"]))),
        ("git_sha".into(), Json::str(command("git", &["rev-parse", "--short", "HEAD"]))),
        ("load_avg_1m".into(), load.map_or(Json::Null, Json::num)),
        ("noisy".into(), Json::Bool(load.is_some_and(|l| l > 0.5))),
    ])
}

/// `gate` is the workload's `--aa` bound on an end-to-end metric.
fn metric_json(d: &MetricDef, value: f64, samples: Option<usize>, gate: Option<f64>) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(d.name)),
        ("value".to_string(), Json::num(value)),
        ("unit".to_string(), Json::str(d.unit)),
        ("better".to_string(), Json::str(d.better.as_str())),
    ];
    if let Some(bound) = gate {
        fields.push(("bound".to_string(), Json::num(bound)));
    }
    if let Some(n) = samples {
        fields.push(("samples".to_string(), Json::num(n as f64)));
    }
    if gate.is_none() {
        fields.push(("exact".to_string(), Json::Bool(d.exact)));
        fields.push(("moves".to_string(), Json::str(d.moves)));
    }
    Json::Obj(fields)
}

/// The results document (`out/results.json`, pinned by
/// `schema/results.schema.json`).
pub fn results_document(seed: u64, host: Json, results: &[WorkloadResult]) -> Json {
    let list = |r: &WorkloadResult, values: &[(&'static str, f64)], samples: Option<usize>| {
        Json::Arr(
            values
                .iter()
                .filter_map(|&(name, v)| {
                    catalog::find(name)
                        .map(|d| metric_json(d, v, samples, d.gate_on(r.workload.name)))
                })
                .collect(),
        )
    };
    let workloads = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::str(r.workload.name)),
                ("why".into(), Json::str(r.workload.why)),
                ("atoms".into(), Json::num(r.workload.atoms() as f64)),
                ("ops_attempted".into(), Json::num(r.ops.attempted as f64)),
                ("ops_failed".into(), Json::num(r.ops.failed() as f64)),
                ("end_to_end".into(), list(r, &r.end_to_end, Some(r.samples))),
                ("per_layer".into(), list(r, &r.per_layer, None)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str(RESULTS_SCHEMA_ID)),
        ("seed".into(), Json::num(seed as f64)),
        ("host".into(), host),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

/// Six significant decimals, or scientific notation for the tiny ones.
fn shown(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

/// Prints every metric by name with unit, direction, sample count and
/// regression bound.
pub fn print_table(results: &[WorkloadResult]) {
    for r in results {
        println!(
            "\n== {} ({} atoms): ops_attempted {} ops_failed {}",
            r.workload.name,
            r.workload.atoms(),
            r.ops.attempted,
            r.ops.failed()
        );
        println!("   {}", r.workload.why);
        for &(name, v) in &r.end_to_end {
            let d = catalog::find(name).expect("catalogued");
            println!(
                "  {name:<30} {:>16} {:<8} better={:<6} samples={:<6} bound={}",
                shown(v),
                d.unit,
                d.better.as_str(),
                r.samples,
                d.gate_on(r.workload.name).unwrap_or(f64::NAN)
            );
        }
        for &(name, v) in &r.per_layer {
            let d = catalog::find(name).expect("catalogued");
            println!(
                "  {name:<30} {:>16} {:<8} better={:<6} {}-> {}",
                shown(v),
                d.unit,
                d.better.as_str(),
                if d.exact { "exact " } else { "" },
                d.moves
            );
        }
        if !r.spans.is_empty() {
            let by_name = self_time_by_name(&r.spans);
            let top: Vec<String> = by_name
                .iter()
                .take(6)
                .map(|(n, us, k)| format!("{n} {:.1} ms x{k}", us / 1e3))
                .collect();
            println!("  self time: {}", top.join(", "));
        }
    }
}

/// Writes `out/results.json` and `out/trace.json`; returns the document.
pub fn write_outputs(seed: u64, results: &[WorkloadResult]) -> Result<Json, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let doc = results_document(seed, host_fingerprint(), results);
    std::fs::write(dir.join("results.json"), format!("{doc}\n"))
        .map_err(|e| format!("results.json: {e}"))?;
    let events: Vec<Json> = results
        .iter()
        .enumerate()
        .flat_map(|(pid, r)| chrome_events(&r.spans, pid as u32, r.workload.name))
        .collect();
    if !events.is_empty() {
        std::fs::write(dir.join("trace.json"), chrome_document(events).to_string())
            .map_err(|e| format!("trace.json: {e}"))?;
    }
    Ok(doc)
}

/// The default command: both passes, the table, the documents. Returns
/// the number of failed operations.
pub fn suite(s: &SuiteOpts, traced_only: bool) -> Result<u64, String> {
    let host = host_fingerprint();
    eprintln!("host: {host}");
    let mut results = new_results();
    oracle_pass(s, &mut results);
    if !traced_only {
        end_to_end_pass(s, &mut results)?;
    }
    traced_pass(s, &mut results)?;
    print_table(&results);
    write_outputs(s.seed, &results)?;
    let failed: u64 = results.iter().map(|r| r.ops.failed()).sum();
    let attempted: u64 = results.iter().map(|r| r.ops.attempted).sum();
    println!(
        "\nops_attempted {attempted} ops_failed {failed}; documents under {}",
        out_dir().display()
    );
    Ok(failed)
}

/// How two sets of runs of one build compare on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agrees,
    /// Apart by more than the bound, each set's rounds agreeing within it.
    Differs,
    /// Apart by more than the bound, and so are the rounds of one set: the
    /// machine moved by more than the bound can see.
    Unresolved,
}

/// One row of the A/A report.
#[derive(Debug, Clone, PartialEq)]
pub struct AaRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub rel_diff: f64,
    /// `None` for an exact count.
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Compares two sets of runs of the same build: every end-to-end timing
/// must agree within its workload's bound, every exact count must be
/// identical.
pub fn aa_rows(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<AaRow> {
    let mut rows = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let workload = ra.workload.name;
        let pairs = ra.end_to_end.iter().zip(&rb.end_to_end);
        let layers = ra.per_layer.iter().zip(&rb.per_layer);
        for (&(name, va), &(_, vb)) in pairs.chain(layers) {
            let d = catalog::find(name).expect("catalogued");
            let rel_diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
            let bound = d.gate_on(workload);
            let verdict = match (bound, d.exact) {
                (Some(bound), _) => {
                    let spread_of = |r: &WorkloadResult| {
                        r.round_spread.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, s)| s)
                    };
                    if rel_diff <= bound || (name == "setup_s" && (va - vb).abs() <= SETUP_FLOOR_S)
                    {
                        Verdict::Agrees
                    } else if spread_of(ra).max(spread_of(rb)) > bound {
                        Verdict::Unresolved
                    } else {
                        Verdict::Differs
                    }
                }
                (None, true) if va == vb => Verdict::Agrees,
                (None, true) => Verdict::Differs,
                (None, false) => continue,
            };
            rows.push(AaRow { workload, metric: name, a: va, b: vb, rel_diff, bound, verdict });
        }
    }
    rows
}

/// `--aa`: both passes twice on the same build. The two sets' runs of a
/// workload follow each other directly, the set that goes first changing
/// from round to round, so that machine drift hits both alike. Returns the
/// number of disagreements plus failed operations.
pub fn aa(s: &SuiteOpts) -> Result<u64, String> {
    let mut sets = [new_results(), new_results()];
    oracle_pass(s, &mut sets[0]);
    let mut rounds: [Vec<Vec<Outcome>>; 2] =
        [0, 1].map(|_| ALL.iter().map(|_| Vec::new()).collect());
    for round in 0..s.rounds() {
        for w in 0..ALL.len() {
            for turn in 0..2 {
                let set = (turn + round as usize) % 2;
                let label = format!("{} round {}/{}", ["A", "B"][set], round + 1, s.rounds());
                one_run(s, &label, &mut sets[set][w], &mut rounds[set][w])?;
            }
        }
    }
    for (set, rounds) in sets.iter_mut().zip(&rounds) {
        merge_rounds(set, rounds);
        traced_pass(s, set)?;
    }
    let rows = aa_rows(&sets[0], &sets[1]);
    println!(
        "{:<22} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "rel.diff", "bound"
    );
    for r in &rows {
        println!(
            "{:<22} {:<28} {:>16} {:>16} {:>9.4} {:>7} {}",
            r.workload,
            r.metric,
            shown(r.a),
            shown(r.b),
            r.rel_diff,
            r.bound.map_or("exact".to_string(), |b| b.to_string()),
            match r.verdict {
                Verdict::Agrees => "ok",
                Verdict::Differs => "DIFFERS",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count() as u64;
    let failed: u64 = sets.iter().flatten().map(|r| r.ops.failed()).sum();
    println!(
        "A/A: {} of {} comparisons differ, {} unresolved; ops_failed {failed}",
        count(Verdict::Differs),
        rows.len(),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Differs) + failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    fn result_with(e2e: Metrics, spread: Metrics, layer: Metrics) -> WorkloadResult {
        WorkloadResult {
            end_to_end: e2e,
            round_spread: spread,
            per_layer: layer,
            ..WorkloadResult::new(&ALL[0])
        }
    }

    #[test]
    fn aa_gates_timings_on_their_bound_and_exact_counts_on_equality() {
        let e2e = |setup, rate, step| {
            vec![("setup_s", setup), ("steps_per_s", rate), ("step_ms_p50", step)]
        };
        let a = [result_with(
            e2e(0.0040, 100.0, 10.0),
            vec![("steps_per_s", 0.08)],
            vec![
                ("md.accepted_per_step", 5.0),
                ("md.search_pair_ms", 1.0),
                ("md.search_triplet_ms", 8.0),
            ],
        )];
        let b = [result_with(
            e2e(0.0055, 93.0, 10.4),
            vec![],
            vec![
                ("md.accepted_per_step", 5.0),
                ("md.search_pair_ms", 9.0),
                ("md.search_triplet_ms", 9.0),
            ],
        )];
        let mut rows = aa_rows(&a, &b);
        let verdict =
            |rows: &[AaRow], m: &str| rows.iter().find(|r| r.metric == m).map(|r| r.verdict);
        assert_eq!(verdict(&rows, "setup_s"), Some(Verdict::Agrees), "1.5 ms: under the floor");
        assert_eq!(verdict(&rows, "step_ms_p50"), Some(Verdict::Agrees), "4% is within 5%");
        assert_eq!(
            verdict(&rows, "steps_per_s"),
            Some(Verdict::Unresolved),
            "7% apart, but A's own rounds are 8% apart"
        );
        assert_eq!(verdict(&rows, "md.accepted_per_step"), Some(Verdict::Agrees));
        assert_eq!(verdict(&rows, "md.search_pair_ms"), None, "layer timings are not gated");
        let quiet = [result_with(e2e(0.0040, 100.0, 10.0), vec![], vec![("md.list_entries", 8.0)])];
        let other = [result_with(e2e(0.0040, 93.0, 10.0), vec![], vec![("md.list_entries", 9.0)])];
        rows = aa_rows(&quiet, &other);
        assert_eq!(verdict(&rows, "steps_per_s"), Some(Verdict::Differs), "7% is over 5%");
        assert_eq!(verdict(&rows, "md.list_entries"), Some(Verdict::Differs), "counts use ==");
    }

    /// All five workloads, both passes, tiny step counts: every metric is
    /// finite, every end-to-end metric that describes a workload is reported
    /// on it, every layer metric on some workload, no operation fails, and
    /// the results document validates against the checked-in schema.
    #[test]
    fn quick_suite_reports_every_metric_and_validates() {
        let s = SuiteOpts::new(42, Opts { quick: true, self_test: false });
        let mut results = new_results();
        oracle_pass(&s, &mut results);
        end_to_end_pass(&s, &mut results).expect("end-to-end pass");
        traced_pass(&s, &mut results).expect("traced pass");
        let names = |v: &[(&'static str, f64)]| v.iter().map(|m| m.0).collect::<Vec<_>>();
        for r in &results {
            let w = r.workload.name;
            assert_eq!(r.ops.failed(), 0, "{w}: {:?}", r.ops.failures);
            assert!(r.ops.attempted >= 3, "{w}");
            let described: Vec<&str> =
                END_TO_END.iter().filter(|d| d.gate_on(w).is_some()).map(|d| d.name).collect();
            assert_eq!(names(&r.end_to_end), described, "{w}");
            for &(name, v) in r.end_to_end.iter().chain(&r.per_layer) {
                assert!(v.is_finite(), "{w} {name} = {v}");
            }
            for &(name, v) in &r.end_to_end {
                assert!(v > 0.0, "{w} {name} = {v}");
            }
            let spans = &r.spans;
            assert!(spans.iter().any(|s| s.name == "step"));
            assert!(spans.iter().any(|s| s.name.starts_with("probe.md.")));
            let serves = r.workload.kind == crate::workloads::Kind::Serve;
            assert_eq!(spans.iter().any(|s| s.name == "serve.submit"), serves, "{w}");
        }
        for d in PER_LAYER {
            let on = results.iter().filter(|r| names(&r.per_layer).contains(&d.name)).count();
            assert!(on > 0, "{} is measured on no workload", d.name);
        }
        let doc = write_outputs(s.seed, &results).expect("documents written");
        let schema =
            Json::parse(include_str!("../schema/results.schema.json")).expect("schema parses");
        sc_obs::schema::validate(&doc, &schema).expect("results document fits its schema");
        let reread = std::fs::read_to_string(out_dir().join("trace.json")).expect("trace written");
        let trace = Json::parse(&reread).expect("trace is JSON");
        assert!(trace.get("traceEvents").and_then(Json::as_array).is_some_and(|e| e.len() > 100));
    }

    /// One run prints every end-to-end metric, as the driver wants, and
    /// `--self-test` fails every workload: the oracle on all of them, the
    /// byte comparison on the served one.
    #[test]
    fn a_run_reports_all_six_and_self_test_fails_every_workload() {
        let wrong = Opts { quick: true, self_test: true };
        for w in ALL {
            assert!(oracle(w, 42, wrong).is_err(), "{} passed a skewed oracle", w.name);
            let o = run_workload(w, 42, 0.1, false, wrong).expect("harness runs");
            if w.kind == crate::workloads::Kind::Serve {
                assert!(o.ops.failed() > 0, "served results passed a wrong expectation");
            } else {
                let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
                assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
                assert!(o.metrics.iter().all(|&(_, v)| v.is_finite() && v > 0.0), "{}", w.name);
            }
        }
    }
}
