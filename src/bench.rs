//! The counter/energy gate behind `scmd bench`.
//!
//! Runs a pinned, deterministic workload matrix — the serial engine and the
//! distributed engine (under both its `bsp` and `threaded` spellings), each
//! over the method set — once per row and writes one bench document whose
//! layout is pinned by `schema/bench.schema.json`. A companion comparator
//! diffs two bench documents exactly: the deterministic work counters (tuple
//! candidates/accepted, comm messages/bytes) must be equal and the energies
//! must agree to 1e-6 relative. CI runs the matrix against the checked-in
//! `BENCH_baseline.json` so behavioural regressions (more work, more
//! traffic, different physics) fail loudly on any machine. Nothing here
//! reads a clock: `benchmark/` and `scripts/ab.sh` are the timing authority.

use sc_obs::json::Json;
use sc_spec::ScenarioSpec;

/// The schema identifier stamped into every bench document.
pub const SCHEMA_ID: &str = "sc-bench/2";

/// One benchmark case: what ran and the deterministic work it did.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Unique case name (`executor-method-system`).
    pub name: String,
    /// The spec's executor spelling: `serial`, `threaded`, or `bsp`.
    pub executor: String,
    /// Method short name (`sc`, `fs`, `hybrid`).
    pub method: String,
    /// Workload system (`lj` or `silica`).
    pub system: String,
    /// Atom count.
    pub atoms: u64,
    /// Steps integrated.
    pub steps: u64,
    /// Tuple candidates visited in the final step (0 where the executor
    /// does not report tuple statistics).
    pub tuples_candidates: u64,
    /// Tuples accepted in the final step.
    pub tuples_accepted: u64,
    /// Final potential energy (deterministic given the pinned seeds).
    pub energy_total: f64,
    /// Messages sent over the whole run (0 for the serial engine).
    pub comm_messages: u64,
    /// Bytes sent over the whole run (0 for the serial engine).
    pub comm_bytes: u64,
    /// Messages per integration step (`comm_messages / steps`): one frame
    /// per neighbor per exchange phase. The comparator gates on it exactly,
    /// so a schedule that sends more wire units fails loudly.
    pub messages_per_step: f64,
}

impl BenchCase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("executor".into(), Json::str(&self.executor)),
            ("method".into(), Json::str(&self.method)),
            ("system".into(), Json::str(&self.system)),
            ("atoms".into(), Json::num(self.atoms as f64)),
            ("steps".into(), Json::num(self.steps as f64)),
            ("tuples_candidates".into(), Json::num(self.tuples_candidates as f64)),
            ("tuples_accepted".into(), Json::num(self.tuples_accepted as f64)),
            ("energy_total".into(), Json::num(self.energy_total)),
            ("comm_messages".into(), Json::num(self.comm_messages as f64)),
            ("comm_bytes".into(), Json::num(self.comm_bytes as f64)),
            ("messages_per_step".into(), Json::num(self.messages_per_step)),
        ])
    }
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository (the bench file is still valid — the sha is provenance only).
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The pinned workload matrix, embedded at compile time from
/// `scenarios/bench/`. Array order is the canonical case order, and each
/// file's `name` field matches `BENCH_baseline.json` case-for-case —
/// editing a spec file changes what `scmd bench` measures, and the
/// baseline comparator catches any counter drift that causes.
const MATRIX_SPECS: [&str; 15] = [
    include_str!("../scenarios/bench/serial-sc-md-lj.json"),
    include_str!("../scenarios/bench/serial-fs-md-lj.json"),
    include_str!("../scenarios/bench/serial-hybrid-md-lj.json"),
    include_str!("../scenarios/bench/serial-sc-md-silica.json"),
    include_str!("../scenarios/bench/serial-fs-md-silica.json"),
    include_str!("../scenarios/bench/serial-hybrid-md-silica.json"),
    include_str!("../scenarios/bench/bsp-sc-md-lj.json"),
    include_str!("../scenarios/bench/bsp-fs-md-lj.json"),
    include_str!("../scenarios/bench/threaded-sc-md-lj.json"),
    include_str!("../scenarios/bench/bsp-sc-md-silica.json"),
    include_str!("../scenarios/bench/threaded-sc-md-silica.json"),
    include_str!("../scenarios/bench/bsp-hybrid-md-silica.json"),
    include_str!("../scenarios/bench/threaded-hybrid-md-silica.json"),
    include_str!("../scenarios/bench/bsp-hybrid-md-silica-k2.json"),
    include_str!("../scenarios/bench/bsp-sc-md-clustered.json"),
];

/// Decodes the embedded benchmark matrix.
pub fn matrix_specs() -> Vec<ScenarioSpec> {
    MATRIX_SPECS
        .iter()
        .map(|src| ScenarioSpec::from_json_str(src).expect("checked-in bench spec is valid"))
        .collect()
}

/// The step count `quick` mode (used by tests) runs every case for instead
/// of its checked-in `steps`.
const QUICK_STEPS: u64 = 2;

/// Runs one scenario as a bench case. Every executor spelling — serial,
/// threaded, BSP — goes through the same [`sc_spec::RunHandle`]
/// instantiation the job service uses, so the bench doubles as a no-drift
/// check on the spec layer.
pub fn run_spec_case(spec: &ScenarioSpec) -> Result<BenchCase, String> {
    let steps = spec.steps;
    let mut handle = spec.instantiate().map_err(|e| e.to_string())?;
    let atoms = handle.gather().len() as u64;
    handle.run(steps as usize);
    let t = handle.telemetry();
    Ok(BenchCase {
        name: spec.name.clone(),
        executor: spec.executor.kind().into(),
        method: spec.method.name().into(),
        system: spec.system.kind().into(),
        atoms,
        steps,
        tuples_candidates: t.tuples.total_candidates(),
        tuples_accepted: t.tuples.total_accepted(),
        energy_total: t.energy.total(),
        // The serial engine's telemetry reports zeroed comm counters,
        // matching the baseline's serial cases.
        comm_messages: t.comm.messages,
        comm_bytes: t.comm.bytes,
        messages_per_step: t.comm.messages as f64 / steps as f64,
    })
}

/// Runs the pinned workload matrix from the embedded `scenarios/bench/`
/// specs, each row once, for the `steps` its file carries; `quick` shrinks
/// the step counts (used by tests; the full matrix completes in seconds).
pub fn run_matrix(quick: bool) -> Vec<BenchCase> {
    let mut specs = matrix_specs();
    if quick {
        specs.iter_mut().for_each(|spec| spec.steps = QUICK_STEPS);
    }
    specs.iter().map(|spec| run_spec_case(spec).expect("checked-in bench spec runs")).collect()
}

/// Renders a bench document (the layout pinned by
/// `schema/bench.schema.json`).
pub fn to_document(cases: &[BenchCase]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_ID)),
        ("git_sha".into(), Json::str(git_sha())),
        ("cases".into(), Json::Arr(cases.iter().map(BenchCase::to_json).collect())),
    ])
}

fn num(case: &Json, key: &str) -> f64 {
    case.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

fn cases_of(doc: &Json) -> &[Json] {
    doc.get("cases").and_then(|c| c.as_array()).unwrap_or(&[])
}

fn name_of(case: &Json) -> &str {
    case.get("name").and_then(|n| n.as_str()).unwrap_or("?")
}

/// Diffs `current` against `baseline`. Returns `(report, failures)`: one
/// report line per case both documents hold, and one failure line per
/// violated invariant. Deterministic counters (tuple candidates/accepted,
/// comm messages/bytes) must match exactly and energies must agree to 1e-6
/// relative; a case only one document holds is a failure either way — a new
/// row is gated from the moment the baseline is re-recorded with it, never
/// silently before.
pub fn compare(baseline: &Json, current: &Json) -> (Vec<String>, Vec<String>) {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    let (base_cases, cur_cases) = (cases_of(baseline), cases_of(current));
    for base in base_cases {
        let name = name_of(base);
        let Some(cur) = cur_cases.iter().find(|c| name_of(c) == name) else {
            failures.push(format!("{name}: case missing from current run"));
            continue;
        };
        let before = failures.len();
        for key in [
            "atoms",
            "steps",
            "tuples_candidates",
            "tuples_accepted",
            "comm_messages",
            "comm_bytes",
            "messages_per_step",
        ] {
            let (b, c) = (num(base, key), num(cur, key));
            if b != c {
                failures.push(format!("{name}: {key} changed {b} -> {c}"));
            }
        }
        let (be, ce) = (num(base, "energy_total"), num(cur, "energy_total"));
        if (be - ce).abs() > 1e-6 * be.abs().max(1.0) {
            failures.push(format!("{name}: energy_total drifted {be} -> {ce}"));
        }
        let verdict =
            if failures.len() == before { "counters and energy match" } else { "DIFFERS" };
        report.push(format!("{name:<28} {verdict}"));
    }
    for cur in cur_cases {
        let name = name_of(cur);
        if !base_cases.iter().any(|b| name_of(b) == name) {
            failures.push(format!("{name}: case missing from baseline — re-record it"));
        }
    }
    (report, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, candidates: u64) -> BenchCase {
        BenchCase {
            name: name.into(),
            executor: "serial".into(),
            method: "sc".into(),
            system: "lj".into(),
            atoms: 256,
            steps: 4,
            tuples_candidates: candidates,
            tuples_accepted: candidates / 2,
            energy_total: -100.0,
            comm_messages: 0,
            comm_bytes: 0,
            messages_per_step: 0.0,
        }
    }

    fn doc(candidates: u64) -> Json {
        to_document(&[case("serial-sc-lj", candidates)])
    }

    #[test]
    fn identical_documents_compare_clean() {
        let a = doc(1000);
        let (report, failures) = compare(&a, &a);
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn counter_drift_fails() {
        let (_, failures) = compare(&doc(1000), &doc(1001));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("tuples_candidates"), "{failures:?}");
    }

    #[test]
    fn missing_case_fails() {
        let (_, failures) = compare(&doc(1000), &to_document(&[]));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing from current run"), "{failures:?}");
    }

    #[test]
    fn case_missing_from_baseline_fails() {
        // A row added to the matrix is not gated by a baseline that lacks
        // it; passing silently would hide that.
        let grown = to_document(&[case("serial-sc-lj", 1000), case("bsp-SC-MD-silica", 7)]);
        let (report, failures) = compare(&doc(1000), &grown);
        assert_eq!(report.len(), 1);
        assert_eq!(
            failures,
            ["bsp-SC-MD-silica: case missing from baseline — re-record it".to_string()]
        );
    }

    #[test]
    fn embedded_matrix_specs_parse_and_keep_the_baseline_case_names() {
        let specs = matrix_specs();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "serial-SC-MD-lj",
                "serial-FS-MD-lj",
                "serial-Hybrid-MD-lj",
                "serial-SC-MD-silica",
                "serial-FS-MD-silica",
                "serial-Hybrid-MD-silica",
                "bsp-SC-MD-lj",
                "bsp-FS-MD-lj",
                "threaded-SC-MD-lj",
                "bsp-SC-MD-silica",
                "threaded-SC-MD-silica",
                "bsp-Hybrid-MD-silica",
                "threaded-Hybrid-MD-silica",
                "bsp-Hybrid-MD-silica-k2",
                "bsp-SC-MD-clustered",
            ]
        );
        // Every name leads with its own executor/method/system triple, so a
        // mislabeled spec file cannot masquerade as another case; a suffix
        // (`-k2` for `subdivision: 2`) is allowed after the triple.
        for s in &specs {
            let triple = format!("{}-{}-{}", s.executor.kind(), s.method.name(), s.system.kind());
            assert!(
                s.name == triple || s.name.starts_with(&format!("{triple}-")),
                "spec name {:?} disagrees with its contents ({triple})",
                s.name
            );
        }
        // The checked-in baseline gates exactly these rows.
        let baseline = Json::parse(include_str!("../BENCH_baseline.json")).unwrap();
        let gated: Vec<&str> = cases_of(&baseline).iter().map(name_of).collect();
        assert_eq!(gated, names);
    }

    #[test]
    fn quick_matrix_is_deterministic_across_runs() {
        // Two back-to-back runs must agree on every deterministic counter —
        // this is the invariant the CI comparator relies on.
        let a = run_matrix(true);
        let b = run_matrix(true);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tuples_candidates, y.tuples_candidates, "{}", x.name);
            assert_eq!(x.tuples_accepted, y.tuples_accepted, "{}", x.name);
            assert_eq!(x.comm_messages, y.comm_messages, "{}", x.name);
            assert_eq!(x.comm_bytes, y.comm_bytes, "{}", x.name);
            assert!((x.energy_total - y.energy_total).abs() < 1e-9, "{}", x.name);
        }
        let (report, failures) = compare(&to_document(&a), &to_document(&b));
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(report.len(), a.len());
    }
}
