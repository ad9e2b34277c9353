//! The bench matrix behind `scmd bench` and the tier-1 counter/energy gate.
//!
//! Runs a pinned, deterministic workload matrix — the one engine on a
//! 1×1×1 grid (the `serial` spelling) and on larger `bsp` grids, each over
//! the method set — once per row and writes one bench document whose
//! layout is pinned by `schema/bench.schema.json`. `scmd bench` only
//! records; the gate is this module's
//! `matrix_matches_the_checked_in_baseline` test, which `cargo test -q`
//! runs: the deterministic work counters (tuple candidates/accepted, comm
//! messages/bytes) must equal `BENCH_baseline.json`'s and the energies must
//! agree to 1e-6 relative, so behavioural regressions (more work, more
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
    /// Messages sent over the whole run (a serial run's one rank sends to
    /// itself).
    pub comm_messages: u64,
    /// Bytes sent over the whole run.
    pub comm_bytes: u64,
    /// Messages per integration step (`comm_messages / steps`): one frame
    /// per neighbor per exchange phase. The gate compares it exactly, so a
    /// schedule that sends more wire units fails loudly.
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
/// tier-1 gate catches any counter drift that causes.
const MATRIX_SPECS: [&str; 12] = [
    include_str!("../scenarios/bench/serial-sc-md-lj.json"),
    include_str!("../scenarios/bench/serial-fs-md-lj.json"),
    include_str!("../scenarios/bench/serial-hybrid-md-lj.json"),
    include_str!("../scenarios/bench/serial-sc-md-silica.json"),
    include_str!("../scenarios/bench/serial-fs-md-silica.json"),
    include_str!("../scenarios/bench/serial-hybrid-md-silica.json"),
    include_str!("../scenarios/bench/bsp-sc-md-lj.json"),
    include_str!("../scenarios/bench/bsp-fs-md-lj.json"),
    include_str!("../scenarios/bench/bsp-sc-md-silica.json"),
    include_str!("../scenarios/bench/bsp-hybrid-md-silica.json"),
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

/// Runs one scenario as a bench case. Every executor spelling goes through the same [`sc_spec::RunHandle`]
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
        comm_messages: t.comm.messages,
        comm_bytes: t.comm.bytes,
        messages_per_step: t.comm.messages as f64 / steps as f64,
    })
}

/// Runs the pinned workload matrix from the embedded `scenarios/bench/`
/// specs, each row once, for the `steps` its file carries (the whole matrix
/// takes seconds even in the debug profile).
pub fn run_matrix() -> Vec<BenchCase> {
    matrix_specs()
        .iter()
        .map(|spec| run_spec_case(spec).expect("checked-in bench spec runs"))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic work counters the gate requires to match exactly.
    const EXACT_KEYS: [&str; 7] = [
        "atoms",
        "steps",
        "tuples_candidates",
        "tuples_accepted",
        "comm_messages",
        "comm_bytes",
        "messages_per_step",
    ];

    fn baseline() -> Json {
        Json::parse(include_str!("../BENCH_baseline.json")).expect("baseline is valid JSON")
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

    /// Diffs `current` against `baseline`, one failure line per violated
    /// invariant. Exact counters must be equal and energies must agree to
    /// 1e-6 relative — written so that a NaN or missing energy (`null` on
    /// the wire) fails; a case only one document holds is a failure either
    /// way, so a new row is gated from the moment the baseline is
    /// re-recorded with it, never silently before.
    fn compare(baseline: &Json, current: &Json) -> Vec<String> {
        let mut failures = Vec::new();
        let (base_cases, cur_cases) = (cases_of(baseline), cases_of(current));
        for base in base_cases {
            let name = name_of(base);
            let Some(cur) = cur_cases.iter().find(|c| name_of(c) == name) else {
                failures.push(format!("{name}: case missing from current run"));
                continue;
            };
            for key in EXACT_KEYS {
                let (b, c) = (num(base, key), num(cur, key));
                if b != c {
                    failures.push(format!("{name}: {key} changed {b} -> {c}"));
                }
            }
            let (be, ce) = (num(base, "energy_total"), num(cur, "energy_total"));
            // False when either side is NaN, so NaN fails.
            let close = (be - ce).abs() <= 1e-6 * be.abs().max(1.0);
            if !close {
                failures.push(format!("{name}: energy_total drifted {be} -> {ce}"));
            }
        }
        for cur in cur_cases {
            let name = name_of(cur);
            if !base_cases.iter().any(|b| name_of(b) == name) {
                failures.push(format!("{name}: case missing from baseline — re-record it"));
            }
        }
        failures
    }

    /// The `cases` array of a bench document, for doctoring.
    fn cases_mut(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Obj(fields) = doc else { panic!("bench doc is an object") };
        match fields.iter_mut().find(|(k, _)| k == "cases") {
            Some((_, Json::Arr(cases))) => cases,
            _ => panic!("bench doc has a cases array"),
        }
    }

    /// `doc` with case `i`'s `key` set to `value`, or removed when `None`.
    fn doctored(doc: &Json, i: usize, key: &str, value: Option<Json>) -> Json {
        let mut doc = doc.clone();
        let Json::Obj(case) = &mut cases_mut(&mut doc)[i] else { panic!("case is an object") };
        let at = case.iter().position(|(k, _)| k == key).expect("case holds the key");
        match value {
            Some(v) => case[at].1 = v,
            None => drop(case.remove(at)),
        }
        doc
    }

    /// The baseline with one row dropped, and that row's name.
    fn short_baseline() -> (Json, String) {
        let mut short = baseline();
        let dropped = cases_mut(&mut short).remove(3);
        (short, name_of(&dropped).to_string())
    }

    #[test]
    fn matrix_matches_the_checked_in_baseline() {
        // The tier-1 gate. Two runs must render the same document string —
        // `Json` writes a finite f64 in shortest round-trip form, so equal
        // strings mean equal bits — and the first must match the pinned
        // counters exactly and the pinned energies to 1e-6.
        let first = to_document(&run_matrix());
        let second = to_document(&run_matrix());
        assert_eq!(first.to_string(), second.to_string(), "the matrix is not deterministic");
        let failures = compare(&baseline(), &first);
        assert!(
            failures.is_empty(),
            "bench matrix drifted from BENCH_baseline.json (re-record with \
             `scmd bench --out BENCH_baseline.json` only if the change is meant):\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn identical_documents_compare_clean() {
        let base = baseline();
        assert_eq!(compare(&base, &base), Vec::<String>::new());
    }

    #[test]
    fn every_gated_key_of_every_baseline_row_is_checked() {
        let base = baseline();
        let cases = cases_of(&base);
        assert_eq!(cases.len(), MATRIX_SPECS.len());
        for (i, c) in cases.iter().enumerate() {
            let name = name_of(c);
            for key in EXACT_KEYS {
                let bumped = doctored(&base, i, key, Some(Json::num(num(c, key) + 1.0)));
                let failures = compare(&base, &bumped);
                assert_eq!(failures.len(), 1, "{name}.{key}: {failures:?}");
                assert!(failures[0].starts_with(&format!("{name}: {key} ")), "{failures:?}");
            }
            let e = num(c, "energy_total");
            let within = doctored(&base, i, "energy_total", Some(Json::num(e * (1.0 + 0.5e-6))));
            assert_eq!(compare(&base, &within), Vec::<String>::new(), "{name}");
            let beyond = doctored(&base, i, "energy_total", Some(Json::num(e * (1.0 + 2e-6))));
            let failures = compare(&base, &beyond);
            assert_eq!(failures.len(), 1, "{name}: {failures:?}");
            assert!(failures[0].starts_with(&format!("{name}: energy_total ")), "{failures:?}");
        }
    }

    #[test]
    fn energy_gate_fails_a_null_or_missing_energy() {
        // `Json::num` writes a non-finite energy as `null`; a blown-up run
        // whose counters happen to match must not pass.
        let base = baseline();
        let name = name_of(&cases_of(&base)[0]).to_string();
        for value in [Some(Json::Null), None] {
            let blown = doctored(&base, 0, "energy_total", value.clone());
            let failures = compare(&base, &blown);
            assert_eq!(failures.len(), 1, "{value:?}: {failures:?}");
            assert!(failures[0].starts_with(&format!("{name}: energy_total ")), "{failures:?}");
        }
    }

    #[test]
    fn missing_case_fails() {
        let (short, name) = short_baseline();
        assert_eq!(
            compare(&baseline(), &short),
            [format!("{name}: case missing from current run")]
        );
    }

    #[test]
    fn case_missing_from_baseline_fails() {
        // A row added to the matrix is not gated by a baseline that lacks
        // it; passing silently would hide that.
        let (short, name) = short_baseline();
        assert_eq!(
            compare(&short, &baseline()),
            [format!("{name}: case missing from baseline — re-record it")]
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
                "bsp-SC-MD-silica",
                "bsp-Hybrid-MD-silica",
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
        let base = baseline();
        let gated: Vec<&str> = cases_of(&base).iter().map(name_of).collect();
        assert_eq!(gated, names);
    }
}
