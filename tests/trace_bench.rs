//! CLI contract tests for the trace and bench writers: `scmd run --trace`
//! must emit a Chrome Trace Format file that round-trips through the
//! vendored JSON parser with at least one event for every phase in the
//! taxonomy, and `scmd bench` must emit a schema-valid bench document and
//! accept nothing but `--spec` and `--out` (it records; the gate against
//! `BENCH_baseline.json` is the `bench` module's tier-1 test).

use shift_collapse_md::obs::json::Json;
use shift_collapse_md::obs::{schema, Phase};
use std::process::Command;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scmd-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn scmd_run_trace_round_trips_with_every_phase() {
    let dir = tmp_dir("trace");
    let trace_path = dir.join("trace.json");

    let output = Command::new(env!("CARGO_BIN_EXE_scmd"))
        .args([
            "run",
            "--spec",
            concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/lj-melt.json"),
            "--steps",
            "5",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("scmd runs");
    assert!(output.status.success(), "scmd failed: {}", String::from_utf8_lossy(&output.stderr));

    let text = std::fs::read_to_string(&trace_path).expect("trace file was written");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(|v| v.as_str()), Some("ms"));
    let rows = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(!rows.is_empty());

    // Every phase of the taxonomy appears as a complete ("X") interval.
    for phase in Phase::ALL {
        assert!(
            rows.iter().any(|r| {
                r.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && r.get("name").and_then(|v| v.as_str()) == Some(phase.name())
            }),
            "no {} interval in the trace",
            phase.name()
        );
    }
    // Intervals carry microsecond timestamps/durations and a step tag.
    let compute =
        rows.iter().find(|r| r.get("name").and_then(|v| v.as_str()) == Some("compute")).unwrap();
    assert!(compute.get("ts").and_then(|v| v.as_f64()).is_some());
    assert!(compute.get("dur").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert!(compute.get("args").and_then(|a| a.get("step")).is_some());

    std::fs::remove_dir_all(&dir).ok();
}

fn run_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scmd")).args(args).output().expect("scmd runs")
}

#[test]
fn scmd_bench_emits_schema_valid_doc_and_refuses_removed_flags() {
    let dir = tmp_dir("bench");
    let out_path = dir.join("bench.json");
    let out = out_path.to_str().unwrap();

    let output = run_bench(&["bench", "--out", out]);
    assert!(
        output.status.success(),
        "scmd bench failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The document validates against the checked-in schema.
    let schema_text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/schema/bench.schema.json"))
            .expect("bench schema is checked in");
    let schema_doc = Json::parse(&schema_text).expect("bench schema is valid JSON");
    let text = std::fs::read_to_string(&out_path).expect("bench document was written");
    let doc = Json::parse(&text).expect("bench document is valid JSON");
    schema::validate(&doc, &schema_doc).expect("bench document matches its schema");
    assert_eq!(
        doc.get("cases").and_then(|c| c.as_array()).map(|c| c.len()),
        Some(12),
        "the pinned matrix covers serial (1×1×1) and BSP cases"
    );

    // Recording is all `scmd bench` does: any other flag is a malformed
    // command line (exit 2) whose error names it. So is a `patterns` tuple
    // order outside 2..=5 (the pattern walks grow as 27ⁿ⁻¹) and a `model`
    // grain that is not a finite number at or above the model's minimum
    // (ρ·r_cut2³ ≈ 11 atoms, where a rank sub-box still fits the cutoff).
    let refused_lines: [&[&str]; 14] = [
        &["bench", "--baseline", out],
        &["bench", "--compare", out],
        &["bench", "--with", out],
        &["bench", "--quick", out],
        &["patterns", "--n", "0"],
        &["patterns", "--n", "1"],
        &["patterns", "--n", "6"],
        &["patterns", "--n", "9"],
        &["model", "--grain", "0"],
        &["model", "--grain", "-5"],
        &["model", "--grain", "nan"],
        &["model", "--grain", "inf"],
        &["model", "--grain", "0.5"],
        &["model", "--grain", "10"],
    ];
    for args in refused_lines {
        let flag = args[1];
        let refused = run_bench(args);
        assert_eq!(refused.status.code(), Some(2), "{args:?} must be refused");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
        if args[0] == "model" {
            assert!(stderr.contains("10.98"), "the error names the minimum grain: {stderr}");
        }
    }
    for grain in ["11", "425"] {
        let ran = run_bench(&["model", "--grain", grain]);
        assert!(ran.status.success(), "grain {grain} must run: {:?}", ran.status);
    }
    // There is no soak verb: a storm is a spec's `fault_plan` under
    // `scmd run --spec`.
    let gone = run_bench(&["chaos"]);
    assert_eq!(gone.status.code(), Some(2), "`scmd chaos` must be refused");
    assert!(String::from_utf8_lossy(&gone.stderr).contains("unknown subcommand \"chaos\""));

    std::fs::remove_dir_all(&dir).ok();
}
