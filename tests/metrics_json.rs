//! CI contract test: `scmd run --metrics-json` must emit telemetry JSON
//! lines that validate against the checked-in `schema/metrics.schema.json`.
//! This is what pins the layout for external dashboards — any field rename
//! or removal fails here before it ships.

use shift_collapse_md::obs::json::Json;
use shift_collapse_md::obs::schema;
use std::process::Command;

fn load_schema() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/schema/metrics.schema.json");
    let text = std::fs::read_to_string(path).expect("schema file is checked in");
    Json::parse(&text).expect("schema file is valid JSON")
}

#[test]
fn scmd_metrics_json_matches_the_checked_in_schema() {
    let dir = std::env::temp_dir().join(format!("scmd-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("metrics.jsonl");

    // Small workload: the 6³-cell LJ melt cut to 10 steps — fast enough
    // for every CI run.
    let output = Command::new(env!("CARGO_BIN_EXE_scmd"))
        .args([
            "run",
            "--spec",
            concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/lj-melt.json"),
            "--steps",
            "10",
            "--metrics-json",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("scmd runs");
    assert!(output.status.success(), "scmd failed: {}", String::from_utf8_lossy(&output.stderr));

    let schema = load_schema();
    let text = std::fs::read_to_string(&out_path).expect("metrics file was written");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    // One line per report block (10 steps → 10 blocks of 1) plus the final
    // snapshot.
    assert!(lines.len() >= 2, "expected several telemetry lines, got {}", lines.len());
    for (i, line) in lines.iter().enumerate() {
        let value = Json::parse(line).unwrap_or_else(|e| panic!("line {i} is not JSON: {e}"));
        schema::validate(&value, &schema)
            .unwrap_or_else(|e| panic!("line {i} violates metrics schema: {e}"));
    }

    // The final snapshot reflects the full run.
    let last = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("step").and_then(|v| v.as_f64()), Some(10.0));
    let accepted = last
        .get("tuples")
        .and_then(|t| t.get("pair"))
        .and_then(|p| p.get("accepted"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(accepted > 0.0, "a real workload accepts pair tuples");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schema_rejects_documents_missing_pinned_sections() {
    let schema = load_schema();
    // Drop `phases` from an otherwise plausible document: must fail.
    let doc = Json::parse(
        r#"{"step": 1, "energy": {"pair": 0, "triplet": 0, "quadruplet": 0, "total": 0},
            "virial": 0, "tuples": {"pair": {"candidates": 1, "accepted": 1},
            "triplet": {"candidates": 0, "accepted": 0},
            "quadruplet": {"candidates": 0, "accepted": 0}},
            "total_phases": {}, "comm": {}, "per_rank": [], "alloc_events": 0}"#,
    )
    .unwrap();
    let err = schema::validate(&doc, &schema).unwrap_err();
    assert!(err.contains("phases"), "{err}");
}
