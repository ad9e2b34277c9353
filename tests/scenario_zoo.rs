//! CI contract test over the checked-in scenario zoo: every document in
//! `scenarios/` (including the pinned bench matrix under
//! `scenarios/bench/` and the chaos cases under `scenarios/chaos/`) must
//! validate against
//! `schema/scenario.schema.json`, decode through `sc-spec`, and
//! round-trip its canonical JSON form losslessly.

use shift_collapse_md::obs::json::Json;
use shift_collapse_md::obs::schema;
use shift_collapse_md::spec::ScenarioSpec;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn zoo_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["scenarios", "scenarios/bench", "scenarios/chaos"].map(repo_path) {
        for entry in std::fs::read_dir(&dir).expect("scenarios directory is checked in") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 16, "expected the full zoo, found {} files", files.len());
    files
}

#[test]
fn every_zoo_scenario_validates_against_the_schema() {
    let schema =
        Json::parse(&std::fs::read_to_string(repo_path("schema/scenario.schema.json")).unwrap())
            .expect("scenario schema is valid JSON");
    for path in zoo_files() {
        ScenarioSpec::from_path(&path)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()));
        schema::validate(&doc, &schema)
            .unwrap_or_else(|e| panic!("{} violates the scenario schema: {e}", path.display()));
    }
}

#[test]
fn every_zoo_scenario_round_trips_canonically() {
    for path in zoo_files() {
        let spec = ScenarioSpec::from_path(&path).unwrap();
        let canonical = spec.to_json().to_string();
        let again = ScenarioSpec::from_json_str(&canonical).unwrap_or_else(|e| {
            panic!("{} canonical form does not re-decode: {e}", path.display())
        });
        assert_eq!(again, spec, "{} round-trip drift", path.display());
        assert_eq!(
            again.to_json().to_string(),
            canonical,
            "{} canonicalization is not idempotent",
            path.display()
        );
    }
}

#[test]
fn bench_specs_match_their_filenames() {
    // The bench harness embeds scenarios/bench/* by filename and trusts
    // each file's `name`: a renamed file that kept a stale name would
    // silently mislabel a benchmark case.
    for path in zoo_files() {
        if path.parent().and_then(|p| p.file_name()) != Some(std::ffi::OsStr::new("bench")) {
            continue;
        }
        let spec = ScenarioSpec::from_path(&path).unwrap();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert_eq!(
            spec.name.to_lowercase(),
            stem,
            "{}: spec name {:?} disagrees with its filename",
            path.display(),
            spec.name
        );
    }
}
