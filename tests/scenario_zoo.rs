//! CI contract test over the checked-in scenario zoo: every document in
//! `scenarios/` (including the pinned bench matrix under
//! `scenarios/bench/` and the two 2×2×2 specs under `scenarios/chaos/`)
//! must validate against
//! `schema/scenario.schema.json`, decode through `sc-spec`, and
//! round-trip its canonical JSON form losslessly. Two specs also pin what
//! they run: the `scenarios/chaos/` pair its bits, and `fault-storm.json`
//! that its storm leaves no trace in the results.

use shift_collapse_md::obs::json::Json;
use shift_collapse_md::obs::schema;
use shift_collapse_md::spec::{observables_doc, ExecutorSpec, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// The two specs under `scenarios/chaos/`, 8-rank (2×2×2) SC-MD on BSP
/// ranks, after 4 fault-free steps yield these observables documents (same
/// host libm): the only tier-1 pin of a 2×2×2 BSP run's bits. The bits follow a
/// rank's summation order, so a change to that order re-pins them here,
/// deliberately.
#[test]
fn chaos_named_cases_are_the_checked_in_specs() {
    for (name, energy_bits, phase_hash) in [
        ("lj", "0xc0bfe4baeeb9847e", "0x1ea45841b39f4e6a"),
        ("silica", "0x409fca6f457306c9", "0x49f81773d20d2412"),
    ] {
        let path = repo_path(&format!("scenarios/chaos/{name}.json"));
        let spec = ScenarioSpec::from_path(&path).unwrap();
        assert_eq!(spec.name, name, "{}", path.display());
        let mut sim = spec.instantiate().unwrap();
        sim.run(4);
        let energy = sim.total_energy();
        let doc = observables_doc(name, sim.steps_done(), &sim.gather(), energy);
        assert_eq!(doc.get("energy_bits").unwrap().as_str(), Some(energy_bits), "{name}");
        assert_eq!(doc.get("phase_hash").unwrap().as_str(), Some(phase_hash), "{name}");
    }
}

/// A storm without a crash leaves no trace: `scmd run --spec` of
/// `fault-storm.json`, as checked in (a 2×1×1 grid) and on one serial
/// thread (one rank faulting its own self-messages), writes the same
/// results document, byte for byte, as the same spec without its
/// `fault_plan`. Every fault in it is absorbed by a retry or a bitwise
/// rollback.
#[test]
fn a_storm_without_a_crash_leaves_no_trace() {
    let storm = repo_path("scenarios/fault-storm.json");
    let checked_in = ScenarioSpec::from_path(&storm).unwrap();
    assert_eq!(checked_in.fault_plan.as_ref().map(|p| p.max_crashes), Some(0), "no crash");
    let serial =
        ScenarioSpec { executor: ExecutorSpec::Serial { threads: 1 }, ..checked_in.clone() };
    let dir = std::env::temp_dir().join(format!("sc-no-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |spec: &ScenarioSpec, name: &str| {
        let path = dir.join(name);
        std::fs::write(&path, spec.to_json().to_string()).unwrap();
        path
    };
    let results = |spec: &Path, out: &str| {
        let out = dir.join(out);
        let status = Command::new(env!("CARGO_BIN_EXE_scmd"))
            .args(["run", "--spec", spec.to_str().unwrap(), "--results", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
        std::fs::read(out).unwrap()
    };
    for (name, stormed, spec) in
        [("bsp", storm.clone(), &checked_in), ("serial", write(&serial, "serial.json"), &serial)]
    {
        let calm = ScenarioSpec { fault_plan: None, ..spec.clone() };
        let calm = write(&calm, &format!("{name}-calm.json"));
        let (stormed, calm) = (results(&stormed, "stormed.out"), results(&calm, "calm.out"));
        assert!(stormed == calm, "{name}: the storm moved the results document");
    }
    std::fs::remove_dir_all(&dir).ok();
}
