//! `scmd chaos` — the seeded fault-storm soak harness.
//!
//! Each storm scripts a [`FaultPlan::storm`] (all five fault kinds with a
//! capped crash budget) against a supervised 8-rank distributed run and
//! checks the final state against a fault-free reference of the same
//! case: no atom lost, *exact* accepted-tuple equality (candidate counts
//! are decomposition-dependent by design and deliberately not compared),
//! and total-energy / total-momentum agreement. A failing storm writes a
//! reproducer bundle — seed, the full fault script, the fired-fault log,
//! a chrome trace, and the final telemetry JSON — so the exact scenario
//! replays offline from one directory.

use sc_cell::AtomStore;
use sc_geom::{IVec3, Vec3};
use sc_md::supervisor::{Supervisor, SupervisorConfig, SupervisorError};
use sc_obs::json::Json;
use sc_obs::{chrome_trace, Tracer};
use sc_parallel::{DistributedSim, EngineConfig, FaultPlan};
use sc_spec::{ExecutorSpec, ScenarioSpec};
use std::path::PathBuf;

/// Soak-run parameters (one storm = one seeded fault schedule).
pub struct ChaosConfig {
    /// Built-in workload cases to storm, by the `name` of a checked-in
    /// `scenarios/chaos/*.json` document (`lj`, `silica`).
    pub cases: Vec<String>,
    /// Spec-defined cases stormed alongside the built-in ones; each must
    /// use a distributed executor (`scmd chaos --spec PATH`).
    pub specs: Vec<ScenarioSpec>,
    /// Storms per case.
    pub storms: u64,
    /// Base seed; storm `i` of a case uses `seed + i`.
    pub seed: u64,
    /// Steps per run (reference and stormed runs alike).
    pub steps: u64,
    /// Scripted faults per storm (crashes capped at 2 of these).
    pub faults: usize,
    /// Directory for reproducer bundles of failing storms.
    pub out_dir: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            cases: vec!["lj".into(), "silica".into()],
            specs: Vec::new(),
            storms: 8,
            seed: 7,
            steps: 10,
            faults: 3,
            out_dir: PathBuf::from("chaos-out"),
        }
    }
}

/// The built-in cases, embedded at compile time from `scenarios/chaos/`
/// the way `src/bench.rs` embeds its matrix: pinned 8-rank (2×2×2)
/// workloads whose boxes are large enough that every survivor grid down to
/// 6 ranks stays feasible.
const NAMED_CASES: [&str; 2] =
    [include_str!("../scenarios/chaos/lj.json"), include_str!("../scenarios/chaos/silica.json")];

/// The built-in case whose document is named `name`.
fn named_case(name: &str) -> Result<ScenarioSpec, String> {
    NAMED_CASES
        .iter()
        .map(|src| ScenarioSpec::from_json_str(src).expect("checked-in chaos spec is valid"))
        .find(|spec| spec.name == name)
        .ok_or_else(|| format!("unknown chaos case {name:?} (expected lj|silica)"))
}

/// The rank grid of a chaos case, which must run on a distributed executor
/// (`bsp` or its `threaded` spelling): a serial run has no ranks to fault.
fn bsp_grid(spec: &ScenarioSpec) -> Result<IVec3, String> {
    match &spec.executor {
        ExecutorSpec::Bsp { grid } | ExecutorSpec::Threaded { grid } => {
            Ok(IVec3::new(grid[0] as i32, grid[1] as i32, grid[2] as i32))
        }
        other => Err(format!(
            "chaos spec {:?} must use a distributed executor (bsp, threaded), got {}",
            spec.name,
            other.kind()
        )),
    }
}

/// Builds a fresh engine for `spec` with the harness's fault plan and
/// tracer in its configuration. The storm harness owns the fault schedule
/// — a fault plan in the spec would fire during the fault-free reference
/// run too, so it is replaced here.
fn build_engine(
    spec: &ScenarioSpec,
    faults: FaultPlan,
    tracer: Tracer,
) -> Result<DistributedSim, String> {
    let pdims = bsp_grid(spec)?;
    let (store, bbox) = spec.build_workload();
    let cfg = EngineConfig { faults, tracer, ..spec.engine_config(None) };
    DistributedSim::build(store, bbox, pdims, spec.force_field(), spec.dt, cfg)
        .map_err(|e| format!("{} case must build: {e}", spec.name))
}

/// One storm's verdict.
#[derive(Debug)]
pub struct StormOutcome {
    /// Workload case name.
    pub case: String,
    /// The storm's fault-schedule seed.
    pub seed: u64,
    /// `None` on success, the guardrail violation otherwise.
    pub failure: Option<String>,
    /// Reproducer bundle location (failing storms only).
    pub bundle: Option<PathBuf>,
}

/// Fault-free invariants a stormed run must reproduce.
struct Reference {
    atoms: usize,
    pair_accepted: u64,
    triplet_accepted: u64,
    quadruplet_accepted: u64,
    energy: f64,
    momentum: Vec3,
}

fn total_momentum(store: &AtomStore) -> Vec3 {
    let masses = store.species_masses().to_vec();
    let mut p = Vec3::ZERO;
    for i in 0..store.len() {
        p += store.velocities()[i] * masses[store.species()[i].index()];
    }
    p
}

fn reference_for(case: &ScenarioSpec, steps: u64) -> Result<Reference, String> {
    let mut sim = build_engine(case, FaultPlan::none(), Tracer::disabled())?;
    sim.run(steps as usize);
    let t = sim.telemetry();
    let out = sim.gather();
    Ok(Reference {
        atoms: out.len(),
        pair_accepted: t.tuples.pair.accepted,
        triplet_accepted: t.tuples.triplet.accepted,
        quadruplet_accepted: t.tuples.quadruplet.accepted,
        energy: t.energy.total() + sim.kinetic_energy(),
        momentum: total_momentum(&out),
    })
}

/// Checks the stormed run against the fault-free invariants; the first
/// violated guardrail is the verdict.
fn check(sim: &DistributedSim, reference: &Reference) -> Option<String> {
    let out = sim.gather();
    if out.len() != reference.atoms {
        return Some(format!("atom count {} != reference {}", out.len(), reference.atoms));
    }
    let t = sim.telemetry();
    for (what, got, want) in [
        ("pair", t.tuples.pair.accepted, reference.pair_accepted),
        ("triplet", t.tuples.triplet.accepted, reference.triplet_accepted),
        ("quadruplet", t.tuples.quadruplet.accepted, reference.quadruplet_accepted),
    ] {
        if got != want {
            return Some(format!("{what} accepted {got} != reference {want}"));
        }
    }
    let energy = t.energy.total() + sim.kinetic_energy();
    let rel = ((energy - reference.energy) / reference.energy.abs().max(1e-300)).abs();
    if rel > 1e-6 {
        return Some(format!("total energy {energy} drifted {rel:.2e} from {}", reference.energy));
    }
    let dp = (total_momentum(&out) - reference.momentum).norm();
    if dp > 1e-8 {
        return Some(format!("total momentum drifted by {dp:.2e}"));
    }
    None
}

/// JSON-encodes a fault script / fired-fault log entry via its `Debug`
/// form — the bundle is for a human replaying the scenario, and the
/// `Debug` text pastes straight back into a `FaultPlan` literal.
fn faults_json<T: std::fmt::Debug>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(|f| Json::str(format!("{f:?}"))).collect())
}

/// Writes the reproducer bundle for a failed storm; best-effort — bundle
/// I/O errors are reported in the outcome but never mask the failure.
fn write_bundle(
    dir: &PathBuf,
    case: &str,
    seed: u64,
    config: &ChaosConfig,
    script: &Json,
    sim: &DistributedSim,
    failure: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |name: &str, text: String| -> Result<(), String> {
        std::fs::write(dir.join(name), text).map_err(|e| format!("write {name}: {e}"))
    };
    let repro = Json::Obj(vec![
        ("case".into(), Json::str(case)),
        ("seed".into(), Json::num(seed as f64)),
        ("steps".into(), Json::num(config.steps as f64)),
        ("faults".into(), Json::num(config.faults as f64)),
        ("failure".into(), Json::str(failure)),
        ("fault_script".into(), script.clone()),
        ("fired".into(), faults_json(sim.fault_plan().events())),
        ("unfired".into(), faults_json(sim.fault_plan().pending())),
        (
            "crashed_ranks".into(),
            Json::Arr(
                sim.fault_plan().crashed_ranks().iter().map(|&r| Json::num(r as f64)).collect(),
            ),
        ),
    ]);
    write("repro.json", repro.to_string())?;
    write("telemetry.json", sim.telemetry().to_json_value().to_string())?;
    write("trace.json", chrome_trace(&sim.tracer().events()).to_string())?;
    Ok(())
}

/// Runs `steps` supervised steps of a stormed engine. The supervisor emits
/// its recovery markers (checkpoint / rollback / fault) into the engine's
/// tracer, so a reproducer bundle's trace carries them.
fn supervise(sim: &mut DistributedSim, steps: u64) -> Result<(), SupervisorError> {
    Supervisor::new(SupervisorConfig {
        checkpoint_every: 2,
        max_rollbacks: 64,
        tracer: sim.tracer().clone(),
        ..SupervisorConfig::default()
    })
    .run(sim, steps)
}

/// Runs one storm: a seeded fault schedule under supervision, checked
/// against `reference`. Failing storms leave a reproducer bundle under
/// `config.out_dir`.
fn run_storm(
    case: &ScenarioSpec,
    seed: u64,
    config: &ChaosConfig,
    reference: &Reference,
) -> Result<StormOutcome, String> {
    let grid = bsp_grid(case)?;
    let nranks = (grid.x * grid.y * grid.z) as usize;
    // Small spec-defined grids can't afford the built-in matrix's crash
    // budget of 2 — always leave at least one survivor.
    let crash_cap = 2.min(nranks.saturating_sub(1));
    let plan = FaultPlan::storm(seed, config.faults, config.steps, nranks, crash_cap);
    let script = faults_json(plan.pending());
    let mut sim = build_engine(case, plan, Tracer::new())?;
    let failure = match supervise(&mut sim, config.steps) {
        Err(e) => Some(format!("supervision aborted: {e}")),
        Ok(()) => check(&sim, reference),
    };
    let bundle = match &failure {
        None => None,
        Some(why) => {
            let dir = config.out_dir.join(format!("chaos-{}-{seed}", case.name));
            if let Err(e) = write_bundle(&dir, &case.name, seed, config, &script, &sim, why) {
                eprintln!("warning: reproducer bundle incomplete: {e}");
            }
            Some(dir)
        }
    };
    Ok(StormOutcome { case: case.name.clone(), seed, failure, bundle })
}

/// Runs the whole soak matrix; outcomes come back in deterministic
/// (case-major, then seed) order.
///
/// # Errors
/// Only configuration errors (unknown case, unbuildable workload) abort
/// the soak; guardrail violations are reported per storm instead.
pub fn run_soak(config: &ChaosConfig) -> Result<Vec<StormOutcome>, String> {
    let mut cases = config.cases.iter().map(|n| named_case(n)).collect::<Result<Vec<_>, _>>()?;
    cases.extend(config.specs.iter().cloned());
    let mut outcomes = Vec::new();
    for case in &cases {
        let reference = reference_for(case, config.steps)?;
        for storm in 0..config.storms {
            outcomes.push(run_storm(case, config.seed + storm, config, &reference)?);
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The embedded `lj` and `silica` documents are the workloads this
    /// harness used to construct by hand: after 4 fault-free steps each
    /// yields the observables document recorded from that construction
    /// (`build_case` at commit b62bdc3, same host libm). Both are SC-MD on
    /// BSP ranks, so the bits follow a rank's summation order: re-pinned in
    /// PR 25, when each term's cells became one sweep (lj moved 4 ulps of
    /// energy, silica 3 ulps and its phase hash).
    #[test]
    fn chaos_named_cases_are_the_checked_in_specs() {
        for (name, energy_bits, phase_hash) in [
            ("lj", "0xc0bfe4baeeb9847e", "0x1ea45841b39f4e6a"),
            ("silica", "0x409fca6f457306ca", "0x919ee251820f6277"),
        ] {
            let spec = named_case(name).unwrap();
            let mut sim = build_engine(&spec, FaultPlan::none(), Tracer::disabled()).unwrap();
            sim.run(4);
            let energy = sim.total_energy();
            let doc = sc_spec::observables_doc(name, sim.steps_done(), &sim.gather(), energy);
            assert_eq!(doc.get("energy_bits").unwrap().as_str(), Some(energy_bits), "{name}");
            assert_eq!(doc.get("phase_hash").unwrap().as_str(), Some(phase_hash), "{name}");
        }
    }

    /// A tiny pinned soak passes end-to-end (the CI job runs the full
    /// matrix; this keeps the harness itself under unit test).
    #[test]
    fn pinned_lj_storms_pass() {
        let config = ChaosConfig {
            cases: vec!["lj".into()],
            storms: 2,
            seed: 11,
            steps: 6,
            faults: 2,
            ..ChaosConfig::default()
        };
        let outcomes = run_soak(&config).expect("soak must run");
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.failure.is_none(), "storm {} failed: {:?}", o.seed, o.failure);
        }
    }

    /// The supervisor's recovery markers reach the storm's tracer — the one
    /// a reproducer bundle's `trace.json` is written from.
    #[test]
    fn storm_tracer_holds_the_supervisor_checkpoints() {
        // `pinned_lj_storms_pass`'s first storm.
        let plan = FaultPlan::storm(11, 2, 6, 8, 2);
        let mut sim = build_engine(&named_case("lj").unwrap(), plan, Tracer::new()).unwrap();
        supervise(&mut sim, 6).expect("the storm recovers");
        let events = sim.tracer().events();
        assert!(events.iter().any(|e| e.kind == sc_obs::EventKind::Checkpoint));
    }

    #[test]
    fn unknown_case_is_a_configuration_error() {
        let config = ChaosConfig { cases: vec!["argon".into()], ..ChaosConfig::default() };
        assert!(run_soak(&config).unwrap_err().contains("unknown chaos case"));
    }

    /// A spec-defined case storms alongside the built-ins, under either
    /// spelling of the distributed executor, and its own fault plan is
    /// stripped so the reference run is fault-free.
    #[test]
    fn spec_cases_storm_like_builtins() {
        let spec = |kind: &str| {
            ScenarioSpec::from_json_str(&format!(
                r#"{{
                    "schema": "sc-scenario/1",
                    "name": "spec-lj-storm-{kind}",
                    "system": {{"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 42}},
                    "potential": {{"kind": "lj", "cutoff": 2.5}},
                    "method": "sc",
                    "executor": {{"kind": "{kind}", "grid": [2, 2, 2]}},
                    "dt": 0.002,
                    "steps": 6,
                    "fault_plan": {{"seed": 3, "count": 2, "max_crashes": 1}}
                }}"#
            ))
            .unwrap()
        };
        let config = ChaosConfig {
            cases: vec![],
            specs: vec![spec("bsp"), spec("threaded")],
            storms: 1,
            seed: 11,
            steps: 6,
            faults: 2,
            ..ChaosConfig::default()
        };
        let outcomes = run_soak(&config).expect("spec soak must run");
        let cases: Vec<_> = outcomes.iter().map(|o| o.case.as_str()).collect();
        assert_eq!(cases, ["spec-lj-storm-bsp", "spec-lj-storm-threaded"]);
        for o in &outcomes {
            assert!(o.failure.is_none(), "{} storm failed: {:?}", o.case, o.failure);
        }
    }

    /// Serial specs are configuration errors — there is nothing to crash.
    #[test]
    fn serial_spec_is_rejected() {
        let spec = ScenarioSpec::from_json_str(
            r#"{
                "schema": "sc-scenario/1",
                "name": "serial-nope",
                "system": {"kind": "lj", "cells": 5, "a": 1.5599, "temp": 1.0, "seed": 42},
                "potential": {"kind": "lj", "cutoff": 2.5},
                "method": "sc",
                "executor": {"kind": "serial"},
                "dt": 0.002,
                "steps": 4
            }"#,
        )
        .unwrap();
        let config = ChaosConfig { cases: vec![], specs: vec![spec], ..ChaosConfig::default() };
        assert!(run_soak(&config).unwrap_err().contains("must use a distributed executor"));
    }

    /// The reproducer bundle is complete and machine-readable: the
    /// repro document parses back, names the scenario, and the trace /
    /// telemetry sidecars exist.
    #[test]
    fn reproducer_bundle_round_trips() {
        let dir = std::env::temp_dir().join(format!("sc-chaos-bundle-{}", std::process::id()));
        let config = ChaosConfig::default();
        let plan = FaultPlan::storm(3, 2, 6, 8, 1);
        let script = faults_json(plan.pending());
        let mut sim = build_engine(&named_case("lj").unwrap(), plan, Tracer::new()).unwrap();
        // Unsupervised: an escalated fault is fine, the bundle is what is
        // under test here.
        for _ in 0..6 {
            let _ = sim.try_step();
        }
        write_bundle(&dir, "lj", 3, &config, &script, &sim, "synthetic failure").unwrap();
        let repro = Json::parse(&std::fs::read_to_string(dir.join("repro.json")).unwrap()).unwrap();
        assert_eq!(repro.get("case").unwrap().as_str(), Some("lj"));
        assert_eq!(repro.get("seed").unwrap().as_f64(), Some(3.0));
        assert_eq!(repro.get("failure").unwrap().as_str(), Some("synthetic failure"));
        assert_eq!(repro.get("fault_script").unwrap().as_array().unwrap().len(), 2);
        let telemetry =
            Json::parse(&std::fs::read_to_string(dir.join("telemetry.json")).unwrap()).unwrap();
        assert!(telemetry.get("degraded").is_some());
        assert!(dir.join("trace.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
