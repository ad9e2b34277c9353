//! Turning a validated [`ScenarioSpec`] into a running simulation, plus the
//! bitwise observables document served runs and standalone runs are
//! compared on.

use crate::error::SpecError;
use crate::model::{ExecutorSpec, ObservabilitySpec, PotentialSpec, ScenarioSpec, SystemSpec};
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::supervisor::{Recoverable, StepFault};
use sc_md::{
    build_clustered_gas, build_fcc_lattice, build_silica_like, random_gas, thermalize, Checkpoint,
    LatticeSpec, MetricsFeed, RuntimeConfig, Simulation, Telemetry,
};
use sc_obs::json::Json;
use sc_obs::{Registry, Tracer};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, EngineConfig, FaultPlan};
use sc_potential::{LennardJones, Vashishta};

/// The schema identifier of the observables document.
pub const OBSERVABLES_SCHEMA_ID: &str = "sc-observables/1";

/// What a run offers beyond supervision ([`Recoverable`]: step, checkpoint,
/// restore, invariants, timestep). The serial in-process engine and the
/// distributed engine both instantiate to a `Box<dyn Executor>` inside
/// [`RunHandle`], so the spec layer, the CLI, the bench harness and the job
/// service drive them through identical calls instead of enum-matching per
/// engine.
pub trait Executor: Recoverable + Send {
    /// The unified telemetry snapshot.
    fn telemetry(&self) -> Telemetry;
    /// Total (kinetic + potential) energy from fresh forces.
    fn total_energy(&mut self) -> f64;
    /// The full phase-space state, gathered into one store (owned atoms
    /// only, deterministic order for a fixed executor configuration).
    fn gather(&self) -> AtomStore;
    /// The event tracer.
    fn tracer(&self) -> &Tracer;
    /// Engine short name (`serial` / `bsp`).
    fn kind(&self) -> &'static str;
}

/// Implements [`Executor`] by delegating to the engine's inherent methods
/// of the same names; only `gather` and the short name differ per engine.
macro_rules! executor {
    ($engine:ty, $kind:literal, $gather:expr) => {
        impl Executor for $engine {
            fn telemetry(&self) -> Telemetry {
                <$engine>::telemetry(self)
            }

            fn total_energy(&mut self) -> f64 {
                <$engine>::total_energy(self)
            }

            fn gather(&self) -> AtomStore {
                ($gather)(self)
            }

            fn tracer(&self) -> &Tracer {
                <$engine>::tracer(self)
            }

            fn kind(&self) -> &'static str {
                $kind
            }
        }
    };
}

executor!(Simulation, "serial", |sim: &Simulation| sim.store().clone());
executor!(DistributedSim, "bsp", DistributedSim::gather);

/// A scenario instantiated on an executor: the owner of the one
/// [`Executor`] object every engine hides behind, and of the run's metrics
/// registry. The engines only measure; every step the handle takes feeds
/// that step's [`Telemetry`] into the registry through one [`MetricsFeed`],
/// so every executor exports the same series.
pub struct RunHandle {
    exec: Box<dyn Executor>,
    /// The run's registry, with the series the feed registered in it.
    feed: MetricsFeed,
}

impl RunHandle {
    /// Wraps a concrete engine whose steps report into `metrics` (the spec
    /// layer's instantiation path; also usable by harnesses that build
    /// engines directly).
    pub fn new(exec: impl Executor + 'static, metrics: Registry) -> Self {
        RunHandle { exec: Box::new(exec), feed: MetricsFeed::new(metrics) }
    }

    /// The one way a handle steps: the engine's step, then — with a live
    /// registry only, so a dark run reads no telemetry — the feed. A failed
    /// step still feeds what it counted before the fault.
    fn step(&mut self) -> Result<(), StepFault> {
        let stepped = self.exec.try_step();
        if self.feed.registry().enabled() {
            let t = self.exec.telemetry();
            match stepped {
                Ok(()) => self.feed.step(&t),
                Err(_) => self.feed.advance(&t),
            }
        }
        stepped
    }

    /// Takes the feed's baseline anew after a restore rewound the engine's
    /// counters.
    fn rebaseline(&mut self) {
        if self.feed.registry().enabled() {
            self.feed.rebaseline(&self.exec.telemetry());
        }
    }

    /// Advances one step, surfacing unrecovered distributed faults as text.
    pub fn try_step(&mut self) -> Result<(), String> {
        self.step().map_err(|e| e.message)
    }

    /// Runs `n` steps (panicking on faults; use [`RunHandle::try_step`]
    /// for fault-tolerant loops).
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Steps completed so far.
    pub fn steps_done(&self) -> u64 {
        self.exec.steps_done()
    }

    /// The unified telemetry snapshot; its allocation count includes the
    /// run's metric registrations.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = self.exec.telemetry();
        t.alloc_events += self.feed.registry().allocation_events();
        t
    }

    /// Total (kinetic + potential) energy from fresh forces.
    pub fn total_energy(&mut self) -> f64 {
        self.exec.total_energy()
    }

    /// The full phase-space state, gathered into one store (owned atoms
    /// only, deterministic order for a fixed executor configuration).
    pub fn gather(&self) -> AtomStore {
        self.exec.gather()
    }

    /// Snapshots the full dynamic state (bitwise-lossless, PR 2 contract).
    pub fn checkpoint(&self) -> Checkpoint {
        self.exec.checkpoint()
    }

    /// Rewinds to a snapshot taken by [`RunHandle::checkpoint`]. Restored
    /// trajectories replay bitwise.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.exec.restore(cp);
        self.rebaseline();
    }

    /// The metrics registry the run reports into (disabled unless the spec
    /// enabled metrics).
    pub fn metrics(&self) -> &Registry {
        self.feed.registry()
    }

    /// The event tracer (disabled unless the spec enabled tracing).
    pub fn tracer(&self) -> &Tracer {
        self.exec.tracer()
    }

    /// Engine short name (`serial` / `bsp`): a `threaded` spec runs on the
    /// `bsp` engine.
    pub fn executor_kind(&self) -> &'static str {
        self.exec.kind()
    }
}

/// Delegates supervision hooks to the engines' own [`Recoverable`] impls,
/// so a [`sc_md::Supervisor`] can drive any spec-instantiated run — the
/// job service leans on this for per-job rollback recovery. Steps and
/// restores go through the handle's own, so the feed sees them.
impl Recoverable for RunHandle {
    fn try_step(&mut self) -> Result<(), StepFault> {
        self.step()
    }

    fn checkpoint(&self) -> Checkpoint {
        self.exec.checkpoint()
    }

    fn restore(&mut self, cp: &Checkpoint) {
        RunHandle::restore(self, cp);
    }

    fn restore_excluding(&mut self, cp: &Checkpoint, exclude: &[usize]) -> Result<(), String> {
        self.exec.restore_excluding(cp, exclude)?;
        self.rebaseline();
        Ok(())
    }

    fn atom_count(&self) -> usize {
        self.exec.atom_count()
    }

    fn total_energy_estimate(&self) -> f64 {
        self.exec.total_energy_estimate()
    }

    fn state_is_finite(&self) -> bool {
        self.exec.state_is_finite()
    }

    fn timestep(&self) -> f64 {
        self.exec.timestep()
    }

    fn set_timestep(&mut self, dt: f64) {
        self.exec.set_timestep(dt);
    }

    fn steps_done(&self) -> u64 {
        self.exec.steps_done()
    }
}

impl ScenarioSpec {
    /// Builds the workload system (deterministic per the spec's seeds),
    /// thermalized and ready to hand to an executor.
    pub fn build_workload(&self) -> (AtomStore, SimulationBox) {
        match &self.system {
            SystemSpec::Lj { cells, a, temp, seed } => {
                let (mut store, bbox) =
                    build_fcc_lattice(&LatticeSpec::cubic(*cells as usize, *a), 0.0, *seed);
                thermalize(&mut store, *temp, *seed);
                (store, bbox)
            }
            SystemSpec::Silica { cells, a, temp, seed } => {
                let masses = Vashishta::silica().params().masses;
                let (mut store, bbox) = build_silica_like(*cells as usize, *a, masses, 0.0, *seed);
                thermalize(&mut store, *temp, *seed);
                (store, bbox)
            }
            SystemSpec::Gas { n, box_l, temp, seed } => {
                let (mut store, bbox) = random_gas(*n as usize, *box_l, *seed);
                thermalize(&mut store, *temp, *seed);
                (store, bbox)
            }
            SystemSpec::Clustered { n, box_l, clusters, spread, temp, seed } => {
                let (mut store, bbox) =
                    build_clustered_gas(*n as usize, *box_l, *clusters as usize, *spread, *seed);
                thermalize(&mut store, *temp, *seed);
                (store, bbox)
            }
        }
    }

    /// The force field the spec's potential section describes.
    pub fn force_field(&self) -> ForceField {
        match &self.potential {
            PotentialSpec::Lj { cutoff } => ForceField {
                pair: Some(Box::new(LennardJones::reduced(*cutoff))),
                triplet: None,
                quadruplet: None,
                method: self.method,
            },
            PotentialSpec::Vashishta => {
                let v = Vashishta::silica();
                ForceField {
                    pair: Some(Box::new(v.pair.clone())),
                    triplet: Some(Box::new(v.triplet.clone())),
                    quadruplet: None,
                    method: self.method,
                }
            }
        }
    }

    /// The run's tracer. The spec's explicit `ring` wins; otherwise `trace`
    /// arms a default-capacity ring, and a runner-supplied flight-recorder
    /// capacity (the job service's continuously armed ring) covers the
    /// remaining case. `ring: 0` explicitly disarms everything.
    fn tracer(&self, flight_ring: Option<usize>) -> Tracer {
        let ObservabilitySpec { trace, ring, .. } = self.observability;
        match (ring, trace, flight_ring) {
            (Some(0), _, _) => Tracer::disabled(),
            (Some(n), _, _) => Tracer::with_capacity(n as usize),
            (None, true, _) => Tracer::new(),
            (None, false, Some(n)) if n > 0 => Tracer::with_capacity(n),
            (None, false, _) => Tracer::disabled(),
        }
    }

    /// The one mapping from a spec to a distributed engine's run
    /// configuration: every spec key an engine can honour travels through
    /// here, and [`ScenarioSpec::validate`] refuses the rest per executor.
    /// `flight_ring` is the runner's, as in
    /// [`ScenarioSpec::instantiate_flight`].
    pub fn engine_config(&self, flight_ring: Option<usize>) -> EngineConfig {
        let ranks = match &self.executor {
            ExecutorSpec::Serial { .. } => 1,
            ExecutorSpec::Bsp { grid } | ExecutorSpec::Threaded { grid } => grid.iter().product(),
        };
        EngineConfig {
            subdivision: self.subdivision,
            resort_every: self.resort_every,
            rebalance_every: self.comm.rebalance_every,
            faults: self.fault_plan.as_ref().map_or_else(FaultPlan::none, |fp| {
                let (count, crashes) = (fp.count as usize, fp.max_crashes as usize);
                FaultPlan::storm(fp.seed, count, self.steps, ranks as usize, crashes)
            }),
            tracer: self.tracer(flight_ring),
        }
    }

    /// Instantiates the scenario on its executor.
    ///
    /// # Errors
    /// [`SpecError::Build`] / [`SpecError::Setup`] when the engine rejects
    /// the configuration.
    pub fn instantiate(&self) -> Result<RunHandle, SpecError> {
        self.instantiate_flight(None, None)
    }

    /// Like [`ScenarioSpec::instantiate`], stamping `label` (a job id) onto
    /// the metrics registry so multiplexed jobs stay distinguishable, and
    /// arming a flight-recorder trace ring of `flight_ring` events per sink
    /// when the spec itself leaves tracing unset — the job service keeps
    /// every job's ring continuously armed this way so `Dump` can snapshot
    /// a running job's recent past. A spec-level `observability.ring`
    /// (including an explicit `0`) overrides the runner's choice.
    pub fn instantiate_flight(
        &self,
        label: Option<&str>,
        flight_ring: Option<usize>,
    ) -> Result<RunHandle, SpecError> {
        let (store, bbox) = self.build_workload();
        let (ff, dt) = (self.force_field(), self.dt);
        let cfg = self.engine_config(flight_ring);
        let metrics = match (self.observability.metrics, label) {
            (false, _) => Registry::disabled(),
            (true, None) => Registry::new(),
            (true, Some(label)) => Registry::labeled(label),
        };
        let pdims = |g: &[u64; 3]| IVec3::new(g[0] as i32, g[1] as i32, g[2] as i32);
        let setup = |e: sc_parallel::SetupError| SpecError::Setup(e.to_string());
        Ok(match &self.executor {
            ExecutorSpec::Serial { threads } => {
                let runtime = RuntimeConfig {
                    threads: *threads as usize,
                    verlet_skin: self.verlet_skin,
                    resort_every: cfg.resort_every,
                    tracer: cfg.tracer,
                };
                let mut b = Simulation::builder(store, bbox)
                    .force_field(ff)
                    .timestep(dt)
                    .cell_subdivision(cfg.subdivision)
                    .runtime(runtime);
                if let Some(t) = &self.thermostat {
                    b = b.thermostat(t.target, t.dt_over_tau);
                }
                RunHandle::new(b.build()?, metrics)
            }
            ExecutorSpec::Bsp { grid } | ExecutorSpec::Threaded { grid } => RunHandle::new(
                DistributedSim::build(store, bbox, pdims(grid), ff, dt, cfg).map_err(setup)?,
                metrics,
            ),
        })
    }
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the final-observables document for a finished run: atom count,
/// step count, the total energy as an exact IEEE-754 bit pattern, and an
/// FNV-1a hash over the full phase space (positions then velocities, in
/// store order, exact bits).
///
/// The document deliberately carries **no** wall times, job ids, or
/// hostnames, so "resumed job equals uninterrupted run" is a plain file
/// comparison: two runs of the same spec on the same executor
/// configuration produce byte-identical documents exactly when their final
/// phase space and energy are bitwise equal.
pub fn observables_doc(
    scenario: &str,
    steps_done: u64,
    store: &AtomStore,
    energy_total: f64,
) -> Json {
    let pos_then_vel = store
        .positions()
        .iter()
        .chain(store.velocities().iter())
        .flat_map(|v| [v.x, v.y, v.z])
        .flat_map(|c| c.to_bits().to_le_bytes());
    Json::Obj(vec![
        ("schema".to_string(), Json::str(OBSERVABLES_SCHEMA_ID)),
        ("scenario".to_string(), Json::str(scenario)),
        ("steps".to_string(), Json::num(steps_done as f64)),
        ("atoms".to_string(), Json::num(store.len() as f64)),
        ("energy_total".to_string(), Json::num(energy_total)),
        ("energy_bits".to_string(), Json::str(format!("0x{:016x}", energy_total.to_bits()))),
        ("phase_hash".to_string(), Json::str(format!("0x{:016x}", fnv1a(pos_then_vel)))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SCHEMA_ID;

    fn spec_cells(executor: &str, cells: usize) -> ScenarioSpec {
        let doc = format!(
            r#"{{
                "schema": "{SCHEMA_ID}",
                "name": "t",
                "system": {{"kind": "lj", "cells": {cells}, "temp": 1.0, "seed": 42}},
                "potential": {{"kind": "lj", "cutoff": 2.5}},
                "method": "sc",
                "executor": {executor},
                "dt": 0.002,
                "steps": 4
            }}"#
        );
        ScenarioSpec::from_json_str(&doc).unwrap()
    }

    fn spec(executor: &str) -> ScenarioSpec {
        // 5 FCC cells suffice for the serial engine; distributed executors
        // need ≥3 link cells per axis and get 7 (matching the bench matrix).
        let cells = if executor.contains("serial") { 5 } else { 7 };
        spec_cells(executor, cells)
    }

    #[test]
    fn serial_and_bsp_instantiate_and_step() {
        let mut serial = spec(r#"{"kind": "serial"}"#).instantiate().unwrap();
        serial.run(2);
        assert_eq!(serial.steps_done(), 2);
        let mut bsp = spec(r#"{"kind": "bsp", "grid": [2, 1, 1]}"#).instantiate().unwrap();
        bsp.try_step().unwrap();
        assert_eq!(bsp.steps_done(), 1);
        assert_eq!(bsp.executor_kind(), "bsp");
    }

    #[test]
    fn threaded_instantiates_like_any_other_executor() {
        let spec = spec(r#"{"kind": "threaded", "grid": [2, 1, 1]}"#);
        let mut handle = spec.instantiate().unwrap();
        // The spelling stays; the engine is the one distributed engine.
        assert_eq!(handle.executor_kind(), "bsp");
        handle.try_step().unwrap();
        assert_eq!(handle.steps_done(), 1);
        assert_eq!(handle.gather().len(), 4 * 7usize.pow(3));
        // The one handle runs the full spec.
        handle.run(spec.steps as usize - 1);
        assert_eq!(handle.steps_done(), spec.steps);
        assert_eq!(handle.gather().len(), 4 * 7usize.pow(3));
        let t = handle.telemetry();
        assert!(t.energy.total().is_finite());
        assert!(t.comm.messages > 0);
    }

    #[test]
    fn threaded_checkpoint_restore_continues_trajectory() {
        // Restore re-decomposes from an id-sorted gather, so the replay is
        // exact physics but rank-internal summation order may change:
        // compare with a tolerance, not bitwise (same caveat as the BSP
        // supervisor tests).
        let mut sim = spec(r#"{"kind": "threaded", "grid": [2, 1, 1]}"#).instantiate().unwrap();
        sim.run(2);
        let cp = sim.checkpoint();
        sim.run(2);
        let reference = sim.gather();
        sim.restore(&cp);
        assert_eq!(sim.steps_done(), 2);
        sim.run(2);
        let replay = sim.gather();
        assert_eq!(reference.len(), replay.len());
        for i in 0..reference.len() {
            assert_eq!(reference.ids()[i], replay.ids()[i], "id order differs at {i}");
            let dr = (reference.positions()[i] - replay.positions()[i]).norm();
            let dv = (reference.velocities()[i] - replay.velocities()[i]).norm();
            assert!(dr < 1e-9 && dv < 1e-9, "atom {i} drifted: dr={dr} dv={dv}");
        }
    }

    #[test]
    fn checkpoint_restore_replays_bitwise() {
        let mut sim = spec(r#"{"kind": "serial"}"#).instantiate().unwrap();
        sim.run(2);
        let cp = sim.checkpoint();
        sim.run(3);
        let reference = observables_doc("t", sim.steps_done(), &sim.gather(), 0.0);
        sim.restore(&cp);
        assert_eq!(sim.steps_done(), 2);
        sim.run(3);
        let replay = observables_doc("t", sim.steps_done(), &sim.gather(), 0.0);
        assert_eq!(reference.to_string(), replay.to_string());
    }

    #[test]
    fn sliced_run_equals_straight_run_bitwise() {
        // The scheduler steps jobs in slices; slicing must not perturb the
        // trajectory.
        let mut a = spec(r#"{"kind": "serial"}"#).instantiate().unwrap();
        a.run(6);
        let mut b = spec(r#"{"kind": "serial"}"#).instantiate().unwrap();
        for _ in 0..3 {
            b.run(2);
        }
        let doc_a = observables_doc("t", a.steps_done(), &a.gather(), a.total_energy());
        let doc_b = observables_doc("t", b.steps_done(), &b.gather(), b.total_energy());
        assert_eq!(doc_a.to_string(), doc_b.to_string());
    }

    #[test]
    fn labeled_instantiation_labels_the_registry() {
        let mut spec = spec(r#"{"kind": "serial"}"#);
        spec.observability.metrics = true;
        let sim = spec.instantiate_flight(Some("job-9"), None).unwrap();
        assert_eq!(sim.metrics().label(), Some("job-9"));
        // Unlabeled: metrics on, no label.
        let sim = spec.instantiate().unwrap();
        assert!(sim.metrics().enabled());
        assert_eq!(sim.metrics().label(), None);
    }

    #[test]
    fn observables_doc_is_sensitive_to_single_bit_changes() {
        let spec = spec(r#"{"kind": "serial"}"#);
        let (mut store, _) = spec.build_workload();
        let a = observables_doc("t", 1, &store, -1.0);
        store.velocities_mut()[0].x = f64::from_bits(store.velocities()[0].x.to_bits() ^ 1);
        let b = observables_doc("t", 1, &store, -1.0);
        assert_ne!(a.to_string(), b.to_string());
        assert!(a.to_string().contains("0x"));
    }
}
