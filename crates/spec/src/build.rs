//! Turning a validated [`ScenarioSpec`] into a running simulation — one
//! [`EngineConfig`] built by [`ScenarioSpec::engine_config`], one engine
//! built on it — plus the bitwise observables document served runs and
//! standalone runs are compared on.

use crate::error::SpecError;
use crate::model::{ExecutorSpec, ObservabilitySpec, PotentialSpec, ScenarioSpec, SystemSpec};
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::supervisor::{Supervisor, SupervisorConfig};
use sc_md::{
    build_clustered_gas, build_fcc_lattice, build_silica_like, random_gas, thermalize, LatticeSpec,
};
use sc_obs::json::Json;
use sc_obs::{Registry, Tracer};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, EngineConfig, FaultPlan, SetupError};
use sc_potential::{LennardJones, Vashishta};

/// The schema identifier of the observables document.
pub const OBSERVABLES_SCHEMA_ID: &str = "sc-observables/1";

/// Consecutive rollbacks a supervised run may spend on one checkpoint
/// interval before it fails.
const ROLLBACK_BUDGET: u32 = 64;

/// A scenario instantiated on the one engine: every executor spelling
/// builds a [`DistributedSim`] (`serial` a 1×1×1 grid), which owns the
/// run's metrics registry and feeds it after every step. Only a name: it
/// stays for the external benchmark harness, which holds its runs by it.
pub type RunHandle = DistributedSim;

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

    /// The rank grid the spec's executor runs on: 1×1×1 for `serial`.
    pub(crate) fn grid(&self) -> [u64; 3] {
        match &self.executor {
            ExecutorSpec::Serial { .. } => [1, 1, 1],
            ExecutorSpec::Bsp { grid } => *grid,
        }
    }

    /// The run's metrics registry: disabled unless the spec enables
    /// metrics, and labelled with the runner's `label` (a served job's id)
    /// so multiplexed jobs stay distinguishable.
    fn metrics(&self, label: Option<&str>) -> Registry {
        match (self.observability.metrics, label) {
            (false, _) => Registry::disabled(),
            (true, None) => Registry::new(),
            (true, Some(label)) => Registry::labeled(label),
        }
    }

    /// The one mapping from a spec to the engine's run configuration:
    /// every spec key the engine can honour travels through here, the
    /// tracer and the metrics registry included, and
    /// [`ScenarioSpec::validate`] refuses the rest. `label` and
    /// `flight_ring` are the runner's, as in
    /// [`ScenarioSpec::instantiate_flight`].
    pub fn engine_config(&self, label: Option<&str>, flight_ring: Option<usize>) -> EngineConfig {
        let ranks: u64 = self.grid().iter().product();
        EngineConfig {
            // A serial run's lanes are its `threads`. A grid's ranks are one
            // task each, so the host's lanes change none of its bits; a
            // one-rank grid would split its sweeps over them, so it gets one.
            lanes: match &self.executor {
                ExecutorSpec::Serial { threads } => *threads as usize,
                ExecutorSpec::Bsp { .. } => usize::from(ranks == 1),
            },
            subdivision: self.subdivision,
            resort_every: self.resort_every,
            rebalance_every: self.comm.rebalance_every,
            faults: self.fault_plan.as_ref().map_or_else(FaultPlan::none, |fp| {
                let (count, crashes) = (fp.count as usize, fp.max_crashes as usize);
                FaultPlan::storm(fp.seed, count, self.steps, ranks as usize, crashes, self.method)
            }),
            tracer: self.tracer(flight_ring),
            metrics: self.metrics(label),
            thermostat: self.thermostat.as_ref().map(|t| (t.target, t.dt_over_tau)),
        }
    }

    /// The run's recovery policy, the one every runner supervises a spec
    /// with: a checkpoint every `checkpoint.every` steps (only the one
    /// taken when supervision starts, if the spec sets none), a rollback
    /// budget of 64 per checkpoint interval, and the run's own registry and
    /// tracer, so the `supervisor.*` series and recovery markers export
    /// with the run's.
    pub fn supervisor(&self, run: &DistributedSim) -> Supervisor {
        Supervisor::new(SupervisorConfig {
            checkpoint_every: self.checkpoint.as_ref().map_or(u64::MAX, |c| c.every),
            max_rollbacks: ROLLBACK_BUDGET,
            metrics: run.metrics().clone(),
            tracer: run.tracer().clone(),
            ..SupervisorConfig::default()
        })
    }

    /// Instantiates the scenario on its executor.
    ///
    /// # Errors
    /// [`SpecError::Setup`] when the engine rejects the configuration.
    pub fn instantiate(&self) -> Result<DistributedSim, SpecError> {
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
    ) -> Result<DistributedSim, SpecError> {
        let (store, bbox) = self.build_workload();
        let (ff, dt) = (self.force_field(), self.dt);
        let cfg = self.engine_config(label, flight_ring);
        let [x, y, z] = self.grid().map(|d| d as i32);
        DistributedSim::build(store, bbox, IVec3::new(x, y, z), ff, dt, cfg).map_err(|e| match e {
            SetupError::Build(e) => SpecError::Build(e),
            e => SpecError::Setup(e.to_string()),
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
        // 5 FCC cells give one rank ≥3 link cells per axis; a 2×1×1 grid
        // gets 7 (matching the bench matrix).
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
    }

    /// A grid spec's bits never depend on the host's lane count: its 2×1×1
    /// grid on four lanes equals the same grid on one, and a one-rank grid
    /// is given one lane, as only a serial run splits its sweeps.
    #[test]
    fn grid_bits_do_not_depend_on_the_lane_count() {
        let grid = spec(r#"{"kind": "bsp", "grid": [2, 1, 1]}"#);
        let run = |lanes| {
            let (store, bbox) = grid.build_workload();
            let cfg = EngineConfig { lanes, ..grid.engine_config(None, None) };
            let pdims = IVec3::new(2, 1, 1);
            let mut sim =
                DistributedSim::build(store, bbox, pdims, grid.force_field(), grid.dt, cfg)
                    .unwrap();
            sim.run(grid.steps as usize);
            let s = sim.gather();
            let words = |v: &sc_geom::Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            s.positions().iter().chain(s.velocities()).map(words).collect::<Vec<_>>()
        };
        assert!(run(1) == run(4), "a 2×1×1 grid on four lanes moved");
        for kind in ["bsp", "threaded"] {
            let one = spec(&format!(r#"{{"kind": "{kind}", "grid": [1, 1, 1]}}"#));
            assert_eq!(one.engine_config(None, None).lanes, 1, "{kind}");
        }
        assert_eq!(grid.engine_config(None, None).lanes, 0);
    }

    /// `threaded` is a spelling, not an executor: it decodes to `bsp` on
    /// its grid (the canonical form prints `bsp`) and runs like it.
    #[test]
    fn threaded_instantiates_like_any_other_executor() {
        let spec = spec(r#"{"kind": "threaded", "grid": [2, 1, 1]}"#);
        assert_eq!(spec.executor, ExecutorSpec::Bsp { grid: [2, 1, 1] });
        let canonical = spec.to_json().to_string();
        assert!(canonical.contains(r#""kind":"bsp""#), "{canonical}");
        let mut handle = spec.instantiate().unwrap();
        handle.run(spec.steps as usize);
        assert_eq!(handle.steps_done(), spec.steps);
        assert_eq!(handle.gather().len(), 4 * 7usize.pow(3));
    }

    /// Snapshots keep rank-major slot order, so a restore onto the same
    /// executor replays bitwise, serial (one rank) included.
    #[test]
    fn checkpoint_restore_replays_bitwise() {
        for executor in [r#"{"kind": "serial"}"#, r#"{"kind": "threaded", "grid": [2, 1, 1]}"#] {
            let mut sim = spec(executor).instantiate().unwrap();
            sim.run(2);
            let cp = sim.checkpoint();
            sim.run(3);
            let reference = observables_doc("t", sim.steps_done(), &sim.gather(), 0.0);
            sim.restore(&cp);
            assert_eq!(sim.steps_done(), 2);
            sim.run(3);
            let replay = observables_doc("t", sim.steps_done(), &sim.gather(), 0.0);
            assert_eq!(reference.to_string(), replay.to_string(), "{executor}");
        }
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
