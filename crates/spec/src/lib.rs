//! # sc-spec — declarative scenario specifications
//!
//! A scenario spec is a small JSON document that pins down an
//! entire simulation campaign: the physical system, the potential, the
//! n-tuple method Ψ (shift-collapse / full-shell / hybrid), the executor
//! and rank grid, integration parameters, optional thermostat, fault
//! plan, observability sinks, and checkpoint cadence. The checked-in
//! `scenarios/` zoo and the bench matrix are expressed as specs, and the
//! job service (`scmd serve`) accepts them as its submission unit.
//!
//! The crate deliberately has **no** external dependencies: documents are
//! read by [`sc_obs::json::Json`], and decoding is strict — unknown
//! fields, wrong types and out-of-range values all fail with a
//! [`SpecError`] naming the offending field's dotted path.
//!
//! ```text
//! file/str ── parse ──► Json ── decode+validate ──► ScenarioSpec
//!                                                      │ engine_config(): lanes, faults,
//!                                                      │ tracer, metrics registry, …
//!                                                      ▼ instantiate()
//!                       DistributedSim (RunHandle names it)
//!                         serial = 1×1×1 grid; bsp (also spelled threaded)
//! ```

pub mod build;
pub mod error;
pub mod model;

pub use build::{observables_doc, RunHandle, OBSERVABLES_SCHEMA_ID};
pub use error::SpecError;
pub use model::{
    method_name, CheckpointSpec, ExecutorSpec, FaultPlanSpec, ObservabilitySpec, PotentialSpec,
    ScenarioSpec, SystemSpec, ThermostatSpec, SCHEMA_ID,
};
