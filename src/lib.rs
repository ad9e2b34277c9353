//! # shift-collapse-md
//!
//! An open-source Rust implementation of the **shift-collapse (SC)
//! algorithm** for dynamic range-limited n-tuple computation in many-body
//! molecular dynamics, reproducing
//!
//! > M. Kunaseth, R. K. Kalia, A. Nakano, K. Nomura, P. Vashishta,
//! > *"A Scalable Parallel Algorithm for Dynamic Range-Limited n-Tuple
//! > Computation in Many-Body Molecular Dynamics Simulation"*,
//! > Proceedings of SC'13.
//!
//! This umbrella crate re-exports the whole workspace under stable paths:
//!
//! * [`geom`] — vectors, periodic boxes, cell regions.
//! * [`pattern`] — the computation-pattern algebra and the SC algorithm
//!   itself (the paper's core contribution).
//! * [`cell`] — the linked-cell data structure and atom storage.
//! * [`potential`] — Lennard-Jones, Vashishta-form silica, Stillinger-Weber,
//!   and a 4-body torsion potential.
//! * [`md`] — the UCP enumeration engine, the SC-MD / FS-MD / Hybrid-MD
//!   searches and the force evaluation they feed.
//! * [`parallel`] — the one engine, `DistributedSim`: rank grids, halo
//!   exchange, forwarded routing, force reduction, migration; a serial run
//!   is its 1×1×1 grid.
//! * [`obs`] — the observability layer: lock-free metrics registry, phase
//!   taxonomy, and the human / JSON / Prometheus exporters behind the
//!   unified `Telemetry` snapshot.
//! * [`netmodel`] — calibrated machine profiles used to regenerate the
//!   paper's granularity and strong-scaling figures.
//! * [`spec`] — declarative `sc-scenario/1` JSON documents and the one
//!   mapping from a spec to an engine configuration; every executor
//!   spelling instantiates to the one engine (`RunHandle` names it).
//! * [`serve`] — the multi-tenant job service behind `scmd serve`:
//!   fair-share scheduling, backpressure, and restartable jobs.
//!
//! ## Quickstart
//!
//! ```
//! use shift_collapse_md::prelude::*;
//!
//! // A small Lennard-Jones liquid, integrated with the SC pattern.
//! let spec = LatticeSpec::cubic(6, 1.5599); // 6³ FCC cells, 864 atoms
//! let (store, bbox) = build_fcc_lattice(&spec, 0.05, 42);
//! let ff = ForceField {
//!     pair: Some(Box::new(LennardJones::reduced(2.5))),
//!     triplet: None,
//!     quadruplet: None,
//!     method: Method::ShiftCollapse,
//! };
//! // A serial run is the one engine on a 1×1×1 rank grid.
//! let mut sim = DistributedSim::new(store, bbox, IVec3::splat(1), ff, 0.002).unwrap();
//! let e0 = sim.total_energy();
//! sim.run(10);
//! let e1 = sim.total_energy();
//! assert!(((e1 - e0) / e0).abs() < 1e-3); // NVE drift is tiny
//! ```

pub mod bench;

pub use sc_cell as cell;
pub use sc_core as pattern;
pub use sc_geom as geom;
pub use sc_md as md;
pub use sc_netmodel as netmodel;
pub use sc_obs as obs;
pub use sc_parallel as parallel;
pub use sc_potential as potential;
pub use sc_serve as serve;
pub use sc_spec as spec;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use sc_cell::{AtomStore, CellLattice, Species};
    pub use sc_core::{
        eighth_shell, generate_fs, generate_fs_reach, half_shell, shift_collapse,
        shift_collapse_reach, Path, Pattern, PatternKind,
    };
    pub use sc_geom::{CellRegion, IVec3, SimulationBox, Vec3};
    pub use sc_md::{
        build_fcc_lattice, build_silica_like, pair_virial_pressure, ForceField, LatticeSpec,
        MeanSquaredDisplacement, Method, RadialDistribution, Telemetry,
    };
    pub use sc_netmodel::{MachineProfile, MdCostModel, MethodCosts};
    pub use sc_obs::{Phase, PhaseBreakdown, Registry};
    pub use sc_parallel::{DistributedSim, EngineConfig, RankGrid};
    pub use sc_potential::{LennardJones, StillingerWeber, TabulatedPair, TorsionToy, Vashishta};
}
