//! # sc-md — the UCP molecular-dynamics engine
//!
//! This crate turns the abstract computation-pattern algebra of `sc-core`
//! into a working MD engine: dynamic range-limited n-tuple enumeration over
//! a cell lattice, force evaluation for many-body potentials, and the three
//! simulation drivers the paper benchmarks against each other (§5):
//!
//! * **SC-MD** ([`Method::ShiftCollapse`]) — per-n shift-collapse patterns,
//!   redundancy-free enumeration, per-term cell lattices sized to each
//!   cutoff.
//! * **FS-MD** ([`Method::FullShell`]) — full-shell patterns with explicit
//!   reflective-duplicate filtering (the paper's naive baseline).
//! * **Hybrid-MD** ([`Method::Hybrid`]) — the production-code baseline: a
//!   Verlet pair neighbour list built from the full-shell pair pattern, with
//!   triplets (and quadruplets) pruned *from the pair list* instead of the
//!   cell structure, exploiting `r_cut-3 < r_cut-2`.
//!
//! The engine layers:
//!
//! * [`engine`] — *search*: the per-cell pair visitor and the one chain
//!   visitor for every n ≥ 3, with chain-cutoff filtering and per-path
//!   reflective-duplicate guards, both over [`engine::LinkRows`], the
//!   range-limited adjacency one batched row fill builds.
//! * [`methods`] — [`Method`] → compiled patterns, and the Verlet
//!   [`methods::NeighborList`] — a view of eagerly filled link rows — whose
//!   walkers are the Hybrid-MD search.
//! * [`apply`] — from a found tuple to energy, virial and forces, once per
//!   tuple order; [`ForceField`] and its [`Term`]s join search and apply.
//! * [`berendsen_factor`] — the thermostat's velocity scale; the one engine
//!   that steps every run, serial included, is `sc-parallel`'s
//!   `DistributedSim` (a serial run is its 1×1×1 grid), whose ranks
//!   integrate velocity Verlet.
//! * [`mod@reference`] — O(Nⁿ) brute-force tuple enumeration and forces, the
//!   ground truth the test suite compares every method against.
//! * workload builders ([`build_fcc_lattice`], [`build_silica_like`],
//!   [`build_clustered_gas`],
//!   [`random_gas`]) for the benchmark systems.
//! * [`checkpoint`] / [`supervisor`] — fault-tolerant runtime support:
//!   checksummed binary snapshots of the full dynamic state and a
//!   physics-invariant supervisor that rolls a [`supervisor::Recoverable`]
//!   engine back to the last good checkpoint when a step fails or an
//!   invariant (finiteness, atom conservation) breaks.

#![warn(missing_docs)]

pub mod apply;
pub mod checkpoint;
pub mod diagnostics;
pub mod engine;
pub mod io;
pub mod methods;
pub mod par;
pub mod reference;
pub mod supervisor;

mod error;
mod integrate;
mod stats;
mod telemetry;
mod workload;

pub use apply::{ForceField, Term};
pub use checkpoint::{Checkpoint, CheckpointError, SnapshotLayout};
pub use diagnostics::{pair_virial_pressure, MeanSquaredDisplacement, RadialDistribution};
pub use engine::{Dedup, PatternPlan};
pub use error::{BuildError, CliError, Error};
pub use integrate::berendsen_factor;
pub use io::write_xyz;
pub use methods::Method;
pub use par::{ForceAccumulator, ThreadPool};
pub use stats::{EnergyBreakdown, TupleCounts};
pub use supervisor::{
    Recoverable, RecoveryStats, StepFault, Supervisor, SupervisorConfig, SupervisorError,
};
pub use telemetry::{MetricsFeed, Telemetry};
pub use workload::{
    build_clustered_gas, build_fcc_lattice, build_silica_like, random_gas, thermalize, LatticeSpec,
};
