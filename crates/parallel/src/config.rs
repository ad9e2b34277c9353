//! The one run configuration of a distributed engine: everything that is
//! not the system, the force field or the timestep, passed once to
//! [`crate::DistributedSim::build`], observability included — the tracer
//! the engine emits into and the metrics registry it feeds.

use crate::fault::FaultPlan;
use crate::rank::DEFAULT_RESORT_EVERY;
use sc_obs::{Registry, Tracer};

/// How a distributed engine runs. There is no way to change any of this
/// on a built engine, so it cannot step with half a configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Force-evaluation lanes of the engine's pool. `0` sizes the pool to
    /// the host's available parallelism; `1` runs inline with no workers.
    /// On a grid built with several ranks each rank is one task and the
    /// lane count changes no bit; an engine built on one rank splits its
    /// cell sweeps over the lanes, so there the bits depend on it (see
    /// [`RankState::compute_forces`](crate::rank::RankState::compute_forces)).
    pub lanes: usize,
    /// `k`-fold subdivided rank-local cells with reach-k patterns (paper
    /// §6), 1–3.
    pub subdivision: i32,
    /// Morton re-sort cadence: every `resort_every`-th step each rank
    /// permutes its owned atoms into cell Z-order at the ghost-free point
    /// of the step. `0` disables re-sorting. Default 8.
    pub resort_every: u64,
    /// Adaptive load balance: re-fit the rank grid to measured per-rank
    /// compute seconds every this many steps. `0` (the default) never
    /// re-decomposes.
    pub rebalance_every: u64,
    /// The scripted fault plan every delivery routes through (scripted
    /// faults need the lockstep engine's reproducible delivery order).
    /// Default inert.
    pub faults: FaultPlan,
    /// Event-level tracing: one sink per rank carries that rank's comm
    /// send/recv events and compute-phase intervals; the engine adds a sink
    /// tagged with the synthetic rank `nranks` for its synchronous
    /// wall-clock phases. Rings are allocated at build; emitting during
    /// stepping never allocates. Default disabled.
    pub tracer: Tracer,
    /// The metrics registry every step's telemetry is fed into, through the
    /// engine's one [`sc_md::MetricsFeed`] (the `sim.*`, `tuples.*`,
    /// `comm.*` and `health.*` series and the phase slots). The feed reads
    /// telemetry only while the registry is enabled. Default disabled.
    pub metrics: Registry,
    /// A Berendsen thermostat, `(target temperature, dt/τ ∈ (0, 1])`: after
    /// every step all velocities are rescaled toward the target by the
    /// global kinetic energy, summed over ranks in rank order. Default
    /// none (NVE).
    pub thermostat: Option<(f64, f64)>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lanes: 0,
            subdivision: 1,
            resort_every: DEFAULT_RESORT_EVERY,
            rebalance_every: 0,
            faults: FaultPlan::none(),
            tracer: Tracer::disabled(),
            metrics: Registry::disabled(),
            thermostat: None,
        }
    }
}
