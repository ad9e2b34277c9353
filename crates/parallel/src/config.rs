//! The one run configuration of a distributed engine: everything that is
//! not the system, the force field or the timestep, passed once to
//! [`crate::DistributedSim::build`].

use crate::fault::FaultPlan;
use crate::rank::DEFAULT_RESORT_EVERY;
use sc_obs::Tracer;

/// How a distributed engine runs. There is no way to change any of this
/// on a built engine, so it cannot step with half a configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// `k`-fold subdivided rank-local cells with reach-k patterns (paper
    /// §6), 1–3.
    pub subdivision: i32,
    /// Morton re-sort cadence: every `resort_every`-th step each rank
    /// permutes its owned atoms into cell Z-order at the ghost-free point
    /// of the step. `0` disables re-sorting. Default 8, matching the serial
    /// engine.
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
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            subdivision: 1,
            resort_every: DEFAULT_RESORT_EVERY,
            rebalance_every: 0,
            faults: FaultPlan::none(),
            tracer: Tracer::disabled(),
        }
    }
}
