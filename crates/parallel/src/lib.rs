//! # sc-parallel — the distributed-memory runtime (MPI substitute)
//!
//! The paper's benchmarks run on MPI clusters; this crate reproduces the
//! *algorithmic* content of that parallelization as a message-passing runtime
//! whose ranks are plain Rust values exchanging explicit messages:
//!
//! * spatial decomposition of the periodic box over a [`RankGrid`]
//!   (paper §3.1.3: each processor owns a cell domain Ω);
//! * **halo exchange with forwarded routing** — SC-MD imports ghost atoms
//!   from its 7 first-octant neighbour ranks in 3 communication steps
//!   (+x, +y, +z, §4.2), FS/Hybrid from all 26 in 6 steps;
//! * **reverse force reduction** — forces accumulated on ghost atoms travel
//!   back along the reversed routes to their owner ranks (the owner-compute
//!   relaxation of the eighth-shell scheme applied to arbitrary n);
//! * **atom migration** — after each drift, atoms that left their rank's
//!   box are handed to the new owner in 3 axis-ordered exchanges.
//!
//! ## One rank-step protocol, one engine
//!
//! The paper's parallel step is one SPMD program per rank, and it is written
//! here exactly once. [`DistributedSim`] runs the stage sequence (prime →
//! half-kick/drift, ghost drop, Morton re-sort → 3 migrations → ghost
//! import → compute → force return → half-kick; nothing overlaps the
//! import) over every rank in lockstep; the private `step` module holds what
//! a rank sends and absorbs in each exchange, how an arriving wire unit is
//! matched to its slot and verified, and the decomposition:
//!
//! | module | owns |
//! |---|---|
//! | `step` (private) | the rank-step protocol's exchanges: the schedule planned once at `decompose` (every rank's slots, frames and expected units for the 3 migrate + 3 ghost + 3 force phases), per-exchange `outgoing`/`absorb` through per-rank recycled buffers, send accounting, receipt and stamp + per-section verification |
//! | [`rank`] | one rank's state and its message-level algorithms (band collection recording the slot each entry was read from, ghost absorption, force computation — one sweep per term — positional force return) |
//! | [`transport`], [`msg`] | the merged-phase schedule and its per-rank plan, per-neighbor framing, stamps and word-wise checksums |
//! | `exec_bsp` ([`DistributedSim`]) | the engine: the stage sequence, lockstep delivery through the [`FaultPlan`] with bounded retry and the health watchdog, the `ThreadPool` compute fan-out, rebalance, re-decomposition over survivors, telemetry, gather, checkpoint |
//!
//! Every message is delivered between a phase's send and absorb halves, so a
//! run is deterministic and the pool's lane count changes no bit: this is
//! the executor the correctness tests compare against serial `sc-md`. The
//! ranks' force computations — nearly all of a step's work — run
//! concurrently on the pool. Scenario specs spell a run `serial` (a 1×1×1
//! grid) or `bsp` (`threaded` decodes to `bsp`); both build this engine,
//! which is the run object itself. It counts every message and byte
//! ([`CommCounters`]), which is what the `sc-netmodel` crate calibrates the
//! paper's communication model against.
//!
//! ## One run configuration
//!
//! Everything about a run that is not the system, the force field or the
//! timestep is one [`EngineConfig`] (cell subdivision, re-sort cadence,
//! rebalance cadence, [`FaultPlan`], tracer, metrics registry), taken once
//! by `DistributedSim::build`. The engine feeds its telemetry into that
//! registry after every step (only while it is enabled) and rebaselines it
//! on every restore. The engine has no post-construction setter.
//!
//! ## Fault tolerance
//!
//! Every payload travels as a stamped [`Message`] (exchange phase, step
//! epoch, channel, word-wise checksum) and is verified on receipt — per
//! section for aggregated frames; failures surface as typed
//! [`RuntimeError`]s. The phase goes up once per exchange and a restore
//! does not rewind it, so a copy sent before a rollback is refused in the
//! replay ([`RuntimeError::PhaseMismatch`]) though its epoch is the
//! replay's. All
//! deliveries route through a scriptable, deterministic [`FaultPlan`] with a
//! bounded per-delivery retry, so tests can inject drops, delays,
//! corruption, and rank stalls per `(step, rank, channel)`. Recovery
//! (checkpoint/rollback) is orchestrated by the `Supervisor` in `sc-md`, for
//! which [`DistributedSim`] implements the `Recoverable` trait (a
//! [`RuntimeError`] reaches it as an `sc_md::StepFault`, which names the
//! dead rank for [`RuntimeError::RankDead`] and nothing else).
//!
//! Permanent rank death ([`fault::FaultKind::Crash`]) is detected by a
//! per-rank [`health`] deadline watchdog, the only death verdict, and
//! surfaces as [`RuntimeError::RankDead`]; the supervisor then
//! re-decomposes the last checkpoint over the surviving ranks
//! ([`DistributedSim::restore_excluding`]) instead of rolling back forever.

#![warn(missing_docs)]

pub mod comm;
pub mod config;
pub mod error;
pub mod fault;
pub mod grid;
pub mod health;
pub mod msg;
pub mod rank;
pub mod transport;

mod exec_bsp;
#[cfg(test)]
mod sim;
mod step;

pub use comm::{CommCounters, GhostPlan};
pub use config::EngineConfig;
pub use error::{RuntimeError, SetupError};
pub use exec_bsp::DistributedSim;
pub use fault::{Delivery, Fault, FaultEvent, FaultKind, FaultPlan};
pub use grid::RankGrid;
pub use health::{HealthCounters, HealthTracker, RankHealth};
pub use msg::{AtomMsg, Channel, GhostMsg, Message, Payload};
