//! # sc-serve — the multi-tenant simulation job service
//!
//! A long-lived daemon (`scmd serve`) that accepts scenario specs
//! ([`sc_spec::ScenarioSpec`]) as jobs, multiplexes many concurrent
//! simulations over a bounded set of worker lanes with fair round-robin
//! scheduling, persists per-job checkpoints so jobs survive a daemon
//! restart (`serve --resume`), and answers a JSON-lines protocol over a
//! local Unix socket (`scmd submit/status/cancel/results`).
//!
//! The live telemetry plane rides the same socket: `scmd watch` streams
//! a running job's periodic telemetry snapshots (bounded per-subscriber
//! queues, drop-oldest under backpressure), `scmd dump` snapshots a
//! running job's flight-recorder trace ring, and the `Metrics` verb (or
//! the optional `--metrics-addr` TCP listener) exports daemon- and
//! job-level metrics in Prometheus text exposition format.

pub mod job;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod watch;

pub mod client;
pub mod daemon;

pub use daemon::{Daemon, DaemonConfig, MAX_CONNECTIONS};
pub use job::{JobId, JobRecord, JobState};
pub use metrics::{exposition, BuildInfo};
pub use protocol::{Request, Response};
pub use scheduler::{
    DumpError, Scheduler, SchedulerConfig, SubmitError, TraceDump, WatchError, TRACE_SLICES,
};
pub use watch::{WatchEvent, WatchHandle};
