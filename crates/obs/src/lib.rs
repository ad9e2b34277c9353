//! # sc-obs — the unified observability layer
//!
//! One registry for everything the paper measures. The SC-MD claims are
//! phase-resolved — enumeration cost (Eq. 29), import volume (Eq. 31/33),
//! compute-vs-comm crossovers (§5) — so this crate gives every layer of
//! the runtime a single place to record:
//!
//! - **per-phase time** over a fixed [`Phase`] taxonomy ([`PhaseBreakdown`],
//!   [`Registry::record_phase`]),
//! - **counters / gauges / histograms** (lock-free, atomic, pre-registered
//!   by name),
//! - **communication and health accounting** ([`CommCounters`], the
//!   empirical Eq. 31 counterpart, and [`HealthCounters`], both filled by
//!   the distributed engine).
//!
//! The engines only measure: each step yields a telemetry snapshot, and the
//! run that owns the [`Registry`] turns every step's snapshot into the
//! series deltas. A [`Registry`] is cheap to clone and thread-safe; the
//! [`Registry::disabled`] variant hands out inert handles and never
//! allocates, so a run with observability off pays nothing.
//!
//! Snapshots ([`Registry::snapshot`]) render through two exporters:
//! [`json_value`] (a JSON value, one compact line via `to_string()`) and
//! [`prometheus`] text format. The [`json`] and [`schema`] modules carry a
//! dependency-free JSON value type and a small schema validator used by the
//! CI metrics check (the workspace's vendored `serde` is a no-op shim, so
//! JSON is hand-rolled here).

#![warn(missing_docs)]

mod comm;
mod export;
mod imbalance;
pub mod json;
mod phase;
mod registry;
pub mod schema;
pub mod trace;

pub use comm::{CommCounters, HealthCounters};
pub use export::{json_value, prometheus, prometheus_with_labels};
pub use imbalance::{ImbalanceReport, RankLoad};
pub use phase::{Phase, PhaseBreakdown};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{chrome_trace, CommChannel, EventKind, TraceEvent, TraceSink, Tracer};
