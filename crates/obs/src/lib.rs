//! # sc-obs — the unified observability layer
//!
//! One registry for everything the paper measures. The SC-MD claims are
//! phase-resolved — enumeration cost (Eq. 29), import volume (Eq. 31/33),
//! compute-vs-comm crossovers (§5) — so this crate gives every layer of
//! the runtime a single place to record:
//!
//! - **per-phase time** over a fixed [`Phase`] taxonomy ([`PhaseBreakdown`],
//!   scoped [`Span`] timers, [`Registry::record_phase`]),
//! - **counters / gauges / histograms** (lock-free, atomic, pre-registered
//!   by name),
//! - **communication accounting** ([`CommCounters`], the empirical Eq. 31
//!   counterpart filled by the distributed engine).
//!
//! A [`Registry`] is cheap to clone and thread-safe; the
//! [`Registry::disabled`] variant hands out inert handles so the engine
//! can instrument hot paths unconditionally with no allocation and no
//! clock reads when observability is off.
//!
//! Snapshots ([`Registry::snapshot`]) render through three exporters:
//! [`human_table`], [`json_line`] (trajectory-style JSON lines), and
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

pub use comm::CommCounters;
pub use export::{human_table, json_line, json_value, prometheus, prometheus_with_labels};
pub use imbalance::{v_omega, ImbalanceReport, RankLoad};
pub use phase::{Phase, PhaseBreakdown};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, Span};
pub use trace::{chrome_trace, CommChannel, EventKind, TraceEvent, TraceSink, Tracer};
