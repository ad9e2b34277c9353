//! The unified telemetry snapshot, and the one metrics feed derived from it.
//!
//! [`Telemetry`] is the one type every runtime layer reports through. It
//! collapses what used to be three overlapping types (`StepStats`,
//! `CommStats`, `StepPhases`) into a single snapshot carrying physics
//! (energy, virial, tuple counts), the per-phase time breakdown mapped to
//! the paper's cost terms, communication and health counters, and
//! allocation accounting. The engine fills the communication and health
//! fields per rank and in aggregate (a serial run is one rank).
//!
//! [`MetricsFeed`] turns each step's snapshot into registry series, the
//! same series for every executor spelling; every series name and the
//! [`Telemetry`] field behind it are listed here. The engine
//! (`sc_parallel::DistributedSim`) owns the one feed, over the registry its
//! run configuration carries: it feeds every step and rebaselines on every
//! restore.

use crate::stats::{EnergyBreakdown, TupleCounts};
use sc_obs::json::Json;
use sc_obs::{
    CommCounters, Counter, HealthCounters, Histogram, ImbalanceReport, PhaseBreakdown, Registry,
};

/// One point-in-time snapshot of everything a simulation reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Steps completed when the snapshot was taken.
    pub step: u64,
    /// Potential energies by term, from the most recent force computation.
    pub energy: EnergyBreakdown,
    /// Tuple-search statistics from the most recent force computation.
    pub tuples: TupleCounts,
    /// Scalar virial from the most recent force computation.
    pub virial: f64,
    /// Phase breakdown since the most recent step began: its force
    /// computations, integrate halves and exchanges, plus any force
    /// computation run after it. The reverse ghost-force return is booked under
    /// [`sc_obs::Phase::Reduce`] (with the lane/scratch merge), never under
    /// `Exchange`, on the engine's wall clock (registry, executor trace
    /// row).
    pub phases: PhaseBreakdown,
    /// Phase breakdown accumulated since construction.
    pub total_phases: PhaseBreakdown,
    /// Aggregate communication counters (all ranks merged).
    pub comm: CommCounters,
    /// Per-rank communication counters, indexed by rank.
    pub per_rank: Vec<CommCounters>,
    /// The health watchdog's cumulative transition counts. Exported as
    /// series, not on the JSON line.
    pub health: HealthCounters,
    /// Allocation events observed in the hot path: force-scratch growth
    /// plus, once a run reports it, the run's metric registrations. Flat
    /// across steady-state steps.
    pub alloc_events: u64,
    /// Whether the runtime is in degraded mode: it lost at least one rank
    /// and re-decomposed onto the survivors.
    pub degraded: bool,
}

impl Telemetry {
    /// Renders the snapshot as one compact JSON line (no trailing newline).
    /// The layout is pinned by `schema/metrics.schema.json` at the
    /// repository root and validated in CI.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The per-rank load-imbalance report over this snapshot's `per_rank`
    /// counters; `None` for single-image runs (nothing to compare).
    pub fn imbalance(&self) -> Option<ImbalanceReport> {
        if self.per_rank.is_empty() {
            return None;
        }
        Some(ImbalanceReport::from_per_rank(&self.per_rank))
    }

    /// The JSON value behind [`Telemetry::to_json`], for embedding.
    pub fn to_json_value(&self) -> Json {
        let phases = |p: &PhaseBreakdown| {
            Json::Obj(p.iter().map(|(ph, s)| (format!("{}_s", ph.name()), Json::num(s))).collect())
        };
        let comm = |c: &CommCounters, extra: Vec<(String, Json)>| {
            let mut fields = extra;
            fields.extend([
                ("messages".to_string(), Json::num(c.messages as f64)),
                ("bytes".to_string(), Json::num(c.bytes as f64)),
                ("ghosts_imported".to_string(), Json::num(c.ghosts_imported as f64)),
                ("atoms_migrated".to_string(), Json::num(c.atoms_migrated as f64)),
                ("retries".to_string(), Json::num(c.retries as f64)),
                ("faults_detected".to_string(), Json::num(c.faults_detected as f64)),
                ("partners".to_string(), Json::num(c.partners.len() as f64)),
            ]);
            Json::Obj(fields)
        };
        let order = |v: &crate::engine::VisitStats| {
            Json::Obj(vec![
                ("candidates".to_string(), Json::num(v.candidates as f64)),
                ("accepted".to_string(), Json::num(v.accepted as f64)),
            ])
        };
        let doc = Json::Obj(vec![
            ("step".to_string(), Json::num(self.step as f64)),
            (
                "energy".to_string(),
                Json::Obj(vec![
                    ("pair".to_string(), Json::num(self.energy.pair)),
                    ("triplet".to_string(), Json::num(self.energy.triplet)),
                    ("quadruplet".to_string(), Json::num(self.energy.quadruplet)),
                    ("total".to_string(), Json::num(self.energy.total())),
                ]),
            ),
            ("virial".to_string(), Json::num(self.virial)),
            (
                "tuples".to_string(),
                Json::Obj(vec![
                    ("pair".to_string(), order(&self.tuples.pair)),
                    ("triplet".to_string(), order(&self.tuples.triplet)),
                    ("quadruplet".to_string(), order(&self.tuples.quadruplet)),
                ]),
            ),
            ("phases".to_string(), phases(&self.phases)),
            ("total_phases".to_string(), phases(&self.total_phases)),
            ("comm".to_string(), comm(&self.comm, vec![])),
            (
                "per_rank".to_string(),
                Json::Arr(
                    self.per_rank
                        .iter()
                        .enumerate()
                        .map(|(rank, c)| {
                            let mut obj =
                                comm(c, vec![("rank".to_string(), Json::num(rank as f64))]);
                            if let Json::Obj(fields) = &mut obj {
                                fields.push(("phases".to_string(), phases(&c.phases)));
                            }
                            obj
                        })
                        .collect(),
                ),
            ),
            ("alloc_events".to_string(), Json::num(self.alloc_events as f64)),
            ("degraded".to_string(), Json::Bool(self.degraded)),
        ]);
        let Json::Obj(mut fields) = doc else { unreachable!() };
        if let Some(report) = self.imbalance() {
            fields.push(("imbalance".to_string(), report.to_json_value()));
        }
        Json::Obj(fields)
    }
}

/// A counter series: its exported name and the [`Telemetry`] reading
/// behind it.
type Series = (&'static str, fn(&Telemetry) -> u64);

/// Series read from the step's force computation: each step adds the
/// reading itself.
const PER_STEP: [Series; 6] = [
    ("tuples.pair.candidates", |t| t.tuples.pair.candidates),
    ("tuples.pair.accepted", |t| t.tuples.pair.accepted),
    ("tuples.triplet.candidates", |t| t.tuples.triplet.candidates),
    ("tuples.triplet.accepted", |t| t.tuples.triplet.accepted),
    ("tuples.quadruplet.candidates", |t| t.tuples.quadruplet.candidates),
    ("tuples.quadruplet.accepted", |t| t.tuples.quadruplet.accepted),
];

/// Series read from cumulative counters: each step adds the difference from
/// the previous reading.
const CUMULATIVE: [Series; 11] = [
    ("sim.steps", |t| t.step),
    ("comm.messages", |t| t.comm.messages),
    ("comm.bytes", |t| t.comm.bytes),
    ("comm.ghosts_imported", |t| t.comm.ghosts_imported),
    ("comm.atoms_migrated", |t| t.comm.atoms_migrated),
    ("comm.retries", |t| t.comm.retries),
    ("comm.faults_detected", |t| t.comm.faults_detected),
    ("health.suspects", |t| t.health.suspects),
    ("health.deaths", |t| t.health.deaths),
    ("health.recoveries", |t| t.health.recoveries),
    ("health.breaker_trips", |t| t.health.breaker_trips),
];

/// The index of `comm.bytes` in [`CUMULATIVE`]: its delta over a completed
/// step is also observed by the `comm.step_bytes` histogram.
const COMM_BYTES: usize = 2;

/// The cumulative readings of `t` that deltas are taken between.
type Reading = ([u64; CUMULATIVE.len()], PhaseBreakdown);

fn reading(t: &Telemetry) -> Reading {
    (CUMULATIVE.map(|(_, read)| read(t)), t.total_phases)
}

/// The one metrics feed: registers every series in a [`Registry`] and adds
/// each completed step's share, read from that step's [`Telemetry`]. The
/// series are `sim.steps`, the six `tuples.*` counters, the six `comm.*`
/// counters with the `comm.step_bytes` histogram, the four `health.*`
/// counters, and the registry's phase slots (from
/// [`Telemetry::total_phases`]). Every series is registered up front, so
/// every run exports the same names whatever its grid.
pub struct MetricsFeed {
    registry: Registry,
    per_step: [Counter; PER_STEP.len()],
    cumulative: [Counter; CUMULATIVE.len()],
    step_bytes: Histogram,
    /// The reading the next deltas are taken against.
    last: Reading,
}

impl MetricsFeed {
    /// Registers every series in `registry` (nothing, if it is disabled);
    /// deltas count from zero.
    pub fn new(registry: Registry) -> Self {
        MetricsFeed {
            per_step: PER_STEP.map(|(name, _)| registry.counter(name)),
            cumulative: CUMULATIVE.map(|(name, _)| registry.counter(name)),
            step_bytes: registry
                .histogram("comm.step_bytes", &[1024.0, 16384.0, 262144.0, 4194304.0, 67108864.0]),
            registry,
            last: reading(&Telemetry::default()),
        }
    }

    /// The registry the series live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Feeds one completed step, whose snapshot is `t`. Only completed
    /// steps are observed by `comm.step_bytes`, so its count is the number
    /// of completed steps.
    pub fn step(&mut self, t: &Telemetry) {
        for (series, (_, read)) in self.per_step.iter().zip(PER_STEP) {
            series.add(read(t));
        }
        self.step_bytes.observe((t.comm.bytes - self.last.0[COMM_BYTES]) as f64);
        self.advance(t);
    }

    /// Feeds the cumulative series' growth up to `t` and nothing else: all
    /// that a step which failed half-way counted (its traffic, detected
    /// faults and watchdog transitions, none of which a later restore
    /// gives back), without its tuples or a `comm.step_bytes` observation.
    pub fn advance(&mut self, t: &Telemetry) {
        let ((last, last_phases), (now, phases)) = (self.last, reading(t));
        for ((series, now), last) in self.cumulative.iter().zip(now).zip(last) {
            series.add(now - last);
        }
        for (phase, secs) in phases.iter() {
            self.registry.record_phase(phase, secs - last_phases.get(phase));
        }
        self.last = (now, phases);
    }

    /// Takes `t` as the new baseline without feeding anything: after a
    /// restore has rewound the run's counters, so that no series goes down
    /// and none counts a step twice.
    pub fn rebaseline(&mut self, t: &Telemetry) {
        self.last = reading(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_obs::Phase;

    #[test]
    fn json_line_parses_and_carries_every_section() {
        let mut t = Telemetry { step: 42, virial: -1.5, ..Default::default() };
        t.energy.pair = -10.0;
        t.phases.add(Phase::Bin, 0.25);
        t.total_phases.add(Phase::Bin, 2.5);
        t.comm.record_send(1, 100);
        let mut rank1 = t.comm.clone();
        rank1.phases.add(Phase::Eval, 0.75);
        t.per_rank = vec![CommCounters::default(), rank1];
        t.alloc_events = 7;
        let v = Json::parse(&t.to_json()).unwrap();
        assert_eq!(v.get("step").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("energy").unwrap().get("total").unwrap().as_f64(), Some(-10.0));
        assert_eq!(v.get("phases").unwrap().get("bin_s").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("total_phases").unwrap().get("bin_s").unwrap().as_f64(), Some(2.5));
        let ranks = v.get("per_rank").unwrap().as_array().unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[1].get("rank").unwrap().as_f64(), Some(1.0));
        assert_eq!(ranks[1].get("bytes").unwrap().as_f64(), Some(100.0));
        assert_eq!(v.get("alloc_events").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(false));
        // Per-rank entries carry their own phase breakdown …
        let rank_phases = ranks[1].get("phases").unwrap();
        assert_eq!(rank_phases.get("eval_s").unwrap().as_f64(), Some(0.75));
        // … and multi-rank snapshots carry the imbalance section.
        let imb = v.get("imbalance").unwrap();
        assert_eq!(imb.get("ranks").unwrap().as_f64(), Some(2.0));
        assert!(imb.get("compute_imbalance").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(imb.get("per_rank").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn single_image_snapshots_omit_imbalance() {
        let t = Telemetry::default();
        assert!(t.imbalance().is_none());
        let v = Json::parse(&t.to_json()).unwrap();
        assert!(v.get("imbalance").is_none());
    }
}
