//! The unified telemetry snapshot.
//!
//! [`Telemetry`] is the one type every runtime layer reports through. It
//! collapses what used to be three overlapping types (`StepStats`,
//! `CommStats`, `StepPhases`) into a single snapshot carrying physics
//! (energy, virial, tuple counts), the per-phase time breakdown mapped to
//! the paper's cost terms, communication counters, and allocation
//! accounting. The serial [`Simulation`](crate::Simulation) leaves the
//! communication fields empty; the distributed engine fills them per rank
//! and in aggregate.

use crate::stats::{EnergyBreakdown, TupleCounts};
use sc_obs::json::Json;
use sc_obs::{CommCounters, ImbalanceReport, PhaseBreakdown};

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
    /// Phase breakdown of the most recent force computation / step. In the
    /// distributed engine the reverse ghost-force return is booked under
    /// [`sc_obs::Phase::Reduce`] (with the lane/scratch merge), never under
    /// `Exchange`, on the engine's wall clock (registry, executor trace
    /// row).
    pub phases: PhaseBreakdown,
    /// Phase breakdown accumulated since construction.
    pub total_phases: PhaseBreakdown,
    /// Aggregate communication counters (all ranks merged). Empty for the
    /// shared-memory engine.
    pub comm: CommCounters,
    /// Per-rank communication counters, indexed by rank. Empty for the
    /// shared-memory engine.
    pub per_rank: Vec<CommCounters>,
    /// Allocation events observed in the hot path: force-scratch
    /// growth plus metric registrations. Flat across steady-state steps.
    pub alloc_events: u64,
    /// Whether the runtime is in degraded mode: it lost at least one rank
    /// and re-decomposed onto the survivors. Always `false` for the
    /// shared-memory engine.
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

    /// Renders the snapshot as a small human-readable table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "step {:>8}  E_pot {:>12.5}  virial {:>12.5}",
            self.step,
            self.energy.total(),
            self.virial
        );
        let _ = writeln!(
            out,
            "tuples accepted {} / {} candidates",
            self.tuples.total_accepted(),
            self.tuples.total_candidates()
        );
        for (phase, secs) in self.phases.iter() {
            if secs > 0.0 {
                let _ = writeln!(out, "  {:<10} {:.6} s", phase.name(), secs);
            }
        }
        if self.comm.messages > 0 {
            let _ = writeln!(
                out,
                "comm: {} msgs, {} bytes, {} ghosts, {} migrated, {} retries, {} faults",
                self.comm.messages,
                self.comm.bytes,
                self.comm.ghosts_imported,
                self.comm.atoms_migrated,
                self.comm.retries,
                self.comm.faults_detected
            );
        }
        out
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

    #[test]
    fn table_renders_nonzero_sections_only() {
        let mut t = Telemetry::default();
        t.phases.add(Phase::Eval, 0.5);
        let table = t.render_table();
        assert!(table.contains("eval"));
        assert!(!table.contains("comm:"));
        t.comm.record_send(0, 10);
        assert!(t.render_table().contains("comm:"));
    }
}
