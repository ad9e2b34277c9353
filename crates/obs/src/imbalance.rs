//! Load-imbalance profiling: per-rank × per-phase aggregation producing an
//! imbalance report.
//!
//! Ferrell & Bertschinger's inhomogeneous-distribution results (and the SC
//! paper's own Fig. 9 efficiency argument) make per-rank load imbalance the
//! dominant scaling killer: a step is as slow as its slowest rank, so the
//! observable that matters is the **max/mean compute ratio** across ranks,
//! together with each rank's **communication-wait fraction**, its ghost
//! import volume (the empirical side of Eq. 33) and the tuples it accepted.
//! [`ImbalanceReport::from_per_rank`] builds the report from the executors'
//! per-rank [`CommCounters`], which is what `Telemetry` carries.

use crate::comm::CommCounters;
use crate::json::Json;

/// One rank's aggregated load, as seen by an [`ImbalanceReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankLoad {
    /// Rank id.
    pub rank: u32,
    /// Compute seconds (bin + enumerate + eval + aggregate compute).
    pub compute_s: f64,
    /// Communication seconds (exchange + migrate + reduce).
    pub comm_s: f64,
    /// Ghost atoms imported (the empirical Eq. 31/33 observable).
    pub ghosts_imported: u64,
    /// Tuples this rank accepted in its most recent force computation.
    pub tuples: u64,
}

impl RankLoad {
    /// Fraction of this rank's accounted time spent waiting on
    /// communication phases: `comm / (compute + comm)`.
    pub fn comm_wait_fraction(&self) -> f64 {
        let total = self.compute_s + self.comm_s;
        if total <= 0.0 {
            return 0.0;
        }
        self.comm_s / total
    }
}

/// Per-rank load aggregation with the imbalance summary statistics the
/// paper's scaling argument turns on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImbalanceReport {
    /// One entry per rank, sorted by rank id.
    pub per_rank: Vec<RankLoad>,
}

impl ImbalanceReport {
    /// Builds a report from per-rank [`CommCounters`] (the form `Telemetry`
    /// carries). Compute time is each rank's
    /// [`crate::PhaseBreakdown::compute_total_s`]; comm time is
    /// exchange + migrate + reduce.
    pub fn from_per_rank(per_rank: &[CommCounters]) -> ImbalanceReport {
        let loads = per_rank
            .iter()
            .enumerate()
            .map(|(rank, c)| RankLoad {
                rank: rank as u32,
                compute_s: c.phases.compute_total_s() + c.phases.integrate_s(),
                comm_s: c.phases.exchange_s() + c.phases.migrate_s() + c.phases.reduce_s(),
                ghosts_imported: c.ghosts_imported,
                tuples: c.tuples_accepted,
            })
            .collect();
        ImbalanceReport { per_rank: loads }
    }

    /// Number of ranks in the report.
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Maximum per-rank compute seconds.
    pub fn max_compute_s(&self) -> f64 {
        self.per_rank.iter().map(|l| l.compute_s).fold(0.0, f64::max)
    }

    /// Mean per-rank compute seconds.
    pub fn mean_compute_s(&self) -> f64 {
        if self.per_rank.is_empty() {
            return 0.0;
        }
        self.per_rank.iter().map(|l| l.compute_s).sum::<f64>() / self.per_rank.len() as f64
    }

    /// The load-imbalance ratio `max / mean` over per-rank compute time —
    /// 1.0 is perfectly balanced; a step is as slow as its slowest rank, so
    /// parallel efficiency is bounded by `1 / ratio`.
    pub fn compute_imbalance(&self) -> f64 {
        let mean = self.mean_compute_s();
        if mean <= 0.0 {
            return 1.0;
        }
        self.max_compute_s() / mean
    }

    /// Aggregate communication-wait fraction:
    /// `Σ comm / Σ (compute + comm)` over all ranks.
    pub fn comm_wait_fraction(&self) -> f64 {
        let comm: f64 = self.per_rank.iter().map(|l| l.comm_s).sum();
        let total: f64 = self.per_rank.iter().map(|l| l.compute_s + l.comm_s).sum();
        if total <= 0.0 {
            return 0.0;
        }
        comm / total
    }

    /// Total ghost atoms imported across ranks (empirical import volume).
    pub fn total_ghosts_imported(&self) -> u64 {
        self.per_rank.iter().map(|l| l.ghosts_imported).sum()
    }

    /// Renders the report as a JSON object (the `imbalance` telemetry
    /// section).
    pub fn to_json_value(&self) -> Json {
        let per_rank = self
            .per_rank
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("rank".into(), Json::num(l.rank as f64)),
                    ("compute_s".into(), Json::num(l.compute_s)),
                    ("comm_s".into(), Json::num(l.comm_s)),
                    ("comm_wait_fraction".into(), Json::num(l.comm_wait_fraction())),
                    ("ghosts_imported".into(), Json::num(l.ghosts_imported as f64)),
                    ("tuples".into(), Json::num(l.tuples as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ranks".to_string(), Json::num(self.ranks() as f64)),
            ("max_compute_s".to_string(), Json::num(self.max_compute_s())),
            ("mean_compute_s".to_string(), Json::num(self.mean_compute_s())),
            ("compute_imbalance".to_string(), Json::num(self.compute_imbalance())),
            ("comm_wait_fraction".to_string(), Json::num(self.comm_wait_fraction())),
            ("ghosts_imported".to_string(), Json::num(self.total_ghosts_imported() as f64)),
            ("per_rank".to_string(), Json::Arr(per_rank)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn counters(compute_s: f64, comm_s: f64, ghosts: u64) -> CommCounters {
        let mut c = CommCounters::default();
        c.phases.add(Phase::Eval, compute_s * 0.75);
        c.phases.add(Phase::Bin, compute_s * 0.25);
        c.phases.add(Phase::Exchange, comm_s * 0.5);
        c.phases.add(Phase::Reduce, comm_s * 0.5);
        c.ghosts_imported = ghosts;
        c
    }

    #[test]
    fn v_omega_matches_eq_33() {
        // The SC import volume a rank's `ghosts_imported` is measured against,
        // built from the pattern: Vω = (l + n − 1)³ − l³ (Eq. 33).
        use sc_core::{import_volume_cubic, shift_collapse};
        // l=8, n=2: (8+1)³ − 8³ = 729 − 512 = 217.
        assert_eq!(import_volume_cubic(8, &shift_collapse(2)), 217);
        // l=8, n=3: 10³ − 8³ = 488.
        assert_eq!(import_volume_cubic(8, &shift_collapse(3)), 488);
    }

    #[test]
    fn report_from_counters_computes_ratio_and_wait() {
        let mut ranks =
            vec![counters(2.0, 0.5, 100), counters(1.0, 0.5, 80), counters(1.0, 1.0, 120)];
        ranks[1].tuples_accepted = 20;
        let rep = ImbalanceReport::from_per_rank(&ranks);
        assert_eq!(rep.ranks(), 3);
        assert!((rep.max_compute_s() - 2.0).abs() < 1e-12);
        assert!((rep.mean_compute_s() - 4.0 / 3.0).abs() < 1e-12);
        assert!((rep.compute_imbalance() - 1.5).abs() < 1e-12);
        // Σcomm / Σtotal = 2.0 / 6.0.
        assert!((rep.comm_wait_fraction() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(rep.total_ghosts_imported(), 300);
        assert_eq!(rep.per_rank[1].tuples, 20);
        // Per-rank wait fraction of rank 2: 1.0 / 2.0.
        assert!((rep.per_rank[2].comm_wait_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_report_round_trips() {
        let rep = ImbalanceReport::from_per_rank(&[counters(1.0, 0.25, 42)]);
        let v = rep.to_json_value();
        assert_eq!(v.get("ranks").unwrap().as_f64(), Some(1.0));
        let per_rank = v.get("per_rank").unwrap().as_array().unwrap();
        assert_eq!(per_rank[0].get("ghosts_imported").unwrap().as_f64(), Some(42.0));
        // Round-trips through the writer/parser.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn empty_report_is_neutral() {
        let rep = ImbalanceReport::from_per_rank(&[]);
        assert_eq!(rep.compute_imbalance(), 1.0);
        assert_eq!(rep.comm_wait_fraction(), 0.0);
        assert_eq!(rep.ranks(), 0);
    }
}
