//! Per-step accounting: energies and tuple-search statistics. Phase timing
//! lives in [`sc_obs::PhaseBreakdown`]; the full per-step snapshot is the
//! unified [`Telemetry`](crate::Telemetry) type.

use crate::engine::VisitStats;

/// Potential-energy breakdown by n-body term (the paper's Φ₂ + Φ₃ + Φ₄,
/// Eq. 2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Pair-term energy Φ₂.
    pub pair: f64,
    /// Triplet-term energy Φ₃.
    pub triplet: f64,
    /// Quadruplet-term energy Φ₄.
    pub quadruplet: f64,
}

impl EnergyBreakdown {
    /// Total potential energy.
    pub fn total(&self) -> f64 {
        self.pair + self.triplet + self.quadruplet
    }

    /// The order-`n` term's energy (n = 2, 3, 4).
    pub fn term_mut(&mut self, n: usize) -> &mut f64 {
        match n {
            2 => &mut self.pair,
            3 => &mut self.triplet,
            4 => &mut self.quadruplet,
            n => panic!("no n = {n} energy term"),
        }
    }

    /// Adds `o` term by term.
    pub fn merge(&mut self, o: EnergyBreakdown) {
        self.pair += o.pair;
        self.triplet += o.triplet;
        self.quadruplet += o.quadruplet;
    }
}

/// Search statistics per tuple order — the measurable form of the paper's
/// search-cost analysis (Fig. 7 plots `accepted` for n = 3; `candidates`
/// is the `|S_cell|` sum of Eq. 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TupleCounts {
    /// Pair-search statistics.
    pub pair: VisitStats,
    /// Triplet-search statistics.
    pub triplet: VisitStats,
    /// Quadruplet-search statistics.
    pub quadruplet: VisitStats,
}

impl TupleCounts {
    /// Total candidates across all tuple orders.
    pub fn total_candidates(&self) -> u64 {
        self.pair.candidates + self.triplet.candidates + self.quadruplet.candidates
    }

    /// Total accepted tuples across all orders.
    pub fn total_accepted(&self) -> u64 {
        self.pair.accepted + self.triplet.accepted + self.quadruplet.accepted
    }

    /// The order-`n` search statistics (n = 2, 3, 4).
    pub fn term_mut(&mut self, n: usize) -> &mut VisitStats {
        match n {
            2 => &mut self.pair,
            3 => &mut self.triplet,
            4 => &mut self.quadruplet,
            n => panic!("no n = {n} tuple order"),
        }
    }

    /// Adds `o` order by order.
    pub fn merge(&mut self, o: TupleCounts) {
        self.pair.merge(o.pair);
        self.triplet.merge(o.triplet);
        self.quadruplet.merge(o.quadruplet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let e = EnergyBreakdown { pair: 1.0, triplet: 2.0, quadruplet: 3.0 };
        assert_eq!(e.total(), 6.0);
        let t = TupleCounts {
            pair: VisitStats { candidates: 10, accepted: 4 },
            triplet: VisitStats { candidates: 100, accepted: 7 },
            quadruplet: VisitStats::default(),
        };
        assert_eq!(t.total_candidates(), 110);
        assert_eq!(t.total_accepted(), 11);
    }
}
