//! Communication plans and accounting.
//!
//! The accounting types live in `sc-obs` so the engine, the exporters and
//! the benchmark share one vocabulary:
//! [`sc_obs::CommCounters`] (re-exported here) for the empirical
//! counterpart of Eq. 31 (`T_comm = c_bw·V_import + c_lat·n_msg`) and
//! [`sc_obs::PhaseBreakdown`] for the Eq. 30 wall-clock decomposition.

use crate::error::SetupError;
use sc_md::Method;
use serde::{Deserialize, Serialize};

pub use sc_obs::CommCounters;

/// One routing hop: `(axis, recv_dir)` — the rank receives ghosts from its
/// `recv_dir` neighbour along `axis` (and therefore *sends* its own boundary
/// band to the `-recv_dir` neighbour).
pub type Hop = (usize, i32);

/// The halo-exchange plan of a method: slab widths and the forwarded
/// routing schedule.
///
/// * SC-MD: ghosts only from the + side (first-octant import, Eq. 33),
///   3 hops — "we only need to import atom data from 7 nearest processors
///   using only 3 communication steps via forwarded atom-data routing"
///   (§4.2).
/// * FS-MD / Hybrid-MD: ghosts from both sides, 6 hops, reaching all 26
///   neighbours (the paper notes Hybrid's import volume equals FS's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GhostPlan {
    /// Ghost slab width below the owned box per axis (real distance).
    pub lo_width: f64,
    /// Ghost slab width above the owned box per axis.
    pub hi_width: f64,
    /// The routing schedule.
    pub hops: Vec<Hop>,
}

impl GhostPlan {
    /// Builds the plan for a method. `halo_width` is the real-space import
    /// depth `max_n (n−1)·cell_edge_n` over the active terms.
    ///
    /// # Errors
    /// [`SetupError::NonPositiveHalo`] when `halo_width` is not a positive
    /// finite number (no active term, a zero cutoff, or a propagated NaN).
    pub fn for_method(method: Method, halo_width: f64) -> Result<Self, SetupError> {
        if !(halo_width > 0.0 && halo_width.is_finite()) {
            return Err(SetupError::NonPositiveHalo { width: halo_width });
        }
        let lo_width = if method == Method::ShiftCollapse { 0.0 } else { halo_width };
        Ok(GhostPlan { lo_width, hi_width: halo_width, hops: GhostPlan::route(method) })
    }

    /// The routing schedule of `method`'s import, whatever its width: SC's
    /// three one-sided hops, FS's and Hybrid's six.
    pub(crate) fn route(method: Method) -> Vec<Hop> {
        match method {
            Method::ShiftCollapse => vec![(0, 1), (1, 1), (2, 1)],
            Method::FullShell | Method::Hybrid => {
                vec![(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]
            }
        }
    }

    /// Number of communication steps per halo exchange.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_obs::{Phase, PhaseBreakdown};

    #[test]
    fn phase_breakdown_keeps_the_paper_decomposition() {
        let mut t = PhaseBreakdown::new();
        t.add(Phase::Migrate, 1.0);
        t.add(Phase::Exchange, 2.0);
        t.add(Phase::Compute, 5.0);
        t.add(Phase::Reduce, 1.0);
        t.add(Phase::Integrate, 1.0);
        assert_eq!(t.total_s(), 10.0);
        assert!((t.comm_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().comm_fraction(), 0.0);
    }

    #[test]
    fn sc_plan_is_one_sided_three_hops() {
        let p = GhostPlan::for_method(Method::ShiftCollapse, 2.5).unwrap();
        assert_eq!(p.lo_width, 0.0);
        assert_eq!(p.hi_width, 2.5);
        assert_eq!(p.hop_count(), 3);
        assert!(p.hops.iter().all(|&(_, d)| d == 1));
    }

    #[test]
    fn fs_plan_is_two_sided_six_hops() {
        for m in [Method::FullShell, Method::Hybrid] {
            let p = GhostPlan::for_method(m, 2.5).unwrap();
            assert_eq!(p.lo_width, 2.5);
            assert_eq!(p.hi_width, 2.5);
            assert_eq!(p.hop_count(), 6);
        }
    }

    #[test]
    fn degenerate_halo_is_rejected_typed() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = GhostPlan::for_method(Method::ShiftCollapse, bad).unwrap_err();
            assert!(matches!(err, SetupError::NonPositiveHalo { .. }), "width {bad}: {err}");
        }
    }

    #[test]
    fn stats_accounting() {
        let mut s = CommCounters::default();
        s.record_send(3, 100);
        s.record_send(3, 50);
        s.record_send(5, 10);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 160);
        assert_eq!(s.partners.len(), 2);
        let mut t = CommCounters::default();
        t.record_send(7, 1);
        t.merge(&s);
        assert_eq!(t.messages, 4);
        assert_eq!(t.partners.len(), 3);
    }
}
