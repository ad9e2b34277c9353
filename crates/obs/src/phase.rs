//! The phase taxonomy of an MD step and the [`PhaseBreakdown`] value type.
//!
//! The paper's cost model splits a step into compute terms (binning,
//! enumeration, per-tuple evaluation — Eq. 29) and communication terms
//! (atom caching/import, migration, force reduction — Eq. 31/33). Every
//! timing view in this repository, whether a per-lane CPU-time profile or a
//! per-step wall-clock profile, is expressed over the same fixed set of
//! [`Phase`] slots so that views can be merged, exported, and compared.

/// One slot in the per-step phase taxonomy.
///
/// The mapping onto the paper's cost terms:
///
/// | phase       | paper term                                        |
/// |-------------|---------------------------------------------------|
/// | `Bin`       | cell-lattice (re)build — part of Eq. 29 setup     |
/// | `Exchange`  | atom caching / ghost import volume (Eq. 31)       |
/// | `Enumerate` | n-tuple search over SC/FS patterns (Eq. 29)       |
/// | `Eval`      | per-tuple force/energy evaluation (Eq. 29)        |
/// | `Reduce`    | partial-force reduction across lanes/ranks (Eq. 33)|
/// | `Migrate`   | atom migration between rank sub-boxes             |
/// | `Integrate` | velocity-Verlet update (not in the comm model)    |
/// | `Compute`   | aggregate force-compute wall time, for views that |
/// |             | cannot split bin/enumerate/eval (e.g. BSP wall)   |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Cell-lattice (re)build before enumeration.
    Bin,
    /// Ghost/atom exchange with neighbour ranks (import volume).
    Exchange,
    /// Dynamic n-tuple enumeration over the computation pattern.
    Enumerate,
    /// Per-tuple potential evaluation.
    Eval,
    /// Reduction of partial forces (lane merge or rank-to-rank return).
    Reduce,
    /// Owner migration of atoms that left their rank sub-box.
    Migrate,
    /// Time integration (velocity Verlet halves, thermostat).
    Integrate,
    /// Aggregate compute wall time where bin/enumerate/eval are not split.
    Compute,
}

impl Phase {
    /// Number of phases in the taxonomy.
    pub const COUNT: usize = 8;

    /// Every phase, in canonical (export) order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Bin,
        Phase::Exchange,
        Phase::Enumerate,
        Phase::Eval,
        Phase::Reduce,
        Phase::Migrate,
        Phase::Integrate,
        Phase::Compute,
    ];

    /// Stable dense index of this phase (0-based, matches [`Phase::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The phase with the given dense index, inverse of [`Phase::index`].
    pub fn from_index(index: usize) -> Option<Phase> {
        Phase::ALL.get(index).copied()
    }

    /// Lower-case stable name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Bin => "bin",
            Phase::Exchange => "exchange",
            Phase::Enumerate => "enumerate",
            Phase::Eval => "eval",
            Phase::Reduce => "reduce",
            Phase::Migrate => "migrate",
            Phase::Integrate => "integrate",
            Phase::Compute => "compute",
        }
    }
}

/// Seconds spent in each [`Phase`] — the single timing value type shared by
/// the serial engine (per-computation CPU profile), the distributed
/// executors (per-step wall profile and per-rank profiles), and the metrics
/// registry snapshot.
///
/// Replaces the former `StepPhases` (sc-md) and `PhaseTimings`
/// (sc-parallel), which carried overlapping subsets of the same taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    secs: [f64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seconds recorded for `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.secs[phase.index()]
    }

    /// Add `secs` seconds to `phase`.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        self.secs[phase.index()] += secs;
    }

    /// Overwrite the seconds recorded for `phase`.
    pub fn set(&mut self, phase: Phase, secs: f64) {
        self.secs[phase.index()] = secs;
    }

    /// Element-wise accumulate another breakdown into this one.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        for p in Phase::ALL {
            self.secs[p.index()] += other.secs[p.index()];
        }
    }

    /// The seconds accumulated since `earlier`, a previous reading of the
    /// same cumulative breakdown.
    pub fn since(&self, earlier: &PhaseBreakdown) -> PhaseBreakdown {
        let mut delta = *self;
        for p in Phase::ALL {
            delta.secs[p.index()] -= earlier.secs[p.index()];
        }
        delta
    }

    /// Sum over every phase slot.
    pub fn total_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Iterate `(phase, seconds)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, f64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// Cell-binning seconds.
    pub fn bin_s(&self) -> f64 {
        self.get(Phase::Bin)
    }

    /// Ghost-exchange seconds.
    pub fn exchange_s(&self) -> f64 {
        self.get(Phase::Exchange)
    }

    /// Tuple-enumeration seconds.
    pub fn enumerate_s(&self) -> f64 {
        self.get(Phase::Enumerate)
    }

    /// Tuple-evaluation seconds.
    pub fn eval_s(&self) -> f64 {
        self.get(Phase::Eval)
    }

    /// Force-reduction seconds.
    pub fn reduce_s(&self) -> f64 {
        self.get(Phase::Reduce)
    }

    /// Atom-migration seconds.
    pub fn migrate_s(&self) -> f64 {
        self.get(Phase::Migrate)
    }

    /// Integration seconds.
    pub fn integrate_s(&self) -> f64 {
        self.get(Phase::Integrate)
    }

    /// Aggregate compute wall seconds (the [`Phase::Compute`] slot only).
    pub fn compute_s(&self) -> f64 {
        self.get(Phase::Compute)
    }

    /// Total force-compute seconds: the aggregate `Compute` slot plus the
    /// split bin/enumerate/eval slots, whichever a given view filled.
    pub fn compute_total_s(&self) -> f64 {
        self.compute_s() + self.bin_s() + self.enumerate_s() + self.eval_s()
    }

    /// Fraction of the total spent in communication phases
    /// (exchange + migrate + reduce) — the paper's T_comm / T_total.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_s();
        if total <= 0.0 {
            return 0.0;
        }
        (self.exchange_s() + self.migrate_s() + self.reduce_s()) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT);
    }

    #[test]
    fn accumulate_and_totals() {
        let mut a = PhaseBreakdown::new();
        a.add(Phase::Bin, 0.5);
        a.add(Phase::Eval, 1.0);
        let mut b = PhaseBreakdown::new();
        b.add(Phase::Bin, 0.25);
        b.add(Phase::Reduce, 0.25);
        a.accumulate(&b);
        assert_eq!(a.bin_s(), 0.75);
        assert_eq!(a.eval_s(), 1.0);
        assert_eq!(a.reduce_s(), 0.25);
        assert!((a.total_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comm_fraction_matches_paper_split() {
        let mut p = PhaseBreakdown::new();
        p.add(Phase::Compute, 3.0);
        p.add(Phase::Exchange, 0.5);
        p.add(Phase::Migrate, 0.25);
        p.add(Phase::Reduce, 0.25);
        assert!((p.comm_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::new().comm_fraction(), 0.0);
        assert_eq!(p.compute_total_s(), 3.0);
    }
}
