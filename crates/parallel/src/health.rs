//! Per-rank health tracking: the deadline watchdog that separates a
//! recoverable stall from a permanently dead rank.
//!
//! Transient faults (drop / delay / corrupt / bounded stall) are absorbed by
//! the validated-retry path and, when the retry budget is exhausted, by a
//! supervisor rollback. A *crashed* rank defeats both: every replay delivers
//! into the same silence. The engine therefore feeds every delivery
//! outcome into a [`HealthTracker`], which runs a three-state machine per
//! peer rank:
//!
//! ```text
//! Healthy --consecutive failures >= SUSPECT_AFTER--> Suspect
//! Suspect --first successful delivery-------------> Healthy
//! Suspect --consecutive failures >= DEAD_AFTER----> Dead
//! ```
//!
//! `Dead` is terminal for the tracker: only [`HealthTracker::reset`] — called
//! when the recovery layer re-decomposes onto the survivors and rank indices
//! are renumbered — clears it. The deadline is the only death verdict: a
//! link that fails and then delivers is making progress however often it
//! does so, and the supervisor's per-interval rollback budget is what bounds
//! the time spent re-proving a bad one (the run then ends typed).
//!
//! The thresholds are measured in *consecutive failed delivery attempts*,
//! which ties them to the executor's retry budget: one exhausted budget is
//! `1 + MAX_RETRIES` attempts, so `SUSPECT_AFTER` equal to that marks a
//! rank suspect the first time it wedges a step, and `DEAD_AFTER` of several
//! budgets distinguishes a long-but-bounded stall (which drains) from a
//! crash (which does not).

pub use sc_obs::HealthCounters;

/// Consecutive failures before `Healthy → Suspect`: one exhausted retry
/// budget (`1 + MAX_RETRIES` = 3 attempts).
const SUSPECT_AFTER: u32 = 3;
/// Consecutive failures before `Suspect → Dead`: six budgets, comfortably
/// above the longest scripted recoverable stall the tests use (12 attempts)
/// and below the supervisor's default rollback budget for a real crash.
const DEAD_AFTER: u32 = 18;

/// Health state of one peer rank, as seen by the delivery watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankHealth {
    /// Deliveries from the rank are succeeding.
    Healthy,
    /// The rank has missed enough consecutive deliveries to be on the
    /// deadline watchlist, but may still recover.
    Suspect,
    /// The rank is declared permanently dead; only re-decomposition over
    /// the survivors (which resets the tracker) recovers.
    Dead,
}

impl RankHealth {
    /// Stable wire code for trace events (0 healthy, 1 suspect, 2 dead).
    pub fn code(self) -> u8 {
        match self {
            RankHealth::Healthy => 0,
            RankHealth::Suspect => 1,
            RankHealth::Dead => 2,
        }
    }
}

/// The per-rank health state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    states: Vec<RankHealth>,
    consecutive: Vec<u32>,
    counters: HealthCounters,
}

impl HealthTracker {
    /// A tracker for `ranks` peers, all initially healthy.
    pub fn new(ranks: usize) -> Self {
        HealthTracker {
            states: vec![RankHealth::Healthy; ranks],
            consecutive: vec![0; ranks],
            counters: HealthCounters::default(),
        }
    }

    /// Forgets all per-rank state (used after re-decomposition renumbers the
    /// ranks) while keeping the cumulative counters.
    pub fn reset(&mut self, ranks: usize) {
        self.states = vec![RankHealth::Healthy; ranks];
        self.consecutive = vec![0; ranks];
    }

    /// Current state of `rank`.
    pub fn state(&self, rank: usize) -> RankHealth {
        self.states[rank]
    }

    /// Whether `rank` has been declared dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.states[rank] == RankHealth::Dead
    }

    /// Cumulative transition counts.
    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// Records one failed delivery attempt from `rank`. Returns the new
    /// state if this failure caused a transition.
    pub fn record_failure(&mut self, rank: usize) -> Option<RankHealth> {
        if self.states[rank] == RankHealth::Dead {
            return None;
        }
        self.consecutive[rank] = self.consecutive[rank].saturating_add(1);
        let n = self.consecutive[rank];
        match self.states[rank] {
            RankHealth::Healthy if n >= SUSPECT_AFTER => {
                self.states[rank] = RankHealth::Suspect;
                self.counters.suspects += 1;
                Some(RankHealth::Suspect)
            }
            RankHealth::Suspect if n >= DEAD_AFTER => {
                self.states[rank] = RankHealth::Dead;
                self.counters.deaths += 1;
                Some(RankHealth::Dead)
            }
            _ => None,
        }
    }

    /// Records one successful delivery from `rank`: a suspect rank
    /// recovers. Returns the new state if this delivery caused a transition.
    pub fn record_success(&mut self, rank: usize) -> Option<RankHealth> {
        self.consecutive[rank] = 0;
        if self.states[rank] != RankHealth::Suspect {
            return None;
        }
        self.states[rank] = RankHealth::Healthy;
        self.counters.recoveries += 1;
        Some(RankHealth::Healthy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` consecutive failed attempts from `rank`; returns the
    /// transitions they caused.
    fn fail(t: &mut HealthTracker, rank: usize, n: u32) -> Vec<RankHealth> {
        (0..n).filter_map(|_| t.record_failure(rank)).collect()
    }

    #[test]
    fn deadline_escalates_healthy_suspect_dead() {
        let mut t = HealthTracker::new(4);
        assert_eq!(t.state(1), RankHealth::Healthy);
        assert_eq!(fail(&mut t, 1, SUSPECT_AFTER - 1), []);
        assert_eq!(fail(&mut t, 1, 1), [RankHealth::Suspect]);
        assert_eq!(fail(&mut t, 1, DEAD_AFTER - SUSPECT_AFTER - 1), []);
        assert_eq!(fail(&mut t, 1, 1), [RankHealth::Dead]);
        assert!(t.is_dead(1));
        // Terminal: neither more failures nor a late success changes it.
        assert_eq!(t.record_failure(1), None);
        assert_eq!(t.record_success(1), None);
        assert!(t.is_dead(1));
        // Other ranks unaffected.
        assert_eq!(t.state(0), RankHealth::Healthy);
        let c = t.counters();
        assert_eq!((c.suspects, c.deaths, c.recoveries), (1, 1, 0));
    }

    #[test]
    fn success_recovers_a_suspect_and_resets_the_deadline() {
        let mut t = HealthTracker::new(2);
        assert_eq!(fail(&mut t, 0, SUSPECT_AFTER), [RankHealth::Suspect]);
        assert_eq!(t.record_success(0), Some(RankHealth::Healthy));
        assert_eq!(t.counters().recoveries, 1);
        // The consecutive count restarted: one failure short of the deadline
        // again only reaches Suspect, though the run has now failed more
        // often than that in total.
        assert_eq!(fail(&mut t, 0, DEAD_AFTER - 1), [RankHealth::Suspect]);
        assert_eq!(t.state(0), RankHealth::Suspect);
        // However often a link fails and recovers, it is never declared dead.
        for _ in 0..8 {
            assert_eq!(t.record_success(0), Some(RankHealth::Healthy));
            assert_eq!(fail(&mut t, 0, SUSPECT_AFTER), [RankHealth::Suspect]);
        }
        assert_eq!((t.counters().recoveries, t.counters().deaths), (9, 0));
    }

    #[test]
    fn reset_clears_states_but_keeps_counters() {
        let mut t = HealthTracker::new(3);
        assert_eq!(fail(&mut t, 2, DEAD_AFTER), [RankHealth::Suspect, RankHealth::Dead]);
        assert!(t.is_dead(2));
        t.reset(2);
        assert_eq!(t.state(0), RankHealth::Healthy);
        assert_eq!(t.state(1), RankHealth::Healthy);
        assert!((0..2).all(|r| !t.is_dead(r)));
        assert_eq!(t.counters().deaths, 1, "counters survive the reset");
    }
}
