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
//! Suspect --first successful delivery-------------> Healthy   (a "flap")
//! Suspect --consecutive failures >= DEAD_AFTER----> Dead
//! Suspect --flaps in window > MAX_FLAPS-----------> Dead      (breaker trip)
//! ```
//!
//! `Dead` is terminal for the tracker: only [`HealthTracker::reset`] — called
//! when the recovery layer re-decomposes onto the survivors and rank indices
//! are renumbered — clears it. The flap circuit breaker is per
//! `(rank, channel class)`: a link that keeps oscillating between failing
//! and working is as useless as a silent one, and declaring it dead bounds
//! the time the runtime spends re-proving that.
//!
//! The thresholds are measured in *consecutive failed delivery attempts*,
//! which ties them to the executor's retry budget: one exhausted budget is
//! `1 + MAX_RETRIES` attempts, so `SUSPECT_AFTER` equal to that marks a
//! rank suspect the first time it wedges a step, and `DEAD_AFTER` of several
//! budgets distinguishes a long-but-bounded stall (which drains) from a
//! crash (which does not).

use sc_obs::CommChannel;
pub use sc_obs::HealthCounters;

/// Consecutive failures before `Healthy → Suspect`: one exhausted retry
/// budget (`1 + MAX_RETRIES` = 3 attempts).
const SUSPECT_AFTER: u32 = 3;
/// Consecutive failures before `Suspect → Dead`: six budgets, comfortably
/// above the longest scripted recoverable stall the tests use (12 attempts)
/// and below the supervisor's default rollback budget for a real crash.
const DEAD_AFTER: u32 = 18;
/// `Suspect → Healthy` recoveries tolerated per channel class within
/// [`FLAP_WINDOW`] before the circuit breaker declares the link dead.
const MAX_FLAPS: u32 = 4;
/// Width (in steps) of the sliding window the breaker counts flaps in.
const FLAP_WINDOW: u64 = 16;

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
    /// Recent flap steps per rank per channel class (migrate/ghosts/forces).
    flaps: Vec<[Vec<u64>; 3]>,
    counters: HealthCounters,
}

impl HealthTracker {
    /// A tracker for `ranks` peers, all initially healthy.
    pub fn new(ranks: usize) -> Self {
        HealthTracker {
            states: vec![RankHealth::Healthy; ranks],
            consecutive: vec![0; ranks],
            flaps: vec![Default::default(); ranks],
            counters: HealthCounters::default(),
        }
    }

    /// Forgets all per-rank state (used after re-decomposition renumbers the
    /// ranks) while keeping the cumulative counters.
    pub fn reset(&mut self, ranks: usize) {
        self.states = vec![RankHealth::Healthy; ranks];
        self.consecutive = vec![0; ranks];
        self.flaps = vec![Default::default(); ranks];
    }

    /// Current state of `rank`.
    pub fn state(&self, rank: usize) -> RankHealth {
        self.states[rank]
    }

    /// Whether `rank` has been declared dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.states[rank] == RankHealth::Dead
    }

    /// Ranks currently declared dead, in index order.
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&r| self.is_dead(r)).collect()
    }

    /// Cumulative transition counts.
    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// Records one failed delivery attempt from `rank` on `channel` at
    /// `step`. Returns the new state if this failure caused a transition.
    pub fn record_failure(
        &mut self,
        rank: usize,
        _channel: CommChannel,
        _step: u64,
    ) -> Option<RankHealth> {
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

    /// Records one successful delivery from `rank` on `channel` at `step`.
    /// A suspect rank recovers (one flap for the breaker); too many flaps in
    /// the window trips the breaker and the returned state is `Dead`.
    pub fn record_success(
        &mut self,
        rank: usize,
        channel: CommChannel,
        step: u64,
    ) -> Option<RankHealth> {
        if self.states[rank] == RankHealth::Dead {
            return None;
        }
        self.consecutive[rank] = 0;
        if self.states[rank] != RankHealth::Suspect {
            return None;
        }
        let class = match channel {
            CommChannel::Migrate => 0,
            CommChannel::Ghosts => 1,
            CommChannel::Forces => 2,
        };
        let window = &mut self.flaps[rank][class];
        window.retain(|&s| s + FLAP_WINDOW > step);
        window.push(step);
        if window.len() as u32 > MAX_FLAPS {
            self.states[rank] = RankHealth::Dead;
            self.counters.deaths += 1;
            self.counters.breaker_trips += 1;
            Some(RankHealth::Dead)
        } else {
            self.states[rank] = RankHealth::Healthy;
            self.counters.recoveries += 1;
            Some(RankHealth::Healthy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> CommChannel {
        CommChannel::Ghosts
    }

    /// `n` consecutive failed attempts from `rank` at `step`; returns the
    /// transitions they caused.
    fn fail(t: &mut HealthTracker, rank: usize, n: u32, step: u64) -> Vec<RankHealth> {
        (0..n).filter_map(|_| t.record_failure(rank, ch(), step)).collect()
    }

    /// A suspect rank's outage followed by a delivery: one flap.
    fn flap(t: &mut HealthTracker, channel: CommChannel, step: u64) -> Option<RankHealth> {
        assert_eq!(fail(t, 0, SUSPECT_AFTER, step), [RankHealth::Suspect]);
        t.record_success(0, channel, step)
    }

    #[test]
    fn deadline_escalates_healthy_suspect_dead() {
        let mut t = HealthTracker::new(4);
        assert_eq!(t.state(1), RankHealth::Healthy);
        assert_eq!(fail(&mut t, 1, SUSPECT_AFTER - 1, 0), []);
        assert_eq!(fail(&mut t, 1, 1, 0), [RankHealth::Suspect]);
        assert_eq!(fail(&mut t, 1, DEAD_AFTER - SUSPECT_AFTER - 1, 1), []);
        assert_eq!(fail(&mut t, 1, 1, 2), [RankHealth::Dead]);
        assert!(t.is_dead(1));
        // Terminal: neither more failures nor a late success changes it.
        assert_eq!(t.record_failure(1, ch(), 3), None);
        assert_eq!(t.record_success(1, ch(), 3), None);
        assert!(t.is_dead(1));
        assert_eq!(t.dead_ranks(), vec![1]);
        // Other ranks unaffected.
        assert_eq!(t.state(0), RankHealth::Healthy);
        let c = t.counters();
        assert_eq!((c.suspects, c.deaths, c.recoveries, c.breaker_trips), (1, 1, 0, 0));
    }

    #[test]
    fn success_recovers_a_suspect_and_resets_the_deadline() {
        let mut t = HealthTracker::new(2);
        assert_eq!(fail(&mut t, 0, SUSPECT_AFTER, 0), [RankHealth::Suspect]);
        assert_eq!(t.record_success(0, ch(), 1), Some(RankHealth::Healthy));
        assert_eq!(t.counters().recoveries, 1);
        // The consecutive count restarted: one failure short of the deadline
        // again only reaches Suspect, though the run has now failed more
        // often than that in total.
        assert_eq!(fail(&mut t, 0, DEAD_AFTER - 1, 2), [RankHealth::Suspect]);
        assert_eq!(t.state(0), RankHealth::Suspect);
    }

    #[test]
    fn flapping_link_trips_the_breaker() {
        let mut t = HealthTracker::new(2);
        // MAX_FLAPS flaps are tolerated, the next within the window trips
        // the breaker.
        for step in 0..u64::from(MAX_FLAPS) {
            assert_eq!(flap(&mut t, ch(), step), Some(RankHealth::Healthy));
        }
        assert_eq!(flap(&mut t, ch(), u64::from(MAX_FLAPS)), Some(RankHealth::Dead));
        assert!(t.is_dead(0));
        let c = t.counters();
        assert_eq!(c.breaker_trips, 1);
        assert_eq!(c.deaths, 1);
        assert_eq!(c.recoveries, u64::from(MAX_FLAPS));
    }

    #[test]
    fn flaps_outside_the_window_are_forgotten() {
        let mut t = HealthTracker::new(1);
        for step in 0..u64::from(MAX_FLAPS) {
            assert_eq!(flap(&mut t, ch(), step), Some(RankHealth::Healthy));
        }
        // One window later, the earlier flaps have aged out.
        let later = u64::from(MAX_FLAPS) + FLAP_WINDOW;
        assert_eq!(flap(&mut t, ch(), later), Some(RankHealth::Healthy));
        // But flaps on *different channel classes* do not pool: each class
        // has its own breaker.
        for _ in 0..MAX_FLAPS {
            assert_eq!(flap(&mut t, CommChannel::Forces, later), Some(RankHealth::Healthy));
        }
        assert!(!t.is_dead(0));
    }

    #[test]
    fn reset_clears_states_but_keeps_counters() {
        let mut t = HealthTracker::new(3);
        assert_eq!(fail(&mut t, 2, DEAD_AFTER, 0), [RankHealth::Suspect, RankHealth::Dead]);
        assert!(t.is_dead(2));
        t.reset(2);
        assert_eq!(t.state(0), RankHealth::Healthy);
        assert_eq!(t.state(1), RankHealth::Healthy);
        assert_eq!(t.dead_ranks(), Vec::<usize>::new());
        assert_eq!(t.counters().deaths, 1, "counters survive the reset");
    }
}
