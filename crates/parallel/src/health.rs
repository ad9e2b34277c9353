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
//! Healthy --consecutive failures >= suspect_after--> Suspect
//! Suspect --first successful delivery-------------> Healthy   (a "flap")
//! Suspect --consecutive failures >= dead_after----> Dead
//! Suspect --flaps in window > max_flaps-----------> Dead      (breaker trip)
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
//! `1 + MAX_RETRIES` attempts, so `suspect_after` equal to that marks a rank
//! suspect the first time it wedges a step, and `dead_after` of several
//! budgets distinguishes a long-but-bounded stall (which drains) from a
//! crash (which does not).

use sc_obs::CommChannel;

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

/// Thresholds for the health state machine. All counts are consecutive
/// failed delivery attempts; the flap window is in steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Consecutive failures before `Healthy → Suspect`.
    pub suspect_after: u32,
    /// Consecutive failures before `Suspect → Dead`.
    pub dead_after: u32,
    /// `Suspect → Healthy` recoveries tolerated per channel class within
    /// [`HealthConfig::flap_window`] before the circuit breaker declares the
    /// link dead.
    pub max_flaps: u32,
    /// Width (in steps) of the sliding window the breaker counts flaps in.
    pub flap_window: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // suspect_after = one exhausted retry budget (1 + MAX_RETRIES = 3
        // attempts); dead_after = six budgets, comfortably above the longest
        // scripted recoverable stall the tests use (12 attempts) and below
        // the supervisor's default rollback budget for a real crash.
        HealthConfig { suspect_after: 3, dead_after: 18, max_flaps: 4, flap_window: 16 }
    }
}

/// Cumulative transition counts, for observability deltas. Monotonic across
/// [`HealthTracker::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// `Healthy → Suspect` transitions.
    pub suspects: u64,
    /// Declared deaths (deadline expiries and breaker trips).
    pub deaths: u64,
    /// `Suspect → Healthy` recoveries.
    pub recoveries: u64,
    /// Deaths caused by the flap circuit breaker specifically.
    pub breaker_trips: u64,
}

/// The per-rank health state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    config: HealthConfig,
    states: Vec<RankHealth>,
    consecutive: Vec<u32>,
    /// Recent flap steps per rank per channel class (migrate/ghosts/forces).
    flaps: Vec<[Vec<u64>; 3]>,
    counters: HealthCounters,
}

impl HealthTracker {
    /// A tracker for `ranks` peers, all initially healthy.
    pub fn new(ranks: usize, config: HealthConfig) -> Self {
        HealthTracker {
            config,
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
            RankHealth::Healthy if n >= self.config.suspect_after => {
                self.states[rank] = RankHealth::Suspect;
                self.counters.suspects += 1;
                Some(RankHealth::Suspect)
            }
            RankHealth::Suspect if n >= self.config.dead_after => {
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
        window.retain(|&s| s + self.config.flap_window > step);
        window.push(step);
        if window.len() as u32 > self.config.max_flaps {
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

    #[test]
    fn deadline_escalates_healthy_suspect_dead() {
        let mut t = HealthTracker::new(
            4,
            HealthConfig { suspect_after: 2, dead_after: 5, ..Default::default() },
        );
        assert_eq!(t.state(1), RankHealth::Healthy);
        assert_eq!(t.record_failure(1, ch(), 0), None);
        assert_eq!(t.record_failure(1, ch(), 0), Some(RankHealth::Suspect));
        assert_eq!(t.record_failure(1, ch(), 1), None);
        assert_eq!(t.record_failure(1, ch(), 1), None);
        assert_eq!(t.record_failure(1, ch(), 2), Some(RankHealth::Dead));
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
        let mut t = HealthTracker::new(
            2,
            HealthConfig { suspect_after: 2, dead_after: 4, ..Default::default() },
        );
        t.record_failure(0, ch(), 0);
        assert_eq!(t.record_failure(0, ch(), 0), Some(RankHealth::Suspect));
        assert_eq!(t.record_success(0, ch(), 1), Some(RankHealth::Healthy));
        assert_eq!(t.counters().recoveries, 1);
        // The consecutive count restarted: three more failures only reach
        // Suspect, not Dead.
        t.record_failure(0, ch(), 2);
        assert_eq!(t.record_failure(0, ch(), 2), Some(RankHealth::Suspect));
        assert_eq!(t.record_failure(0, ch(), 3), None);
        assert_eq!(t.state(0), RankHealth::Suspect);
    }

    #[test]
    fn flapping_link_trips_the_breaker() {
        let cfg = HealthConfig { suspect_after: 1, dead_after: 100, max_flaps: 2, flap_window: 50 };
        let mut t = HealthTracker::new(2, cfg);
        // Two flaps tolerated, the third within the window trips the breaker.
        for step in 0..2u64 {
            assert_eq!(t.record_failure(1, ch(), step), Some(RankHealth::Suspect));
            assert_eq!(t.record_success(1, ch(), step), Some(RankHealth::Healthy));
        }
        assert_eq!(t.record_failure(1, ch(), 2), Some(RankHealth::Suspect));
        assert_eq!(t.record_success(1, ch(), 2), Some(RankHealth::Dead));
        assert!(t.is_dead(1));
        let c = t.counters();
        assert_eq!(c.breaker_trips, 1);
        assert_eq!(c.deaths, 1);
        assert_eq!(c.recoveries, 2);
    }

    #[test]
    fn flaps_outside_the_window_are_forgotten() {
        let cfg = HealthConfig { suspect_after: 1, dead_after: 100, max_flaps: 1, flap_window: 10 };
        let mut t = HealthTracker::new(1, cfg);
        t.record_failure(0, ch(), 0);
        assert_eq!(t.record_success(0, ch(), 0), Some(RankHealth::Healthy));
        // Far enough apart, the earlier flap has aged out.
        t.record_failure(0, ch(), 100);
        assert_eq!(t.record_success(0, ch(), 100), Some(RankHealth::Healthy));
        assert!(!t.is_dead(0));
        // But flaps on *different channel classes* do not pool: each class
        // has its own breaker.
        t.record_failure(0, ch(), 101);
        assert_eq!(t.record_success(0, CommChannel::Forces, 101), Some(RankHealth::Healthy));
        assert!(!t.is_dead(0));
    }

    #[test]
    fn reset_clears_states_but_keeps_counters() {
        let mut t = HealthTracker::new(
            3,
            HealthConfig { suspect_after: 1, dead_after: 2, ..Default::default() },
        );
        t.record_failure(2, ch(), 0);
        t.record_failure(2, ch(), 0);
        assert!(t.is_dead(2));
        t.reset(2);
        assert_eq!(t.state(0), RankHealth::Healthy);
        assert_eq!(t.state(1), RankHealth::Healthy);
        assert_eq!(t.dead_ranks(), Vec::<usize>::new());
        assert_eq!(t.counters().deaths, 1, "counters survive the reset");
    }
}
