//! Fault-recovery supervision: per-step physics guardrails plus
//! checkpoint/rollback orchestration over any [`Recoverable`] engine.
//!
//! The supervisor sits between a driver loop and a simulation. After every
//! step it checks invariants no healthy MD trajectory violates — finite
//! state and a conserved atom count — and on a violation *or* an
//! unrecovered communication fault it rolls the engine back to the last
//! [`Checkpoint`] and replays. Engines stay decoupled:
//! the one engine in `sc-parallel` implements [`Recoverable`], and so does
//! the spec layer's run handle around it.
//!
//! The escalation ladder, mildest rung first:
//!
//! 1. **rollback** — replay the interval from the last checkpoint, budgeted
//!    by [`SupervisorConfig::max_rollbacks`];
//! 2. **re-decomposition** — a fault naming a permanently dead rank
//!    ([`StepFault::dead_rank`]) skips the rollback loop entirely and
//!    restores the last checkpoint onto the surviving ranks
//!    ([`Recoverable::restore_excluding`]), budgeted by
//!    [`SupervisorConfig::max_redecompositions`];
//! 3. **abort** — budgets exhausted; [`SupervisorError`] carries the
//!    diagnostics.

use crate::checkpoint::Checkpoint;
use sc_obs::trace::EventKind;
use sc_obs::{Registry, TraceSink, Tracer};
use std::fmt;

/// An unrecovered fault surfaced by [`Recoverable::try_step`]: what the
/// supervisor's recovery ladder needs to know about it, whatever engine
/// raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepFault {
    /// The engine's own description of the fault.
    pub message: String,
    /// When the fault means a rank is permanently dead (rollback cannot
    /// help — replaying delivers into the same silence), that rank's
    /// index. `None` routes the fault down the rollback path.
    pub dead_rank: Option<usize>,
}

impl fmt::Display for StepFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for StepFault {}

/// An engine the [`Supervisor`] can drive, roll back, and re-decompose.
/// Object-safe: the spec layer drives every engine as one boxed trait
/// object.
pub trait Recoverable {
    /// Advances one step, surfacing unrecovered faults. After an `Err` the
    /// engine state is unspecified; [`restore`](Recoverable::restore) must
    /// run before the next step.
    fn try_step(&mut self) -> Result<(), StepFault>;

    /// Snapshots the full phase-space state.
    fn checkpoint(&self) -> Checkpoint;

    /// Rewinds to a snapshot taken by [`checkpoint`](Recoverable::checkpoint).
    fn restore(&mut self, cp: &Checkpoint);

    /// Atoms currently in the simulation (conserved in a healthy run).
    fn atom_count(&self) -> usize;

    /// Total energy from the most recent force computation (no recompute).
    /// The supervisor does not read it; drivers do, to measure NVE drift
    /// over a supervised run.
    fn total_energy_estimate(&self) -> f64;

    /// Whether all positions, velocities, and forces are finite.
    fn state_is_finite(&self) -> bool;

    /// Steps completed.
    fn steps_done(&self) -> u64;

    /// Restores `cp` onto a decomposition that excludes `exclude`,
    /// re-partitioning the snapshot over the survivors. Engines that cannot
    /// re-decompose keep the default, which refuses (the supervisor then
    /// aborts with [`SupervisorError::RankLost`]).
    ///
    /// # Errors
    /// A human-readable reason re-decomposition is impossible (no feasible
    /// surviving grid, unsupported engine, …).
    fn restore_excluding(&mut self, _cp: &Checkpoint, _exclude: &[usize]) -> Result<(), String> {
        Err("engine does not support re-decomposition onto survivors".to_string())
    }
}

/// Supervision policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Steps between checkpoints.
    pub checkpoint_every: u64,
    /// Consecutive rollbacks (without completing a checkpoint interval)
    /// before giving up.
    pub max_rollbacks: u32,
    /// Re-decompositions onto a surviving rank set before giving up (each
    /// lost rank spends one).
    pub max_redecompositions: u32,
    /// Metrics registry the supervisor reports recovery events into
    /// (`supervisor.checkpoints_saved`, `supervisor.rollbacks`,
    /// `supervisor.comm_faults`, `supervisor.invariant_violations`).
    /// Disabled by default — [`RecoveryStats`] stays authoritative either
    /// way.
    pub metrics: Registry,
    /// Event tracer recovery markers (checkpoint / rollback / fault) are
    /// emitted into, stamped with the engine's current step. Disabled by
    /// default.
    pub tracer: Tracer,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_every: 10,
            max_rollbacks: 8,
            max_redecompositions: 2,
            metrics: Registry::disabled(),
            tracer: Tracer::disabled(),
        }
    }
}

/// Recovery accounting, the supervision counterpart of the per-step
/// [`crate::Telemetry`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken.
    pub checkpoints_saved: u64,
    /// Rollback-and-replay events.
    pub rollbacks: u64,
    /// Rollbacks caused by unrecovered communication faults.
    pub comm_faults: u64,
    /// Rollbacks caused by physics-invariant violations.
    pub invariant_violations: u64,
    /// Re-decompositions onto a surviving rank set after a rank death.
    pub redecompositions: u64,
    /// Ranks excluded across all re-decompositions.
    pub ranks_lost: u64,
}

/// Why supervision gave up.
#[derive(Debug)]
pub enum SupervisorError {
    /// The engine kept faulting: the rollback budget was exhausted without
    /// completing a checkpoint interval.
    RollbacksExhausted {
        /// Rollbacks spent on the failing interval.
        rollbacks: u32,
        /// Description of the final fault or violation.
        last_fault: String,
    },
    /// A rank died and recovery by re-decomposition was impossible (budget
    /// exhausted or the engine/grid cannot shrink further).
    RankLost {
        /// The dead rank.
        rank: usize,
        /// Why re-decomposition could not proceed.
        detail: String,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::RollbacksExhausted { rollbacks, last_fault } => {
                write!(f, "gave up after {rollbacks} rollbacks; last fault: {last_fault}")
            }
            SupervisorError::RankLost { rank, detail } => {
                write!(f, "rank {rank} lost and not recoverable: {detail}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Drives a [`Recoverable`] engine with guardrails and rollback recovery.
pub struct Supervisor {
    config: SupervisorConfig,
    /// The supervisor's event sink (tagged rank 0, lane
    /// [`u32::MAX`] so recovery markers sit on their own timeline row).
    tsink: TraceSink,
    stats: RecoveryStats,
    last_good: Option<Checkpoint>,
    /// Atom count captured at the first checkpoint (the conservation
    /// baseline).
    baseline_atoms: Option<usize>,
    /// Rollbacks since the last completed checkpoint interval.
    consecutive_rollbacks: u32,
    /// Re-decompositions performed so far (spends the budget).
    redecompositions: u32,
}

impl Supervisor {
    /// Creates a supervisor with the given policy.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            tsink: config.tracer.sink(0, u32::MAX),
            config,
            stats: RecoveryStats::default(),
            last_good: None,
            baseline_atoms: None,
            consecutive_rollbacks: 0,
            redecompositions: 0,
        }
    }

    /// Recovery accounting so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    fn save_checkpoint<S: Recoverable>(&mut self, sim: &S) {
        let cp = sim.checkpoint();
        self.baseline_atoms.get_or_insert(sim.atom_count());
        self.last_good = Some(cp);
        self.stats.checkpoints_saved += 1;
        self.config.metrics.counter("supervisor.checkpoints_saved").inc();
        self.tsink.instant(sim.steps_done(), EventKind::Checkpoint);
        self.consecutive_rollbacks = 0;
    }

    /// The physics guardrails; `None` means the step looks healthy.
    fn invariant_violation<S: Recoverable>(&self, sim: &S) -> Option<String> {
        if !sim.state_is_finite() {
            return Some("non-finite position, velocity, or force".to_string());
        }
        if let Some(base) = self.baseline_atoms {
            let now = sim.atom_count();
            if now != base {
                return Some(format!("atom count changed: {base} -> {now}"));
            }
        }
        None
    }

    fn rollback<S: Recoverable>(
        &mut self,
        sim: &mut S,
        physics: bool,
        why: String,
    ) -> Result<(), SupervisorError> {
        if self.consecutive_rollbacks >= self.config.max_rollbacks {
            return Err(SupervisorError::RollbacksExhausted {
                rollbacks: self.consecutive_rollbacks,
                last_fault: why,
            });
        }
        self.consecutive_rollbacks += 1;
        self.stats.rollbacks += 1;
        self.config.metrics.counter("supervisor.rollbacks").inc();
        self.tsink.instant(sim.steps_done(), EventKind::Rollback);
        if !physics {
            self.tsink.instant(sim.steps_done(), EventKind::Fault);
        }
        if physics {
            self.stats.invariant_violations += 1;
            self.config.metrics.counter("supervisor.invariant_violations").inc();
        } else {
            self.stats.comm_faults += 1;
            self.config.metrics.counter("supervisor.comm_faults").inc();
        }
        sim.restore(self.last_good.as_ref().expect("rollback without a checkpoint"));
        Ok(())
    }

    /// Recovery for a permanently dead rank: restore the last checkpoint
    /// onto the surviving rank set. Rollback is pointless here (every
    /// replay delivers into the same dead rank), so this rung neither
    /// spends nor requires rollback budget — and a successful
    /// re-decomposition resets it, since the failing rank is gone.
    fn handle_dead_rank<S: Recoverable>(
        &mut self,
        sim: &mut S,
        rank: usize,
        why: String,
    ) -> Result<(), SupervisorError> {
        if self.redecompositions >= self.config.max_redecompositions {
            return Err(SupervisorError::RankLost {
                rank,
                detail: format!(
                    "re-decomposition budget ({}) exhausted; {why}",
                    self.config.max_redecompositions
                ),
            });
        }
        let cp = self.last_good.clone().expect("dead-rank recovery without a checkpoint");
        self.tsink.instant(sim.steps_done(), EventKind::Redecompose { rank: rank as u32 });
        sim.restore_excluding(&cp, &[rank])
            .map_err(|detail| SupervisorError::RankLost { rank, detail })?;
        self.redecompositions += 1;
        self.stats.redecompositions += 1;
        self.stats.ranks_lost += 1;
        self.config.metrics.counter("supervisor.redecompositions").inc();
        self.consecutive_rollbacks = 0;
        Ok(())
    }

    /// Runs `steps` supervised steps on top of wherever `sim` currently is.
    /// Takes an initial checkpoint if none exists yet, then steps, checks,
    /// and recovers until the target step count is reached.
    ///
    /// # Errors
    /// [`SupervisorError::RollbacksExhausted`] when the same checkpoint
    /// interval keeps failing, [`SupervisorError::RankLost`] when a dead
    /// rank cannot be re-decomposed away.
    pub fn run<S: Recoverable>(&mut self, sim: &mut S, steps: u64) -> Result<(), SupervisorError> {
        if self.last_good.is_none() {
            self.save_checkpoint(sim);
        }
        let target = sim.steps_done() + steps;
        while sim.steps_done() < target {
            match sim.try_step() {
                Ok(()) => {
                    if let Some(why) = self.invariant_violation(sim) {
                        self.rollback(sim, true, why)?;
                        continue;
                    }
                    let since = sim.steps_done() - self.last_good.as_ref().map_or(0, |cp| cp.step);
                    if since >= self.config.checkpoint_every {
                        self.save_checkpoint(sim);
                    }
                }
                Err(StepFault { message, dead_rank: Some(rank) }) => {
                    self.handle_dead_rank(sim, rank, message)?;
                }
                Err(StepFault { message, dead_rank: None }) => {
                    self.rollback(sim, false, message)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_geom::Vec3;

    fn comm_fault(message: &str) -> StepFault {
        StepFault { message: message.to_string(), dead_rank: None }
    }

    fn dead(rank: usize) -> StepFault {
        StepFault { message: format!("rank {rank} dead"), dead_rank: Some(rank) }
    }

    /// A scriptable engine: a step counter with injectable comm faults and
    /// one-shot invariant violations.
    struct MockSim {
        step: u64,
        dt: f64,
        atoms: usize,
        finite: bool,
        /// Steps whose `try_step` fails once (consumed on trigger).
        comm_fail_at: Vec<u64>,
        /// Steps after which the state turns non-finite once.
        blowup_at: Vec<u64>,
        /// `(step, rank)` pairs: stepping at `step` reports `rank` dead
        /// (consumed when the supervisor excludes the rank).
        dead_at: Vec<(u64, usize)>,
        /// When set, every step reports this rank dead (budget tests).
        always_dead: Option<usize>,
        /// When true, every step fails (for budget-exhaustion tests).
        always_fail: bool,
        /// Whether the mock honours `restore_excluding`.
        can_redecompose: bool,
        restores: u32,
        excluded: Vec<usize>,
    }

    impl MockSim {
        fn new() -> Self {
            MockSim {
                step: 0,
                dt: 1.0,
                atoms: 100,
                finite: true,
                comm_fail_at: vec![],
                blowup_at: vec![],
                dead_at: vec![],
                always_dead: None,
                always_fail: false,
                can_redecompose: true,
                restores: 0,
                excluded: vec![],
            }
        }
    }

    impl Recoverable for MockSim {
        fn try_step(&mut self) -> Result<(), StepFault> {
            if self.always_fail {
                return Err(comm_fault("persistent fault"));
            }
            if let Some(r) = self.always_dead {
                return Err(dead(r));
            }
            if let Some(&(_, r)) = self.dead_at.iter().find(|&&(s, _)| s == self.step) {
                return Err(dead(r));
            }
            if let Some(i) = self.comm_fail_at.iter().position(|&s| s == self.step) {
                self.comm_fail_at.swap_remove(i);
                return Err(comm_fault("scripted comm fault"));
            }
            self.step += 1;
            if let Some(i) = self.blowup_at.iter().position(|&s| s == self.step) {
                self.blowup_at.swap_remove(i);
                self.finite = false;
            }
            Ok(())
        }
        fn checkpoint(&self) -> Checkpoint {
            Checkpoint {
                layout: crate::checkpoint::SnapshotLayout::Serial,
                label: String::new(),
                step: self.step,
                dt: self.dt,
                box_lengths: Vec3::splat(1.0),
                species_masses: vec![1.0],
                ids: vec![],
                species: vec![],
                positions: vec![],
                velocities: vec![],
                forces: vec![],
            }
        }
        fn restore(&mut self, cp: &Checkpoint) {
            self.step = cp.step;
            self.dt = cp.dt;
            self.finite = true;
            self.restores += 1;
        }
        fn atom_count(&self) -> usize {
            self.atoms
        }
        fn total_energy_estimate(&self) -> f64 {
            0.0
        }
        fn state_is_finite(&self) -> bool {
            self.finite
        }
        fn steps_done(&self) -> u64 {
            self.step
        }
        fn restore_excluding(&mut self, cp: &Checkpoint, exclude: &[usize]) -> Result<(), String> {
            if !self.can_redecompose {
                return Err("mock cannot shrink".to_string());
            }
            self.excluded.extend_from_slice(exclude);
            self.dead_at.retain(|(_, r)| !exclude.contains(r));
            self.step = cp.step;
            self.dt = cp.dt;
            self.finite = true;
            self.restores += 1;
            Ok(())
        }
    }

    #[test]
    fn clean_run_checkpoints_and_finishes() {
        let mut sim = MockSim::new();
        let mut sup =
            Supervisor::new(SupervisorConfig { checkpoint_every: 5, ..Default::default() });
        sup.run(&mut sim, 20).unwrap();
        assert_eq!(sim.step, 20);
        // 1 initial + at steps 5, 10, 15, 20.
        assert_eq!(sup.stats().checkpoints_saved, 5);
        assert_eq!(sup.stats().rollbacks, 0);
    }

    #[test]
    fn comm_fault_rolls_back_and_replays() {
        let reg = Registry::new();
        let mut sim = MockSim::new();
        sim.comm_fail_at = vec![7];
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint_every: 5,
            metrics: reg.clone(),
            ..Default::default()
        });
        sup.run(&mut sim, 10).unwrap();
        assert_eq!(sim.step, 10);
        assert_eq!(sim.restores, 1);
        let s = sup.stats();
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.comm_faults, 1);
        assert_eq!(s.invariant_violations, 0);
        // The registry mirrors RecoveryStats.
        assert_eq!(reg.counter("supervisor.rollbacks").get(), 1);
        assert_eq!(reg.counter("supervisor.comm_faults").get(), 1);
        assert_eq!(reg.counter("supervisor.invariant_violations").get(), 0);
        assert_eq!(reg.counter("supervisor.checkpoints_saved").get(), s.checkpoints_saved);
    }

    #[test]
    fn recovery_markers_reach_the_tracer() {
        let tracer = Tracer::new();
        let mut sim = MockSim::new();
        sim.comm_fail_at = vec![3];
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint_every: 2,
            tracer: tracer.clone(),
            ..Default::default()
        });
        sup.run(&mut sim, 6).unwrap();
        let events = tracer.events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(EventKind::Checkpoint), sup.stats().checkpoints_saved);
        assert_eq!(count(EventKind::Rollback), sup.stats().rollbacks);
        assert_eq!(count(EventKind::Fault), sup.stats().comm_faults);
        // Markers live on the supervisor's own timeline row.
        assert!(events.iter().all(|e| e.rank == 0 && e.lane == u32::MAX));
    }

    #[test]
    fn rollback_budget_exhaustion_is_terminal() {
        let mut sim = MockSim::new();
        sim.always_fail = true;
        let mut sup = Supervisor::new(SupervisorConfig { max_rollbacks: 3, ..Default::default() });
        let err = sup.run(&mut sim, 5).unwrap_err();
        assert!(matches!(err, SupervisorError::RollbacksExhausted { rollbacks: 3, .. }), "{err}");
        assert_eq!(sup.stats().rollbacks, 3);
    }

    #[test]
    fn dead_rank_triggers_redecomposition_not_rollback() {
        let tracer = Tracer::new();
        let mut sim = MockSim::new();
        sim.dead_at = vec![(4, 2)];
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint_every: 3,
            tracer: tracer.clone(),
            ..Default::default()
        });
        sup.run(&mut sim, 10).unwrap();
        assert_eq!(sim.step, 10);
        assert_eq!(sim.excluded, vec![2]);
        let s = sup.stats();
        assert_eq!(s.redecompositions, 1);
        assert_eq!(s.ranks_lost, 1);
        assert_eq!(s.rollbacks, 0, "rank death takes the re-decomposition rung, not rollback");
        let marks =
            tracer.events().iter().filter(|e| e.kind == EventKind::Redecompose { rank: 2 }).count();
        assert_eq!(marks, 1);
    }

    #[test]
    fn redecomposition_budget_is_terminal() {
        let mut sim = MockSim::new();
        sim.always_dead = Some(1);
        let mut sup =
            Supervisor::new(SupervisorConfig { max_redecompositions: 2, ..Default::default() });
        let err = sup.run(&mut sim, 5).unwrap_err();
        assert!(matches!(err, SupervisorError::RankLost { rank: 1, .. }), "{err}");
        assert!(err.to_string().contains("budget"), "{err}");
        assert_eq!(sup.stats().redecompositions, 2);
    }

    #[test]
    fn engine_refusing_to_shrink_aborts_with_diagnostics() {
        let mut sim = MockSim::new();
        sim.dead_at = vec![(2, 0)];
        sim.can_redecompose = false;
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let err = sup.run(&mut sim, 5).unwrap_err();
        assert!(matches!(err, SupervisorError::RankLost { rank: 0, .. }), "{err}");
        assert!(err.to_string().contains("cannot shrink"), "{err}");
    }
}
