//! The distributed engine: the rank-step protocol ([`crate::step`]) run
//! bulk-synchronously over every rank. What lives here is the stage sequence
//! of a step, lockstep delivery of each phase through the scriptable
//! [`FaultPlan`] with bounded retry, the `ThreadPool` compute fan-out,
//! adaptive rebalancing of the rank grid, re-decomposition over the
//! survivors of a rank death, telemetry, and the supervisor's hooks.

use crate::config::EngineConfig;
use crate::error::{RuntimeError, SetupError};
use crate::fault::{Delivery, FaultPlan};
use crate::grid::RankGrid;
use crate::health::HealthTracker;
use crate::msg::{AtomMsg, Channel, Message};
use crate::rank::{best_grid_for, halo_width_for, validate_decomposition, ForceField, RankState};
use crate::step::{self, Buffers, Decomposition, Exchange};
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::checkpoint::{Checkpoint, SnapshotLayout};
use sc_md::supervisor::{Recoverable, StepFault};
use sc_md::{EnergyBreakdown, Telemetry, ThreadPool, TupleCounts};
use sc_obs::trace::EventKind;
use sc_obs::{CommCounters, ImbalanceReport, Phase, PhaseBreakdown, TraceSink, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Retries after a failed delivery before escalating (so each hop gets
/// `1 + MAX_RETRIES` attempts). Two retries cover every single-fault
/// scenario that is recoverable in-step (drop, delay-by-one, one-attempt
/// stall) while keeping worst-case latency bounded.
const MAX_RETRIES: u32 = 2;

/// The lockstep interconnect: every wire unit of a phase is handed across
/// between the ranks' send and absorb halves, through the fault plan.
struct Wire<'a> {
    fault: &'a mut FaultPlan,
    health: &'a mut HealthTracker,
    /// Where health transitions are traced (the executor row).
    exec_sink: &'a TraceSink,
    /// One sink per rank (comm events).
    tsinks: &'a [TraceSink],
}

impl Wire<'_> {
    /// Delivers one wire unit (a per-neighbor frame) from
    /// `from` to `to` through the fault plan, verifying it on arrival
    /// ([`step::verify_unit`]) and retrying (the sender re-sends its
    /// buffered copy) up to [`MAX_RETRIES`] times. Detected faults and
    /// retries are recorded in the sender's `stats`; every attempt's
    /// outcome feeds the watchdog, and a sender it has declared dead
    /// escalates as [`RuntimeError::RankDead`] instead of the per-delivery
    /// fault.
    fn deliver(
        &mut self,
        stats: &mut CommCounters,
        epoch: u64,
        from: usize,
        to: usize,
        channel: Channel,
        msg: Message,
    ) -> Result<Message, RuntimeError> {
        // Inert plan: the delivery cannot be dropped, delayed, or
        // corrupted, so skip the retransmission copy and hand the message
        // straight across. Acceptance stays identical to the slow path.
        if self.fault.is_inert() {
            let verdict = step::verify_unit(&msg, to, epoch, channel);
            self.note(from, channel, epoch, verdict.is_ok());
            return self.dead_or(from, epoch, verdict.map(|()| msg));
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 1 {
                stats.retries += 1;
            }
            // The transit copy may be corrupted; the sender keeps the
            // original for retransmission.
            let arrived = match self.fault.transmit(epoch, from, msg.clone()) {
                Delivery::Deliver(m) => step::verify_unit(&m, to, epoch, channel).map(|()| m),
                Delivery::Lost { stalled: true } => {
                    Err(RuntimeError::RankStalled { rank: from, epoch, attempts })
                }
                Delivery::Lost { stalled: false } => {
                    Err(RuntimeError::MissingHop { rank: to, channel, epoch, attempts })
                }
            };
            self.note(from, channel, epoch, arrived.is_ok());
            if arrived.is_err() {
                stats.faults_detected += 1;
            }
            if arrived.is_ok() || attempts > MAX_RETRIES {
                return self.dead_or(from, epoch, arrived);
            }
        }
    }

    /// Feeds one delivery attempt's outcome from `from` into the watchdog
    /// and traces any health transition it caused.
    fn note(&mut self, from: usize, channel: Channel, epoch: u64, delivered: bool) {
        let class = channel.trace_class();
        let moved = if delivered {
            self.health.record_success(from, class, epoch)
        } else {
            self.health.record_failure(from, class, epoch)
        };
        if let Some(state) = moved {
            let kind = EventKind::Health { peer: from as u32, state: state.code() };
            self.exec_sink.instant(epoch, kind);
        }
    }

    /// Escalates to [`RuntimeError::RankDead`] when the watchdog has
    /// declared `from` dead — the signal for the supervisor to re-decompose
    /// rather than roll back. A flapping link can trip the circuit breaker
    /// on the very delivery that succeeded; death still wins.
    fn dead_or<T>(
        &self,
        from: usize,
        epoch: u64,
        verdict: Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        if self.health.is_dead(from) {
            return Err(RuntimeError::RankDead { rank: from, step: epoch, epoch });
        }
        verdict
    }

    /// Puts rank `from`'s part of one merged exchange phase on the wire:
    /// packs its staged sections into the planned per-destination frames,
    /// delivers each with validation and retry against the canonical slot it
    /// must fill, and unpacks it into the receiver's inbox
    /// ([`step::receive`]). A unit from a rank the phase does not hear from
    /// is refused under its own channel. `stats` are the sender's counters.
    fn send(
        &mut self,
        x: &Exchange,
        from: usize,
        phase: u64,
        epoch: u64,
        stats: &mut CommCounters,
        bufs: &mut [Buffers],
    ) -> Result<(), RuntimeError> {
        for f in &x.ranks[from].frames {
            let unit = step::frame(f, phase, epoch, &mut bufs[from], stats, &self.tsinks[from]);
            let plan = &x.ranks[f.to];
            let wrong = RuntimeError::WrongPayload { rank: f.to, channel: unit.channel };
            let expected = plan.unit_from(from).ok_or(wrong)?;
            let got = self.deliver(stats, epoch, from, f.to, expected.channel, unit)?;
            step::receive(&self.tsinks[f.to], epoch, f.to, plan, expected, got, &mut bufs[f.to])?;
        }
        Ok(())
    }
}

/// One event sink per rank (comm events and compute-phase intervals) plus
/// the executor's own, tagged with the synthetic rank `nranks` so the
/// synchronous wall-clock phases get their own timeline row.
fn trace_sinks(tracer: &Tracer, nranks: usize) -> (Vec<TraceSink>, TraceSink) {
    ((0..nranks).map(|r| tracer.sink(r as u32, 0)).collect(), tracer.sink(nranks as u32, 0))
}

/// A distributed MD simulation executed bulk-synchronously: all ranks run
/// each phase of the rank-step protocol ([`crate::step`]) in lockstep, with
/// messages delivered between a phase's send and absorb halves, so every
/// run is deterministic. This is the one distributed engine: the `bsp` and
/// `threaded` spellings of a scenario both build it, and the correctness
/// tests compare it against serial `sc-md`.
///
/// The exchange schedule is the merged one from [`crate::transport`]: three
/// migration phases, three ghost phases, and three force-return phases per
/// step, with all per-channel payloads bound for the same neighbor packed
/// into one framed message per phase. The whole halo is imported before the
/// ranks compute, the ranks compute concurrently on the `ThreadPool`, and
/// the pool's lane count never changes a bit of the result.
///
/// How a run is scheduled, packed, faulted and observed is fixed at
/// [`DistributedSim::build`] by one [`EngineConfig`]; only the timestep can
/// change afterwards (the supervisor's dt back-off).
///
/// Every delivery goes through the [`FaultPlan`] (a no-op by default) and is
/// verified against its stamp on arrival; [`DistributedSim::try_step`]
/// surfaces unrecovered faults as [`RuntimeError`], at which point the state
/// is unspecified and the caller must restore from a checkpoint before
/// continuing (the `sc-md` `Supervisor` automates this).
pub struct DistributedSim {
    dec: Arc<Decomposition>,
    ranks: Vec<RankState>,
    /// Each rank's exchange scratch (index = rank).
    bufs: Vec<Buffers>,
    ff: ForceField,
    dt: f64,
    subdivision: i32,
    resort_every: u64,
    steps_done: u64,
    needs_prime: bool,
    fault_plan: FaultPlan,
    rebalance_every: u64,
    phase: u64,
    last_energy: EnergyBreakdown,
    last_tuples: TupleCounts,
    /// Accumulated wall-clock phases.
    timings: PhaseBreakdown,
    /// The cumulative phase breakdown as it stood when the most recent step
    /// began, so telemetry can report that step alone.
    step_start: PhaseBreakdown,
    pool: ThreadPool,
    tracer: Tracer,
    /// One event sink per rank (per-rank compute phases and comm events).
    tsinks: Vec<TraceSink>,
    /// Executor-level sink for the synchronous wall-clock phases, tagged
    /// with the synthetic rank `nranks` so it gets its own timeline row.
    exec_sink: TraceSink,
    /// Counters of rank sets retired by adaptive rebalancing, folded into
    /// [`DistributedSim::comm_stats`] so aggregate totals stay monotone
    /// across re-decompositions.
    carried: CommCounters,
    /// Scratch growth of every retired rank set, folded into
    /// [`DistributedSim::telemetry`]'s allocation count so it stays
    /// monotone across re-decompositions and restores.
    carried_alloc: u64,
    /// Per-rank compute-seconds baseline at the last rebalance, so each
    /// rebalance window measures fresh load deltas.
    last_loads: Vec<f64>,
    /// The per-rank deadline watchdog / circuit breaker.
    health: HealthTracker,
    /// Set by [`DistributedSim::restore_excluding`]: the runtime lost at
    /// least one rank and is running on a re-decomposed survivor grid.
    degraded: bool,
}

impl DistributedSim {
    /// Decomposes `store` over a `pdims` rank grid with the default
    /// [`EngineConfig`].
    ///
    /// # Errors
    /// See [`DistributedSim::build`].
    pub fn new(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
    ) -> Result<Self, SetupError> {
        Self::build(store, bbox, pdims, ff, dt, EngineConfig::default())
    }

    /// Decomposes `store` over a `pdims` rank grid and configures the run.
    ///
    /// # Errors
    /// Rejects configurations where the halo would be deeper than one rank
    /// sub-box (forwarded routing delivers only nearest-neighbour data),
    /// where the global cell lattice is too small for the largest tuple
    /// order, or whose `subdivision` is outside 1–3.
    pub fn build(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
        cfg: EngineConfig,
    ) -> Result<Self, SetupError> {
        let EngineConfig { subdivision, resort_every, rebalance_every, faults, tracer } = cfg;
        let (dec, ranks, bufs) =
            step::decompose(RankGrid::try_new(pdims, bbox)?, &store, &ff, subdivision)?;
        let nranks = ranks.len();
        let (tsinks, exec_sink) = trace_sinks(&tracer, nranks);
        Ok(DistributedSim {
            dec,
            ranks,
            bufs,
            ff,
            dt,
            subdivision,
            resort_every,
            steps_done: 0,
            needs_prime: true,
            fault_plan: faults,
            rebalance_every,
            phase: 0,
            last_energy: EnergyBreakdown::default(),
            last_tuples: TupleCounts::default(),
            timings: PhaseBreakdown::default(),
            step_start: PhaseBreakdown::default(),
            pool: ThreadPool::auto(),
            tracer,
            tsinks,
            exec_sink,
            carried: CommCounters::default(),
            carried_alloc: 0,
            last_loads: vec![0.0; nranks],
            health: HealthTracker::new(nranks),
            degraded: false,
        })
    }

    /// The per-rank health watchdog (state and cumulative transitions).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Whether the runtime lost a rank and re-decomposed onto survivors.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The tracer in use (disabled unless the [`EngineConfig`] carried a
    /// live one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The cumulative phase breakdown: the ranks' own CPU seconds (live and
    /// retired rank sets) for bin / enumerate / eval / reduce, plus the
    /// executor's wall clock for exchange / migrate / integrate / compute
    /// and the rank-to-rank force return, which it adds to reduce.
    fn total_phases(&self) -> PhaseBreakdown {
        let mut phases = self.carried.phases;
        for r in &self.ranks {
            phases.accumulate(&r.stats.phases);
        }
        phases.accumulate(&self.timings);
        phases
    }

    /// The unified telemetry snapshot: global energies and tuple counts,
    /// the phase breakdown of the most recent step and since construction
    /// (the ranks' CPU seconds for bin / enumerate / eval / reduce, the
    /// executor's wall clock for exchange / migrate / integrate / compute
    /// and the force return, which it adds to reduce),
    /// aggregate and per-rank communication counters, the health watchdog's
    /// transition counts, and allocation accounting (the live and retired
    /// ranks' scratch growth). The engine computes no virial.
    pub fn telemetry(&self) -> Telemetry {
        let total_phases = self.total_phases();
        Telemetry {
            step: self.steps_done,
            energy: self.last_energy,
            tuples: self.last_tuples,
            virial: 0.0,
            phases: total_phases.since(&self.step_start),
            total_phases,
            per_rank: self.ranks.iter().map(|r| r.stats.clone()).collect(),
            comm: self.comm_stats(),
            health: self.health.counters(),
            alloc_events: self.scratch_allocation_events(),
            degraded: self.degraded,
        }
    }

    /// Scratch growth of the live ranks and of every retired rank set.
    fn scratch_allocation_events(&self) -> u64 {
        let live: u64 = self.ranks.iter().map(RankState::scratch_allocation_events).sum();
        self.carried_alloc + live
    }

    /// The per-rank load-imbalance report, with the Eq. 33 import-volume
    /// prediction `Vω = (l + n − 1)³ − l³` attached for the largest active
    /// tuple order (`l` = cells per sub-box side at that term's cutoff), so
    /// measured ghost imports can be checked against the paper's model per
    /// decomposition.
    pub fn imbalance_report(&self) -> ImbalanceReport {
        let per_rank: Vec<CommCounters> = self.ranks.iter().map(|r| r.stats.clone()).collect();
        let mut rep = ImbalanceReport::from_per_rank(&per_rank);
        if let Some((n, rcut)) = self.ff.terms().into_iter().max_by_key(|&(n, _)| n) {
            let sub = self.dec.grid.rank_box_lengths();
            let l = (sub.x.min(sub.y).min(sub.z) / rcut).floor().max(1.0);
            rep = rep.with_import_prediction(l, n as u32);
        }
        rep
    }

    /// The rank grid.
    pub fn grid(&self) -> &RankGrid {
        &self.dec.grid
    }

    /// The active fault plan (to inspect fired [`crate::FaultEvent`]s).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Steps completed since construction (or since the restored
    /// checkpoint's step).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// The integration timestep.
    pub fn timestep(&self) -> f64 {
        self.dt
    }

    /// Changes the integration timestep (graceful degradation after
    /// rollback).
    pub fn set_timestep(&mut self, dt: f64) {
        self.dt = dt;
    }

    /// Kinetic energy (global).
    pub fn kinetic_energy(&self) -> f64 {
        self.ranks.iter().map(|r| r.kinetic_energy()).sum()
    }

    /// Total energy; recomputes forces without integrating, and without
    /// clearing the priming flag, so the exchanges a step runs do not
    /// depend on whether the energy was asked for before it.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault; fault-injected runs
    /// should step through [`DistributedSim::try_step`] instead.
    pub fn total_energy(&mut self) -> f64 {
        self.cycle().unwrap_or_else(|e| panic!("{e}"));
        self.last_energy.total() + self.kinetic_energy()
    }

    /// Aggregated communication statistics since start: the live ranks'
    /// counters plus the totals of rank sets retired by adaptive
    /// rebalancing, so aggregates stay monotone across re-decompositions.
    pub fn comm_stats(&self) -> CommCounters {
        let mut total = self.carried.clone();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }

    /// Closes the adaptive load-balance loop: converts the last window's
    /// per-rank compute seconds into non-uniform axis cuts
    /// ([`RankGrid::rebalanced_cuts`]), validates the candidate grid, and
    /// re-decomposes onto it. Infeasible proposals are skipped — the
    /// simulation keeps its current grid. Retired rank counters fold into
    /// [`DistributedSim::comm_stats`] and forces are recomputed by the
    /// priming exchange.
    fn rebalance(&mut self) {
        let loads: Vec<f64> = self
            .ranks
            .iter()
            .zip(&self.last_loads)
            .map(|(r, last)| (r.stats.phases.compute_total_s() - last).max(0.0))
            .collect();
        self.last_loads = self.ranks.iter().map(|r| r.stats.phases.compute_total_s()).collect();
        let grid = &self.dec.grid;
        let min_width = halo_width_for(&self.ff, grid);
        let Some(cuts) = grid.rebalanced_cuts(&loads, 0.5, min_width) else { return };
        let Ok(grid) = RankGrid::with_splits(grid.pdims(), *grid.bbox(), cuts) else { return };
        // A proposal that fails validation (or whose split would lose
        // atoms) is skipped: keep the old grid.
        let Ok((dec, ranks, bufs)) =
            step::decompose(grid, &self.gather(), &self.ff, self.subdivision)
        else {
            return;
        };
        for r in &self.ranks {
            self.carried.merge(&r.stats);
        }
        self.carried_alloc = self.scratch_allocation_events();
        self.exec_sink.instant(
            self.steps_done,
            EventKind::Redecompose { rank: self.ranks.len() as u32, lost: false },
        );
        (self.dec, self.ranks, self.bufs) = (dec, ranks, bufs);
        self.last_loads = vec![0.0; self.ranks.len()];
        self.health.reset(self.ranks.len());
        self.needs_prime = true;
    }

    /// One velocity-Verlet step, surfacing unrecovered communication faults.
    ///
    /// # Errors
    /// Any [`RuntimeError`] that survived the per-delivery retry budget. On
    /// error the simulation state is unspecified (a phase may have half
    /// run); restore from a checkpoint before stepping again.
    pub fn try_step(&mut self) -> Result<(), RuntimeError> {
        // Rebalance before the priming check: re-decomposition drops the
        // force state, and the priming exchange rebuilds it.
        if self.rebalance_every != 0
            && self.steps_done > 0
            && self.steps_done.is_multiple_of(self.rebalance_every)
        {
            self.rebalance();
        }
        self.step_start = self.total_phases();
        let resort = self.resort_every != 0 && self.steps_done.is_multiple_of(self.resort_every);
        self.rank_step(resort)?;
        self.steps_done += 1;
        Ok(())
    }

    /// One velocity-Verlet step: a priming [`DistributedSim::cycle`] when
    /// forces are stale, half-kick + drift, the Morton re-sort at the
    /// ghost-free point (so migration rebuilds the halo against the new slot
    /// layout), three axis-ordered migrations, a cycle, and the second
    /// half-kick.
    fn rank_step(&mut self, resort: bool) -> Result<(), RuntimeError> {
        if self.needs_prime {
            self.cycle()?;
        }
        let (dt, t) = (self.dt, Instant::now());
        for r in &mut self.ranks {
            r.vv_start(dt);
            r.drop_ghosts();
            if resort {
                r.resort_owned();
            }
        }
        self.book(Phase::Integrate, t.elapsed().as_secs_f64());
        let dec = Arc::clone(&self.dec);
        self.exchanges(&dec.migrate, Phase::Migrate)?;
        self.cycle()?;
        let t = Instant::now();
        for r in &mut self.ranks {
            r.vv_finish(dt);
        }
        self.book(Phase::Integrate, t.elapsed().as_secs_f64());
        self.needs_prime = false;
        Ok(())
    }

    /// One ghost-import + force-computation + force-return cycle, as in the
    /// paper: the whole halo arrives before any tuple is searched. The import
    /// is booked under [`Phase::Exchange`], the force return under
    /// [`Phase::Reduce`].
    fn cycle(&mut self) -> Result<(), RuntimeError> {
        let dec = Arc::clone(&self.dec);
        self.ranks.iter_mut().for_each(RankState::drop_ghosts);
        self.exchanges(&dec.ghosts, Phase::Exchange)?;
        self.compute();
        self.exchanges(&dec.forces, Phase::Reduce)
    }

    /// Runs the exchanges `xs` in order and books their wall time under
    /// `phase`.
    fn exchanges(&mut self, xs: &[Exchange], phase: Phase) -> Result<(), RuntimeError> {
        let t = Instant::now();
        for x in xs {
            self.exchange(x)?;
        }
        self.book(phase, t.elapsed().as_secs_f64());
        Ok(())
    }

    /// One merged phase in lockstep: rank by rank the sections are staged
    /// and delivered into the receivers' inboxes, then every rank absorbs.
    fn exchange(&mut self, x: &Exchange) -> Result<(), RuntimeError> {
        self.phase += 1;
        let (phase, epoch, dec) = (self.phase, self.steps_done, &*self.dec);
        let mut wire = Wire {
            fault: &mut self.fault_plan,
            health: &mut self.health,
            exec_sink: &self.exec_sink,
            tsinks: &self.tsinks,
        };
        for (from, rank) in self.ranks.iter_mut().enumerate() {
            step::outgoing(rank, dec, x, &mut self.bufs[from], phase, epoch);
            wire.send(x, from, phase, epoch, &mut rank.stats, &mut self.bufs)?;
        }
        for (rank, bufs) in self.ranks.iter_mut().zip(&mut self.bufs) {
            step::absorb(rank, x, bufs)?;
        }
        Ok(())
    }

    /// The per-rank force-computation fan-out — the BSP phase structure
    /// makes this embarrassingly parallel: each pool task owns exactly one
    /// rank, which keeps its own results. Energies and tuple counts are
    /// summed in rank order, for determinism; each rank's fine-grained
    /// compute phases (bin / enumerate / eval / reduce) are traced
    /// cumulatively from the fan-out's start on its own row.
    fn compute(&mut self) {
        let t = Instant::now();
        let start_ns = if self.tracer.enabled() { self.exec_sink.now_ns() } else { 0 };
        let ff = &self.ff;
        self.pool.for_each_mut(&mut self.ranks, |_, rank| rank.compute_forces(ff));
        let (mut energy, mut tuples) = (EnergyBreakdown::default(), TupleCounts::default());
        for rank in &self.ranks {
            let (e, c, _) = &rank.computed;
            energy.pair += e.pair;
            energy.triplet += e.triplet;
            energy.quadruplet += e.quadruplet;
            tuples.pair.merge(c.pair);
            tuples.triplet.merge(c.triplet);
            tuples.quadruplet.merge(c.quadruplet);
        }
        (self.last_energy, self.last_tuples) = (energy, tuples);
        self.book(Phase::Compute, t.elapsed().as_secs_f64());
        for (sink, rank) in self.tsinks.iter().zip(&self.ranks) {
            if !sink.enabled() {
                continue;
            }
            let (_, _, phases) = &rank.computed;
            let mut cursor = start_ns;
            for (phase, secs) in phases.iter() {
                let dur_ns = (secs * 1e9) as u64;
                if dur_ns > 0 {
                    sink.phase(self.steps_done, phase, cursor, dur_ns);
                    cursor += dur_ns;
                }
            }
        }
    }

    /// Books a wall-clock phase that just ended after `secs` in the
    /// cumulative local breakdown and on the executor's timeline row.
    fn book(&mut self, phase: Phase, secs: f64) {
        self.timings.add(phase, secs);
        self.exec_sink.phase_ended(self.steps_done, phase, secs);
    }

    /// One velocity-Verlet step.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault; fault-injected runs
    /// should use [`DistributedSim::try_step`].
    pub fn step(&mut self) {
        self.try_step().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Runs `n` steps. Panics like [`DistributedSim::step`] on faults.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Gathers all owned atoms into one store, sorted by global id, with
    /// positions wrapped into the global box — directly comparable with a
    /// serial [`sc_md::Simulation`].
    pub fn gather(&self) -> AtomStore {
        let mut atoms: Vec<AtomMsg> = self.ranks.iter().flat_map(|r| r.owned_atoms()).collect();
        atoms.sort_by_key(|a| a.id);
        let mut out = AtomStore::new(self.ranks[0].store().species_masses().to_vec());
        for a in &atoms {
            out.push(a.id, a.species, a.position, a.velocity);
        }
        out
    }

    /// Re-decomposes a checkpoint onto an arbitrary `pdims` rank grid and
    /// resumes from it: atoms are re-sorted into the new sub-boxes, forces
    /// are recomputed by the priming exchange, and the health watchdog is
    /// resized to the new rank count (its cumulative transition counters
    /// survive). Trace sinks are re-derived from the installed tracer so
    /// the executor row stays at the new synthetic rank `nranks`.
    ///
    /// # Errors
    /// The same feasibility checks as [`DistributedSim::new`]: every halo
    /// must fit in one sub-box and the global lattice must accommodate the
    /// largest tuple order.
    pub fn restore_onto(&mut self, cp: &Checkpoint, pdims: IVec3) -> Result<(), SetupError> {
        self.install(cp, RankGrid::try_new(pdims, cp.bbox())?)?;
        let nranks = self.ranks.len();
        (self.tsinks, self.exec_sink) = trace_sinks(&self.tracer, nranks);
        // Rank indices mean something new now; per-rank health state from
        // the old grid is unusable (cumulative counters are kept).
        self.health.reset(nranks);
        Ok(())
    }

    /// Re-decomposes `cp` over `grid` and rewinds the run to it: every
    /// rank reclaims its atoms and forces are recomputed by the priming
    /// exchange, so the trajectory continues from exactly the checkpointed
    /// phase-space point (summation order inside a rank may differ from the
    /// pre-fault run, so continuation is exact physics, not bitwise).
    fn install(&mut self, cp: &Checkpoint, grid: RankGrid) -> Result<(), SetupError> {
        let (dec, ranks, bufs) = step::decompose(grid, &cp.to_store(), &self.ff, self.subdivision)?;
        self.carried_alloc = self.scratch_allocation_events();
        (self.dec, self.ranks, self.bufs) = (dec, ranks, bufs);
        self.dt = cp.dt;
        self.steps_done = cp.step;
        self.needs_prime = true;
        self.last_energy = EnergyBreakdown::default();
        self.last_tuples = TupleCounts::default();
        // Rank stats were rebuilt from scratch; re-baseline the last-step
        // breakdown.
        self.carried = CommCounters::default();
        self.step_start = self.total_phases();
        self.last_loads = vec![0.0; self.ranks.len()];
        Ok(())
    }

    /// The dead-rank recovery path: retires the ranks in `exclude` from
    /// the fault plan (a crashed rank must not be re-killed under its new
    /// number), picks the best feasible grid over the survivors via
    /// [`best_grid_for`], and re-decomposes the checkpoint onto it. On
    /// success the runtime is flagged [`DistributedSim::degraded`] and a
    /// [`EventKind::Redecompose`] instant is traced per lost rank.
    ///
    /// # Errors
    /// Fails when no survivor grid is feasible (even `1×1×1`) or the
    /// re-decomposition itself fails its setup checks.
    pub fn restore_excluding(
        &mut self,
        cp: &Checkpoint,
        exclude: &[usize],
    ) -> Result<(), SetupError> {
        let survivors = self.ranks.len().saturating_sub(exclude.len());
        if survivors == 0 {
            return Err(SetupError::BadRankGrid { pdims: [0, 0, 0] });
        }
        for &r in exclude {
            self.fault_plan.retire_rank(r);
            self.exec_sink
                .instant(self.steps_done, EventKind::Redecompose { rank: r as u32, lost: true });
        }
        let pdims = match best_grid_for(&self.ff, cp.bbox(), survivors) {
            Some(p) => p,
            None => {
                // Even one rank cannot host this system; surface the
                // concrete 1×1×1 setup error as the diagnostic.
                let grid = RankGrid::try_new(IVec3::splat(1), cp.bbox())?;
                return Err(validate_decomposition(&self.ff, &grid)
                    .err()
                    .unwrap_or(SetupError::BadRankGrid { pdims: [1, 1, 1] }));
            }
        };
        self.restore_onto(cp, pdims)?;
        self.degraded = true;
        Ok(())
    }
}

impl Recoverable for DistributedSim {
    fn try_step(&mut self) -> Result<(), StepFault> {
        DistributedSim::try_step(self).map_err(Into::into)
    }

    /// Snapshots the gathered run, recording the grid it was decomposed
    /// over.
    fn checkpoint(&self) -> Checkpoint {
        let p = self.dec.grid.pdims();
        Checkpoint::from_store(self.steps_done, self.dt, self.dec.grid.bbox(), &self.gather())
            .with_layout(SnapshotLayout::Grid { pdims: [p.x, p.y, p.z] })
    }

    fn restore(&mut self, cp: &Checkpoint) {
        self.install(cp, self.dec.grid.clone())
            .expect("restoring onto the grid the run already validated cannot fail");
    }

    fn atom_count(&self) -> usize {
        self.ranks.iter().map(|r| r.owned()).sum()
    }

    fn total_energy_estimate(&self) -> f64 {
        self.last_energy.total() + self.kinetic_energy()
    }

    fn state_is_finite(&self) -> bool {
        self.ranks.iter().all(|r| r.is_finite())
    }

    fn timestep(&self) -> f64 {
        self.dt
    }

    fn set_timestep(&mut self, dt: f64) {
        self.dt = dt;
    }

    fn steps_done(&self) -> u64 {
        self.steps_done
    }

    fn restore_excluding(&mut self, cp: &Checkpoint, exclude: &[usize]) -> Result<(), String> {
        DistributedSim::restore_excluding(self, cp, exclude).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_geom::Vec3;
    use sc_md::{build_fcc_lattice, build_silica_like, LatticeSpec, Method};
    use sc_potential::{LennardJones, Vashishta};

    /// Gathered ids and phase-space words of a `steps`-step run on a pool of
    /// `lanes`.
    fn run_on(
        lanes: usize,
        system: &(AtomStore, SimulationBox),
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
        subdivision: i32,
        steps: usize,
    ) -> (Vec<u64>, Vec<[u64; 3]>) {
        let cfg = EngineConfig { subdivision, ..Default::default() };
        let (store, bbox) = system.clone();
        let mut d = DistributedSim::build(store, bbox, pdims, ff, dt, cfg).unwrap();
        d.pool = ThreadPool::new(lanes);
        d.run(steps);
        let s = d.gather();
        let words = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        (s.ids().to_vec(), s.positions().iter().chain(s.velocities()).map(words).collect())
    }

    /// The pool's lane count changes no bit — same ids, same position and
    /// velocity words on one lane and on two — including on the grids where
    /// a rank is its own neighbour. Setting the pool keeps the pair different
    /// on a one-core host too.
    #[test]
    fn pool_lane_count_changes_no_bit() {
        let silica_ff = |method| {
            let v = Vashishta::silica();
            ForceField {
                pair: Some(Box::new(v.pair)),
                triplet: Some(Box::new(v.triplet)),
                quadruplet: None,
                method,
            }
        };
        let lj = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42);
        let silica = build_silica_like(4, 7.16, Vashishta::silica().params().masses, 0.01, 7);
        for method in Method::ALL {
            let ff = || ForceField {
                pair: Some(Box::new(LennardJones::reduced(2.5))),
                triplet: None,
                quadruplet: None,
                method,
            };
            // 1×1×2: two axes where every band — and under FS / Hybrid
            // both images of an atom — comes from the rank itself.
            for pdims in [IVec3::splat(2), IVec3::new(1, 1, 2)] {
                let run = |lanes| run_on(lanes, &lj, pdims, ff(), 0.002, 1, 4);
                assert!(run(1) == run(2), "lj {} on {pdims:?}", method.name());
            }
        }
        // Triplet forces exercise the force-return path with non-trivial
        // ghost-force payloads; FS the two-sided halo; Hybrid with
        // subdivided cells the reach-2 rows under the rank's list build.
        for (method, pdims, k) in [
            (Method::ShiftCollapse, IVec3::new(2, 2, 1), 1),
            (Method::FullShell, IVec3::new(2, 2, 1), 1),
            (Method::Hybrid, IVec3::new(2, 1, 1), 2),
            (Method::ShiftCollapse, IVec3::new(1, 1, 2), 1),
            (Method::FullShell, IVec3::new(1, 1, 2), 1),
            (Method::Hybrid, IVec3::new(1, 1, 2), 2),
        ] {
            let run = |lanes| run_on(lanes, &silica, pdims, silica_ff(method), 0.0005, k, 3);
            assert!(run(1) == run(2), "silica {} k = {k} on {pdims:?}", method.name());
        }
    }

    /// BSP books its five wall slots — exchange, migrate, integrate,
    /// compute, reduce — over disjoint intervals of a step, so on a pool
    /// with a second lane they still sum to no more than the wall clock.
    /// The ranks' own CPU seconds (`comm.phases`: bin, enumerate and the
    /// scratch merges the reduce slot also carries) nest inside the compute
    /// slot and are not wall time.
    #[test]
    fn wall_slots_sum_to_no_more_than_the_wall_clock() {
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(4, 1.5599), 0.1, 42);
        let ff = ForceField {
            pair: Some(Box::new(LennardJones::reduced(1.5))),
            triplet: None,
            quadruplet: None,
            method: Method::ShiftCollapse,
        };
        let mut d = DistributedSim::new(store, bbox, IVec3::splat(2), ff, 0.002).unwrap();
        d.pool = ThreadPool::new(2);
        let t = std::time::Instant::now();
        d.run(50);
        let wall = t.elapsed().as_secs_f64();
        let t = d.telemetry();
        let slots =
            [Phase::Exchange, Phase::Migrate, Phase::Integrate, Phase::Compute, Phase::Reduce];
        let booked: f64 =
            slots.iter().map(|&ph| t.total_phases.get(ph) - t.comm.phases.get(ph)).sum();
        println!("booked {booked:.6} s of {wall:.6} s wall");
        assert!(booked <= wall, "wall slots sum to {booked} s over a {wall} s run");
    }

    /// Newton's third law survives the force return: over all owned atoms
    /// the forces sum to zero, so none was lost, doubled, or returned to the
    /// wrong image on the grids where a rank holds several images of an
    /// atom.
    #[test]
    fn returned_forces_sum_to_zero_on_self_neighbour_grids() {
        let v = Vashishta::silica();
        let mut silica = build_silica_like(4, 7.16, v.params().masses, 0.01, 7);
        // Off the perfect lattice, where every force is zero by symmetry.
        for (i, r) in silica.0.positions_mut().iter_mut().enumerate() {
            let t = i as f64;
            *r += Vec3::new((1.3 * t).sin(), (2.1 * t + 1.0).sin(), (0.7 * t + 2.0).sin()) * 0.08;
        }
        for pdims in [IVec3::new(1, 1, 2), IVec3::new(2, 1, 1), IVec3::new(2, 2, 1)] {
            for (method, subdivision) in [
                (Method::ShiftCollapse, 1),
                (Method::FullShell, 1),
                (Method::Hybrid, 1),
                (Method::Hybrid, 2),
            ] {
                let v = Vashishta::silica();
                let ff = ForceField {
                    pair: Some(Box::new(v.pair)),
                    triplet: Some(Box::new(v.triplet)),
                    quadruplet: None,
                    method,
                };
                let cfg = EngineConfig { subdivision, ..Default::default() };
                let (store, bbox) = silica.clone();
                let mut d = DistributedSim::build(store, bbox, pdims, ff, 0.0005, cfg).unwrap();
                d.total_energy();
                let owned = d.ranks.iter().flat_map(|r| &r.store().forces()[..r.owned()]);
                let (net, largest) = owned.fold((Vec3::ZERO, 0.0f64), |(net, largest), f| {
                    (net + *f, largest.max(f.norm()))
                });
                assert!(
                    net.norm() <= 1e-10 * largest,
                    "{} k = {subdivision} on {pdims:?}: net force {net:?}, largest {largest}",
                    method.name()
                );
            }
        }
    }
}
