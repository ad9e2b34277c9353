//! The distributed engine: the rank-step protocol ([`crate::step`]) run
//! bulk-synchronously over every rank. What lives here is the stage sequence
//! of a step, lockstep delivery of each phase through the scriptable
//! [`FaultPlan`] with bounded retry, the `ThreadPool` compute fan-out,
//! adaptive rebalancing of the rank grid, re-decomposition over the
//! survivors of a rank death, telemetry and the metrics feed, checkpoints,
//! and the supervisor's hooks.

use crate::config::EngineConfig;
use crate::error::{RuntimeError, SetupError};
use crate::fault::{Delivery, FaultPlan};
use crate::grid::RankGrid;
use crate::health::HealthTracker;
use crate::msg::{Channel, Message};
use crate::rank::{best_grid_for, halo_width_for, validate_decomposition, ForceField, RankState};
use crate::step::{self, Buffers, Decomposition, Exchange};
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::checkpoint::{Checkpoint, SnapshotLayout};
use sc_md::supervisor::{Recoverable, StepFault};
use sc_md::{
    berendsen_factor, BuildError, EnergyBreakdown, Method, MetricsFeed, Telemetry, ThreadPool,
    TupleCounts,
};
use sc_obs::trace::EventKind;
use sc_obs::{CommCounters, Phase, PhaseBreakdown, Registry, TraceSink, Tracer};
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
/// each phase of the rank-step protocol (the private `step` module) in
/// lockstep, with messages delivered between a phase's send and absorb
/// halves, so every run is deterministic. This is the one engine and the
/// one run object: a scenario's `serial` spelling builds it on a 1×1×1 grid
/// (the paper's P = 1 baseline), `bsp` on its grid, and the correctness
/// tests compare it against the brute-force oracle of `sc-md`.
///
/// The exchange schedule is the merged one from [`crate::transport`]: three
/// migration phases, three ghost phases, and three force-return phases per
/// step, with all per-channel payloads bound for the same neighbor packed
/// into one framed message per phase. The whole halo is imported before the
/// ranks compute, and the ranks compute concurrently on the `ThreadPool`.
/// On a grid built with several ranks the lane count never changes a bit of
/// the result; an engine built on one rank splits its cell sweeps over the
/// lanes.
///
/// How a run is scheduled, packed, faulted and observed is fixed at
/// [`DistributedSim::build`] by one [`EngineConfig`]; the engine feeds its
/// own metrics registry after every step and rebaselines it on every
/// restore, so a supervised run's series never go down.
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
    /// Berendsen `(target temperature, dt/τ)`, if the run is thermostatted.
    thermostat: Option<(f64, f64)>,
    steps_done: u64,
    needs_prime: bool,
    fault_plan: FaultPlan,
    rebalance_every: u64,
    phase: u64,
    last_energy: EnergyBreakdown,
    last_tuples: TupleCounts,
    /// The most recent force computation's scalar virial, summed over ranks
    /// in rank order.
    last_virial: f64,
    /// Accumulated wall-clock phases.
    timings: PhaseBreakdown,
    /// The cumulative phase breakdown as it stood when the most recent step
    /// began, so telemetry can report that step alone.
    step_start: PhaseBreakdown,
    pool: ThreadPool,
    /// Built on one rank (the serial configuration): while it stays one
    /// rank, its cell sweeps split over the pool's lanes. A grid built with
    /// several ranks runs one task per rank, so no lane count — nor a later
    /// re-decomposition onto one rank — changes its bits.
    split_sweeps: bool,
    tracer: Tracer,
    /// The run's metrics registry and the series fed into it.
    feed: MetricsFeed,
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

/// Refuses inputs no decomposition can run, as typed [`BuildError`]s: no
/// potential term, a non-positive or non-finite timestep, a thermostat
/// target below zero or a coupling outside (0, 1], a non-finite position
/// or velocity, and under Hybrid-MD a missing pair term or an n ≥ 3
/// cutoff above the pair cutoff (the pair list could not hold the term's
/// links).
fn check_inputs(
    store: &AtomStore,
    ff: &ForceField,
    dt: f64,
    thermostat: Option<(f64, f64)>,
) -> Result<(), BuildError> {
    let terms = ff.terms();
    if terms.is_empty() {
        return Err(BuildError::NoTerms);
    }
    if !(dt > 0.0 && dt.is_finite()) {
        let rule = "must be positive and finite";
        return Err(BuildError::Config { field: "timestep", value: dt, rule });
    }
    if let Some((target, dt_over_tau)) = thermostat {
        if !(target >= 0.0 && target.is_finite()) {
            let rule = "must be finite and ≥ 0";
            return Err(BuildError::Config { field: "thermostat.target", value: target, rule });
        }
        if !(dt_over_tau > 0.0 && dt_over_tau <= 1.0) {
            let (field, rule) = ("thermostat.dt_over_tau", "must be in (0, 1]");
            return Err(BuildError::Config { field, value: dt_over_tau, rule });
        }
    }
    for i in 0..store.len() {
        if !store.positions()[i].is_finite() {
            return Err(BuildError::NonFiniteAtom { index: i, what: "position" });
        }
        if !store.velocities()[i].is_finite() {
            return Err(BuildError::NonFiniteAtom { index: i, what: "velocity" });
        }
    }
    if ff.method == Method::Hybrid {
        let rcut2 = ff.pair.as_ref().ok_or(BuildError::HybridNeedsPair)?.cutoff();
        if let Some(&(n, rcut_n)) = terms.iter().find(|&&(_, rcut_n)| rcut_n > rcut2) {
            return Err(BuildError::CutoffOrder { n, rcut_n, rcut2 });
        }
    }
    Ok(())
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
    /// [`SetupError::Build`] for inputs no grid can run (no term, Hybrid-MD
    /// without a pair term or with a cutoff above it, a bad timestep or
    /// thermostat, a non-finite atom); otherwise rejects configurations
    /// where the halo would be deeper than one rank sub-box (forwarded
    /// routing delivers only nearest-neighbour data), where the global cell
    /// lattice is too small for the largest tuple order, or whose
    /// `subdivision` is outside 1–3.
    pub fn build(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
        cfg: EngineConfig,
    ) -> Result<Self, SetupError> {
        let EngineConfig {
            lanes,
            subdivision,
            resort_every,
            rebalance_every,
            faults,
            tracer,
            metrics,
            thermostat,
        } = cfg;
        check_inputs(&store, &ff, dt, thermostat)?;
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
            thermostat,
            steps_done: 0,
            needs_prime: true,
            fault_plan: faults,
            rebalance_every,
            phase: 0,
            last_energy: EnergyBreakdown::default(),
            last_tuples: TupleCounts::default(),
            last_virial: 0.0,
            timings: PhaseBreakdown::default(),
            step_start: PhaseBreakdown::default(),
            pool: if lanes == 0 { ThreadPool::auto() } else { ThreadPool::new(lanes) },
            split_sweeps: nranks == 1,
            tracer,
            feed: MetricsFeed::new(metrics),
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

    /// The metrics registry the run reports into (disabled unless the
    /// [`EngineConfig`] carried a live one).
    pub fn metrics(&self) -> &Registry {
        self.feed.registry()
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
    /// ranks' scratch growth plus the metric registrations).
    pub fn telemetry(&self) -> Telemetry {
        let total_phases = self.total_phases();
        Telemetry {
            step: self.steps_done,
            energy: self.last_energy,
            tuples: self.last_tuples,
            virial: self.last_virial,
            phases: total_phases.since(&self.step_start),
            total_phases,
            per_rank: self.ranks.iter().map(|r| r.stats.clone()).collect(),
            comm: self.comm_stats(),
            health: self.health.counters(),
            alloc_events: self.scratch_allocation_events() + self.metrics().allocation_events(),
            degraded: self.degraded,
        }
    }

    /// Scratch growth of the live ranks and of every retired rank set.
    fn scratch_allocation_events(&self) -> u64 {
        let live: u64 = self.ranks.iter().map(RankState::scratch_allocation_events).sum();
        self.carried_alloc + live
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

    /// One velocity-Verlet step, surfacing unrecovered communication faults,
    /// then — with an enabled registry only, so a dark run reads no
    /// telemetry — the metrics feed. A failed step still feeds what it
    /// counted before the fault.
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
        let stepped = self.rank_step(resort);
        self.steps_done += u64::from(stepped.is_ok());
        if self.metrics().enabled() {
            let t = self.telemetry();
            match stepped {
                Ok(()) => self.feed.step(&t),
                Err(_) => self.feed.advance(&t),
            }
        }
        stepped
    }

    /// One velocity-Verlet step: a priming [`DistributedSim::cycle`] when
    /// forces are stale, half-kick + drift, the Morton re-sort at the
    /// ghost-free point (so migration rebuilds the halo against the new slot
    /// layout), three axis-ordered migrations, a cycle, the second
    /// half-kick, and the thermostat's rescale, if any.
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
        if let Some((target, dt_over_tau)) = self.thermostat {
            let atoms: usize = self.ranks.iter().map(RankState::owned).sum();
            let temperature = 2.0 * self.kinetic_energy() / (3.0 * atoms.max(1) as f64);
            let scale = berendsen_factor(temperature, target, dt_over_tau);
            self.ranks.iter_mut().for_each(|r| r.scale_velocities(scale));
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
    /// rank, which keeps its own results, so the lane count changes no bit.
    /// An engine built on one rank instead splits that rank's cell sweeps
    /// over every lane (Hybrid-MD walks its list on one). Energies, tuple counts and the virial are summed in
    /// rank order, for determinism; each rank's fine-grained compute phases
    /// (bin / enumerate / eval / reduce) are traced cumulatively from the
    /// fan-out's start on its own row.
    fn compute(&mut self) {
        let t = Instant::now();
        let start_ns = if self.tracer.enabled() { self.exec_sink.now_ns() } else { 0 };
        let (ff, pool) = (&self.ff, &self.pool);
        match &mut self.ranks[..] {
            [rank] if self.split_sweeps => rank.compute_forces(ff, Some(pool)),
            ranks => pool.for_each_mut(ranks, |_, rank| rank.compute_forces(ff, None)),
        }
        self.last_virial = self.ranks.iter().map(|rank| rank.virial).sum();
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
            // The rank's compute slots always, zero-length ones included, so
            // every trace carries the whole compute taxonomy.
            let (_, _, phases) = &rank.computed;
            let mut cursor = start_ns;
            for (phase, secs) in phases.iter() {
                let dur_ns = (secs * 1e9) as u64;
                let compute_slot =
                    matches!(phase, Phase::Bin | Phase::Enumerate | Phase::Eval | Phase::Reduce);
                if dur_ns > 0 || compute_slot {
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
    /// positions wrapped into the global box and the forces of the most
    /// recent computation — the same store whatever the grid.
    pub fn gather(&self) -> AtomStore {
        let mut out = self.owned_store();
        out.sort_by_id();
        out
    }

    /// Every rank's owned atoms in one store, rank-major and in slot order
    /// within a rank, with positions wrapped into the global box and their
    /// forces.
    fn owned_store(&self) -> AtomStore {
        let mut out = AtomStore::new(self.ranks[0].store().species_masses().to_vec());
        let mut forces = Vec::with_capacity(self.atom_count());
        for r in &self.ranks {
            for a in r.owned_atoms() {
                out.push(a.id, a.species, a.position, a.velocity);
            }
            forces.extend_from_slice(&r.store().forces()[..r.owned()]);
        }
        out.forces_mut().copy_from_slice(&forces);
        out
    }

    /// Snapshots every rank's owned atoms in rank-major slot order (not
    /// [`DistributedSim::gather`]'s id order), recording the grid, so a
    /// restore onto the same grid deals each rank its slots back in order.
    pub fn checkpoint(&self) -> Checkpoint {
        let p = self.dec.grid.pdims();
        Checkpoint::from_store(self.steps_done, self.dt, self.dec.grid.bbox(), &self.owned_store())
            .with_layout(SnapshotLayout::Grid { pdims: [p.x, p.y, p.z] })
    }

    /// Rewinds to a snapshot taken by [`DistributedSim::checkpoint`] on the
    /// run's current grid. Restored trajectories replay bitwise.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.install(cp, self.dec.grid.clone())
            .expect("restoring onto the grid the run already validated cannot fail");
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
    /// rank reclaims its atoms in snapshot order and forces are recomputed
    /// by the priming exchange. A snapshot of this grid is rank-major slot
    /// order, so each rank gets its slots back as they were and the run
    /// continues bitwise; on another grid the summation order inside a rank
    /// changes, so continuation is exact physics, not bitwise.
    fn install(&mut self, cp: &Checkpoint, grid: RankGrid) -> Result<(), SetupError> {
        let (dec, ranks, bufs) = step::decompose(grid, &cp.to_store(), &self.ff, self.subdivision)?;
        self.carried_alloc = self.scratch_allocation_events();
        (self.dec, self.ranks, self.bufs) = (dec, ranks, bufs);
        self.fault_plan.abort_in_flight();
        self.dt = cp.dt;
        self.steps_done = cp.step;
        self.needs_prime = true;
        self.last_energy = EnergyBreakdown::default();
        self.last_tuples = TupleCounts::default();
        self.last_virial = 0.0;
        // Rank stats were rebuilt from scratch; re-baseline the last-step
        // breakdown.
        self.carried = CommCounters::default();
        self.step_start = self.total_phases();
        self.last_loads = vec![0.0; self.ranks.len()];
        // The counters were rewound: feed nothing until the next step.
        if self.metrics().enabled() {
            self.feed.rebaseline(&self.telemetry());
        }
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
    /// [`SetupError::NoSurvivor`] when `exclude` takes every rank; otherwise
    /// fails when no survivor grid is feasible (even `1×1×1`) or the
    /// re-decomposition itself fails its setup checks.
    pub fn restore_excluding(
        &mut self,
        cp: &Checkpoint,
        exclude: &[usize],
    ) -> Result<(), SetupError> {
        let survivors = self.ranks.len().saturating_sub(exclude.len());
        if survivors == 0 {
            return Err(SetupError::NoSurvivor { lost: exclude.to_vec() });
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

    fn checkpoint(&self) -> Checkpoint {
        DistributedSim::checkpoint(self)
    }

    fn restore(&mut self, cp: &Checkpoint) {
        DistributedSim::restore(self, cp);
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
        let cfg = EngineConfig { lanes, subdivision, ..Default::default() };
        let (store, bbox) = system.clone();
        let mut d = DistributedSim::build(store, bbox, pdims, ff, dt, cfg).unwrap();
        d.run(steps);
        phase_words(&d)
    }

    /// Gathered ids and position and velocity words.
    fn phase_words(d: &DistributedSim) -> (Vec<u64>, Vec<[u64; 3]>) {
        let s = d.gather();
        let words = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        (s.ids().to_vec(), s.positions().iter().chain(s.velocities()).map(words).collect())
    }

    /// The pool's lane count changes no bit of a grid of several ranks —
    /// same ids, same position and velocity words on one lane, on two and
    /// on more lanes than ranks — including on the grids where a rank is
    /// its own neighbour. The lanes are set explicitly, so the runs differ
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
        // Two ranks on four lanes: still one task per rank.
        for pdims in [IVec3::new(2, 1, 1), IVec3::new(1, 1, 2)] {
            let sc = || silica_ff(Method::ShiftCollapse);
            let run = |lanes| run_on(lanes, &silica, pdims, sc(), 0.0005, 1, 3);
            assert!(run(1) == run(4), "silica SC-MD on {pdims:?}, four lanes");
        }
    }

    /// An engine built on several ranks and re-decomposed onto one keeps
    /// one task per rank: the lane count still changes no bit.
    #[test]
    fn one_rank_left_of_a_grid_does_not_split_its_sweeps() {
        let lj = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42);
        let run = |lanes| {
            let ff = ForceField {
                pair: Some(Box::new(LennardJones::reduced(2.5))),
                triplet: None,
                quadruplet: None,
                method: Method::ShiftCollapse,
            };
            let cfg = EngineConfig { lanes, ..Default::default() };
            let (store, bbox) = lj.clone();
            let pdims = IVec3::new(2, 1, 1);
            let mut d = DistributedSim::build(store, bbox, pdims, ff, 0.002, cfg).unwrap();
            d.run(1);
            let cp = Recoverable::checkpoint(&d);
            d.restore_onto(&cp, IVec3::splat(1)).unwrap();
            d.run(2);
            phase_words(&d)
        };
        assert!(run(1) == run(4), "a re-decomposed grid split its sweeps");
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
