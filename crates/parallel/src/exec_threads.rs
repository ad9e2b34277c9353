//! Threaded scheduler of the rank-step protocol ([`crate::step`]): one OS
//! thread per rank, crossbeam channels as the interconnect — true concurrent
//! message passing with the same merged-phase schedule (and therefore
//! bitwise-identical physics) as the BSP executor.
//!
//! What lives here is what makes it threaded: persistent worker threads
//! driven by per-rank command channels, one reply per command, a mailbox
//! that buffers out-of-phase messages, and poison/shutdown for a pool whose
//! member unwound mid-protocol. Every wire unit is accepted exactly as the
//! BSP executor accepts one ([`step::accept_unit`]). Deterministic fault
//! *injection* lives in the BSP executor only (scripted faults need a
//! reproducible delivery order, which concurrent threads cannot provide),
//! as does adaptive rebalancing; [`ThreadedSim::build`] refuses both.

use crate::config::EngineConfig;
use crate::error::{RuntimeError, SetupError};
use crate::grid::RankGrid;
use crate::health::{HealthConfig, HealthCounters, HealthTracker};
use crate::msg::{AtomMsg, Channel, Message, Payload};
use crate::rank::{ForceField, RankState};
use crate::step::{self, Buffers, Decomposition, Exchange, Feed, Scheduler};
use crossbeam_channel::{unbounded, Receiver, Sender};
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::checkpoint::Checkpoint;
use sc_md::{EnergyBreakdown, Telemetry, TupleCounts};
use sc_obs::{CommCounters, Phase, PhaseBreakdown, Registry, TraceSink, Tracer};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A wire message tagged with its sending rank.
type Wire = (usize, Message);

/// Sentinel phase the controller broadcasts to unblock workers whose peer
/// unwound mid-protocol; a mailbox seeing it fails its pending receive.
const POISON_PHASE: u64 = u64::MAX;

/// A command from the controller to one worker thread. Workers process
/// commands strictly in order; every `Step` / `Energy` / `Gather` produces
/// exactly one reply.
enum Cmd {
    /// Run one velocity-Verlet step of epoch `epoch` (priming forces first
    /// if needed).
    Step { epoch: u64, dt: f64, resort: bool },
    /// Recompute forces without integrating and report fresh energies.
    Energy { epoch: u64 },
    /// Report this rank's owned atoms for a global gather.
    Gather,
    /// Exit the worker loop.
    Stop,
}

/// A worker's per-command report back to the controller: everything the
/// executor needs to serve telemetry, supervision invariants, and energy
/// queries without another round-trip.
#[derive(Clone, Default)]
struct StepView {
    energy: EnergyBreakdown,
    tuples: TupleCounts,
    kinetic: f64,
    owned: usize,
    finite: bool,
    stats: CommCounters,
    health: HealthCounters,
}

/// One reply per `Step` / `Energy` / `Gather` command, tagged with the
/// worker's rank on the shared reply channel.
enum Reply {
    Step(Box<StepView>),
    Gather { atoms: Vec<AtomMsg>, masses: Vec<f64> },
    Failed(RuntimeError),
}

/// Buffers out-of-phase messages: a fast neighbour may send phase k+1
/// traffic while this rank still waits on phase k from a slow one.
struct Mailbox {
    rx: Receiver<Wire>,
    pending: Vec<Wire>,
}

impl Mailbox {
    /// Pulls the next wire unit stamped with `phase`, from the pending
    /// buffer or the channel. `None` when a poison sentinel arrived or the
    /// channel closed: a peer unwound mid-protocol and the slot can never
    /// fill.
    fn next_unit(&mut self, phase: u64) -> Option<Wire> {
        if let Some(pos) =
            self.pending.iter().position(|(_, m)| m.phase == phase || m.phase == POISON_PHASE)
        {
            let unit = self.pending.swap_remove(pos);
            return (unit.1.phase != POISON_PHASE).then_some(unit);
        }
        loop {
            let unit = self.rx.recv().ok()?;
            if unit.1.phase == POISON_PHASE {
                return None;
            }
            if unit.1.phase == phase {
                return Some(unit);
            }
            self.pending.push(unit);
        }
    }
}

/// The per-rank worker: rank state plus its end of the interconnect.
struct Worker {
    state: RankState,
    bufs: Buffers,
    dec: Arc<Decomposition>,
    ff: Arc<ForceField>,
    txs: Vec<Sender<Wire>>,
    mailbox: Mailbox,
    /// Per-peer health watchdog — protocol parity with the BSP executor: a
    /// stamp failure marks the sender suspect, and the flap breaker can
    /// declare a peer dead from the receive path alone.
    health: HealthTracker,
    tsink: TraceSink,
    phase: u64,
    /// The step being run (set per command).
    epoch: u64,
    needs_prime: bool,
    /// Results of the most recent force computation.
    last: (EnergyBreakdown, TupleCounts),
}

impl Worker {
    /// The post-command report: fresh energies plus the supervision
    /// invariants (atom count, finiteness) so the controller never needs a
    /// second round-trip to answer them.
    fn view(&self) -> Box<StepView> {
        Box::new(StepView {
            energy: self.last.0,
            tuples: self.last.1,
            kinetic: self.state.kinetic_energy(),
            owned: self.state.owned(),
            finite: self.state.is_finite(),
            stats: self.state.stats.clone(),
            health: self.health.counters(),
        })
    }
}

impl Scheduler for Worker {
    fn decomposition(&self) -> Arc<Decomposition> {
        Arc::clone(&self.dec)
    }

    fn each_rank(&mut self, f: &dyn Fn(&mut RankState)) {
        f(&mut self.state);
    }

    /// Puts this rank's sections for `x` on the wire, framed per
    /// destination as planned, then receives the phase's expected wire units
    /// (in whatever order they arrive), accepts each against the canonical
    /// slot it must fill, and absorbs the payloads in canonical slot order.
    /// A send can fail only when the peer already unwound with its own
    /// error; this rank then errors on its receive.
    fn exchange(&mut self, x: &Exchange) -> Result<(), RuntimeError> {
        self.phase += 1;
        let (rank, phase, epoch) = (self.state.rank, self.phase, self.epoch);
        step::outgoing(&mut self.state, &self.dec, x, &mut self.bufs, phase, epoch);
        let plan = &x.ranks[rank];
        for f in &plan.frames {
            let stats = &mut self.state.stats;
            let unit = step::frame(f, phase, epoch, &mut self.bufs, stats, &self.tsink);
            let _ = self.txs[f.to].send((rank, unit));
        }
        for _ in 0..plan.units.len() {
            let (from, m) = self.mailbox.next_unit(phase).ok_or(RuntimeError::MissingHop {
                rank,
                channel: plan.recvs[0].channel,
                epoch,
                attempts: 1,
            })?;
            let expected = step::expected(plan, rank, from, &m)?;
            let channel = expected.channel;
            step::accept_unit(&mut self.health, &self.tsink, &m, from, rank, channel, epoch)?;
            step::receive(&self.tsink, epoch, rank, plan, expected, m, &mut self.bufs)?;
        }
        step::absorb(&mut self.state, x, &mut self.bufs)
    }

    /// The rank splits compute into bin / enumerate / reduce itself
    /// (`compute_forces` folds them into its stats), so no wall slot is
    /// booked for it.
    fn compute(&mut self) {
        let start_ns = self.tsink.now_ns();
        let (energy, tuples, phases) = self.state.compute_forces(&self.ff);
        step::trace_compute(&self.tsink, self.epoch, start_ns, &phases);
        self.last = (energy, tuples);
    }

    /// Books a communication or integration phase in this rank's own
    /// breakdown and timeline row.
    fn book(&mut self, phase: Phase, secs: f64) {
        self.state.stats.phases.add(phase, secs);
        step::trace_booked(&self.tsink, self.epoch, phase, secs);
    }
}

/// The worker thread body: drain commands until `Stop` or a failed command.
/// A failure replies `Failed` and exits, dropping this rank's channel
/// endpoints; the controller then poisons the survivors so nobody blocks
/// on a slot that can never fill.
fn worker_main(mut w: Worker, cmd_rx: Receiver<Cmd>, reply_tx: Sender<(usize, Reply)>) {
    loop {
        let Ok(cmd) = cmd_rx.recv() else { return };
        let done = match cmd {
            Cmd::Stop => return,
            Cmd::Gather => {
                let reply = Reply::Gather {
                    atoms: w.state.owned_atoms(),
                    masses: w.state.store().species_masses().to_vec(),
                };
                let _ = reply_tx.send((w.state.rank, reply));
                continue;
            }
            Cmd::Step { epoch, dt, resort } => {
                w.epoch = epoch;
                let prime = w.needs_prime;
                step::step(&mut w, prime, dt, resort).map(|()| w.needs_prime = false)
            }
            // Fresh forces without integrating; deliberately does NOT clear
            // the priming flag, matching the BSP executor's total_energy
            // (so both executors run the same number of exchange cycles
            // over a run).
            Cmd::Energy { epoch } => {
                w.epoch = epoch;
                step::cycle(&mut w)
            }
        };
        match done {
            Ok(()) => {
                let _ = reply_tx.send((w.state.rank, Reply::Step(w.view())));
            }
            Err(e) => {
                let _ = reply_tx.send((w.state.rank, Reply::Failed(e)));
                return;
            }
        }
    }
}

/// A distributed MD simulation with one persistent OS thread per rank and
/// channels as the interconnect. Steps, telemetry, gather, checkpoint, and
/// restore mirror [`crate::DistributedSim`]; physics is bitwise-identical
/// between the two executors.
pub struct ThreadedSim {
    dec: Arc<Decomposition>,
    ff: Arc<ForceField>,
    dt: f64,
    subdivision: i32,
    resort_every: u64,
    steps_done: u64,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rx: Receiver<(usize, Reply)>,
    reply_tx: Sender<(usize, Reply)>,
    /// Controller-held clones of the data senders, used to poison blocked
    /// workers when one fails mid-protocol.
    data_txs: Vec<Sender<Wire>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-rank report from the most recent step/energy command.
    cached: Vec<StepView>,
    /// Set when the worker pool died mid-step; only `restore` revives it.
    dead: Option<RuntimeError>,
    feed: Feed,
    tracer: Tracer,
}

impl ThreadedSim {
    /// Decomposes `store` over a `pdims` rank grid with the default
    /// [`EngineConfig`] and spawns one worker thread per rank.
    ///
    /// # Errors
    /// See [`ThreadedSim::build`].
    pub fn new(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
    ) -> Result<Self, SetupError> {
        Self::build(store, bbox, pdims, ff, dt, EngineConfig::default())
    }

    /// Decomposes `store` over a `pdims` rank grid, configures the run and
    /// spawns one worker thread per rank, each writing its phase intervals
    /// and comm events into its own sink of `cfg.tracer`, so the merged
    /// timeline shows the true concurrent schedule.
    ///
    /// # Errors
    /// The same feasibility checks as [`crate::DistributedSim::build`],
    /// plus [`SetupError::Unsupported`] for a non-inert `cfg.faults` or a
    /// non-zero `cfg.rebalance_every`: scripted faults and adaptive
    /// re-decomposition live in the BSP executor only.
    pub fn build(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
        cfg: EngineConfig,
    ) -> Result<Self, SetupError> {
        let EngineConfig { subdivision, resort_every, rebalance_every, faults, metrics, tracer } =
            cfg;
        if !faults.is_inert() {
            return Err(SetupError::Unsupported { executor: "threaded", field: "faults" });
        }
        if rebalance_every != 0 {
            let field = "rebalance_every";
            return Err(SetupError::Unsupported { executor: "threaded", field });
        }
        let (dec, states, bufs) =
            step::decompose(RankGrid::try_new(pdims, bbox)?, &store, &ff, subdivision)?;
        let (reply_tx, reply_rx) = unbounded();
        let mut sim = ThreadedSim {
            dec,
            ff: Arc::new(ff),
            dt,
            subdivision,
            resort_every,
            steps_done: 0,
            cmd_txs: Vec::new(),
            reply_rx,
            reply_tx,
            data_txs: Vec::new(),
            handles: Vec::new(),
            cached: Vec::new(),
            dead: None,
            feed: Feed::new(metrics, Default::default(), Default::default()),
            tracer,
        };
        sim.spawn_pool(states, bufs);
        Ok(sim)
    }

    /// (Re)builds the worker pool over freshly decomposed rank states:
    /// channels, threads. Any previous pool must already be shut down.
    fn spawn_pool(&mut self, states: Vec<RankState>, bufs: Vec<Buffers>) {
        let nranks = states.len();
        let (txs, rxs): (Vec<Sender<Wire>>, Vec<Receiver<Wire>>) =
            (0..nranks).map(|_| unbounded()).unzip();
        self.data_txs = txs.clone();
        self.cmd_txs = Vec::with_capacity(nranks);
        self.handles = Vec::with_capacity(nranks);
        self.cached = vec![StepView::default(); nranks];
        self.dead = None;
        for (((rank, state), bufs), rx) in states.into_iter().enumerate().zip(bufs).zip(rxs) {
            let (cmd_tx, cmd_rx) = unbounded();
            self.cmd_txs.push(cmd_tx);
            let worker = Worker {
                state,
                bufs,
                dec: Arc::clone(&self.dec),
                ff: Arc::clone(&self.ff),
                txs: txs.clone(),
                mailbox: Mailbox { rx, pending: Vec::new() },
                health: HealthTracker::new(nranks, HealthConfig::default()),
                tsink: self.tracer.sink(rank as u32, 0),
                phase: 0,
                epoch: 0,
                needs_prime: true,
                last: Default::default(),
            };
            let reply_tx = self.reply_tx.clone();
            self.handles.push(std::thread::spawn(move || worker_main(worker, cmd_rx, reply_tx)));
        }
    }

    /// Stops and joins the worker pool (dead workers are already gone).
    fn shutdown_pool(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Stop);
        }
        // Unblock anyone stuck mid-protocol (a peer may have died between
        // our Stop landing and its next receive).
        self.poison();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.cmd_txs.clear();
        self.data_txs.clear();
    }

    /// Broadcasts the poison sentinel so workers blocked on a dead peer's
    /// slot fail their receive instead of waiting forever.
    fn poison(&self) {
        for tx in &self.data_txs {
            let channel = Channel::Migrate { axis: 0, dir: -1 };
            let msg = Message::stamped(POISON_PHASE, 0, channel, Payload::Batch(Vec::new()));
            let _ = tx.send((usize::MAX, msg));
        }
    }

    /// Broadcasts a command and collects exactly one `Step`-shaped reply
    /// per rank. On any failure the survivors are poisoned, all replies are
    /// drained, and the pool is marked dead.
    fn command_round(&mut self, make: impl Fn() -> Cmd) -> Result<(), RuntimeError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        for tx in &self.cmd_txs {
            let _ = tx.send(make());
        }
        let nranks = self.cmd_txs.len();
        let mut first_err: Option<RuntimeError> = None;
        for _ in 0..nranks {
            match self.reply_rx.recv() {
                Ok((rank, Reply::Step(view))) => self.cached[rank] = *view,
                Ok((_, Reply::Failed(e))) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                        // Unblock workers waiting on the failed rank so
                        // they too reply (with their own error) and exit.
                        self.poison();
                    }
                }
                Ok((_, Reply::Gather { .. })) | Err(_) => break,
            }
        }
        if let Some(e) = first_err {
            self.dead = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// The metrics registry in use.
    pub fn metrics(&self) -> &Registry {
        self.feed.registry()
    }

    /// The tracer in use.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The rank grid.
    pub fn grid(&self) -> &RankGrid {
        &self.dec.grid
    }

    /// Steps completed since construction (or the restored checkpoint).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// The integration timestep.
    pub fn timestep(&self) -> f64 {
        self.dt
    }

    /// Changes the integration timestep.
    pub fn set_timestep(&mut self, dt: f64) {
        self.dt = dt;
    }

    /// One velocity-Verlet step, surfacing unrecovered faults.
    ///
    /// # Errors
    /// Any [`RuntimeError`] a worker hit. The pool is dead afterwards;
    /// restoring from a checkpoint rebuilds it.
    pub fn try_step(&mut self) -> Result<(), RuntimeError> {
        let resort = self.resort_every != 0 && self.steps_done.is_multiple_of(self.resort_every);
        let (epoch, dt) = (self.steps_done, self.dt);
        self.command_round(|| Cmd::Step { epoch, dt, resort })?;
        self.steps_done += 1;
        if self.feed.registry().enabled() {
            self.feed.step(self.comm_stats(), self.health_counters());
        }
        Ok(())
    }

    /// One velocity-Verlet step.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault; use
    /// [`ThreadedSim::try_step`] in fault-tolerant loops.
    pub fn step(&mut self) {
        self.try_step().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Runs `n` steps. Panics like [`ThreadedSim::step`] on faults.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Aggregated communication statistics since the pool was (re)built.
    pub fn comm_stats(&self) -> CommCounters {
        let mut total = CommCounters::default();
        for v in &self.cached {
            total.merge(&v.stats);
        }
        total
    }

    /// Watchdog transitions summed over every worker's tracker.
    fn health_counters(&self) -> HealthCounters {
        let mut total = HealthCounters::default();
        for h in self.cached.iter().map(|v| v.health) {
            total.suspects += h.suspects;
            total.deaths += h.deaths;
            total.recoveries += h.recoveries;
            total.breaker_trips += h.breaker_trips;
        }
        total
    }

    /// The unified telemetry snapshot, served from the workers' most recent
    /// step reports. The threaded executor has no central wall clock, so
    /// the phase breakdown is the merged per-rank one.
    pub fn telemetry(&self) -> Telemetry {
        let (energy, tuples) =
            step::sum_results(self.cached.iter().map(|v| (&v.energy, &v.tuples)));
        step::telemetry(
            self.steps_done,
            energy,
            tuples,
            self.cached.iter().map(|v| v.stats.clone()).collect(),
            &CommCounters::default(),
            &PhaseBreakdown::default(),
            self.feed.registry().allocation_events(),
            false,
        )
    }

    /// Total energy; recomputes forces on every rank.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault.
    pub fn total_energy(&mut self) -> f64 {
        let epoch = self.steps_done;
        self.command_round(|| Cmd::Energy { epoch }).unwrap_or_else(|e| panic!("{e}"));
        self.cached.iter().map(|v| v.energy.total() + v.kinetic).sum()
    }

    /// Gathers all owned atoms into one store, sorted by global id — the
    /// same canonical form as [`crate::DistributedSim::gather`]. A dead
    /// pool yields an empty store (restore from a checkpoint instead).
    pub fn gather(&self) -> AtomStore {
        let mut atoms: Vec<AtomMsg> = Vec::new();
        let mut masses = vec![1.0];
        if self.dead.is_none() {
            for tx in &self.cmd_txs {
                let _ = tx.send(Cmd::Gather);
            }
            for _ in 0..self.cmd_txs.len() {
                if let Ok((_, Reply::Gather { atoms: a, masses: m })) = self.reply_rx.recv() {
                    atoms.extend(a);
                    masses = m;
                }
            }
        }
        step::gather(atoms, masses)
    }
}

impl Drop for ThreadedSim {
    fn drop(&mut self) {
        self.shutdown_pool();
    }
}

step::recoverable!(ThreadedSim {
    fn restore(&mut self, cp: &Checkpoint) {
        // Rebuild the whole pool from the snapshot: the cheap, always-valid
        // recovery for an interconnect whose threads may have unwound.
        self.shutdown_pool();
        self.dt = cp.dt;
        self.steps_done = cp.step;
        (self.feed.last, self.feed.last_health) = Default::default();
        let grid = self.dec.grid.clone();
        let (dec, states, bufs) = step::decompose(grid, &cp.to_store(), &self.ff, self.subdivision)
            .expect("restoring onto the grid the run already validated cannot fail");
        self.dec = dec;
        self.spawn_pool(states, bufs);
    }

    fn atom_count(&self) -> usize {
        self.cached.iter().map(|v| v.owned).sum()
    }

    fn total_energy_estimate(&self) -> f64 {
        self.cached.iter().map(|v| v.energy.total() + v.kinetic).sum()
    }

    fn state_is_finite(&self) -> bool {
        self.cached.iter().all(|v| v.finite)
    }
});
