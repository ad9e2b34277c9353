//! The rank-step protocol: everything one rank does in a step, written once.
//!
//! The paper's parallel step is one SPMD program per rank (§3.1.3, §4.2):
//! integrate, three axis-ordered migrations, the forwarded halo import,
//! tuple search + force evaluation, the reverse force return, integrate.
//! This module owns that program — the stage sequence ([`step`], [`cycle`]),
//! the exchange schedule planned once per decomposition ([`Exchange`]), what
//! a rank puts on the wire and what it does with what arrives ([`outgoing`],
//! [`frame`], [`receive`], [`absorb`]), how an arriving wire unit is accepted
//! ([`accept_unit`]), and how a run is decomposed, gathered, checkpointed and
//! reported. The two executors are *schedulers* of
//! it: they implement [`Scheduler`] to say where the ranks live and how a
//! wire unit travels, and know nothing else about the protocol.

use crate::comm::GhostPlan;
use crate::error::{RuntimeError, SetupError};
use crate::grid::RankGrid;
use crate::health::{HealthCounters, HealthTracker};
use crate::msg::{AtomMsg, Channel, ForceMsg, GhostMsg, Message, Payload};
use crate::rank::{validate_decomposition, ForceField, RankState};
use crate::transport::{self, Frame, PhasePlan, Slot, Unit};
use sc_cell::AtomStore;
use sc_md::checkpoint::{Checkpoint, SnapshotLayout};
use sc_md::{EnergyBreakdown, Telemetry, TupleCounts};
use sc_obs::trace::EventKind;
use sc_obs::{CommCounters, Counter, Histogram, Phase, PhaseBreakdown, Registry, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// What an exchange of the step's fixed schedule carries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// Migration along the given axis, both directions.
    Migrate(usize),
    /// Ghost export for one merged hop group (ascending hops).
    Ghosts,
    /// Ghost-force return for one merged hop group (descending hops).
    Forces,
}

/// One exchange of the step's fixed schedule, planned for every rank.
pub(crate) struct Exchange {
    pub kind: Kind,
    /// The routing hops of a ghost or force group, one per slot of every
    /// rank's plan (empty for a migration).
    pub hops: Vec<usize>,
    /// Each rank's slots, frames and expected units (index = rank).
    pub ranks: Vec<PhasePlan>,
}

/// A run's spatial decomposition and the exchange schedule it implies: three
/// migrations, the merged ghost groups of the plan
/// ([`transport::ghost_phase_groups`]) and their reverse for the force
/// return. Everything a step needs to know about who sends what to whom is
/// computed here, once.
pub(crate) struct Decomposition {
    pub grid: RankGrid,
    pub plan: GhostPlan,
    pub migrate: Vec<Exchange>,
    pub ghosts: Vec<Exchange>,
    pub forces: Vec<Exchange>,
}

/// One rank's exchange scratch: free lists that turn a received payload
/// vector into the rank's next send buffer of the same kind, and the fixed
/// positions a phase's sections and payloads move through. Kept beside the
/// [`RankState`], not in it, because a BSP delivery fills the receiver's
/// inbox while the sender's rank state is borrowed. Nothing in it outlives
/// a re-decomposition.
#[derive(Default)]
pub(crate) struct Buffers {
    atoms: Vec<Vec<AtomMsg>>,
    ghosts: Vec<Vec<GhostMsg>>,
    forces: Vec<Vec<ForceMsg>>,
    batches: Vec<Vec<Message>>,
    /// The phase's stamped sections, one per send slot, until framed.
    sections: Vec<Option<Message>>,
    /// The phase's arrived payloads, one per receive slot, until absorbed.
    inbox: Vec<Option<Payload>>,
}

/// A decomposed run: the shared schedule, the rank states, and each rank's
/// exchange scratch (index = rank).
pub(crate) type Decomposed = (Arc<Decomposition>, Vec<RankState>, Vec<Buffers>);

/// Decomposes `store` over `grid` with `k`-fold subdivided rank-local
/// cells: the one construction path behind both executors' constructors,
/// restores, and the BSP rebalance.
///
/// # Errors
/// Rejects configurations where the halo would be deeper than one rank
/// sub-box, the global cell lattice is too small for the largest tuple
/// order, `k` is unsupported, or the ranks fail to claim every atom.
pub(crate) fn decompose(
    grid: RankGrid,
    store: &AtomStore,
    ff: &ForceField,
    k: i32,
) -> Result<Decomposed, SetupError> {
    if !(1..=3).contains(&k) {
        return Err(SetupError::UnsupportedSubdivision(k));
    }
    let width = validate_decomposition(ff, &grid)?;
    let plan = GhostPlan::for_method(ff.method, width)?;
    let ranks: Vec<RankState> =
        (0..grid.len()).map(|r| RankState::new(r, grid.clone(), store, ff, k)).collect();
    let claimed: usize = ranks.iter().map(|r| r.owned()).sum();
    if claimed != store.len() {
        return Err(SetupError::AtomsLost { expected: store.len(), claimed });
    }
    let exchange = |kind, hops: Vec<usize>| {
        let slots = |r| match kind {
            Kind::Migrate(axis) => transport::migrate_phase(&grid, r, axis),
            Kind::Ghosts => transport::ghost_phase(&grid, &plan, r, &hops),
            Kind::Forces => transport::force_phase(&grid, &plan, r, &hops),
        };
        let ranks = transport::plan_phase((0..grid.len()).map(slots).collect());
        Exchange { kind, hops, ranks }
    };
    let migrate = (0..3).map(|axis| exchange(Kind::Migrate(axis), Vec::new())).collect();
    let groups = transport::ghost_phase_groups(&plan).into_iter();
    let ghosts = groups.map(|hops| exchange(Kind::Ghosts, hops)).collect();
    let groups = transport::force_phase_groups(&plan).into_iter();
    let forces = groups.map(|hops| exchange(Kind::Forces, hops)).collect();
    let bufs = ranks.iter().map(|_| Buffers::default()).collect();
    Ok((Arc::new(Decomposition { grid, plan, migrate, ghosts, forces }), ranks, bufs))
}

/// What a scheduler of the rank-step protocol provides: where the ranks it
/// drives live, how one exchange is carried out across them, how forces are
/// computed on them, and where phase seconds are booked. [`step`] and
/// [`cycle`] are written against this and nothing else, so the stage
/// sequence exists once.
pub(crate) trait Scheduler {
    /// The decomposition in force.
    fn decomposition(&self) -> Arc<Decomposition>;
    /// Runs a rank-local stage on every rank this scheduler drives.
    fn each_rank(&mut self, f: &dyn Fn(&mut RankState));
    /// Carries out one exchange: every driven rank's [`outgoing`] sections
    /// travel, and every driven rank [`absorb`]s what arrived for it.
    fn exchange(&mut self, x: &Exchange) -> Result<(), RuntimeError>;
    /// Computes forces on every driven rank.
    fn compute(&mut self);
    /// Books `secs` of wall time under `phase`.
    fn book(&mut self, phase: Phase, secs: f64);
}

/// Runs the exchanges `xs` in order and books their wall time under `phase`.
fn exchanges<S: Scheduler>(s: &mut S, xs: &[Exchange], phase: Phase) -> Result<(), RuntimeError> {
    let t = Instant::now();
    for x in xs {
        s.exchange(x)?;
    }
    s.book(phase, t.elapsed().as_secs_f64());
    Ok(())
}

/// One ghost-import + force-computation + force-return cycle, as in the
/// paper: the whole halo arrives before any tuple is searched. The import is
/// booked under [`Phase::Exchange`], the force return under
/// [`Phase::Reduce`].
pub(crate) fn cycle<S: Scheduler>(s: &mut S) -> Result<(), RuntimeError> {
    let dec = s.decomposition();
    s.each_rank(&|r| r.drop_ghosts());
    exchanges(s, &dec.ghosts, Phase::Exchange)?;
    s.compute();
    exchanges(s, &dec.forces, Phase::Reduce)
}

/// One velocity-Verlet step: a priming [`cycle`] when forces are stale,
/// half-kick + drift, the Morton re-sort at the ghost-free point (so
/// migration rebuilds the halo against the new slot layout), three
/// axis-ordered migrations, a [`cycle`], and the second half-kick.
pub(crate) fn step<S: Scheduler>(
    s: &mut S,
    prime: bool,
    dt: f64,
    resort: bool,
) -> Result<(), RuntimeError> {
    if prime {
        cycle(s)?;
    }
    let t = Instant::now();
    s.each_rank(&|r| {
        r.vv_start(dt);
        r.drop_ghosts();
        if resort {
            r.resort_owned();
        }
    });
    s.book(Phase::Integrate, t.elapsed().as_secs_f64());
    let dec = s.decomposition();
    exchanges(s, &dec.migrate, Phase::Migrate)?;
    cycle(s)?;
    let t = Instant::now();
    s.each_rank(&|r| r.vv_finish(dt));
    s.book(Phase::Integrate, t.elapsed().as_secs_f64());
    Ok(())
}

/// A vector from the free list, or a fresh one while the list warms up.
fn spare<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    pool.pop().unwrap_or_default()
}

/// Stamps `payload` as the phase's next staged section.
fn stage(
    sections: &mut Vec<Option<Message>>,
    slot: &Slot,
    phase: u64,
    epoch: u64,
    payload: Payload,
) {
    sections.push(Some(Message::stamped(phase, epoch, slot.channel, payload)));
}

/// Stages what `rank` puts on the wire for exchange `x`: one stamped section
/// per send slot in canonical order (empty payloads included, as MPI codes
/// do, so message counts are fixed). Bands received earlier in the cycle
/// are forwarded from the store ([`RankState::collect_ghost_band`]).
pub(crate) fn outgoing(
    rank: &mut RankState,
    dec: &Decomposition,
    x: &Exchange,
    bufs: &mut Buffers,
    phase: u64,
    epoch: u64,
) {
    let sends = &x.ranks[rank.rank].sends;
    bufs.sections.clear();
    match x.kind {
        Kind::Migrate(axis) => {
            let (mut to_minus, mut to_plus) = (spare(&mut bufs.atoms), spare(&mut bufs.atoms));
            rank.collect_migrants(axis, &mut to_minus, &mut to_plus);
            for (slot, atoms) in sends.iter().zip([to_minus, to_plus]) {
                stage(&mut bufs.sections, slot, phase, epoch, Payload::Migrate(atoms));
            }
        }
        Kind::Ghosts => {
            for (slot, &hop) in sends.iter().zip(&x.hops) {
                let mut band = spare(&mut bufs.ghosts);
                rank.collect_ghost_band(&dec.plan, hop, &mut band);
                stage(&mut bufs.sections, slot, phase, epoch, Payload::Ghosts(band));
            }
        }
        Kind::Forces => {
            for (slot, &hop) in sends.iter().zip(&x.hops) {
                let mut forces = spare(&mut bufs.forces);
                rank.collect_ghost_forces(hop, &mut forces);
                stage(&mut bufs.sections, slot, phase, epoch, Payload::Forces(forces));
            }
        }
    }
}

/// The payload that arrived for receive slot `k`.
fn arrived(bufs: &mut Buffers, me: usize, slot: &Slot, k: usize) -> Result<Payload, RuntimeError> {
    let payload = bufs.inbox.get_mut(k).and_then(Option::take);
    payload.ok_or(RuntimeError::WrongPayload { rank: me, channel: slot.channel })
}

/// Absorbs the payloads that arrived for exchange `x`, in canonical slot
/// order — never arrival order — which is what keeps the executors
/// bitwise-identical. The emptied payload vectors join the free lists.
pub(crate) fn absorb(
    rank: &mut RankState,
    x: &Exchange,
    bufs: &mut Buffers,
) -> Result<(), RuntimeError> {
    let me = rank.rank;
    for (k, slot) in x.ranks[me].recvs.iter().enumerate() {
        match (x.kind, arrived(bufs, me, slot, k)?) {
            (Kind::Migrate(_), Payload::Migrate(atoms)) => {
                rank.absorb_migrants(&atoms);
                bufs.atoms.push(atoms);
            }
            (Kind::Ghosts, Payload::Ghosts(ghosts)) => {
                rank.absorb_ghosts(x.hops[k], &ghosts);
                bufs.ghosts.push(ghosts);
            }
            (Kind::Forces, Payload::Forces(forces)) => {
                rank.absorb_ghost_forces(x.hops[k], &forces)?;
                bufs.forces.push(forces);
            }
            _ => return Err(RuntimeError::WrongPayload { rank: me, channel: slot.channel }),
        }
    }
    Ok(())
}

/// Packs one planned frame of a rank's staged sections
/// ([`transport::pack_frame`]) and accounts for it. Counter discipline
/// (bytes are counted once): `record_send` and the trace Send event fire
/// **once per wire unit** with the frame's total payload bytes and its
/// section count — never again per section — so `comm.messages`,
/// `comm.bytes`, and the `comm.step_bytes` histogram see a frame's traffic
/// exactly once.
pub(crate) fn frame(
    f: &Frame,
    phase: u64,
    epoch: u64,
    bufs: &mut Buffers,
    stats: &mut CommCounters,
    sink: &TraceSink,
) -> Message {
    let unit = transport::pack_frame(f, phase, epoch, &mut bufs.sections, &mut bufs.batches);
    let bytes = unit.payload.wire_bytes();
    let nsec = unit.payload.section_count() as u16;
    stats.record_send(f.to, bytes);
    sink.send(epoch, unit.channel.trace_class(), f.to as u32, bytes, nsec, epoch);
    unit
}

/// The frame rank `to` expects from `from` in this phase. A unit from a
/// rank the phase does not hear from is refused under its own channel.
pub(crate) fn expected<'a>(
    plan: &'a PhasePlan,
    to: usize,
    from: usize,
    unit: &Message,
) -> Result<&'a Unit, RuntimeError> {
    plan.unit_from(from).ok_or(RuntimeError::WrongPayload { rank: to, channel: unit.channel })
}

/// Takes in one accepted wire unit: traces the receipt on the receiver's
/// row and unpacks the sections into the receive slots they fill
/// ([`transport::match_sections`]).
pub(crate) fn receive(
    sink: &TraceSink,
    epoch: u64,
    to: usize,
    plan: &PhasePlan,
    expected: &Unit,
    unit: Message,
    bufs: &mut Buffers,
) -> Result<(), RuntimeError> {
    if sink.enabled() {
        let bytes = unit.payload.wire_bytes();
        let nsec = unit.payload.section_count() as u16;
        sink.recv(epoch, unit.channel.trace_class(), expected.from as u32, bytes, nsec, epoch);
    }
    transport::match_sections(to, &plan.recvs, expected, unit, &mut bufs.inbox, &mut bufs.batches)
}

/// Verifies a wire unit's outer stamp against the slot `to` is filling and
/// every section of a batched frame against its own stamp, so in-frame
/// corruption is detected — and retried at frame granularity — before the
/// receiver unpacks anything.
pub(crate) fn verify_unit(
    unit: &Message,
    to: usize,
    epoch: u64,
    channel: Channel,
) -> Result<(), RuntimeError> {
    unit.verify(to, epoch, channel)?;
    if let Payload::Batch(sections) = &unit.payload {
        for s in sections {
            s.verify(to, epoch, s.channel)?;
        }
    }
    Ok(())
}

/// Feeds one delivery attempt's outcome from `from` into the watchdog and
/// traces any health transition it caused.
pub(crate) fn note_delivery(
    health: &mut HealthTracker,
    sink: &TraceSink,
    from: usize,
    channel: Channel,
    epoch: u64,
    delivered: bool,
) {
    let class = channel.trace_class();
    let moved = if delivered {
        health.record_success(from, class, epoch)
    } else {
        health.record_failure(from, class, epoch)
    };
    if let Some(state) = moved {
        sink.instant(epoch, EventKind::Health { peer: from as u32, state: state.code() });
    }
}

/// Escalates to [`RuntimeError::RankDead`] when the watchdog has declared
/// `from` dead — the signal for the supervisor to re-decompose rather than
/// roll back. A flapping link can trip the circuit breaker on the very
/// delivery that succeeded; death still wins.
pub(crate) fn dead_or<T>(
    health: &HealthTracker,
    from: usize,
    epoch: u64,
    verdict: Result<T, RuntimeError>,
) -> Result<T, RuntimeError> {
    if health.is_dead(from) {
        return Err(RuntimeError::RankDead { rank: from, step: epoch, epoch });
    }
    verdict
}

/// Accepts one wire unit on a link without retransmission: verify, feed
/// the watchdog, escalate.
pub(crate) fn accept_unit(
    health: &mut HealthTracker,
    sink: &TraceSink,
    unit: &Message,
    from: usize,
    to: usize,
    channel: Channel,
    epoch: u64,
) -> Result<(), RuntimeError> {
    let verdict = verify_unit(unit, to, epoch, channel);
    note_delivery(health, sink, from, channel, epoch, verdict.is_ok());
    dead_or(health, from, epoch, verdict)
}

/// Traces a phase that just ended after running for `secs` on `sink`'s row.
pub(crate) fn trace_booked(sink: &TraceSink, step: u64, phase: Phase, secs: f64) {
    if sink.enabled() {
        let dur_ns = (secs * 1e9) as u64;
        sink.phase(step, phase, sink.now_ns().saturating_sub(dur_ns), dur_ns);
    }
}

/// Emits a rank's fine-grained compute phases (bin / enumerate / eval /
/// reduce), laid out cumulatively from `start_ns` on its own timeline row.
pub(crate) fn trace_compute(sink: &TraceSink, step: u64, start_ns: u64, phases: &PhaseBreakdown) {
    if !sink.enabled() {
        return;
    }
    let mut cursor = start_ns;
    for (phase, secs) in phases.iter() {
        let dur_ns = (secs * 1e9) as u64;
        if dur_ns > 0 {
            sink.phase(step, phase, cursor, dur_ns);
            cursor += dur_ns;
        }
    }
}

/// Sums per-rank compute results (in rank order, for determinism) into the
/// global energy and tuple totals.
pub(crate) fn sum_results<'a>(
    results: impl Iterator<Item = (&'a EnergyBreakdown, &'a TupleCounts)>,
) -> (EnergyBreakdown, TupleCounts) {
    let mut energy = EnergyBreakdown::default();
    let mut tuples = TupleCounts::default();
    for (e, t) in results {
        energy.pair += e.pair;
        energy.triplet += e.triplet;
        energy.quadruplet += e.quadruplet;
        tuples.pair.merge(t.pair);
        tuples.triplet.merge(t.triplet);
        tuples.quadruplet.merge(t.quadruplet);
    }
    (energy, tuples)
}

/// Assembles the unified telemetry snapshot from the per-rank counters.
/// `carried` holds the totals of rank sets retired by re-decomposition and
/// `wall` the scheduler-level wall clock, which fills the exchange /
/// migrate / integrate / compute slots — and adds the force return to
/// reduce, beside the ranks' own scratch merges — when ranks do not time
/// those themselves. The distributed executors do not compute a virial.
#[allow(clippy::too_many_arguments)]
pub(crate) fn telemetry(
    step: u64,
    energy: EnergyBreakdown,
    tuples: TupleCounts,
    per_rank: Vec<CommCounters>,
    carried: &CommCounters,
    wall: &PhaseBreakdown,
    alloc_events: u64,
    degraded: bool,
) -> Telemetry {
    let mut comm = carried.clone();
    for r in &per_rank {
        comm.merge(r);
    }
    let mut phases = comm.phases;
    for ph in [Phase::Exchange, Phase::Migrate, Phase::Integrate, Phase::Compute, Phase::Reduce] {
        phases.add(ph, wall.get(ph));
    }
    Telemetry {
        step,
        energy,
        tuples,
        virial: 0.0,
        phases,
        total_phases: phases,
        per_rank,
        comm,
        alloc_events,
        degraded,
    }
}

/// A counter series: its exported name and the field it reports.
type Series<T> = (&'static str, fn(&T) -> u64);

/// The `comm.*` counter series and the [`CommCounters`] fields behind them.
const COMM_SERIES: [Series<CommCounters>; 6] = [
    ("comm.messages", |c| c.messages),
    ("comm.bytes", |c| c.bytes),
    ("comm.ghosts_imported", |c| c.ghosts_imported),
    ("comm.atoms_migrated", |c| c.atoms_migrated),
    ("comm.retries", |c| c.retries),
    ("comm.faults_detected", |c| c.faults_detected),
];

/// The `health.*` counter series and the [`HealthCounters`] fields behind
/// them.
const HEALTH_SERIES: [Series<HealthCounters>; 4] = [
    ("health.suspects", |h| h.suspects),
    ("health.deaths", |h| h.deaths),
    ("health.recoveries", |h| h.recoveries),
    ("health.breaker_trips", |h| h.breaker_trips),
];

/// The registry feed both executors report through: pre-registered series
/// handles (inert when the registry is disabled) fed per-step deltas of the
/// aggregate communication and health counters.
pub(crate) struct Feed {
    registry: Registry,
    steps: Counter,
    comm: [Counter; 6],
    step_bytes: Histogram,
    health: [Counter; 4],
    /// Aggregate counters at the previous feed (the delta baseline).
    /// Reset when the rank counters behind them are rebuilt from scratch.
    pub last: CommCounters,
    /// Watchdog counters at the previous feed. Reset with the trackers.
    pub last_health: HealthCounters,
}

impl Feed {
    /// Registers the series in `registry`; deltas count from the given
    /// baselines.
    pub fn new(registry: Registry, last: CommCounters, last_health: HealthCounters) -> Self {
        Feed {
            steps: registry.counter("dist.steps"),
            comm: COMM_SERIES.map(|(name, _)| registry.counter(name)),
            step_bytes: registry
                .histogram("comm.step_bytes", &[1024.0, 16384.0, 262144.0, 4194304.0, 67108864.0]),
            health: HEALTH_SERIES.map(|(name, _)| registry.counter(name)),
            registry,
            last,
            last_health,
        }
    }

    /// The registry the series live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Feeds one completed step: the deltas of the aggregate counters
    /// (per-rank phase seconds included) since the previous feed.
    pub fn step(&mut self, now: CommCounters, health: HealthCounters) {
        self.steps.inc();
        for (series, (_, field)) in self.comm.iter().zip(COMM_SERIES) {
            series.add(field(&now) - field(&self.last));
        }
        self.step_bytes.observe((now.bytes - self.last.bytes) as f64);
        for (phase, secs) in now.phases.iter() {
            self.registry.record_phase(phase, secs - self.last.phases.get(phase));
        }
        for (series, (_, field)) in self.health.iter().zip(HEALTH_SERIES) {
            series.add(field(&health) - field(&self.last_health));
        }
        (self.last, self.last_health) = (now, health);
    }
}

/// Gathers owned atoms into one store, sorted by global id, positions
/// wrapped into the global box — directly comparable with a serial
/// [`sc_md::Simulation`].
pub(crate) fn gather(mut atoms: Vec<AtomMsg>, masses: Vec<f64>) -> AtomStore {
    atoms.sort_by_key(|a| a.id);
    let mut out = AtomStore::new(masses);
    for a in &atoms {
        out.push(a.id, a.species, a.position, a.velocity);
    }
    out
}

/// Implements [`sc_md::supervisor::Recoverable`] for an executor with
/// `steps_done` / `dt` / `dec` fields and inherent `try_step` / `gather`:
/// the snapshot, timestep and fault classification are the same for every
/// scheduler; the scheduler-specific methods are passed in.
macro_rules! recoverable {
    ($engine:ty { $($specific:item)* }) => {
        impl sc_md::supervisor::Recoverable for $engine {
            fn try_step(&mut self) -> Result<(), sc_md::StepFault> {
                <$engine>::try_step(self).map_err(Into::into)
            }

            fn checkpoint(&self) -> sc_md::checkpoint::Checkpoint {
                $crate::step::checkpoint(self.steps_done, self.dt, &self.dec.grid, &self.gather())
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

            $($specific)*
        }
    };
}
pub(crate) use recoverable;

/// Snapshots a gathered run, recording the grid it was decomposed over.
pub(crate) fn checkpoint(step: u64, dt: f64, grid: &RankGrid, store: &AtomStore) -> Checkpoint {
    let p = grid.pdims();
    Checkpoint::from_store(step, dt, grid.bbox(), store)
        .with_layout(SnapshotLayout::Grid { pdims: [p.x, p.y, p.z] })
}
