//! The rank-step protocol: what one rank does in each exchange, written once.
//!
//! The paper's parallel step is one SPMD program per rank (§3.1.3, §4.2):
//! integrate, three axis-ordered migrations, the forwarded halo import,
//! tuple search + force evaluation, the reverse force return, integrate.
//! [`crate::DistributedSim`] runs that stage sequence over every rank in
//! lockstep; this module owns the exchanges inside it — the schedule planned
//! once per decomposition ([`Exchange`]), what a rank puts on the wire and
//! what it does with what arrives ([`outgoing`], [`frame`], [`receive`],
//! [`absorb`]), how an arriving wire unit is verified ([`verify_unit`]) —
//! plus how a run is decomposed.

use crate::comm::GhostPlan;
use crate::error::{RuntimeError, SetupError};
use crate::grid::RankGrid;
use crate::msg::{AtomMsg, Channel, ForceMsg, GhostMsg, Message, Payload};
use crate::rank::{validate_decomposition, ForceField, RankState};
use crate::transport::{self, Frame, PhasePlan, Slot, Unit};
use sc_cell::AtomStore;
use sc_obs::{CommCounters, TraceSink};
use std::sync::Arc;

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
/// [`RankState`], not in it, because a delivery fills the receiver's inbox
/// while the sender's rank state is borrowed. Nothing in it outlives a
/// re-decomposition.
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
/// cells: the one construction path behind the engine's constructor, its
/// restores, and its rebalance.
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
/// order — never arrival order — so the result does not depend on the order
/// ranks sent in. The emptied payload vectors join the free lists.
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
