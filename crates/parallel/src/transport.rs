//! The communication-optimal exchange schedule of the distributed engine.
//!
//! One message per channel would cost 3 migrate phases × 2 directions, plus
//! one ghost message and one force message per routing hop — 12 (SC) or 18
//! (FS) messages per rank per step. The schedule here is *merged phases*
//! with *per-neighbor framing*, 9 wire units per rank per step for every
//! method:
//!
//! * Same-axis hop pairs of the FS/Hybrid plan are provably independent
//!   (forwarded routing only re-exports ghosts that arrived on a strictly
//!   earlier axis), so both directions of an axis share one exchange phase.
//! * Within a phase, every per-channel payload bound for the same neighbor
//!   rank is packed into one framed [`Payload::Batch`] message. Sections
//!   keep their own stamps and checksums, so validation and fault injection
//!   still localize per channel while the latency term of Eq. 31
//!   (`c_lat · n_msg`) pays once per neighbor instead of once per channel.
//! * Receivers absorb sections in *canonical slot order* (migration by
//!   direction, ghosts by ascending hop, forces by descending hop) — never
//!   in arrival order — so the result does not depend on the order frames
//!   are delivered in.
//!
//! The schedule is static for a decomposition, so it is *planned*: the slot
//! builders below run once, and [`plan_phase`] turns their output into one
//! [`PhasePlan`] per rank and phase — send slots, receive slots, which send
//! slots share a frame, and which receive slot each section of an arriving
//! frame fills. A step reads the plan ([`pack_frame`], [`match_sections`]);
//! it derives nothing.

use crate::comm::GhostPlan;
use crate::grid::RankGrid;
use crate::msg::{Channel, Message, Payload};

/// One send or receive slot within an exchange phase: the channel it fills
/// and the peer rank on the other end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The per-channel slot this section fills.
    pub channel: Channel,
    /// Send: destination rank. Receive: source rank.
    pub peer: usize,
}

/// Groups the plan's hops into merged exchange phases: maximal runs of
/// consecutive same-axis hops. For the SC plan this is one hop per phase;
/// for FS/Hybrid both directions of an axis share a phase.
pub fn ghost_phase_groups(plan: &GhostPlan) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (hop, &(axis, _)) in plan.hops.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if plan.hops[g[0]].0 == axis => g.push(hop),
            _ => groups.push(vec![hop]),
        }
    }
    groups
}

/// The reverse (force-reduction) phase groups: the ghost groups visited in
/// reverse, hops descending inside each group — the exact reverse of the
/// forward routing, so multi-hop forwarded forces drain outward correctly.
pub fn force_phase_groups(plan: &GhostPlan) -> Vec<Vec<usize>> {
    let mut groups = ghost_phase_groups(plan);
    groups.reverse();
    for g in &mut groups {
        g.reverse();
    }
    groups
}

/// The migration phase for `axis`: send slots in direction order `[-1, +1]`
/// and the matching canonical receive slots (a `dir` send arrives from the
/// receiver's `-dir` neighbor... i.e. the receiver hears `Migrate{dir}` from
/// its `+... -dir`-opposite side).
pub fn migrate_phase(grid: &RankGrid, rank: usize, axis: usize) -> (Vec<Slot>, Vec<Slot>) {
    let sends = vec![
        Slot { channel: Channel::Migrate { axis, dir: -1 }, peer: grid.neighbor(rank, axis, -1) },
        Slot { channel: Channel::Migrate { axis, dir: 1 }, peer: grid.neighbor(rank, axis, 1) },
    ];
    // A `dir = -1` migration is received from the +1 neighbor and vice
    // versa. Canonical absorb order mirrors the send order.
    let recvs = vec![
        Slot { channel: Channel::Migrate { axis, dir: -1 }, peer: grid.neighbor(rank, axis, 1) },
        Slot { channel: Channel::Migrate { axis, dir: 1 }, peer: grid.neighbor(rank, axis, -1) },
    ];
    (sends, recvs)
}

/// The ghost-export phase for one hop group: bands go to the `-recv_dir`
/// neighbor and arrive from the `recv_dir` neighbor, hops in ascending
/// order on both sides.
pub fn ghost_phase(
    grid: &RankGrid,
    plan: &GhostPlan,
    rank: usize,
    hops: &[usize],
) -> (Vec<Slot>, Vec<Slot>) {
    let mut sends = Vec::with_capacity(hops.len());
    let mut recvs = Vec::with_capacity(hops.len());
    for &hop in hops {
        let (axis, recv_dir) = plan.hops[hop];
        let channel = Channel::Ghosts { hop };
        sends.push(Slot { channel, peer: grid.neighbor(rank, axis, -recv_dir) });
        recvs.push(Slot { channel, peer: grid.neighbor(rank, axis, recv_dir) });
    }
    (sends, recvs)
}

/// The force-return phase for one (already reversed) hop group: forces for
/// hop `h` flow back to the rank the ghosts came from (`recv_dir` neighbor)
/// and arrive from the rank the band was exported to.
pub fn force_phase(
    grid: &RankGrid,
    plan: &GhostPlan,
    rank: usize,
    hops: &[usize],
) -> (Vec<Slot>, Vec<Slot>) {
    let mut sends = Vec::with_capacity(hops.len());
    let mut recvs = Vec::with_capacity(hops.len());
    for &hop in hops {
        let (axis, recv_dir) = plan.hops[hop];
        let channel = Channel::Forces { hop };
        sends.push(Slot { channel, peer: grid.neighbor(rank, axis, recv_dir) });
        recvs.push(Slot { channel, peer: grid.neighbor(rank, axis, -recv_dir) });
    }
    (sends, recvs)
}

/// One frame a rank sends in a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination rank.
    pub to: usize,
    /// The send slots whose sections ride in it, in canonical order.
    pub sections: Vec<usize>,
}

/// One frame a rank receives in a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Source rank.
    pub from: usize,
    /// The channel its outer stamp must carry: that of the first canonical
    /// receive slot the source fills.
    pub channel: Channel,
    /// For each section, in frame order, the receive slot it fills.
    pub slots: Vec<usize>,
}

/// One rank's part in one exchange phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePlan {
    /// Send slots in canonical order.
    pub sends: Vec<Slot>,
    /// Receive slots in canonical order — the order payloads are absorbed
    /// in, regardless of arrival order.
    pub recvs: Vec<Slot>,
    /// One frame per distinct destination, in first-seen order.
    pub frames: Vec<Frame>,
    /// One expected frame per distinct source, in canonical order.
    pub units: Vec<Unit>,
}

impl PhasePlan {
    /// The frame expected from `from`, if this phase hears from it at all.
    pub fn unit_from(&self, from: usize) -> Option<&Unit> {
        self.units.iter().find(|u| u.from == from)
    }
}

/// Groups section destinations (one per send slot, canonical order) into
/// frames: one per distinct destination, in first-seen order, sections
/// keeping their canonical order inside.
fn frames_by_destination(dests: impl Iterator<Item = usize>) -> Vec<Frame> {
    let mut frames: Vec<Frame> = Vec::new();
    for (k, to) in dests.enumerate() {
        match frames.iter_mut().find(|f| f.to == to) {
            Some(f) => f.sections.push(k),
            None => frames.push(Frame { to, sections: vec![k] }),
        }
    }
    frames
}

/// Plans one exchange phase for every rank from the ranks' `(sends, recvs)`
/// slots (index = rank): groups each rank's sends into per-destination
/// frames and matches every section of every frame to the receive slot it
/// fills — the first free slot that hears its channel from that source.
///
/// # Panics
/// When the slots are not a symmetric schedule (a sent section nobody
/// receives, or a receive slot nobody fills): a bug in the slot builders.
pub fn plan_phase(slots: Vec<(Vec<Slot>, Vec<Slot>)>) -> Vec<PhasePlan> {
    let mut plans: Vec<PhasePlan> = slots
        .into_iter()
        .map(|(sends, recvs)| {
            let frames = frames_by_destination(sends.iter().map(|s| s.peer));
            PhasePlan { sends, recvs, frames, units: Vec::new() }
        })
        .collect();
    for to in 0..plans.len() {
        let recvs = &plans[to].recvs;
        let mut filled = vec![false; recvs.len()];
        let mut units: Vec<Unit> = Vec::new();
        for first in recvs {
            if units.iter().any(|u| u.from == first.peer) {
                continue;
            }
            let source = &plans[first.peer];
            let frame = source.frames.iter().find(|f| f.to == to);
            let fill = |&k: &usize| {
                let sent = source.sends[k].channel;
                let hears = |(i, r): (usize, &Slot)| {
                    !filled[i] && r.peer == first.peer && r.channel.matches(sent)
                };
                let slot = recvs.iter().enumerate().position(hears);
                let slot = slot.expect("every sent section has a receive slot");
                filled[slot] = true;
                slot
            };
            let slots = frame.map_or_else(Vec::new, |f| f.sections.iter().map(fill).collect());
            units.push(Unit { from: first.peer, channel: first.channel, slots });
        }
        assert!(filled.iter().all(|&f| f), "rank {to}: a receive slot nobody fills");
        plans[to].units = units;
    }
    plans
}

/// Packs one planned frame: takes the staged sections (one per send slot)
/// the frame carries and stamps them as one [`Payload::Batch`] under the
/// first section's channel. The batch vector comes from `spare` when it has
/// one.
///
/// # Panics
/// When a section the frame names was not staged (or was already packed).
pub fn pack_frame(
    frame: &Frame,
    phase: u64,
    epoch: u64,
    sections: &mut [Option<Message>],
    spare: &mut Vec<Vec<Message>>,
) -> Message {
    let mut batch = spare.pop().unwrap_or_default();
    let staged = frame.sections.iter().map(|&k| sections[k].take().expect("section staged once"));
    batch.extend(staged);
    let channel = batch[0].channel;
    Message::stamped(phase, epoch, channel, Payload::Batch(batch))
}

/// Packs stamped sections (one per send slot, in canonical slot order,
/// tagged with their destination) into wire messages: one framed
/// [`Payload::Batch`] per destination (sections keep their canonical order
/// inside the frame). Returns `(destination, message)` pairs in first-seen
/// destination order. This is the unplanned entry to [`pack_frame`]: it
/// derives the grouping a [`PhasePlan`] holds and packs the same way.
///
/// Every caller in this workspace passes `aggregation = true`; `false`
/// returns the sections unframed. The parameter is what is left of the
/// per-channel schedule and stays until a change may edit `benchmark/`,
/// whose frame probe calls this signature.
pub fn frame_sections(
    aggregation: bool,
    phase: u64,
    epoch: u64,
    sections: Vec<(usize, Message)>,
) -> Vec<(usize, Message)> {
    if !aggregation {
        return sections;
    }
    let frames = frames_by_destination(sections.iter().map(|(to, _)| *to));
    let mut staged: Vec<Option<Message>> = sections.into_iter().map(|(_, m)| Some(m)).collect();
    let pack = |f: &Frame| (f.to, pack_frame(f, phase, epoch, &mut staged, &mut Vec::new()));
    frames.iter().map(pack).collect()
}

/// Unpacks one delivery-verified frame into the canonical receive slots its
/// sections fill: `inbox[k]` gets the payload for `recvs[k]`, so a phase's
/// payloads end up in absorb order whatever order its frames arrived in.
/// `expected` is the plan's entry for the frame's source. The engine
/// verifies the outer stamp *and* every section's own stamp at delivery (that
/// is what localizes in-frame corruption and retries at frame granularity),
/// so this only unpacks; it never re-hashes content. The emptied batch
/// vector goes to `spare`.
///
/// # Errors
/// [`crate::RuntimeError::WrongPayload`] when the unit is not a frame of
/// the planned sections on the planned channels.
pub fn match_sections(
    rank: usize,
    recvs: &[Slot],
    expected: &Unit,
    unit: Message,
    inbox: &mut Vec<Option<Payload>>,
    spare: &mut Vec<Vec<Message>>,
) -> Result<(), crate::RuntimeError> {
    let wrong = |channel| crate::RuntimeError::WrongPayload { rank, channel };
    let Payload::Batch(mut sections) = unit.payload else {
        return Err(wrong(expected.channel));
    };
    if sections.len() != expected.slots.len() {
        return Err(wrong(expected.channel));
    }
    if inbox.len() < recvs.len() {
        inbox.resize_with(recvs.len(), || None);
    }
    for (section, &slot) in sections.drain(..).zip(&expected.slots) {
        if !recvs[slot].channel.matches(section.channel) {
            return Err(wrong(recvs[slot].channel));
        }
        inbox[slot] = Some(section.payload);
    }
    spare.push(sections);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_geom::{IVec3, SimulationBox, Vec3};
    use sc_md::Method;

    fn grid222() -> RankGrid {
        RankGrid::new(IVec3::splat(2), SimulationBox::new(Vec3::splat(8.0)))
    }

    #[test]
    fn sc_plan_merges_to_one_hop_per_phase() {
        let plan = GhostPlan::for_method(Method::ShiftCollapse, 2.0).unwrap();
        assert_eq!(ghost_phase_groups(&plan), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(force_phase_groups(&plan), vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn fs_plan_merges_axis_pairs() {
        let plan = GhostPlan::for_method(Method::FullShell, 2.0).unwrap();
        assert_eq!(ghost_phase_groups(&plan), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(force_phase_groups(&plan), vec![vec![5, 4], vec![3, 2], vec![1, 0]]);
    }

    #[test]
    fn framing_packs_one_message_per_destination() {
        let mk = |hop| Message::stamped(1, 0, Channel::Ghosts { hop }, Payload::Ghosts(vec![]));
        // Two sections to rank 3, one to rank 5.
        let wire = frame_sections(true, 1, 0, vec![(3, mk(0)), (5, mk(1)), (3, mk(2))]);
        assert_eq!(wire.len(), 2);
        assert_eq!(wire[0].0, 3);
        assert_eq!(wire[0].1.payload.section_count(), 2);
        assert_eq!(wire[0].1.channel, Channel::Ghosts { hop: 0 });
        assert_eq!(wire[1].0, 5);
        // Aggregation off: sections pass through untouched.
        let wire = frame_sections(false, 1, 0, vec![(3, mk(0)), (5, mk(1))]);
        assert_eq!(wire.len(), 2);
        assert!(!matches!(wire[0].1.payload, Payload::Batch(_)));
    }

    #[test]
    fn expected_units_collapse_per_source_when_aggregating() {
        // FS on a 2×1×1 grid: both x hops of a rank reach the same neighbour,
        // so each rank sends one two-section frame and expects one back.
        let grid = RankGrid::new(IVec3::new(2, 1, 1), SimulationBox::new(Vec3::splat(8.0)));
        let plan = GhostPlan::for_method(Method::FullShell, 2.0).unwrap();
        let slots = (0..2).map(|r| ghost_phase(&grid, &plan, r, &[0, 1])).collect();
        let plans = plan_phase(slots);
        assert_eq!(plans[0].frames, vec![Frame { to: 1, sections: vec![0, 1] }]);
        let unit = Unit { from: 1, channel: Channel::Ghosts { hop: 0 }, slots: vec![0, 1] };
        assert_eq!(plans[0].units, vec![unit]);
        assert_eq!(plans[0].unit_from(1), plans[0].units.first());
        assert_eq!(plans[0].unit_from(0), None);
    }

    #[test]
    fn planned_migration_on_a_self_neighbour_axis_keeps_direction_order() {
        // One rank wide: both directions leave for, and arrive from, the
        // rank itself; the frame's sections fill the receive slots in order.
        let grid = RankGrid::new(IVec3::new(1, 1, 2), SimulationBox::new(Vec3::splat(8.0)));
        let plans = plan_phase((0..2).map(|r| migrate_phase(&grid, r, 0)).collect());
        for (r, p) in plans.iter().enumerate() {
            assert_eq!(p.frames, vec![Frame { to: r, sections: vec![0, 1] }]);
            assert_eq!(p.units.len(), 1);
            assert_eq!((p.units[0].from, &p.units[0].slots), (r, &vec![0, 1]));
        }
    }

    #[test]
    fn match_sections_orders_canonically_regardless_of_arrival() {
        let epoch = 4;
        let mk = |hop, n| {
            let ghost =
                crate::msg::GhostMsg { id: n, species: sc_cell::Species(0), position: Vec3::ZERO };
            let section =
                Message::stamped(1, epoch, Channel::Ghosts { hop }, Payload::Ghosts(vec![ghost]));
            Message::stamped(1, epoch, Channel::Ghosts { hop }, Payload::Batch(vec![section]))
        };
        let recvs = vec![
            Slot { channel: Channel::Ghosts { hop: 0 }, peer: 2 },
            Slot { channel: Channel::Ghosts { hop: 1 }, peer: 7 },
        ];
        let from2 = Unit { from: 2, channel: recvs[0].channel, slots: vec![0] };
        let from7 = Unit { from: 7, channel: recvs[1].channel, slots: vec![1] };
        // Arrival order reversed vs canonical; payloads still land in slot
        // order, and the emptied batch vectors are kept for reuse.
        let (mut inbox, mut spare) = (Vec::new(), Vec::new());
        match_sections(0, &recvs, &from7, mk(1, 100), &mut inbox, &mut spare).unwrap();
        match_sections(0, &recvs, &from2, mk(0, 200), &mut inbox, &mut spare).unwrap();
        let Some(Payload::Ghosts(g0)) = &inbox[0] else { panic!() };
        let Some(Payload::Ghosts(g1)) = &inbox[1] else { panic!() };
        assert_eq!(g0[0].id, 200);
        assert_eq!(g1[0].id, 100);
        assert_eq!(spare.len(), 2);
        // A frame carrying another channel's section, or the wrong number of
        // sections, is a typed error.
        let wrong = match_sections(0, &recvs, &from2, mk(1, 100), &mut inbox, &mut spare);
        assert!(matches!(wrong, Err(crate::RuntimeError::WrongPayload { .. })));
        let empty = Message::stamped(1, epoch, recvs[0].channel, Payload::Batch(vec![]));
        let short = match_sections(0, &recvs, &from2, empty, &mut inbox, &mut spare);
        assert!(matches!(short, Err(crate::RuntimeError::WrongPayload { .. })));
    }

    #[test]
    fn migrate_phase_slots_are_symmetric() {
        let g = grid222();
        let (sends, recvs) = migrate_phase(&g, 0, 0);
        assert_eq!(sends.len(), 2);
        // On a 2-wide axis both directions reach the same neighbor.
        assert_eq!(sends[0].peer, sends[1].peer);
        // What rank 0 sends with dir -1, its -1 neighbor expects from its
        // +1 side — i.e. from rank 0.
        let minus = sends[0].peer;
        let (_, nrecvs) = migrate_phase(&g, minus, 0);
        assert!(nrecvs
            .iter()
            .any(|s| s.peer == 0 && s.channel == (Channel::Migrate { axis: 0, dir: -1 })));
        let _ = recvs;
    }
}
