//! The communication-optimal exchange schedule shared by both executors.
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
//!   in arrival order — which keeps the BSP and threaded executors in exact
//!   agreement.

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

/// Packs the phase's stamped sections (one per send slot, in canonical slot
/// order) into wire messages: one framed [`Payload::Batch`] per destination
/// (sections keep their canonical order inside the frame). Returns
/// `(destination, message)` pairs in first-seen destination order.
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
    let mut frames: Vec<(usize, Vec<Message>)> = Vec::new();
    for (to, msg) in sections {
        match frames.iter_mut().find(|(d, _)| *d == to) {
            Some((_, secs)) => secs.push(msg),
            None => frames.push((to, vec![msg])),
        }
    }
    frames
        .into_iter()
        .map(|(to, secs)| {
            let channel = secs[0].channel;
            (to, Message::stamped(phase, epoch, channel, Payload::Batch(secs)))
        })
        .collect()
}

/// The wire units a receiver expects in one phase: one frame per distinct
/// source. Returns `(source, expected outer channel)` in canonical order.
pub fn expected_units(recvs: &[Slot]) -> Vec<(usize, Channel)> {
    let mut units: Vec<(usize, Channel)> = Vec::new();
    for s in recvs {
        if !units.iter().any(|(p, _)| *p == s.peer) {
            units.push((s.peer, s.channel));
        }
    }
    units
}

/// Matches the phase's received sections against the canonical receive
/// slots. `units` holds the delivery-verified wire units tagged with their
/// source rank — both executors verify the outer stamp *and* every batch
/// section's own stamp at delivery (that is what localizes in-frame
/// corruption and retries at frame granularity), so this function only
/// unpacks and orders; it never re-hashes content. Returns the payloads in
/// canonical slot order — the order receivers absorb in, regardless of
/// arrival order.
///
/// # Errors
/// [`crate::RuntimeError::WrongPayload`] when a slot has no matching
/// section.
pub fn match_sections(
    rank: usize,
    recvs: &[Slot],
    units: Vec<(usize, Message)>,
) -> Result<Vec<Payload>, crate::RuntimeError> {
    let mut sections: Vec<(usize, Message)> = Vec::new();
    for (from, unit) in units {
        match unit.payload {
            Payload::Batch(secs) => sections.extend(secs.into_iter().map(|s| (from, s))),
            _ => sections.push((from, unit)),
        }
    }
    let mut out = Vec::with_capacity(recvs.len());
    let mut used = vec![false; sections.len()];
    for slot in recvs {
        let mut picked = None;
        for (i, (from, s)) in sections.iter().enumerate() {
            if !used[i] && *from == slot.peer && slot.channel.matches(s.channel) {
                picked = Some(i);
                break;
            }
        }
        let Some(i) = picked else {
            return Err(crate::RuntimeError::WrongPayload { rank, channel: slot.channel });
        };
        used[i] = true;
        out.push(i);
    }
    // Extract in canonical order without cloning payloads.
    let mut taken: Vec<Option<Message>> = sections.into_iter().map(|(_, s)| Some(s)).collect();
    Ok(out.into_iter().map(|i| taken[i].take().expect("slot used once").payload).collect())
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
        let recvs = vec![
            Slot { channel: Channel::Ghosts { hop: 0 }, peer: 1 },
            Slot { channel: Channel::Ghosts { hop: 1 }, peer: 1 },
        ];
        assert_eq!(expected_units(&recvs), vec![(1, Channel::Ghosts { hop: 0 })]);
    }

    #[test]
    fn match_sections_orders_canonically_regardless_of_arrival() {
        let epoch = 4;
        let mk = |hop, n| {
            Message::stamped(
                1,
                epoch,
                Channel::Ghosts { hop },
                Payload::Ghosts(vec![
                    crate::msg::GhostMsg {
                        id: n,
                        species: sc_cell::Species(0),
                        position: Vec3::ZERO,
                    };
                    1
                ]),
            )
        };
        let recvs = vec![
            Slot { channel: Channel::Ghosts { hop: 0 }, peer: 2 },
            Slot { channel: Channel::Ghosts { hop: 1 }, peer: 7 },
        ];
        // Arrival order reversed vs canonical; sections still come back in
        // slot order.
        let units = vec![(7usize, mk(1, 100)), (2usize, mk(0, 200))];
        let payloads = match_sections(0, &recvs, units).unwrap();
        let Payload::Ghosts(g0) = &payloads[0] else { panic!() };
        let Payload::Ghosts(g1) = &payloads[1] else { panic!() };
        assert_eq!(g0[0].id, 200);
        assert_eq!(g1[0].id, 100);
        // A missing slot is a typed error.
        let units = vec![(7usize, mk(1, 100))];
        assert!(matches!(
            match_sections(0, &recvs, units),
            Err(crate::RuntimeError::WrongPayload { .. })
        ));
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
