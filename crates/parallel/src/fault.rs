//! Deterministic, seedable fault injection for the distributed runtime.
//!
//! A [`FaultPlan`] scripts transport failures per `(step, rank, channel)`:
//! dropped payloads, payloads delayed by one delivery attempt, bit
//! corruption (payload or header), and stalled ranks. The distributed engine
//! routes every send through [`FaultPlan::transmit`], so integration tests
//! can script any failure and assert that validation + retry + rollback
//! recover it. `FaultPlan::none()` is a guaranteed no-op: every message
//! passes through untouched.
//!
//! Faults are **one-shot**: each scripted fault fires once and is consumed.
//! [`FaultKind::Stall`] is attempt-based (it swallows the next `attempts`
//! delivery attempts from the rank) rather than step-based, so recovery by
//! rollback — which replays the same step numbers — converges instead of
//! re-triggering forever. A restore leaves the plan as it is: a copy a
//! Delay still withholds is released into the replay, where the receiver
//! refuses it by its phase stamp, one more spoiled attempt. Faults that
//! match one delivery spoil its attempts one after another in plan order,
//! so their spoiled attempts add up; the fault sweep
//! (`crates/parallel/tests/faults.rs`) holds the engine to that law for
//! every pair of faults and for seeded storms.
//!
//! The one exception is [`FaultKind::Crash`]: once fired it retires the
//! rank permanently — every later transmission from it is swallowed, across
//! rollbacks and replays, until [`FaultPlan::retire_rank`] removes the rank
//! from the plan (which the recovery layer does when it re-decomposes onto
//! the survivors).

use crate::comm::GhostPlan;
use crate::msg::{Channel, Message, Payload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sc_md::Method;

/// Mixed into a storm's seed to seed its channel stream.
const CHANNEL_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a scripted fault does to the matched transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The payload vanishes; the receiver sees nothing for the slot.
    Drop,
    /// The payload is withheld for one delivery attempt and arrives on the
    /// next matching transmission no pending fault spoils (the retry, unless
    /// another fault lands on it too).
    Delay,
    /// The payload is delivered with flipped bits. With `header: false` a
    /// coordinate bit flips (caught by the checksum); with `header: true`
    /// the epoch stamp is altered (caught as an epoch mismatch).
    Corrupt {
        /// Corrupt the epoch stamp instead of the payload body.
        header: bool,
    },
    /// The rank goes unresponsive: its next `attempts` delivery attempts on
    /// the fault's channel (on any channel, if it names none) are
    /// swallowed. `attempts` ≤ the retry budget recovers in-step; more
    /// escalates to a rollback.
    Stall {
        /// Number of consecutive delivery attempts to swallow.
        attempts: u32,
    },
    /// The rank dies: it never transmits again. Unlike every other kind the
    /// effect is permanent — every delivery attempt from the rank is
    /// swallowed from the firing step on, including rollback replays — so
    /// only rank exclusion (re-decomposition over the survivors) recovers.
    Crash,
}

/// One scripted fault: fires the first time `rank` transmits on a matching
/// channel at or after `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// First step (epoch) at which the fault can fire.
    pub step: u64,
    /// The sending rank the fault applies to.
    pub rank: usize,
    /// Restrict to one communication slot; `None` matches any channel.
    pub channel: Option<Channel>,
    /// What happens to the matched transmission.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the fault fires on this transmission. A batched frame matches
    /// when *any* of its sections fills the scripted channel, so channel-
    /// targeted faults fire on the per-neighbor frames the engine sends.
    fn matches(&self, step: u64, rank: usize, msg: &Message) -> bool {
        if step < self.step || rank != self.rank {
            return false;
        }
        let Some(want) = self.channel else { return true };
        match &msg.payload {
            Payload::Batch(sections) => sections.iter().any(|s| want.matches(s.channel)),
            _ => want.matches(msg.channel),
        }
    }
}

/// What the transport did to a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// The message (possibly corrupted) reaches the receiver.
    Deliver(Message),
    /// Nothing reaches the receiver this attempt.
    Lost {
        /// The loss came from a stalled rank (escalates as
        /// [`crate::RuntimeError::RankStalled`] rather than `MissingHop`).
        stalled: bool,
    },
}

/// A record of one injected fault, for test assertions and fault-overhead
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The step (epoch) the fault fired in.
    pub step: u64,
    /// The sending rank.
    pub rank: usize,
    /// The communication slot that was hit: the channel the fault was
    /// scripted on, or the wire unit's outer channel for an unscoped fault.
    pub channel: Channel,
    /// The fault that fired.
    pub kind: FaultKind,
}

/// A deterministic schedule of transport faults. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Pending one-shot faults; fired faults are removed.
    faults: Vec<Fault>,
    /// Messages withheld by [`FaultKind::Delay`], keyed by sender + slot.
    held: Vec<(usize, Channel, Message)>,
    /// Ranks retired by a fired [`FaultKind::Crash`]: every transmission
    /// from them is swallowed until [`FaultPlan::retire_rank`].
    crashed: Vec<usize>,
    /// Log of every fault that fired (a crash is logged once, when it
    /// fires, not per swallowed attempt).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: every transmission is delivered untouched.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds one scripted fault (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan can still affect any transmission: pending faults,
    /// held (delayed) messages, or crashed ranks that swallow sends. An
    /// inert plan lets the transport skip the per-delivery retransmission
    /// copy entirely — the hot path for production runs.
    pub fn is_inert(&self) -> bool {
        self.faults.is_empty() && self.held.is_empty() && self.crashed.is_empty()
    }

    /// Every fault that has fired so far, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Scripted faults that have not fired yet.
    pub fn pending(&self) -> &[Fault] {
        &self.faults
    }

    /// The sending rank of each message a [`FaultKind::Delay`] still
    /// withholds. A copy is released by the next attempt from its rank on
    /// its channel that no pending fault spoils — within its delivery, or
    /// in the replay after a restore — or lost with a retired rank; one from
    /// a rank index the grid no longer reaches is never released.
    pub fn withheld(&self) -> impl Iterator<Item = usize> + '_ {
        self.held.iter().map(|(rank, _, _)| *rank)
    }

    /// Removes `rank` from the plan entirely: its crashed status, its
    /// pending faults, and any messages held from it. The recovery layer
    /// calls this when it excludes the rank and re-decomposes — rank
    /// indices are renumbered over the survivors, so faults scripted for
    /// the dead rank must not re-fire against whichever rank inherits the
    /// index.
    pub fn retire_rank(&mut self, rank: usize) {
        self.crashed.retain(|&r| r != rank);
        self.faults.retain(|f| f.rank != rank);
        self.held.retain(|(r, _, _)| *r != rank);
    }

    /// A seed-derived fault *storm* mixing all five kinds — including
    /// [`FaultKind::Crash`] — on the channels every rank sends on: the three
    /// migration axes and the ghost and force hops of `method`'s import.
    /// Crashes are capped at `max_crashes` (and at `ranks - 1`, so at least
    /// one rank survives); the remaining `count` slots draw from the four
    /// transient kinds. Channels come from a second seeded stream, so a
    /// seed's steps, ranks and kinds do not depend on the method. The same
    /// arguments always produce the same storm.
    pub fn storm(
        seed: u64,
        count: usize,
        steps: u64,
        ranks: usize,
        max_crashes: usize,
        method: Method,
    ) -> Self {
        let hops = GhostPlan::route(method).len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut channel_rng = ChaCha8Rng::seed_from_u64(seed ^ CHANNEL_STREAM);
        let migrate = (0..3).map(|axis| Channel::Migrate { axis, dir: 1 });
        let ghosts = (0..hops).map(|hop| Channel::Ghosts { hop });
        let channels: Vec<Channel> =
            migrate.chain(ghosts).chain((0..hops).map(|hop| Channel::Forces { hop })).collect();
        let mut plan = FaultPlan::none();
        let mut crashes = 0usize;
        let crash_budget = max_crashes.min(ranks.saturating_sub(1));
        for _ in 0..count {
            let step = rng.gen_range(0..steps.max(1));
            let rank = rng.gen_range(0..ranks.max(1));
            let kind = match rng.gen_range(0u32..5) {
                0 => FaultKind::Drop,
                1 => FaultKind::Delay,
                2 => FaultKind::Corrupt { header: rng.gen_range(0u32..2) == 1 },
                3 => FaultKind::Stall { attempts: rng.gen_range(1u32..=2) },
                _ if crashes < crash_budget => {
                    crashes += 1;
                    FaultKind::Crash
                }
                _ => FaultKind::Drop,
            };
            let channel = Some(channels[channel_rng.gen_range(0..channels.len())]);
            plan = plan.with(Fault { step, rank, channel, kind });
        }
        plan
    }

    /// Routes one delivery attempt through the plan. `step` is the sender's
    /// epoch, `from` the sending rank; the channel is read off the message
    /// stamp. Consumes at most one pending fault.
    pub fn transmit(&mut self, step: u64, from: usize, msg: Message) -> Delivery {
        let channel = msg.channel;
        // A crashed rank never transmits again: every attempt is swallowed
        // (and nothing it held is released).
        if self.crashed.contains(&from) {
            return Delivery::Lost { stalled: true };
        }
        // A pending fault spoils this attempt first; otherwise a message
        // withheld by an earlier Delay fault is released (the retry carries
        // a fresh copy; the held original is what "arrives late").
        let held = |(r, c, _): &(usize, Channel, Message)| *r == from && c.matches(channel);
        let Some(i) = self.faults.iter().position(|f| f.matches(step, from, &msg)) else {
            return match self.held.iter().position(held) {
                Some(i) => Delivery::Deliver(self.held.swap_remove(i).2),
                None => Delivery::Deliver(msg),
            };
        };
        let kind = self.faults[i].kind;
        let target = self.faults[i].channel;
        // The event names the slot the fault was scripted on (a frame's
        // outer channel is only its first section's); withheld copies stay
        // keyed by the outer channel, so a retry of the frame releases them.
        self.events.push(FaultEvent { step, rank: from, channel: target.unwrap_or(channel), kind });
        match kind {
            FaultKind::Drop => {
                self.faults.swap_remove(i);
                Delivery::Lost { stalled: false }
            }
            FaultKind::Delay => {
                self.faults.swap_remove(i);
                // A second delay on one delivery withholds the retry's copy
                // only: the first original is still the one that arrives.
                if !self.held.iter().any(held) {
                    self.held.push((from, channel, msg));
                }
                Delivery::Lost { stalled: false }
            }
            FaultKind::Corrupt { header } => {
                self.faults.swap_remove(i);
                Delivery::Deliver(corrupt(msg, header, target))
            }
            FaultKind::Stall { attempts } => {
                if attempts <= 1 {
                    self.faults.swap_remove(i);
                } else {
                    self.faults[i].kind = FaultKind::Stall { attempts: attempts - 1 };
                }
                Delivery::Lost { stalled: true }
            }
            FaultKind::Crash => {
                self.faults.swap_remove(i);
                self.crashed.push(from);
                Delivery::Lost { stalled: true }
            }
        }
    }
}

/// Flips bits in a message without re-stamping, so verification fails.
/// Inside a batched frame the body corruption lands on the first section
/// matching the fault's `target` channel (or the first section when the
/// fault was unscoped), so a corrupt-channel fault still localizes to the
/// per-channel section it scripted.
fn corrupt(mut msg: Message, header: bool, target: Option<Channel>) -> Message {
    if header {
        msg.epoch = msg.epoch.wrapping_add(1);
        return msg;
    }
    match &mut msg.payload {
        Payload::Migrate(v) if !v.is_empty() => {
            v[0].position.x = flip_low_bit(v[0].position.x);
        }
        Payload::Ghosts(v) if !v.is_empty() => {
            v[0].position.x = flip_low_bit(v[0].position.x);
        }
        Payload::Forces(v) if !v.is_empty() => {
            v[0].force.x = flip_low_bit(v[0].force.x);
        }
        Payload::Batch(sections) if !sections.is_empty() => {
            let i = sections
                .iter()
                .position(|s| target.is_none_or(|c| c.matches(s.channel)))
                .unwrap_or(0);
            let hit = std::mem::replace(
                &mut sections[i],
                Message::stamped(0, 0, Channel::Ghosts { hop: 0 }, Payload::Ghosts(vec![])),
            );
            sections[i] = corrupt(hit, false, None);
        }
        // An empty payload has no body bits; corrupt the checksum itself.
        _ => msg.checksum ^= 1,
    }
    msg
}

fn flip_low_bit(x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_obs::CommChannel;

    const SC: Method = Method::ShiftCollapse;

    fn msg(epoch: u64, channel: Channel) -> Message {
        Message::stamped(0, epoch, channel, Payload::Ghosts(vec![]))
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut plan = FaultPlan::none();
        let ch = Channel::Ghosts { hop: 0 };
        let m = msg(3, ch);
        assert_eq!(plan.transmit(3, 0, m.clone()), Delivery::Deliver(m));
        assert!(plan.events().is_empty());
        assert!(plan.pending().is_empty());
    }

    #[test]
    fn drop_fires_once_on_matching_slot() {
        let ch = Channel::Ghosts { hop: 1 };
        let mut plan = FaultPlan::none().with(Fault {
            step: 2,
            rank: 1,
            channel: Some(ch),
            kind: FaultKind::Drop,
        });
        // Wrong rank / too-early step / wrong channel pass through.
        assert!(matches!(plan.transmit(2, 0, msg(2, ch)), Delivery::Deliver(_)));
        assert!(matches!(plan.transmit(1, 1, msg(1, ch)), Delivery::Deliver(_)));
        assert!(matches!(
            plan.transmit(2, 1, msg(2, Channel::Forces { hop: 1 })),
            Delivery::Deliver(_)
        ));
        // Matching attempt is dropped, then the fault is spent.
        assert_eq!(plan.transmit(2, 1, msg(2, ch)), Delivery::Lost { stalled: false });
        assert!(matches!(plan.transmit(2, 1, msg(2, ch)), Delivery::Deliver(_)));
        assert_eq!(plan.events().len(), 1);
        assert!(plan.pending().is_empty());
    }

    #[test]
    fn delay_releases_original_on_retry() {
        let ch = Channel::Migrate { axis: 0, dir: 1 };
        let mut plan = FaultPlan::none().with(Fault {
            step: 0,
            rank: 0,
            channel: Some(ch),
            kind: FaultKind::Delay,
        });
        let original = msg(0, ch);
        assert_eq!(plan.transmit(0, 0, original.clone()), Delivery::Lost { stalled: false });
        assert_eq!(plan.withheld().collect::<Vec<_>>(), [0], "the original is held");
        // The retry's copy is discarded; the held original arrives late.
        assert_eq!(plan.transmit(0, 0, original.clone()), Delivery::Deliver(original));
        assert_eq!(plan.withheld().count(), 0);
    }

    #[test]
    fn corrupt_breaks_verification() {
        let ch = Channel::Ghosts { hop: 0 };
        let body = Payload::Ghosts(vec![crate::msg::GhostMsg {
            id: 9,
            species: sc_cell::Species(0),
            position: sc_geom::Vec3::new(1.0, 2.0, 3.0),
        }]);
        let mut plan = FaultPlan::none().with(Fault {
            step: 0,
            rank: 0,
            channel: None,
            kind: FaultKind::Corrupt { header: false },
        });
        let m = Message::stamped(0, 0, ch, body.clone());
        let Delivery::Deliver(bad) = plan.transmit(0, 0, m) else { panic!("corrupt delivers") };
        assert!(matches!(bad.verify(1, 0, ch), Err(crate::RuntimeError::ChecksumMismatch { .. })));

        let mut plan = FaultPlan::none().with(Fault {
            step: 0,
            rank: 0,
            channel: None,
            kind: FaultKind::Corrupt { header: true },
        });
        let m = Message::stamped(0, 0, ch, body);
        let Delivery::Deliver(bad) = plan.transmit(0, 0, m) else { panic!("corrupt delivers") };
        assert!(matches!(bad.verify(1, 0, ch), Err(crate::RuntimeError::EpochMismatch { .. })));
    }

    #[test]
    fn corrupting_empty_payload_still_detected() {
        let ch = Channel::Forces { hop: 2 };
        let mut plan = FaultPlan::none().with(Fault {
            step: 0,
            rank: 0,
            channel: None,
            kind: FaultKind::Corrupt { header: false },
        });
        let Delivery::Deliver(bad) = plan.transmit(0, 0, msg(0, ch)) else { panic!() };
        assert!(bad.verify(1, 0, ch).is_err());
    }

    #[test]
    fn stall_swallows_n_attempts_then_recovers() {
        let mut plan = FaultPlan::none().with(Fault {
            step: 1,
            rank: 2,
            channel: None,
            kind: FaultKind::Stall { attempts: 2 },
        });
        let ch = Channel::Ghosts { hop: 0 };
        assert_eq!(plan.transmit(1, 2, msg(1, ch)), Delivery::Lost { stalled: true });
        assert_eq!(plan.transmit(1, 2, msg(1, ch)), Delivery::Lost { stalled: true });
        assert!(matches!(plan.transmit(1, 2, msg(1, ch)), Delivery::Deliver(_)));
        assert_eq!(plan.events().len(), 2);
    }

    #[test]
    fn crash_is_permanent_until_retired() {
        let ch = Channel::Ghosts { hop: 0 };
        let mut plan = FaultPlan::none().with(Fault {
            step: 3,
            rank: 1,
            channel: None,
            kind: FaultKind::Crash,
        });
        // Before the firing step the rank transmits normally.
        assert!(matches!(plan.transmit(2, 1, msg(2, ch)), Delivery::Deliver(_)));
        // The crash fires and is logged exactly once...
        assert_eq!(plan.transmit(3, 1, msg(3, ch)), Delivery::Lost { stalled: true });
        assert_eq!(plan.events().len(), 1);
        // ...then every later attempt is swallowed silently, across steps,
        // channels, and rollback replays of earlier steps.
        for step in [3u64, 4, 5, 0, 3] {
            assert_eq!(
                plan.transmit(step, 1, msg(step, Channel::Forces { hop: 1 })),
                Delivery::Lost { stalled: true }
            );
        }
        assert_eq!(plan.events().len(), 1, "a crash is logged once, not per attempt");
        // Other ranks are unaffected; retiring the rank clears its crashed
        // status.
        assert!(matches!(plan.transmit(3, 0, msg(3, ch)), Delivery::Deliver(_)));
        plan.retire_rank(1);
        assert!(matches!(plan.transmit(9, 1, msg(9, ch)), Delivery::Deliver(_)));
    }

    #[test]
    fn retire_rank_clears_pending_faults_and_held_messages() {
        let ch = Channel::Migrate { axis: 0, dir: 0 };
        let mut plan = FaultPlan::none()
            .with(Fault { step: 0, rank: 2, channel: None, kind: FaultKind::Delay })
            .with(Fault { step: 5, rank: 2, channel: None, kind: FaultKind::Drop })
            .with(Fault { step: 5, rank: 0, channel: None, kind: FaultKind::Drop });
        // Fire the delay so a message is held from rank 2.
        assert_eq!(plan.transmit(0, 2, msg(0, ch)), Delivery::Lost { stalled: false });
        assert_eq!(plan.withheld().collect::<Vec<_>>(), [2]);
        plan.retire_rank(2);
        // Rank 2's pending drop and held message are gone; rank 0's fault
        // survives.
        assert_eq!(plan.pending().len(), 1);
        assert_eq!(plan.pending()[0].rank, 0);
        assert!(matches!(plan.transmit(6, 2, msg(6, ch)), Delivery::Deliver(_)));
        assert_eq!(plan.transmit(6, 0, msg(6, ch)), Delivery::Lost { stalled: false });
    }

    #[test]
    fn storm_is_seed_deterministic_and_caps_crashes() {
        let a = FaultPlan::storm(11, 40, 200, 8, 2, SC);
        let b = FaultPlan::storm(11, 40, 200, 8, 2, SC);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.len(), 40);
        let crashes = a.faults.iter().filter(|f| f.kind == FaultKind::Crash).count();
        assert!(crashes <= 2, "crash budget respected, got {crashes}");
        for f in &a.faults {
            assert!(f.step < 200);
            assert!(f.rank < 8);
        }
        // With a big enough draw some storm contains a crash.
        let any_crash = (0..16).any(|s| {
            FaultPlan::storm(s, 40, 200, 8, 2, SC).faults.iter().any(|f| f.kind == FaultKind::Crash)
        });
        assert!(any_crash, "storms can script crashes");
        // A one-rank world never crashes its only rank.
        let solo = FaultPlan::storm(11, 40, 200, 1, 4, SC);
        assert!(solo.faults.iter().all(|f| f.kind != FaultKind::Crash));
    }

    /// Storm faults name the channels a rank sends on, and over 32 seeds
    /// they reach every channel class: a ghost or force section is faulted
    /// after step 0 too, not only the step's first delivery. The channel
    /// stream leaves each seed's steps, ranks and kinds as they were.
    #[test]
    fn storms_fault_every_channel_class() {
        let mut classes = Vec::new();
        for seed in 0..32 {
            let (sc, fs) = (
                FaultPlan::storm(seed, 3, 10, 8, 2, SC),
                FaultPlan::storm(seed, 3, 10, 8, 2, Method::FullShell),
            );
            for (a, b) in sc.faults.iter().zip(&fs.faults) {
                assert_eq!((a.step, a.rank, a.kind), (b.step, b.rank, b.kind), "seed {seed}");
                let sent = |c| match c {
                    Channel::Migrate { axis, dir } => axis < 3 && dir == 1,
                    Channel::Ghosts { hop } | Channel::Forces { hop } => hop < 3,
                };
                assert!(a.channel.is_some_and(sent), "seed {seed}: {a:?}");
                classes.push(a.channel.unwrap().trace_class());
            }
        }
        for class in [CommChannel::Migrate, CommChannel::Ghosts, CommChannel::Forces] {
            assert!(classes.contains(&class), "no storm faults {class:?}");
        }
    }
}
