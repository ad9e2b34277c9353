//! Message types exchanged between ranks, with the validation metadata
//! (epoch, channel, checksum) every payload is stamped with.

use crate::error::RuntimeError;
use sc_cell::Species;
use sc_geom::Vec3;
use serde::{Deserialize, Serialize};

/// A migrating atom: full dynamical state, ownership transfers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AtomMsg {
    /// Stable global id.
    pub id: u64,
    /// Species.
    pub species: Species,
    /// Position, already shifted into the receiver's coordinate frame.
    pub position: Vec3,
    /// Velocity.
    pub velocity: Vec3,
}

impl AtomMsg {
    /// Serialized size in bytes (id + species + 6 doubles) — used for
    /// bandwidth accounting.
    pub const WIRE_BYTES: u64 = 8 + 1 + 48;
}

/// A ghost (cached) atom: position-only copy for force computation
/// (the paper's atom-caching import, §1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GhostMsg {
    /// Stable global id (used to route reduced forces back).
    pub id: u64,
    /// Species.
    pub species: Species,
    /// Position in the receiver's coordinate frame.
    pub position: Vec3,
}

impl GhostMsg {
    /// Serialized size in bytes (id + species + 3 doubles).
    pub const WIRE_BYTES: u64 = 8 + 1 + 24;
}

/// A reduced force contribution flowing back to an atom's owner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForceMsg {
    /// Global id of the atom the force belongs to.
    pub id: u64,
    /// Accumulated force contribution.
    pub force: Vec3,
}

impl ForceMsg {
    /// Serialized size in bytes.
    pub const WIRE_BYTES: u64 = 8 + 24;
}

/// The communication slot a payload fills within one step: which exchange
/// of the step's fixed schedule it belongs to. Receivers verify the stamped
/// channel against the slot they are filling, so a payload delayed by a hop
/// (or routed to the wrong phase) is detected instead of absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Channel {
    /// Migration along `axis`, sent toward `dir` (±1).
    Migrate {
        /// The exchange axis (0 = x).
        axis: usize,
        /// The send direction.
        dir: i32,
    },
    /// Ghost-position export for routing hop `hop` of the ghost plan.
    Ghosts {
        /// The hop index in [`crate::GhostPlan::hops`].
        hop: usize,
    },
    /// Ghost-force return for routing hop `hop` (reduced in reverse order).
    Forces {
        /// The hop index in [`crate::GhostPlan::hops`].
        hop: usize,
    },
}

impl Channel {
    /// The trace channel class of this message channel (the taxonomy the
    /// event tracer records with each send/recv).
    pub fn trace_class(self) -> sc_obs::CommChannel {
        match self {
            Channel::Migrate { .. } => sc_obs::CommChannel::Migrate,
            Channel::Ghosts { .. } => sc_obs::CommChannel::Ghosts,
            Channel::Forces { .. } => sc_obs::CommChannel::Forces,
        }
    }

    /// The channel identity as one checksum word: a two-bit kind tag below
    /// the direction or hop, below the axis — injective over every channel a
    /// schedule can name.
    fn word(self) -> u64 {
        match self {
            Channel::Migrate { axis, dir } => (axis as u64) << 34 | (dir as u32 as u64) << 2,
            Channel::Ghosts { hop } => (hop as u64) << 2 | 1,
            Channel::Forces { hop } => (hop as u64) << 2 | 2,
        }
    }

    /// Whether this channel fills the same slot as `other` from the
    /// receiver's point of view. Migration payloads converge two-per-axis
    /// (one from each side), so the receiver checks the axis only.
    pub fn matches(self, other: Channel) -> bool {
        match (self, other) {
            (Channel::Migrate { axis: a, .. }, Channel::Migrate { axis: b, .. }) => a == b,
            _ => self == other,
        }
    }
}

/// The checksum accumulator's initial value (the FNV-1a offset basis).
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One accumulator step of the word-wise checksum: xor a 64-bit word in,
/// multiply by an odd constant, fold the high half onto the low half. Each
/// of the three is a bijection of the accumulator (and, for a fixed
/// accumulator, of the word), so two inputs that differ in exactly one word
/// never collide. The fold is what a plain word-wise FNV lacks: a multiply
/// moves differences only upward, so a sign-bit flip would leave the
/// accumulator differing in bit 63 alone and the same flip in the next word
/// (the neighbouring coordinate) would cancel it. With the fold and this
/// multiplier a one-bit flip changes at least two accumulator bits, which no
/// one-bit flip in the next word undoes.
#[inline]
fn mix(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    *h ^= *h >> 32;
}

#[inline]
fn mix_vec3(h: &mut u64, v: Vec3) {
    mix(h, v.x.to_bits());
    mix(h, v.y.to_bits());
    mix(h, v.z.to_bits());
}

/// The bulk payloads a rank can send in one hop.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Migration along one axis.
    Migrate(Vec<AtomMsg>),
    /// Ghost-position export for one routing step.
    Ghosts(Vec<GhostMsg>),
    /// Ghost-force return for one routing step.
    Forces(Vec<ForceMsg>),
    /// A neighbor batch: every per-channel payload destined for the same
    /// neighbor rank in one exchange phase, framed as a single message. Each
    /// section is a fully stamped [`Message`] and keeps its own channel and
    /// checksum, so a corrupt-channel fault inside a frame still localizes
    /// to the section it hit. The frame's own checksum folds the section
    /// stamps, protecting the frame header and section ordering.
    Batch(Vec<Message>),
}

impl Payload {
    /// Wire size in bytes for bandwidth accounting. A batch counts only the
    /// payload bytes of its sections — framing is bookkeeping, not traffic —
    /// so a frame reports exactly the bytes of the sections it carries.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Migrate(v) => v.len() as u64 * AtomMsg::WIRE_BYTES,
            Payload::Ghosts(v) => v.len() as u64 * GhostMsg::WIRE_BYTES,
            Payload::Forces(v) => v.len() as u64 * ForceMsg::WIRE_BYTES,
            Payload::Batch(v) => v.iter().map(|m| m.payload.wire_bytes()).sum(),
        }
    }

    /// Number of per-channel sections this payload carries (1 for a plain
    /// payload).
    pub fn section_count(&self) -> usize {
        match self {
            Payload::Batch(v) => v.len(),
            _ => 1,
        }
    }

    /// Word-wise checksum (`mix`) over the payload's wire content: the
    /// kind tag (domain separation), then one word per field — ids, exact
    /// `f64` bit patterns, the species. It detects every corruption confined
    /// to one word and, short of a 2⁻⁶⁴ coincidence, anything wider; it is
    /// not cryptographic and does not try to be.
    pub fn checksum(&self) -> u64 {
        let mut h = CHECKSUM_SEED;
        match self {
            Payload::Migrate(v) => {
                mix(&mut h, 0);
                for a in v {
                    mix(&mut h, a.id);
                    mix(&mut h, a.species.0 as u64);
                    mix_vec3(&mut h, a.position);
                    mix_vec3(&mut h, a.velocity);
                }
            }
            Payload::Ghosts(v) => {
                mix(&mut h, 1);
                for g in v {
                    mix(&mut h, g.id);
                    mix(&mut h, g.species.0 as u64);
                    mix_vec3(&mut h, g.position);
                }
            }
            Payload::Forces(v) => {
                mix(&mut h, 2);
                for f in v {
                    mix(&mut h, f.id);
                    mix_vec3(&mut h, f.force);
                }
            }
            Payload::Batch(v) => {
                // Fold each section's stamp (not its content): the sections
                // carry their own content checksums, so the frame checksum
                // only needs to pin the headers and their order.
                mix(&mut h, 3);
                for m in v {
                    mix(&mut h, m.epoch);
                    mix(&mut h, m.channel.word());
                    mix(&mut h, m.checksum);
                }
            }
        }
        h
    }
}

/// A stamped message: every payload carries the step epoch it belongs to,
/// the communication slot it fills, a monotone phase counter, and a
/// checksum over its content. Receivers [`verify`](Message::verify) the
/// epoch, the slot and the checksum before
/// absorbing, so out-of-order delivery, stale retransmits, and bit
/// corruption surface as typed [`RuntimeError`]s instead of silently
/// poisoning the n-tuple computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Monotone phase counter (each routing step of each MD step is one
    /// phase). Nothing reads it since delivery became lockstep-only; it
    /// stays in [`Message::stamped`]'s signature because the `benchmark/`
    /// crate's framing probe calls it.
    pub phase: u64,
    /// The MD step this payload belongs to.
    pub epoch: u64,
    /// The communication slot this payload fills.
    pub channel: Channel,
    /// Checksum of `(epoch, channel, payload)` at send time.
    pub checksum: u64,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// Stamps a payload with its epoch, channel, and checksum.
    pub fn stamped(phase: u64, epoch: u64, channel: Channel, payload: Payload) -> Self {
        let checksum = Self::expected_checksum(epoch, channel, &payload);
        Message { phase, epoch, channel, checksum, payload }
    }

    /// The checksum a well-formed message with this content carries. The
    /// header fields are folded in so header corruption is detected even
    /// when the payload survives intact.
    fn expected_checksum(epoch: u64, channel: Channel, payload: &Payload) -> u64 {
        let mut h = payload.checksum();
        mix(&mut h, epoch);
        mix(&mut h, channel.word());
        h
    }

    /// Verifies the stamp against the slot `rank` is currently filling.
    ///
    /// # Errors
    /// [`RuntimeError::EpochMismatch`] for a stale or relabeled epoch,
    /// [`RuntimeError::WrongPayload`] when the channel fills a different
    /// slot, [`RuntimeError::ChecksumMismatch`] when content or header bits
    /// changed in transit.
    pub fn verify(&self, rank: usize, epoch: u64, channel: Channel) -> Result<(), RuntimeError> {
        if self.epoch != epoch {
            return Err(RuntimeError::EpochMismatch { rank, expected: epoch, got: self.epoch });
        }
        if !self.channel.matches(channel) {
            return Err(RuntimeError::WrongPayload { rank, channel });
        }
        if Self::expected_checksum(self.epoch, self.channel, &self.payload) != self.checksum {
            return Err(RuntimeError::ChecksumMismatch { rank, channel, epoch });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn wire_sizes() {
        let m = Payload::Migrate(vec![AtomMsg {
            id: 1,
            species: Species(0),
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
        }]);
        assert_eq!(m.wire_bytes(), 57);
        let g =
            Payload::Ghosts(vec![GhostMsg { id: 1, species: Species(0), position: Vec3::ZERO }; 3]);
        assert_eq!(g.wire_bytes(), 3 * 33);
        let f = Payload::Forces(vec![]);
        assert_eq!(f.wire_bytes(), 0);
    }

    #[test]
    fn checksum_is_content_sensitive() {
        let mk = |x: f64| {
            Payload::Ghosts(vec![GhostMsg {
                id: 7,
                species: Species(1),
                position: Vec3::new(x, 2.0, 3.0),
            }])
        };
        assert_eq!(mk(1.0).checksum(), mk(1.0).checksum());
        // A single flipped mantissa bit (an ulp) must change the checksum.
        assert_ne!(mk(1.0).checksum(), mk(f64::from_bits(1.0f64.to_bits() ^ 1)).checksum());
        // Kind is domain-separated: an empty ghosts payload differs from an
        // empty forces payload.
        assert_ne!(Payload::Ghosts(vec![]).checksum(), Payload::Forces(vec![]).checksum());
    }

    #[test]
    fn verify_accepts_clean_and_rejects_tampered() {
        let ch = Channel::Ghosts { hop: 1 };
        let msg = Message::stamped(0, 5, ch, Payload::Ghosts(vec![]));
        assert_eq!(msg.verify(0, 5, ch), Ok(()));
        // Stale epoch.
        assert!(matches!(
            msg.verify(0, 6, ch),
            Err(RuntimeError::EpochMismatch { expected: 6, got: 5, .. })
        ));
        // Wrong slot.
        assert!(matches!(
            msg.verify(0, 5, Channel::Forces { hop: 1 }),
            Err(RuntimeError::WrongPayload { .. })
        ));
        // Payload corruption.
        let mut bad = Message::stamped(
            0,
            5,
            ch,
            Payload::Ghosts(vec![GhostMsg { id: 1, species: Species(0), position: Vec3::ZERO }]),
        );
        if let Payload::Ghosts(v) = &mut bad.payload {
            v[0].position.x = f64::from_bits(v[0].position.x.to_bits() ^ 0x1);
        }
        assert!(matches!(bad.verify(0, 5, ch), Err(RuntimeError::ChecksumMismatch { .. })));
        // Header corruption: epoch relabeled to what the receiver expects
        // still fails the checksum.
        let mut relabeled = Message::stamped(0, 4, ch, Payload::Ghosts(vec![]));
        relabeled.epoch = 5;
        assert!(matches!(relabeled.verify(0, 5, ch), Err(RuntimeError::ChecksumMismatch { .. })));
    }

    #[test]
    fn batch_frames_count_section_payload_bytes_once() {
        let ghosts =
            Payload::Ghosts(vec![GhostMsg { id: 1, species: Species(0), position: Vec3::ZERO }; 3]);
        let forces = Payload::Forces(vec![ForceMsg { id: 1, force: Vec3::ZERO }; 2]);
        let per_channel = ghosts.wire_bytes() + forces.wire_bytes();
        let batch = Payload::Batch(vec![
            Message::stamped(4, 7, Channel::Ghosts { hop: 0 }, ghosts),
            Message::stamped(4, 7, Channel::Ghosts { hop: 1 }, forces),
        ]);
        assert_eq!(batch.wire_bytes(), per_channel);
        assert_eq!(batch.section_count(), 2);
    }

    #[test]
    fn batch_verify_localizes_corruption_to_the_section() {
        let mk = || {
            let sections = vec![
                Message::stamped(
                    4,
                    7,
                    Channel::Ghosts { hop: 0 },
                    Payload::Ghosts(vec![GhostMsg {
                        id: 1,
                        species: Species(0),
                        position: Vec3::new(1.0, 2.0, 3.0),
                    }]),
                ),
                Message::stamped(4, 7, Channel::Ghosts { hop: 1 }, Payload::Ghosts(vec![])),
            ];
            Message::stamped(4, 7, Channel::Ghosts { hop: 0 }, Payload::Batch(sections))
        };
        // Clean frame: outer and both sections verify.
        let frame = mk();
        assert_eq!(frame.verify(0, 7, Channel::Ghosts { hop: 0 }), Ok(()));
        let Payload::Batch(sections) = &frame.payload else { panic!() };
        for (hop, s) in sections.iter().enumerate() {
            assert_eq!(s.verify(0, 7, Channel::Ghosts { hop }), Ok(()));
        }
        // A bit flip inside section 0's payload leaves the frame checksum
        // valid (it folds the *stamped* section checksums) but fails that
        // section's own verify — the fault localizes.
        let mut bad = mk();
        let Payload::Batch(sections) = &mut bad.payload else { panic!() };
        if let Payload::Ghosts(v) = &mut sections[0].payload {
            v[0].position.x = f64::from_bits(v[0].position.x.to_bits() ^ 1);
        }
        assert_eq!(bad.verify(0, 7, Channel::Ghosts { hop: 0 }), Ok(()));
        let Payload::Batch(sections) = &bad.payload else { panic!() };
        assert!(matches!(
            sections[0].verify(0, 7, Channel::Ghosts { hop: 0 }),
            Err(RuntimeError::ChecksumMismatch { .. })
        ));
        assert_eq!(sections[1].verify(0, 7, Channel::Ghosts { hop: 1 }), Ok(()));
        // Relabeling a section (reordering attack) breaks the frame checksum.
        let mut swapped = mk();
        let Payload::Batch(sections) = &mut swapped.payload else { panic!() };
        sections.swap(0, 1);
        assert!(matches!(
            swapped.verify(0, 7, Channel::Ghosts { hop: 0 }),
            Err(RuntimeError::ChecksumMismatch { .. })
        ));
    }

    /// Builds a channel from an arbitrary word.
    fn channel_of(w: u64) -> Channel {
        let n = (w >> 2) as usize;
        match w % 3 {
            0 => Channel::Migrate { axis: n % 3, dir: if w & 4 == 0 { -1 } else { 1 } },
            1 => Channel::Ghosts { hop: n % 6 },
            _ => Channel::Forces { hop: n % 6 },
        }
    }

    /// Fields per entry of each payload kind, in checksum order (a batch
    /// entry's corruptible fields are its section's epoch and checksum).
    const FIELDS: [usize; 4] = [8, 5, 4, 2];

    /// Builds a payload of `kind` from arbitrary words, `f64`s from raw bit
    /// patterns, one entry per `FIELDS[kind]`-word (batch: 5-word) chunk.
    fn payload_of(kind: usize, words: &[u64]) -> Payload {
        let v3 =
            |w: &[u64]| Vec3::new(f64::from_bits(w[0]), f64::from_bits(w[1]), f64::from_bits(w[2]));
        let ghost =
            |w: &[u64]| GhostMsg { id: w[0], species: Species(w[1] as u8), position: v3(&w[2..5]) };
        match kind {
            0 => {
                let atom = |w: &[u64]| AtomMsg {
                    id: w[0],
                    species: Species(w[1] as u8),
                    position: v3(&w[2..5]),
                    velocity: v3(&w[5..8]),
                };
                Payload::Migrate(words.chunks_exact(8).map(atom).collect())
            }
            1 => Payload::Ghosts(words.chunks_exact(5).map(ghost).collect()),
            2 => {
                let force = |w: &[u64]| ForceMsg { id: w[0], force: v3(&w[1..4]) };
                Payload::Forces(words.chunks_exact(4).map(force).collect())
            }
            _ => {
                let section = |w: &[u64]| {
                    let body = Payload::Ghosts(vec![ghost(w)]);
                    Message::stamped(0, w[0] % 64, channel_of(w[1]), body)
                };
                Payload::Batch(words.chunks_exact(5).map(section).collect())
            }
        }
    }

    fn kind_of(p: &Payload) -> usize {
        match p {
            Payload::Migrate(_) => 0,
            Payload::Ghosts(_) => 1,
            Payload::Forces(_) => 2,
            Payload::Batch(_) => 3,
        }
    }

    fn entries(p: &Payload) -> usize {
        match p {
            Payload::Migrate(v) => v.len(),
            Payload::Ghosts(v) => v.len(),
            Payload::Forces(v) => v.len(),
            Payload::Batch(v) => v.len(),
        }
    }

    /// Bits in field `field` of a payload (the species is a byte).
    fn width(p: &Payload, field: usize) -> u32 {
        let species = kind_of(p) < 2 && field % FIELDS[kind_of(p)] == 1;
        if species {
            8
        } else {
            64
        }
    }

    /// Flips one bit of field `field` (entries laid end to end).
    fn flip(p: &mut Payload, field: usize, bit: u32) {
        let bit = bit % width(p, field);
        let (entry, f) = (field / FIELDS[kind_of(p)], field % FIELDS[kind_of(p)]);
        let coord = |v: &mut Vec3, c: usize| {
            let x = [&mut v.x, &mut v.y, &mut v.z].into_iter().nth(c).unwrap();
            *x = f64::from_bits(x.to_bits() ^ 1 << bit);
        };
        match p {
            Payload::Migrate(v) => match f {
                0 => v[entry].id ^= 1 << bit,
                1 => v[entry].species.0 ^= 1 << bit,
                2..=4 => coord(&mut v[entry].position, f - 2),
                _ => coord(&mut v[entry].velocity, f - 5),
            },
            Payload::Ghosts(v) => match f {
                0 => v[entry].id ^= 1 << bit,
                1 => v[entry].species.0 ^= 1 << bit,
                _ => coord(&mut v[entry].position, f - 2),
            },
            Payload::Forces(v) => match f {
                0 => v[entry].id ^= 1 << bit,
                _ => coord(&mut v[entry].force, f - 1),
            },
            Payload::Batch(v) => match f {
                0 => v[entry].epoch ^= 1 << bit,
                _ => v[entry].checksum ^= 1 << bit,
            },
        }
    }

    /// Empty payloads differ by kind alone, bare and under a stamp.
    #[test]
    fn empty_payloads_of_different_kinds_differ() {
        let empties: Vec<Payload> = (0..4).map(|kind| payload_of(kind, &[])).collect();
        let ch = Channel::Ghosts { hop: 0 };
        for (a, pa) in empties.iter().enumerate() {
            for pb in &empties[a + 1..] {
                assert_ne!(pa.checksum(), pb.checksum());
                assert_ne!(
                    Message::expected_checksum(3, ch, pa),
                    Message::expected_checksum(3, ch, pb)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// What [`mix`]'s comment claims: a one-bit flip of the word changes
        /// at least two accumulator bits.
        #[test]
        fn one_flipped_bit_moves_at_least_two_accumulator_bits(
            h in 0u64..=u64::MAX,
            word in 0u64..=u64::MAX,
            bit in 0u32..64,
        ) {
            let (mut a, mut b) = (h, h);
            mix(&mut a, word);
            mix(&mut b, word ^ 1 << bit);
            prop_assert!((a ^ b).count_ones() >= 2, "h {h:#x} word {word:#x} bit {bit}");
        }

        /// The corruption classes the checksum is relied on for, over random
        /// payloads of every kind and random headers: any one flipped bit in
        /// any field; any two flipped bits in the same or adjacent words,
        /// the sign bits of neighbouring coordinates included; a relabelled
        /// epoch or channel.
        #[test]
        fn corruption_always_changes_the_stamp(
            (kind, words) in (0usize..4, vec(0u64..=u64::MAX, 8..48)),
            (epoch, ch) in (0u64..1 << 40, 0u64..=u64::MAX),
            (field, bit, next, bit2) in (0usize..1 << 16, 0u32..64, 0usize..2, 0u32..64),
            (epoch2, ch2) in (0u64..1 << 40, 0u64..=u64::MAX),
        ) {
            let clean = payload_of(kind, &words);
            let channel = channel_of(ch);
            let stamp = |p: &Payload| Message::expected_checksum(epoch, channel, p);
            let fields = FIELDS[kind] * entries(&clean);
            let first = field % fields;

            let mut one = clean.clone();
            flip(&mut one, first, bit);
            prop_assert_ne!(one.checksum(), clean.checksum());
            prop_assert_ne!(stamp(&one), stamp(&clean));

            let second = (first + next).min(fields - 1);
            let undoes = second == first && bit % width(&clean, first) == bit2 % width(&clean, first);
            if !undoes {
                let mut two = one.clone();
                flip(&mut two, second, bit2);
                prop_assert_ne!(two.checksum(), clean.checksum());
                prop_assert_ne!(stamp(&two), stamp(&clean));
            }

            // Sign bits of two neighbouring 64-bit fields (for the atom
            // kinds: neighbouring coordinates, or a last coordinate and the
            // next entry's id).
            if second != first && width(&clean, first) == 64 && width(&clean, second) == 64 {
                let mut signs = clean.clone();
                flip(&mut signs, first, 63);
                flip(&mut signs, second, 63);
                prop_assert_ne!(signs.checksum(), clean.checksum());
                prop_assert_ne!(stamp(&signs), stamp(&clean));
            }

            if epoch2 != epoch {
                prop_assert_ne!(Message::expected_checksum(epoch2, channel, &clean), stamp(&clean));
            }
            if channel_of(ch2) != channel {
                let relabelled = Message::expected_checksum(epoch, channel_of(ch2), &clean);
                prop_assert_ne!(relabelled, stamp(&clean));
            }
        }

        /// Swapping two sections with different stamps inside a batch
        /// changes the frame's stamp.
        #[test]
        fn a_section_swap_changes_the_frame_stamp(
            words in vec(0u64..=u64::MAX, 10..48),
            (i, j) in (0usize..16, 0usize..16),
            (epoch, ch) in (0u64..1 << 40, 0u64..=u64::MAX),
        ) {
            let Payload::Batch(sections) = payload_of(3, &words) else { unreachable!() };
            let (i, j) = (i % sections.len(), j % sections.len());
            let stamped = |m: &Message| (m.epoch, m.channel, m.checksum);
            prop_assume!(stamped(&sections[i]) != stamped(&sections[j]));
            let mut swapped = sections.clone();
            swapped.swap(i, j);
            let stamp = |s: Vec<Message>| {
                Message::expected_checksum(epoch, channel_of(ch), &Payload::Batch(s))
            };
            prop_assert_ne!(stamp(swapped), stamp(sections));
        }
    }

    #[test]
    fn migrate_channels_match_by_axis() {
        let a = Channel::Migrate { axis: 1, dir: 1 };
        let b = Channel::Migrate { axis: 1, dir: -1 };
        assert!(a.matches(b));
        assert!(!a.matches(Channel::Migrate { axis: 0, dir: 1 }));
        assert!(!Channel::Ghosts { hop: 0 }.matches(Channel::Forces { hop: 0 }));
    }
}
