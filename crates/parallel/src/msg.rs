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

    /// Folds the channel identity into a checksum accumulator.
    fn hash_into(self, h: &mut u64) {
        match self {
            Channel::Migrate { axis, dir } => {
                fnv1a(h, &[0u8, axis as u8, dir as u8]);
            }
            Channel::Ghosts { hop } => fnv1a(h, &[1u8, hop as u8]),
            Channel::Forces { hop } => fnv1a(h, &[2u8, hop as u8]),
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

/// FNV-1a 64-bit accumulation step.
#[inline]
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[inline]
fn hash_u64(h: &mut u64, v: u64) {
    fnv1a(h, &v.to_le_bytes());
}

#[inline]
fn hash_vec3(h: &mut u64, v: Vec3) {
    hash_u64(h, v.x.to_bits());
    hash_u64(h, v.y.to_bits());
    hash_u64(h, v.z.to_bits());
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

    /// FNV-1a checksum over the payload's wire content (exact f64 bit
    /// patterns), domain-separated by payload kind.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        match self {
            Payload::Migrate(v) => {
                fnv1a(&mut h, &[0u8]);
                for a in v {
                    hash_u64(&mut h, a.id);
                    fnv1a(&mut h, &[a.species.0]);
                    hash_vec3(&mut h, a.position);
                    hash_vec3(&mut h, a.velocity);
                }
            }
            Payload::Ghosts(v) => {
                fnv1a(&mut h, &[1u8]);
                for g in v {
                    hash_u64(&mut h, g.id);
                    fnv1a(&mut h, &[g.species.0]);
                    hash_vec3(&mut h, g.position);
                }
            }
            Payload::Forces(v) => {
                fnv1a(&mut h, &[2u8]);
                for f in v {
                    hash_u64(&mut h, f.id);
                    hash_vec3(&mut h, f.force);
                }
            }
            Payload::Batch(v) => {
                // Fold each section's stamp (not its content): the sections
                // carry their own content checksums, so the frame checksum
                // only needs to pin the headers and their order.
                fnv1a(&mut h, &[3u8]);
                for m in v {
                    hash_u64(&mut h, m.epoch);
                    m.channel.hash_into(&mut h);
                    hash_u64(&mut h, m.checksum);
                }
            }
        }
        h
    }
}

/// A stamped message: every payload carries the step epoch it belongs to,
/// the communication slot it fills, a monotone phase counter (used by the
/// threaded executor to order concurrent deliveries), and a checksum over
/// its content. Receivers [`verify`](Message::verify) all three before
/// absorbing, so out-of-order delivery, stale retransmits, and bit
/// corruption surface as typed [`RuntimeError`]s instead of silently
/// poisoning the n-tuple computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Monotone phase counter (each routing step of each MD step is one
    /// phase; the threaded executor matches on it).
    pub phase: u64,
    /// The MD step this payload belongs to.
    pub epoch: u64,
    /// The communication slot this payload fills.
    pub channel: Channel,
    /// FNV-1a checksum of `(epoch, channel, payload)` at send time.
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
        hash_u64(&mut h, epoch);
        channel.hash_into(&mut h);
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

    #[test]
    fn migrate_channels_match_by_axis() {
        let a = Channel::Migrate { axis: 1, dir: 1 };
        let b = Channel::Migrate { axis: 1, dir: -1 };
        assert!(a.matches(b));
        assert!(!a.matches(Channel::Migrate { axis: 0, dir: 1 }));
        assert!(!Channel::Ghosts { hop: 0 }.matches(Channel::Forces { hop: 0 }));
    }
}
