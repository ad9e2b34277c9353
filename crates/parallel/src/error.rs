//! Typed errors for the distributed runtime: setup-time rejection and
//! runtime fault detection.

use crate::msg::Channel;
use std::fmt;

/// Why a distributed simulation could not be set up.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// The inputs themselves are unusable on any grid: no potential term,
    /// Hybrid-MD without a pair term or with a cutoff above it, a bad
    /// timestep or thermostat, or a non-finite atom.
    Build(sc_md::BuildError),
    /// The halo is deeper than one rank sub-box — forwarded routing only
    /// delivers nearest-neighbour data, so the decomposition is too fine.
    HaloTooDeep {
        /// Required halo depth (real distance).
        halo: f64,
        /// Rank sub-box extent along the failing axis.
        sub_box: f64,
        /// The failing axis (0 = x).
        axis: usize,
    },
    /// A rank sub-box is smaller than some term's cutoff.
    SubBoxBelowCutoff {
        /// The cutoff that does not fit.
        rcut: f64,
        /// Sub-box extent along the failing axis.
        sub_box: f64,
        /// The failing axis.
        axis: usize,
    },
    /// The union of rank lattices is too small for the largest tuple order
    /// (pattern offsets would alias through the periodic wrap).
    LatticeTooSmall {
        /// Global cells along the failing axis.
        global_cells: i32,
        /// Required minimum.
        needed: i32,
        /// The failing axis.
        axis: usize,
    },
    /// Unsupported cell subdivision factor.
    UnsupportedSubdivision(i32),
    /// The halo width derived from the force field is not a positive finite
    /// number (no active term, a zero cutoff, or a NaN propagated in).
    NonPositiveHalo {
        /// The offending width.
        width: f64,
    },
    /// A rank-grid dimension is below 1.
    BadRankGrid {
        /// The offending grid dimensions.
        pdims: [i32; 3],
    },
    /// Every rank of the run is lost: no survivor is left to re-decompose
    /// onto.
    NoSurvivor {
        /// The lost ranks, as the recovery named them.
        lost: Vec<usize>,
    },
    /// The decomposition did not claim every atom exactly once.
    AtomsLost {
        /// Atoms in the input store.
        expected: usize,
        /// Atoms claimed across all ranks.
        claimed: usize,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Build(e) => e.fmt(f),
            SetupError::HaloTooDeep { halo, sub_box, axis } => write!(
                f,
                "halo width {halo} exceeds rank sub-box {sub_box} along axis {axis}; \
                 use fewer ranks or a bigger box"
            ),
            SetupError::SubBoxBelowCutoff { rcut, sub_box, axis } => {
                write!(f, "rank sub-box {sub_box} smaller than cutoff {rcut} along axis {axis}")
            }
            SetupError::LatticeTooSmall { global_cells, needed, axis } => write!(
                f,
                "global lattice has {global_cells} cells along axis {axis}, need ≥ {needed}"
            ),
            SetupError::UnsupportedSubdivision(k) => {
                write!(f, "unsupported cell subdivision {k} (supported: 1..=3)")
            }
            SetupError::NonPositiveHalo { width } => {
                write!(f, "halo width {width} must be positive and finite")
            }
            SetupError::BadRankGrid { pdims } => {
                write!(f, "rank grid dims {pdims:?} must all be ≥ 1")
            }
            SetupError::NoSurvivor { lost } => {
                write!(f, "losing ranks {lost:?} leaves no surviving rank to re-decompose onto")
            }
            SetupError::AtomsLost { expected, claimed } => {
                write!(f, "decomposition claimed {claimed} of {expected} atoms")
            }
        }
    }
}

impl std::error::Error for SetupError {}

impl From<sc_md::BuildError> for SetupError {
    fn from(e: sc_md::BuildError) -> Self {
        SetupError::Build(e)
    }
}

/// A fault detected while the distributed runtime was stepping: a validated
/// exchange failed and bounded retries did not recover it, or received data
/// was inconsistent with the rank's state. Unlike [`SetupError`], these can
/// appear on any step; the supervisor layer in `sc-md` responds by rolling
/// back to the last checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A payload arrived stamped with the wrong step epoch (stale or
    /// corrupted header).
    EpochMismatch {
        /// The receiving rank.
        rank: usize,
        /// The epoch the receiver is in.
        expected: u64,
        /// The epoch the message claims.
        got: u64,
    },
    /// A payload arrived stamped with another exchange's phase: a copy sent
    /// before a restore, released into the replay of its step.
    PhaseMismatch {
        /// The receiving rank.
        rank: usize,
        /// The phase of the exchange the receiver is in.
        expected: u64,
        /// The phase the message claims.
        got: u64,
    },
    /// A payload failed checksum verification (bit corruption in transit).
    ChecksumMismatch {
        /// The receiving rank.
        rank: usize,
        /// The communication slot the payload was for.
        channel: Channel,
        /// The step epoch.
        epoch: u64,
    },
    /// No valid payload for a routing slot arrived within the retry budget.
    MissingHop {
        /// The rank that timed out waiting.
        rank: usize,
        /// The communication slot that never filled.
        channel: Channel,
        /// The step epoch.
        epoch: u64,
        /// Delivery attempts made (1 original + retries).
        attempts: u32,
    },
    /// A peer rank stayed unresponsive through the whole retry budget.
    RankStalled {
        /// The unresponsive rank.
        rank: usize,
        /// The step epoch.
        epoch: u64,
        /// Delivery attempts made before escalating.
        attempts: u32,
    },
    /// A peer rank was declared permanently dead by the health watchdog
    /// (its failures outlived the deadline that bounds any recoverable
    /// stall). Rollback cannot help — replaying delivers into the same
    /// dead rank — so the supervisor must re-decompose over the survivors.
    RankDead {
        /// The dead rank.
        rank: usize,
        /// Steps the executor had completed when death was declared.
        step: u64,
        /// The epoch of the exchange that could not be delivered.
        epoch: u64,
    },
    /// A payload of the wrong kind arrived for a slot (protocol confusion).
    WrongPayload {
        /// The receiving rank.
        rank: usize,
        /// The slot the payload was for.
        channel: Channel,
    },
    /// A reduced force arrived for an atom this rank neither owns nor holds
    /// as a ghost — the exchange delivered inconsistent routing data.
    UnknownForceTarget {
        /// The receiving rank.
        rank: usize,
        /// The unknown atom's global id.
        id: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::EpochMismatch { rank, expected, got } => {
                write!(f, "rank {rank}: payload stamped epoch {got}, expected {expected}")
            }
            RuntimeError::PhaseMismatch { rank, expected, got } => {
                write!(f, "rank {rank}: stale payload stamped phase {got}, expected {expected}")
            }
            RuntimeError::ChecksumMismatch { rank, channel, epoch } => {
                write!(f, "rank {rank}: checksum mismatch on {channel:?} in epoch {epoch}")
            }
            RuntimeError::MissingHop { rank, channel, epoch, attempts } => write!(
                f,
                "rank {rank}: no valid payload for {channel:?} in epoch {epoch} \
                 after {attempts} attempts"
            ),
            RuntimeError::RankStalled { rank, epoch, attempts } => {
                write!(f, "rank {rank} unresponsive in epoch {epoch} after {attempts} attempts")
            }
            RuntimeError::RankDead { rank, step, epoch } => {
                write!(f, "rank {rank} declared dead at step {step} (epoch {epoch})")
            }
            RuntimeError::WrongPayload { rank, channel } => {
                write!(f, "rank {rank}: wrong payload kind for {channel:?}")
            }
            RuntimeError::UnknownForceTarget { rank, id } => {
                write!(f, "rank {rank} got a reduced force for unknown atom {id}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

// Funnels into the unified `sc_md::Error`, so a binary's whole
// setup-run-output pipeline is one `?`-chain. Defined here (not in `sc-md`)
// to keep the crate layering acyclic: `sc-md` cannot name these types.

impl From<SetupError> for sc_md::Error {
    fn from(e: SetupError) -> Self {
        sc_md::Error::Setup(Box::new(e))
    }
}

/// What the supervisor needs of a runtime fault: its text, and the dead
/// rank when (only) [`RuntimeError::RankDead`] names one.
impl From<RuntimeError> for sc_md::StepFault {
    fn from(e: RuntimeError) -> Self {
        let dead_rank = match e {
            RuntimeError::RankDead { rank, .. } => Some(rank),
            _ => None,
        };
        sc_md::StepFault { message: e.to_string(), dead_rank }
    }
}

impl From<RuntimeError> for sc_md::Error {
    fn from(e: RuntimeError) -> Self {
        sc_md::Error::Runtime(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SetupError::HaloTooDeep { halo: 5.5, sub_box: 2.7, axis: 1 };
        assert!(e.to_string().contains("halo"));
        let e = SetupError::SubBoxBelowCutoff { rcut: 2.5, sub_box: 2.2, axis: 0 };
        assert!(e.to_string().contains("cutoff"));
        let e = SetupError::LatticeTooSmall { global_cells: 2, needed: 3, axis: 2 };
        assert!(e.to_string().contains("lattice"));
        assert!(SetupError::UnsupportedSubdivision(7).to_string().contains('7'));
        assert!(SetupError::NonPositiveHalo { width: -1.0 }.to_string().contains("positive"));
        assert!(SetupError::BadRankGrid { pdims: [0, 1, 1] }.to_string().contains("≥ 1"));
        assert!(SetupError::AtomsLost { expected: 10, claimed: 9 }.to_string().contains("10"));
    }

    #[test]
    fn runtime_errors_name_rank_and_slot() {
        let e = RuntimeError::ChecksumMismatch {
            rank: 3,
            channel: Channel::Ghosts { hop: 1 },
            epoch: 7,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("epoch 7"));
        let e = RuntimeError::RankStalled { rank: 2, epoch: 4, attempts: 3 };
        assert!(e.to_string().contains("unresponsive"));
        let e = RuntimeError::RankDead { rank: 5, step: 9, epoch: 9 };
        assert!(e.to_string().contains("rank 5"));
        assert!(e.to_string().contains("dead"));
        let e = RuntimeError::MissingHop {
            rank: 0,
            channel: Channel::Forces { hop: 2 },
            epoch: 1,
            attempts: 3,
        };
        assert!(e.to_string().contains("attempts"));
    }

    #[test]
    fn only_rank_death_names_a_dead_rank_to_the_supervisor() {
        let channel = Channel::Ghosts { hop: 0 };
        let dead: sc_md::StepFault = RuntimeError::RankDead { rank: 5, step: 9, epoch: 9 }.into();
        assert_eq!(dead.dead_rank, Some(5));
        assert!(dead.message.contains("rank 5"), "{dead}");
        for e in [
            RuntimeError::EpochMismatch { rank: 5, expected: 2, got: 3 },
            RuntimeError::PhaseMismatch { rank: 5, expected: 40, got: 31 },
            RuntimeError::ChecksumMismatch { rank: 5, channel, epoch: 7 },
            RuntimeError::MissingHop { rank: 5, channel, epoch: 1, attempts: 3 },
            RuntimeError::RankStalled { rank: 5, epoch: 4, attempts: 3 },
            RuntimeError::WrongPayload { rank: 5, channel },
            RuntimeError::UnknownForceTarget { rank: 5, id: 11 },
        ] {
            let fault: sc_md::StepFault = e.clone().into();
            assert_eq!(fault.dead_rank, None, "{e}");
            assert_eq!(fault.message, e.to_string());
        }
    }

    #[test]
    fn executor_errors_funnel_into_the_unified_error() {
        let e: sc_md::Error = SetupError::UnsupportedSubdivision(9).into();
        assert!(e.to_string().starts_with("setup:"), "{e}");
        let e: sc_md::Error = RuntimeError::EpochMismatch { rank: 1, expected: 2, got: 3 }.into();
        assert!(e.to_string().starts_with("runtime:"), "{e}");
        let e: sc_md::Error = SetupError::NonPositiveHalo { width: 0.0 }.into();
        assert!(e.to_string().contains("positive"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
