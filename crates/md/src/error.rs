//! Typed configuration errors for the simulation builder, and the unified
//! top-level [`Error`] every binary can funnel a whole run through.

use crate::checkpoint::CheckpointError;
use crate::io::XyzError;
use crate::supervisor::SupervisorError;
use std::fmt;

/// Why a [`crate::SimulationBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No potential term was supplied.
    NoTerms,
    /// Hybrid-MD requires a pair potential (its Verlet list is built from
    /// the pair cutoff).
    HybridNeedsPair,
    /// An n ≥ 3 cutoff exceeds the pair cutoff, so Hybrid's pair list
    /// cannot cover the term.
    CutoffOrder {
        /// The offending tuple order.
        n: usize,
        /// Its cutoff.
        rcut_n: f64,
        /// The pair cutoff it exceeds.
        rcut2: f64,
    },
    /// The periodic box cannot host the cell lattice a term needs (fewer
    /// than 3 cutoffs per axis, a cutoff beyond half the shortest edge, or
    /// reach-k offsets would alias through the wrap).
    BoxTooSmall {
        /// The tuple order whose lattice failed.
        n: usize,
        /// The term's cutoff.
        rcut: f64,
        /// The configured cell subdivision.
        subdivision: i32,
    },
    /// A scalar configuration field carries an invalid value. `field` names
    /// the offending [`crate::RuntimeConfig`] / builder knob (`"timestep"`,
    /// `"verlet_skin"`, …) so callers can report exactly what to fix.
    Config {
        /// The offending configuration field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An initial position or velocity is NaN or infinite.
    NonFiniteAtom {
        /// Store index of the offending atom.
        index: usize,
        /// Which component was non-finite (`"position"` or `"velocity"`).
        what: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoTerms => {
                write!(f, "simulation needs at least one potential term")
            }
            BuildError::HybridNeedsPair => {
                write!(f, "Hybrid-MD requires a pair potential (the Verlet list is built from it)")
            }
            BuildError::CutoffOrder { n, rcut_n, rcut2 } => {
                write!(f, "Hybrid-MD needs rcut{n} ({rcut_n}) ≤ rcut2 ({rcut2})")
            }
            BuildError::BoxTooSmall { n, rcut, subdivision } => write!(
                f,
                "box too small for the n={n} lattice with cutoff {rcut} (subdivision {subdivision})"
            ),
            BuildError::Config { field, value } => {
                write!(f, "invalid {field} {value}: must be positive and finite")
            }
            BuildError::NonFiniteAtom { index, what } => {
                write!(f, "atom {index} has a non-finite {what}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a command line could not be interpreted. Produced by the `scmd`
/// front-end's flag parser and funnelled through [`Error::Cli`], so a
/// malformed invocation exits through the same typed chain as every other
/// failure — naming the offending flag instead of panicking into a generic
/// usage dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The first argument is not a known subcommand.
    UnknownSubcommand(
        /// The unrecognised subcommand as typed.
        String,
    ),
    /// No subcommand was given at all.
    MissingSubcommand,
    /// A positional argument appeared where only `--flag value` pairs are
    /// accepted.
    UnexpectedArg(
        /// The offending argument as typed.
        String,
    ),
    /// A `--flag` was given without the value it requires.
    MissingValue(
        /// The flag name (without the leading dashes).
        String,
    ),
    /// A flag's value failed to parse as the type the flag expects.
    BadFlagValue {
        /// The flag name (without the leading dashes).
        flag: String,
        /// The rejected value as typed.
        value: String,
        /// What the flag expects (e.g. `"a positive integer"`).
        expected: &'static str,
    },
    /// A flag's value is not in the flag's closed set of alternatives.
    UnknownValue {
        /// The flag name (without the leading dashes).
        flag: String,
        /// The rejected value as typed.
        value: String,
        /// The accepted alternatives, for the error message.
        allowed: &'static str,
    },
    /// A flag that the subcommand requires was not supplied.
    MissingFlag(
        /// The flag name (without the leading dashes).
        String,
    ),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownSubcommand(cmd) => write!(f, "unknown subcommand {cmd:?}"),
            CliError::MissingSubcommand => write!(f, "missing subcommand"),
            CliError::UnexpectedArg(arg) => {
                write!(f, "unexpected argument {arg:?} (expected --flag value pairs)")
            }
            CliError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            CliError::BadFlagValue { flag, value, expected } => {
                write!(f, "bad value for --{flag}: {value:?} (expected {expected})")
            }
            CliError::UnknownValue { flag, value, allowed } => {
                write!(f, "unknown value for --{flag}: {value:?} (expected {allowed})")
            }
            CliError::MissingFlag(flag) => write!(f, "missing required flag --{flag}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The unified top-level error of the MD stack.
///
/// Every fallible entry point converts into this via `From`, so a binary's
/// whole setup-run-output pipeline is one `?`-chain:
/// build ([`BuildError`]), trajectory I/O ([`XyzError`], [`std::io::Error`]),
/// checkpointing ([`CheckpointError`]), supervised recovery
/// ([`SupervisorError`]), and the distributed engine's setup/runtime
/// failures (type-erased behind [`Error::Setup`] / [`Error::Runtime`];
/// `sc-parallel` provides the `From` impls, keeping the crate layering
/// acyclic). See DESIGN.md §6 for the stability contract.
#[derive(Debug)]
pub enum Error {
    /// The command line itself was malformed (see [`CliError`]).
    Cli(CliError),
    /// Simulation configuration was rejected at build time.
    Build(BuildError),
    /// XYZ trajectory I/O failed.
    Xyz(XyzError),
    /// Checkpoint save/load failed.
    Checkpoint(CheckpointError),
    /// The supervisor exhausted its recovery budget.
    Supervisor(SupervisorError),
    /// A distributed executor rejected its configuration (e.g.
    /// `sc-parallel`'s `SetupError`).
    Setup(Box<dyn std::error::Error + Send + Sync>),
    /// A runtime fault escaped recovery (e.g. `sc-parallel`'s
    /// `RuntimeError`).
    Runtime(Box<dyn std::error::Error + Send + Sync>),
    /// Plain I/O failure (metrics output, trajectory files, …).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Cli(e) => write!(f, "cli: {e}"),
            Error::Build(e) => write!(f, "build: {e}"),
            Error::Xyz(e) => write!(f, "xyz: {e}"),
            Error::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            Error::Supervisor(e) => write!(f, "supervisor: {e}"),
            Error::Setup(e) => write!(f, "setup: {e}"),
            Error::Runtime(e) => write!(f, "runtime: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Cli(e) => Some(e),
            Error::Build(e) => Some(e),
            Error::Xyz(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
            Error::Supervisor(e) => Some(e),
            Error::Setup(e) | Error::Runtime(e) => Some(e.as_ref()),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Error::Build(e)
    }
}

impl From<CliError> for Error {
    fn from(e: CliError) -> Self {
        Error::Cli(e)
    }
}

impl From<XyzError> for Error {
    fn from(e: XyzError) -> Self {
        Error::Xyz(e)
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Self {
        Error::Checkpoint(e)
    }
}

impl From<SupervisorError> for Error {
    fn from(e: SupervisorError) -> Self {
        Error::Supervisor(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(BuildError::NoTerms.to_string().contains("potential term"));
        assert!(BuildError::HybridNeedsPair.to_string().contains("pair"));
        assert!(BuildError::CutoffOrder { n: 3, rcut_n: 2.0, rcut2: 1.0 }
            .to_string()
            .contains("rcut3"));
        assert!(BuildError::BoxTooSmall { n: 2, rcut: 2.5, subdivision: 1 }
            .to_string()
            .contains("too small"));
        assert!(BuildError::NonFiniteAtom { index: 4, what: "velocity" }
            .to_string()
            .contains("atom 4"));
    }

    #[test]
    fn config_errors_carry_the_field_name() {
        let e = BuildError::Config { field: "timestep", value: -0.5 };
        assert!(e.to_string().contains("timestep"));
        assert!(e.to_string().contains("positive"));
        let e = BuildError::Config { field: "verlet_skin", value: f64::NAN };
        assert!(e.to_string().contains("verlet_skin"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(BuildError::NoTerms);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn cli_errors_name_the_offending_flag() {
        let e = CliError::BadFlagValue {
            flag: "steps".into(),
            value: "lots".into(),
            expected: "a positive integer",
        };
        assert!(e.to_string().contains("--steps"), "{e}");
        assert!(e.to_string().contains("lots"), "{e}");
        let e = CliError::UnknownValue {
            flag: "method".into(),
            value: "magic".into(),
            allowed: "sc|fs|hybrid",
        };
        assert!(e.to_string().contains("--method"), "{e}");
        assert!(e.to_string().contains("sc|fs|hybrid"), "{e}");
        assert!(CliError::MissingValue("out".into()).to_string().contains("--out"));
        assert!(CliError::MissingFlag("spec".into()).to_string().contains("--spec"));
        let top: Error = CliError::UnknownSubcommand("frobnicate".into()).into();
        assert!(top.to_string().starts_with("cli:"), "{top}");
        assert!(std::error::Error::source(&top).is_some());
    }

    #[test]
    fn unified_error_wraps_and_chains() {
        let e: Error = BuildError::NoTerms.into();
        assert!(e.to_string().starts_with("build:"));
        assert!(std::error::Error::source(&e).is_some());
        let e: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        let e = Error::Setup("boxed setup failure".into());
        assert!(e.to_string().starts_with("setup:"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
