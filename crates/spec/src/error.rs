//! Typed errors for scenario parsing, validation, and instantiation.

use sc_md::BuildError;
use std::fmt;

/// Why a scenario spec could not be read, decoded, validated, or turned
/// into a runnable simulation. Every variant names the offending field
/// with its full dotted path (e.g. `system.cells`), so a bad spec file is
/// diagnosable from the message alone.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Reading the spec file failed.
    Io {
        /// The path that failed to read.
        path: String,
        /// The underlying I/O error text.
        detail: String,
    },
    /// The document is not syntactically valid JSON.
    Parse {
        /// Parser diagnostic (includes position).
        detail: String,
    },
    /// A required field is absent.
    MissingField {
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field holds a value of the wrong JSON type.
    BadType {
        /// Dotted path of the offending field.
        field: String,
        /// The type the field expects (e.g. `"number"`, `"object"`).
        expected: &'static str,
    },
    /// A field holds a value of the right type but an invalid magnitude or
    /// an inconsistent combination.
    BadValue {
        /// Dotted path of the offending field.
        field: String,
        /// What is wrong with it.
        detail: String,
    },
    /// A field is not part of the scenario schema (typo guard: specs are
    /// decoded strictly so a misspelled knob fails instead of silently
    /// falling back to a default).
    UnknownField {
        /// Dotted path of the unrecognised field.
        field: String,
    },
    /// A closed-enum field holds an unknown alternative.
    UnknownVariant {
        /// Dotted path of the offending field.
        field: String,
        /// The rejected value as written.
        value: String,
        /// The accepted alternatives.
        allowed: &'static str,
    },
    /// The decoded spec was rejected by the simulation builder.
    Build(BuildError),
    /// The decoded spec was rejected by a distributed executor's setup
    /// (type-erased to keep the crate layering acyclic).
    Setup(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Io { path, detail } => write!(f, "reading {path}: {detail}"),
            SpecError::Parse { detail } => write!(f, "invalid json: {detail}"),
            SpecError::MissingField { field } => write!(f, "missing required field '{field}'"),
            SpecError::BadType { field, expected } => {
                write!(f, "field '{field}' must be a {expected}")
            }
            SpecError::BadValue { field, detail } => write!(f, "field '{field}': {detail}"),
            SpecError::UnknownField { field } => write!(f, "unknown field '{field}'"),
            SpecError::UnknownVariant { field, value, allowed } => {
                write!(f, "field '{field}': unknown value {value:?} (expected {allowed})")
            }
            SpecError::Build(e) => write!(f, "spec builds an invalid simulation: {e}"),
            SpecError::Setup(e) => write!(f, "spec rejected by executor setup: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for SpecError {
    fn from(e: BuildError) -> Self {
        SpecError::Build(e)
    }
}

/// Funnels spec failures into the unified top-level error, so `scmd`'s
/// whole spec-load → build → run pipeline is one `?`-chain.
impl From<SpecError> for sc_md::Error {
    fn from(e: SpecError) -> Self {
        sc_md::Error::Setup(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_the_dotted_field_path() {
        let e = SpecError::MissingField { field: "system.cells".into() };
        assert!(e.to_string().contains("system.cells"));
        let e = SpecError::BadType { field: "dt".into(), expected: "number" }.to_string();
        assert!(e.contains("dt") && e.contains("number"));
        let e = SpecError::UnknownVariant {
            field: "method".into(),
            value: "magic".into(),
            allowed: "sc|fs|hybrid",
        };
        assert!(e.to_string().contains("sc|fs|hybrid"));
    }

    #[test]
    fn converts_into_the_unified_error() {
        let top: sc_md::Error = SpecError::UnknownField { field: "stepss".into() }.into();
        assert!(top.to_string().contains("stepss"), "{top}");
        assert!(std::error::Error::source(&top).is_some());
    }
}
