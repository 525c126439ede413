//! Error type for the safety substrate.

use std::error::Error;
use std::fmt;

/// Errors raised while building safety components.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SafetyError {
    /// A configuration field was out of range.
    InvalidConfig {
        /// Offending field.
        field: &'static str,
        /// Constraint description.
        constraint: &'static str,
    },
}

impl fmt::Display for SafetyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { field, constraint } => {
                write!(f, "invalid safety config: {field} must {constraint}")
            }
        }
    }
}

impl Error for SafetyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SafetyError::InvalidConfig {
            field: "alpha",
            constraint: "be positive",
        };
        assert!(e.to_string().contains("alpha"));
    }
}
