//! Error type for the neural network substrate.

use std::error::Error;
use std::fmt;

/// Errors raised while training the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// Training was configured with an empty population or zero elites.
    InvalidTraining {
        /// Description of the broken knob.
        reason: &'static str,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidTraining { reason } => write!(f, "invalid training config: {reason}"),
        }
    }
}

impl Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(NnError::InvalidTraining { reason: "x" }
            .to_string()
            .contains("x"));
    }
}
