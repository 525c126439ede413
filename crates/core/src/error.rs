//! Error type for the SEO framework.

use seo_platform::PlatformError;
use seo_wireless::WirelessError;
use std::error::Error;
use std::fmt;

/// Errors raised while configuring or running the SEO framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SeoError {
    /// A configuration field was out of range.
    InvalidConfig {
        /// Offending field.
        field: &'static str,
        /// Constraint description.
        constraint: &'static str,
    },
    /// The Λ′ subset was empty — there is nothing to optimize.
    NoOptimizableModels,
    /// An experiment could not collect the requested number of successful
    /// (collision-free, completed) runs.
    InsufficientSuccessfulRuns {
        /// Successful runs collected.
        collected: usize,
        /// Successful runs requested.
        requested: usize,
        /// Episodes attempted before giving up.
        attempts: usize,
    },
    /// A platform-layer error (invalid quantities, zero baselines).
    Platform(PlatformError),
    /// A wireless-layer error.
    Wireless(WirelessError),
}

impl fmt::Display for SeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { field, constraint } => {
                write!(f, "invalid SEO config: {field} must {constraint}")
            }
            Self::NoOptimizableModels => {
                write!(f, "the optimizable subset Λ' is empty")
            }
            Self::InsufficientSuccessfulRuns {
                collected,
                requested,
                attempts,
            } => write!(
                f,
                "collected only {collected}/{requested} successful runs after {attempts} attempts"
            ),
            Self::Platform(e) => write!(f, "platform error: {e}"),
            Self::Wireless(e) => write!(f, "wireless error: {e}"),
        }
    }
}

impl Error for SeoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Platform(e) => Some(e),
            Self::Wireless(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for SeoError {
    fn from(e: PlatformError) -> Self {
        Self::Platform(e)
    }
}

impl From<WirelessError> for SeoError {
    fn from(e: WirelessError) -> Self {
        Self::Wireless(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SeoError::NoOptimizableModels.to_string().contains("Λ'"));
        let e = SeoError::InsufficientSuccessfulRuns {
            collected: 3,
            requested: 25,
            attempts: 60,
        };
        assert!(e.to_string().contains("3/25"));
    }

    #[test]
    fn wraps_sub_errors_with_source() {
        let e = SeoError::from(PlatformError::ZeroBaseline);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("platform"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SeoError>();
    }
}
