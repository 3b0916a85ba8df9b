//! Error type for the MCAM simulator.

use std::error::Error;
use std::fmt;

use femcam_device::DeviceError;
use femcam_lsh::LshError;

/// Errors produced by the MCAM simulator and search engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A stored word or query has the wrong number of cells.
    WordLengthMismatch {
        /// Cells per word the array was built with.
        expected: usize,
        /// Cells in the offending word.
        actual: usize,
    },
    /// A level index exceeds the ladder's `2^B − 1` maximum.
    LevelOutOfRange {
        /// The offending level.
        level: u8,
        /// The largest valid level.
        max: u8,
    },
    /// The requested bit width is not supported by the ladder.
    UnsupportedBitWidth {
        /// The rejected bit width.
        bits: u8,
    },
    /// A search was issued against an array with no stored rows.
    EmptyArray,
    /// A packed-code plan was requested for an array whose cells carry
    /// individually realized conductances (device variation), which a
    /// shared-LUT code plan cannot represent. The search entry points
    /// never produce this error — the plan cache transparently falls
    /// back to the `f32` plane plan instead (see
    /// [`crate::exec`]'s "Codes mode").
    PerCellBank,
    /// A serving front end could not accept or complete the request
    /// (admission control rejected it, or the server is shutting
    /// down). Produced by `femcam-serve` adapters when mapping their
    /// richer error type onto this one.
    Unavailable {
        /// Short human-readable cause.
        reason: &'static str,
    },
    /// A serving front end stayed saturated past the caller's bounded
    /// retry budget: every admission attempt over the whole backoff
    /// window was rejected. Produced by `femcam-serve` adapters; the
    /// duration is how long the caller backed off before giving up.
    Overloaded {
        /// Total time spent overloaded (backing off), in microseconds.
        waited_us: u64,
    },
    /// A sharded serving front end could not search the full bank set
    /// (a shard was quarantined, failed, or timed out) and its
    /// degraded-result policy is fail-closed, so the partial merge was
    /// refused rather than returned. Produced by `femcam-serve`
    /// adapters; the counts say how much of the memory was reachable.
    Degraded {
        /// Banks actually searched.
        searched: usize,
        /// Banks the request intended to search.
        total: usize,
    },
    /// A quantizer was used before fitting, or fitted on no data.
    QuantizerNotFitted,
    /// Input feature dimensionality does not match the engine.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Actual dimensionality.
        actual: usize,
    },
    /// A numeric parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An underlying device-model failure.
    Device(DeviceError),
    /// An underlying LSH failure.
    Lsh(LshError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::WordLengthMismatch { expected, actual } => {
                write!(f, "word has {actual} cells, array expects {expected}")
            }
            CoreError::LevelOutOfRange { level, max } => {
                write!(f, "level {level} exceeds ladder maximum {max}")
            }
            CoreError::UnsupportedBitWidth { bits } => {
                write!(f, "bit width {bits} not supported (expected 1..=6)")
            }
            CoreError::EmptyArray => write!(f, "search issued against an empty array"),
            CoreError::PerCellBank => write!(
                f,
                "packed-code plan requires a shared-LUT array \
                 (this array realizes per-cell conductances)"
            ),
            CoreError::Unavailable { reason } => {
                write!(f, "service unavailable: {reason}")
            }
            CoreError::Overloaded { waited_us } => {
                write!(
                    f,
                    "serving queue stayed at capacity for {waited_us} us of bounded retries"
                )
            }
            CoreError::Degraded { searched, total } => {
                write!(
                    f,
                    "degraded coverage refused (fail-closed policy): \
                     searched {searched} of {total} banks"
                )
            }
            CoreError::QuantizerNotFitted => {
                write!(f, "quantizer must be fitted on nonempty data before use")
            }
            CoreError::DimensionMismatch { expected, actual } => {
                write!(f, "input has {actual} features, engine expects {expected}")
            }
            CoreError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            CoreError::Device(e) => write!(f, "device model: {e}"),
            CoreError::Lsh(e) => write!(f, "lsh encoder: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Device(e) => Some(e),
            CoreError::Lsh(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for CoreError {
    fn from(e: DeviceError) -> Self {
        CoreError::Device(e)
    }
}

impl From<LshError> for CoreError {
    fn from(e: LshError) -> Self {
        CoreError::Lsh(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let errs: Vec<CoreError> = vec![
            CoreError::WordLengthMismatch {
                expected: 4,
                actual: 2,
            },
            CoreError::LevelOutOfRange { level: 9, max: 7 },
            CoreError::UnsupportedBitWidth { bits: 9 },
            CoreError::EmptyArray,
            CoreError::PerCellBank,
            CoreError::Unavailable {
                reason: "queue full",
            },
            CoreError::Overloaded { waited_us: 50_000 },
            CoreError::Degraded {
                searched: 3,
                total: 16,
            },
            CoreError::QuantizerNotFitted,
            CoreError::DimensionMismatch {
                expected: 64,
                actual: 63,
            },
            CoreError::InvalidParameter {
                name: "sigma",
                value: -1.0,
            },
            CoreError::Device(DeviceError::InvalidParameter {
                name: "i_on",
                value: 0.0,
            }),
            CoreError::Lsh(LshError::EmptyConfiguration),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn wrapped_errors_expose_source() {
        let e = CoreError::Device(DeviceError::InvalidParameter {
            name: "i_on",
            value: 0.0,
        });
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoreError::EmptyArray).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
