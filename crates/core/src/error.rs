//! Typed errors for engine construction and inference.
//!
//! The robustness contract (`ROADMAP` — graceful degradation) is that a
//! fault anywhere in the skipping pipeline surfaces as one of these
//! values, never as a process abort: construction problems become
//! [`EngineError`], inference problems become [`InferenceError`], and
//! recoverable anomalies are absorbed by
//! [`crate::Engine::predict_robust_controlled`] and reported in its
//! [`crate::RobustReport`].

use fbcnn_bayes::BayesError;
use fbcnn_nn::{NnError, NumericFault};
use fbcnn_predictor::ThresholdError;
use std::fmt;

/// Why an [`crate::Engine`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The calibration dataset (Algorithm 1's `D`) is empty.
    EmptyDataset,
    /// A configuration field is outside its legal range.
    InvalidConfig {
        /// Which constraint failed and how.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyDataset => write!(f, "calibration dataset is empty"),
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid engine config: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Why an inference run failed outright.
///
/// [`crate::Engine::predict_robust_controlled`] returns one of these only
/// when no healthy prediction could be produced at all; recoverable
/// trouble is instead degraded around and reported in
/// [`crate::RobustReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceError {
    /// The input tensor does not fit the network.
    Input(NnError),
    /// The threshold set is structurally inconsistent with the network
    /// (truncated, misaddressed or oversized — the shape a poisoned
    /// artifact takes).
    Thresholds(ThresholdError),
    /// An activation failed its numeric health check and the guard policy
    /// forbids repair or fallback.
    Numeric(NumericFault),
    /// The Bayesian layer rejected the run (bad masks, graph violation,
    /// or summary over malformed rows).
    Bayes(BayesError),
    /// Every sample — fast and fallback alike — was lost.
    AllSamplesFailed {
        /// Samples requested.
        requested: usize,
    },
    /// The request's deadline (or cancellation) fired before even one
    /// sample completed. A deadline that fires *after* at least one
    /// sample instead returns `Ok` with the partial-T mean, flagged
    /// [`crate::DegradedMode::PartialSamples`] — expiry is only an error
    /// when there is nothing valid to return.
    Expired {
        /// Samples that completed before expiry (always 0 in the error
        /// form; carried for symmetry with the report).
        samples_completed: usize,
    },
    /// Admission control shed the request: the batch exceeded the bounded
    /// queue's capacity and the shed policy rejected this request rather
    /// than degrade it.
    Overloaded {
        /// Requests submitted in the offered batch.
        queue_depth: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The worker thread serving this request's attempt hung past the
    /// watchdog timeout every time; the attempt was requeued `requeues`
    /// times before the serving loop gave up on it.
    WorkerHung {
        /// Times the watchdog requeued the attempt before abandoning it.
        requeues: u32,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::Input(e) => write!(f, "bad input: {e}"),
            InferenceError::Thresholds(e) => write!(f, "bad thresholds: {e}"),
            InferenceError::Numeric(e) => write!(f, "numeric fault: {e}"),
            InferenceError::Bayes(e) => write!(f, "bayesian layer error: {e}"),
            InferenceError::AllSamplesFailed { requested } => {
                write!(f, "all {requested} samples failed")
            }
            InferenceError::Expired { samples_completed } => write!(
                f,
                "deadline expired with {samples_completed} samples completed"
            ),
            InferenceError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "request shed: batch depth {queue_depth} exceeds queue capacity {capacity}"
            ),
            InferenceError::WorkerHung { requeues } => {
                write!(f, "worker hung; unit requeued {requeues} times, abandoned")
            }
        }
    }
}

impl std::error::Error for InferenceError {}

impl From<NnError> for InferenceError {
    fn from(e: NnError) -> Self {
        InferenceError::Input(e)
    }
}

impl From<ThresholdError> for InferenceError {
    fn from(e: ThresholdError) -> Self {
        InferenceError::Thresholds(e)
    }
}

impl From<NumericFault> for InferenceError {
    fn from(e: NumericFault) -> Self {
        InferenceError::Numeric(e)
    }
}

impl From<BayesError> for InferenceError {
    fn from(e: BayesError) -> Self {
        match e {
            // Flatten the shared variants so callers match one place.
            BayesError::Graph(e) => InferenceError::Input(e),
            BayesError::Numeric(e) => InferenceError::Numeric(e),
            BayesError::AllSamplesFailed { requested } => {
                InferenceError::AllSamplesFailed { requested }
            }
            other => InferenceError::Bayes(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(EngineError::EmptyDataset),
            Box::new(EngineError::InvalidConfig {
                reason: "samples = 0".into(),
            }),
            Box::new(InferenceError::Input(NnError::EmptyGraph)),
            Box::new(InferenceError::Thresholds(ThresholdError::NotAConvNode {
                node: 0,
            })),
            Box::new(InferenceError::Numeric(NumericFault::NotFinite {
                node: 1,
                index: 2,
            })),
            Box::new(InferenceError::Bayes(BayesError::NoSamples)),
            Box::new(InferenceError::AllSamplesFailed { requested: 4 }),
            Box::new(InferenceError::Expired {
                samples_completed: 0,
            }),
            Box::new(InferenceError::Overloaded {
                queue_depth: 12,
                capacity: 8,
            }),
            Box::new(InferenceError::WorkerHung { requeues: 2 }),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn bayes_conversions_flatten_shared_variants() {
        let e: InferenceError = BayesError::Graph(NnError::EmptyGraph).into();
        assert_eq!(e, InferenceError::Input(NnError::EmptyGraph));
        let e: InferenceError = BayesError::AllSamplesFailed { requested: 9 }.into();
        assert_eq!(e, InferenceError::AllSamplesFailed { requested: 9 });
        let e: InferenceError = BayesError::NoSamples.into();
        assert_eq!(e, InferenceError::Bayes(BayesError::NoSamples));
    }
}
