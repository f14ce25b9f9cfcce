//! Typed errors for the Bayesian inference layer.

use fbcnn_nn::{NnError, NumericFault};
use std::fmt;

/// Errors from mask validation, guarded forward passes and isolated
/// MC-dropout runs.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// A dropout-carrying node has no mask in the provided set.
    MissingMask {
        /// Graph node id of the conv node lacking its mask.
        node: usize,
    },
    /// A node's mask shape disagrees with the node's output shape.
    MaskShape {
        /// Graph node id.
        node: usize,
        /// The node's output shape.
        expected: String,
        /// The mask's shape.
        actual: String,
    },
    /// A graph-level violation (input shape, executor output shape).
    Graph(NnError),
    /// An activation failed its numeric health check.
    Numeric(NumericFault),
    /// Some request of an MC run lost every sample to panics.
    AllSamplesFailed {
        /// Samples requested.
        requested: usize,
    },
    /// A summary was requested over zero surviving samples.
    NoSamples,
    /// Per-sample probability rows disagree on the class count.
    InconsistentClasses,
}

impl fmt::Display for BayesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesError::MissingMask { node } => {
                write!(f, "dropout node {node} has no mask")
            }
            BayesError::MaskShape {
                node,
                expected,
                actual,
            } => write!(
                f,
                "mask for node {node} has shape {actual}, expected {expected}"
            ),
            BayesError::Graph(e) => write!(f, "graph error: {e}"),
            BayesError::Numeric(e) => write!(f, "numeric fault: {e}"),
            BayesError::AllSamplesFailed { requested } => {
                write!(f, "all {requested} MC samples failed")
            }
            BayesError::NoSamples => write!(f, "no samples to summarize"),
            BayesError::InconsistentClasses => {
                write!(f, "inconsistent class counts across samples")
            }
        }
    }
}

impl std::error::Error for BayesError {}

impl From<NnError> for BayesError {
    fn from(e: NnError) -> Self {
        BayesError::Graph(e)
    }
}

impl From<NumericFault> for BayesError {
    fn from(e: NumericFault) -> Self {
        BayesError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<BayesError> = vec![
            BayesError::MissingMask { node: 3 },
            BayesError::MaskShape {
                node: 1,
                expected: "6x28x28".into(),
                actual: "6x14x14".into(),
            },
            BayesError::Graph(NnError::EmptyGraph),
            BayesError::Numeric(NumericFault::NotFinite { node: 0, index: 4 }),
            BayesError::AllSamplesFailed { requested: 8 },
            BayesError::NoSamples,
            BayesError::InconsistentClasses,
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_wrap() {
        let e: BayesError = NnError::EmptyGraph.into();
        assert_eq!(e, BayesError::Graph(NnError::EmptyGraph));
        let f: BayesError = NumericFault::NotFinite { node: 2, index: 0 }.into();
        assert!(matches!(f, BayesError::Numeric(_)));
    }
}
