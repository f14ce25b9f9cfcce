#![warn(missing_docs)]

//! Unaffected-neuron prediction — the algorithmic core of Fast-BCNN.
//!
//! The paper's key observation (§III) is that most zero-valued neurons of
//! the dropout-free *pre-inference* stay zero in every dropout sample.
//! Whether a particular zero neuron might flip is predicted from the
//! number of *dropped nw-inputs* — inputs that (a) are dropped by the
//! incoming dropout mask and (b) multiply a negative weight: losing many
//! negative products can push a negative pre-activation past zero.
//!
//! This crate implements that pipeline:
//!
//! * [`PolarityIndicators`] — per-kernel 1-bit weight-polarity maps
//!   (Algorithm 1 lines 4–5, hardware indicator buffers);
//! * [`count_dropped_nw_inputs`] — the binary convolution of dropout bits
//!   with indicator bits (the prediction unit's counting lanes, Fig. 9);
//! * [`input_drop_mask`] — resolves which *inputs* of a convolution are
//!   dropped, pooling masks through intervening pool layers (the mask
//!   pooling unit) and concatenating them across Inception branches;
//! * [`ThresholdSet`] / [`ThresholdOptimizer`] — per-kernel thresholds
//!   `α` tuned by Algorithm 1 to a confidence level `p_cf`;
//! * [`SkipMap`] / [`build_skip_maps`] — the per-sample skip decisions
//!   combining dropped neurons and predicted-unaffected neurons;
//! * [`PredictiveInference`] — the functional skipping forward pass,
//!   bit-identical to the dense pass on every neuron it does compute.
//!
//! # Examples
//!
//! ```
//! use fbcnn_bayes::BayesianNetwork;
//! use fbcnn_nn::models;
//! use fbcnn_predictor::{ThresholdOptimizer, PredictiveInference};
//! use fbcnn_tensor::Tensor;
//!
//! let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
//! let input = Tensor::full(bnet.network().input_shape(), 0.3);
//! let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 77);
//! let engine = PredictiveInference::new(&bnet, &input, thresholds);
//! let masks = bnet.generate_masks(77, 0);
//! let run = engine.run_sample(&masks);
//! assert_eq!(run.logits().len(), 10);
//! ```

mod counting;
mod evaluate;
mod indicator;
mod predictive;
mod skipmap;
mod threshold;

pub use counting::{
    count_dropped_nw_inputs, count_dropped_nw_inputs_scalar, input_drop_mask, NdCounts,
};
pub use evaluate::{evaluate_predictions, EvalReport};
pub use indicator::PolarityIndicators;
pub use predictive::{PredictiveInference, PredictorShared, PreparedInput, SkippingRun};
pub use skipmap::{build_skip_maps, SkipMap, SkipStats};
pub use threshold::{ThresholdError, ThresholdOptimizer, ThresholdSet};
