#![warn(missing_docs)]

//! Bayesian CNN machinery: Bernoulli random number generation, dropout
//! masks and Monte-Carlo-dropout inference.
//!
//! Following Gal & Ghahramani's Bernoulli variational interpretation
//! (paper §II), a BCNN is a CNN with a dropout layer after every
//! convolutional layer; inference runs `T` stochastic forward passes and
//! averages the outputs. This crate implements:
//!
//! * [`Lfsr32`] / [`Brng`] — the hardware Bernoulli generator (32-bit
//!   LFSR with taps 32/30/26/25, eight of them combined into an 8-bit
//!   uniform, thresholded at `t = 256·p`), plus a software reference
//!   generator for the Table III comparison;
//! * [`DropoutMasks`] and mask pooling (the paper's mask-pooling unit);
//! * [`BayesianNetwork`] — a [`fbcnn_nn::Network`] with dropout attached
//!   to every convolution node;
//! * [`McDropout`] — the T-sample runner producing a
//!   [`Prediction`] with uncertainty metrics.
//!
//! # Examples
//!
//! ```
//! use fbcnn_bayes::{BayesianNetwork, McDropout};
//! use fbcnn_nn::models;
//! use fbcnn_tensor::Tensor;
//!
//! let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
//! let runner = McDropout::new(8, 42);
//! let input = Tensor::full(bnet.network().input_shape(), 0.2);
//! let pred = runner.run(&bnet, &input);
//! assert_eq!(pred.mean.len(), 10);
//! ```

mod bnet;
mod brng;
mod cancel;
mod error;
mod lfsr;
pub mod mask;
mod mc;
pub mod metrics;
mod seed;

pub use bnet::{BayesianNetwork, SampleRun};
pub use brng::{measured_drop_rate, Brng, SoftwareBernoulli};
pub use cancel::CancelToken;
pub use error::BayesError;
pub use lfsr::Lfsr32;
pub use mask::DropoutMasks;
pub use mc::{IsolatedRun, McDropout, McRequest, Prediction};
pub use seed::derive_request_seed;
