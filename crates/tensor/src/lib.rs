#![warn(missing_docs)]

//! Dense tensors, bit masks and shape arithmetic for the Fast-BCNN
//! reproduction.
//!
//! This crate is the lowest layer of the workspace: everything that moves
//! feature maps, kernels or dropout masks around is built on the types
//! defined here.
//!
//! * [`Shape`] — a `(channels, height, width)` feature-map shape with
//!   checked index arithmetic.
//! * [`Tensor`] — an owned, dense, row-major `f32` tensor over a [`Shape`].
//! * [`BitMask`] — a packed bit set over a [`Shape`], used for dropout
//!   masks, zero-neuron indexes and weight-polarity indicators.
//! * [`stats`] — small numeric helpers (argmax, mean, variance, softmax).
//! * [`hash`] — the seeded mixers (SplitMix64, FNV-1a) behind every
//!   deterministic bit of the workspace.
//!
//! # Examples
//!
//! ```
//! use fbcnn_tensor::{Shape, Tensor};
//!
//! let shape = Shape::new(2, 3, 3);
//! let mut t = Tensor::zeros(shape);
//! t[(1, 2, 0)] = 4.5;
//! assert_eq!(t[(1, 2, 0)], 4.5);
//! assert_eq!(t.shape().len(), 18);
//! ```

mod bitmask;
pub mod hash;
mod shape;
pub mod stats;
mod tensor;

pub use bitmask::BitMask;
pub use shape::Shape;
pub use tensor::Tensor;
