use crate::{Conv2d, Dense, Pool2d};
use fbcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// A single network layer — the unit the [`crate::Network`] DAG composes.
///
/// Only three layer families exist in the paper's models; activation
/// (ReLU) is fused into [`Conv2d`] and [`Dense`], matching the PE
/// datapath where ReLU sits directly in front of the output buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution (optionally with fused ReLU).
    Conv(Conv2d),
    /// 2-D max/avg pooling.
    Pool(Pool2d),
    /// Fully-connected layer (optionally with fused ReLU).
    Dense(Dense),
}

impl Layer {
    /// The output shape for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    pub fn output_shape(&self, input: Shape) -> Shape {
        match self {
            Layer::Conv(c) => c.output_shape(input),
            Layer::Pool(p) => p.output_shape(input),
            Layer::Dense(d) => d.output_shape(input),
        }
    }

    /// Runs the layer.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        match self {
            Layer::Conv(c) => c.forward(input),
            Layer::Pool(p) => p.forward(input),
            Layer::Dense(d) => d.forward(input),
        }
    }

    /// Runs the layer through the fast path: convolutions take the
    /// im2col + blocked kernel via [`Conv2d::forward_ws`] (reusing the
    /// scratch buffers in `ws`), other layers fall through to
    /// [`Layer::forward`]. Output has the same bits as [`Layer::forward`],
    /// except that a NaN may differ in sign or payload.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    pub fn forward_ws(&self, input: &Tensor, ws: &mut crate::Workspace) -> Tensor {
        match self {
            Layer::Conv(c) => c.forward_ws(input, ws),
            other => other.forward(input),
        }
    }

    /// Whether this is a convolution layer.
    pub fn is_conv(&self) -> bool {
        matches!(self, Layer::Conv(_))
    }

    /// The convolution, if this is one.
    pub fn as_conv(&self) -> Option<&Conv2d> {
        match self {
            Layer::Conv(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable convolution access, if this is one.
    pub fn as_conv_mut(&mut self) -> Option<&mut Conv2d> {
        match self {
            Layer::Conv(c) => Some(c),
            _ => None,
        }
    }

    /// The pooling layer, if this is one.
    pub fn as_pool(&self) -> Option<&Pool2d> {
        match self {
            Layer::Pool(p) => Some(p),
            _ => None,
        }
    }

    /// The dense layer, if this is one.
    pub fn as_dense(&self) -> Option<&Dense> {
        match self {
            Layer::Dense(d) => Some(d),
            _ => None,
        }
    }

    /// Mutable dense access, if this is one.
    pub fn as_dense_mut(&mut self) -> Option<&mut Dense> {
        match self {
            Layer::Dense(d) => Some(d),
            _ => None,
        }
    }
}

impl From<Conv2d> for Layer {
    fn from(c: Conv2d) -> Self {
        Layer::Conv(c)
    }
}

impl From<Pool2d> for Layer {
    fn from(p: Pool2d) -> Self {
        Layer::Pool(p)
    }
}

impl From<Dense> for Layer {
    fn from(d: Dense) -> Self {
        Layer::Dense(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolKind;

    #[test]
    fn dispatch_matches_inner_layer() {
        let conv: Layer = Conv2d::new(1, 2, 3, 1, 1, true).into();
        let pool: Layer = Pool2d::new(PoolKind::Max, 2, 2).into();
        let dense: Layer = Dense::new(8, 4, false).into();
        let s = Shape::new(1, 4, 4);
        assert_eq!(conv.output_shape(s), Shape::new(2, 4, 4));
        assert_eq!(pool.output_shape(s), Shape::new(1, 2, 2));
        assert_eq!(dense.output_shape(Shape::new(2, 2, 2)), Shape::flat(4));
        assert!(conv.is_conv() && !pool.is_conv());
        assert!(conv.as_conv().is_some());
        assert!(pool.as_pool().is_some());
        assert!(dense.as_dense().is_some());
    }
}
