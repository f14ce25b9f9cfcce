use crate::mask::DropoutMasks;
use crate::{BayesError, Brng};
use fbcnn_nn::{ActivationGuard, Network, NnError, NodeId, Workspace};
use fbcnn_tensor::{BitMask, Tensor};
use serde::{Deserialize, Serialize};

/// A Bayesian CNN: a [`Network`] with a dropout layer attached to the
/// output of every convolution node (paper §II: "a BCNN model is
/// implemented by adding a dropout layer after each convolutional layer").
///
/// The dropout layer is represented *implicitly*: masks are generated per
/// sample by [`BayesianNetwork::generate_masks`] and applied to the conv
/// outputs during [`BayesianNetwork::forward_sample`]. Keeping masks
/// first-class (rather than folding them into the forward pass) is what
/// lets the predictor and the accelerator models reason about them.
///
/// # Examples
///
/// ```
/// use fbcnn_bayes::BayesianNetwork;
/// use fbcnn_nn::models;
///
/// let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
/// assert_eq!(bnet.dropout_nodes().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BayesianNetwork {
    net: Network,
    drop_rate: f64,
    dropout_nodes: Vec<NodeId>,
}

/// One forward pass: every node's output tensor, post-dropout where
/// applicable, indexed by node id.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRun {
    /// Per-node outputs (index = node id).
    pub activations: Vec<Tensor>,
}

impl SampleRun {
    /// The final logits.
    pub fn logits(&self) -> &[f32] {
        self.activations
            .last()
            .expect("a built network has nodes")
            .as_slice()
    }
}

impl BayesianNetwork {
    /// Wraps a network, attaching dropout to every convolution node.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= drop_rate < 1.0`.
    pub fn new(net: Network, drop_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_rate),
            "drop rate {drop_rate} out of [0, 1)"
        );
        let dropout_nodes = net.conv_nodes();
        Self {
            net,
            drop_rate,
            dropout_nodes,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the wrapped network's parameters — the injection
    /// point for fault harnesses and weight substitution.
    ///
    /// The graph *structure* must not change through this handle: the
    /// dropout attachment points were resolved at construction and are
    /// not re-derived.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The Bernoulli drop rate `p`.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Nodes whose outputs pass through a dropout layer, in topological
    /// order — the paper's `L` BCNN convolutional layers.
    pub fn dropout_nodes(&self) -> &[NodeId] {
        &self.dropout_nodes
    }

    /// Generates the dropout masks of sample `t` using the hardware BRNG,
    /// deterministically in `(seed, t)`.
    pub fn generate_masks(&self, seed: u64, t: usize) -> DropoutMasks {
        let mut masks = DropoutMasks::empty(self.net.len());
        for &node in &self.dropout_nodes {
            let shape = self.net.shape(node);
            let mut brng = Brng::new(
                self.drop_rate,
                seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (node.0 as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            );
            masks.insert(node, BitMask::from_fn(shape, |_| brng.next_bit()));
        }
        masks
    }

    /// Runs one stochastic forward pass with the given masks, returning
    /// every node's (post-dropout) output.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network.
    pub fn forward_sample(&self, input: &Tensor, masks: &DropoutMasks) -> SampleRun {
        let activations = self
            .net
            .try_forward_with(input, |net, node, ins| {
                let _layer = fbcnn_telemetry::span_with("layer_forward", || {
                    vec![("layer".into(), node.label().to_string())]
                });
                let mut out = net.eval_node(node, ins);
                if let Some(mask) = masks.get(node.id()) {
                    out.apply_drop_mask(mask);
                }
                Ok::<_, NnError>(out)
            })
            .unwrap_or_else(|e| panic!("sample pass failed: {e}"));
        SampleRun { activations }
    }

    /// Like [`BayesianNetwork::forward_sample`], but convolutions run
    /// through the im2col fast path, reusing the scratch buffers in `ws`
    /// across layers — and, when the caller holds the workspace across
    /// samples, across all `T` passes of an MC-dropout run.
    ///
    /// Output equals [`BayesianNetwork::forward_sample`] under `==`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network.
    pub fn forward_sample_ws(
        &self,
        input: &Tensor,
        masks: &DropoutMasks,
        ws: &mut Workspace,
    ) -> SampleRun {
        let activations = self
            .net
            .try_forward_with(input, |net, node, ins| {
                let _layer = fbcnn_telemetry::span_with("layer_forward", || {
                    vec![("layer".into(), node.label().to_string())]
                });
                let mut out = net.eval_node_ws(node, ins, ws);
                if let Some(mask) = masks.get(node.id()) {
                    out.apply_drop_mask(mask);
                }
                Ok::<_, NnError>(out)
            })
            .unwrap_or_else(|e| panic!("sample pass failed: {e}"));
        SampleRun { activations }
    }

    /// Like [`BayesianNetwork::forward_sample`], but additionally returns
    /// every convolution output *before* its own dropout mask was applied.
    ///
    /// The pre-mask values are the ground truth for the *unaffected
    /// neuron* definition (§III): a neuron is unaffected when its
    /// pre-own-dropout value is still zero under input dropout.
    pub fn forward_sample_recording(
        &self,
        input: &Tensor,
        masks: &DropoutMasks,
    ) -> (SampleRun, Vec<Option<Tensor>>) {
        let mut pre_mask: Vec<Option<Tensor>> = vec![None; self.net.len()];
        let activations = self
            .net
            .try_forward_with(input, |net, node, ins| {
                let mut out = net.eval_node(node, ins);
                if let Some(mask) = masks.get(node.id()) {
                    pre_mask[node.id().0] = Some(out.clone());
                    out.apply_drop_mask(mask);
                }
                Ok::<_, NnError>(out)
            })
            .unwrap_or_else(|e| panic!("sample pass failed: {e}"));
        (SampleRun { activations }, pre_mask)
    }

    /// Runs the dropout-free pass — the paper's *pre-inference*, used to
    /// record the zero-neuron locations.
    pub fn forward_deterministic(&self, input: &Tensor) -> SampleRun {
        SampleRun {
            activations: self.net.forward_full(input),
        }
    }

    /// Validates a mask set against this network: every dropout-carrying
    /// node must have a mask of its output shape.
    ///
    /// The panics that malformed masks would otherwise cause deep inside
    /// a forward pass (or inside a worker thread) become typed errors
    /// here, so callers can reject a corrupted set up front.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::MissingMask`] or [`BayesError::MaskShape`]
    /// for the first offending node.
    pub fn validate_masks(&self, masks: &DropoutMasks) -> Result<(), BayesError> {
        for &node in &self.dropout_nodes {
            let Some(mask) = masks.get(node) else {
                return Err(BayesError::MissingMask { node: node.0 });
            };
            let expected = self.net.shape(node);
            if mask.shape() != expected {
                return Err(BayesError::MaskShape {
                    node: node.0,
                    expected: expected.to_string(),
                    actual: mask.shape().to_string(),
                });
            }
        }
        Ok(())
    }

    /// The guarded stochastic forward pass: like
    /// [`BayesianNetwork::forward_sample_ws`], but masks are validated
    /// first, shape violations surface as typed errors instead of
    /// panics, and every node output runs through `guard`.
    ///
    /// Returns the sample run plus the number of values the guard
    /// repaired (non-zero only under
    /// [`fbcnn_nn::GuardPolicy::Saturate`]).
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::MissingMask`] / [`BayesError::MaskShape`]
    /// for malformed masks, [`BayesError::Graph`] for shape violations,
    /// and [`BayesError::Numeric`] when the guard's policy reports a
    /// fault instead of repairing it.
    pub fn forward_sample_checked(
        &self,
        input: &Tensor,
        masks: &DropoutMasks,
        ws: &mut Workspace,
        guard: &ActivationGuard,
    ) -> Result<(SampleRun, usize), BayesError> {
        self.validate_masks(masks)?;
        let mut repaired = 0usize;
        let activations = self.net.try_forward_with(input, |net, node, ins| {
            let mut out = net.eval_node_ws(node, ins, ws);
            if let Some(mask) = masks.get(node.id()) {
                out.apply_drop_mask(mask);
            }
            repaired += guard.screen(node.id().0, &mut out)?;
            Ok::<Tensor, BayesError>(out)
        })?;
        Ok((SampleRun { activations }, repaired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_nn::models::{self, ModelScale};
    use fbcnn_tensor::Shape;

    fn input_for(net: &Network) -> Tensor {
        Tensor::from_fn(net.input_shape(), |ch, r, c| {
            ((ch * 7 + r * 3 + c) % 9) as f32 / 9.0
        })
    }

    #[test]
    fn masks_cover_exactly_the_conv_nodes() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let masks = bnet.generate_masks(5, 0);
        assert_eq!(masks.iter().count(), 3);
        for &node in bnet.dropout_nodes() {
            assert_eq!(masks.get(node).unwrap().shape(), bnet.network().shape(node));
        }
    }

    #[test]
    fn mask_density_tracks_drop_rate() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let masks = bnet.generate_masks(5, 0);
        let total: usize = masks.iter().map(|(_, m)| m.len()).sum();
        let dropped = masks.total_dropped();
        let rate = dropped as f64 / total as f64;
        assert!(
            (rate - 0.3).abs() < 0.03,
            "mask density {rate} far from 0.3"
        );
    }

    #[test]
    fn different_samples_use_different_masks() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let a = bnet.generate_masks(5, 0);
        let b = bnet.generate_masks(5, 1);
        assert_ne!(a, b);
        // Same (seed, t) is reproducible.
        assert_eq!(a, bnet.generate_masks(5, 0));
    }

    #[test]
    fn dropout_zeroes_masked_neurons() {
        let bnet = BayesianNetwork::new(models::lenet5(2), 0.5);
        let input = input_for(bnet.network());
        let masks = bnet.generate_masks(1, 0);
        let run = bnet.forward_sample(&input, &masks);
        for (node, mask) in masks.iter() {
            let act = &run.activations[node.0];
            for i in mask.iter_set() {
                assert_eq!(act.at(i), 0.0, "dropped neuron not zero at node {node:?}");
            }
        }
    }

    #[test]
    fn deterministic_pass_equals_zero_rate_sample() {
        let bnet = BayesianNetwork::new(
            models::ModelKind::Vgg16.build_scaled(3, ModelScale::TINY),
            0.0,
        );
        let input = input_for(bnet.network());
        let det = bnet.forward_deterministic(&input);
        let masks = bnet.generate_masks(9, 0);
        let sampled = bnet.forward_sample(&input, &masks);
        // With p = 0 every mask is empty, so the runs agree exactly.
        assert_eq!(det.logits(), sampled.logits());
    }

    #[test]
    fn stochastic_outputs_vary_across_samples() {
        let bnet = BayesianNetwork::new(models::lenet5(4), 0.3);
        let input = input_for(bnet.network());
        let a = bnet.forward_sample(&input, &bnet.generate_masks(7, 0));
        let b = bnet.forward_sample(&input, &bnet.generate_masks(7, 1));
        assert_ne!(a.logits(), b.logits());
    }

    #[test]
    fn recording_exposes_pre_mask_values() {
        let bnet = BayesianNetwork::new(models::lenet5(2), 0.5);
        let input = input_for(bnet.network());
        let masks = bnet.generate_masks(11, 0);
        let (run, pre) = bnet.forward_sample_recording(&input, &masks);
        for (node, mask) in masks.iter() {
            let pre_t = pre[node.0].as_ref().expect("conv node records pre-mask");
            let post_t = &run.activations[node.0];
            for i in 0..pre_t.len() {
                if mask.get(i) {
                    assert_eq!(post_t.at(i), 0.0);
                } else {
                    assert_eq!(post_t.at(i), pre_t.at(i));
                }
            }
        }
        // Non-conv nodes record nothing.
        assert!(pre[0].is_none());
    }

    #[test]
    fn workspace_sample_matches_plain_sample() {
        let bnet = BayesianNetwork::new(models::lenet5(2), 0.4);
        let input = input_for(bnet.network());
        let mut ws = Workspace::new();
        for t in 0..3 {
            let masks = bnet.generate_masks(21, t);
            assert_eq!(
                bnet.forward_sample_ws(&input, &masks, &mut ws),
                bnet.forward_sample(&input, &masks),
                "sample {t} diverged"
            );
        }
    }

    #[test]
    fn validate_masks_accepts_generated_sets() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        assert_eq!(bnet.validate_masks(&bnet.generate_masks(3, 0)), Ok(()));
    }

    #[test]
    fn validate_masks_rejects_missing_and_misshapen() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let empty = DropoutMasks::empty(bnet.network().len());
        assert!(matches!(
            bnet.validate_masks(&empty),
            Err(BayesError::MissingMask { .. })
        ));
        let mut bad = bnet.generate_masks(3, 0);
        let node = bnet.dropout_nodes()[1];
        bad.insert(node, BitMask::ones(Shape::new(1, 2, 2)));
        assert!(matches!(
            bnet.validate_masks(&bad),
            Err(BayesError::MaskShape { .. })
        ));
    }

    #[test]
    fn checked_forward_matches_plain_on_healthy_networks() {
        let bnet = BayesianNetwork::new(models::lenet5(2), 0.4);
        let input = input_for(bnet.network());
        let masks = bnet.generate_masks(17, 0);
        let mut ws = Workspace::new();
        let (checked, repaired) = bnet
            .forward_sample_checked(&input, &masks, &mut ws, &ActivationGuard::strict())
            .expect("healthy pass");
        assert_eq!(repaired, 0);
        assert_eq!(checked, bnet.forward_sample(&input, &masks));
    }

    #[test]
    fn checked_forward_rejects_bad_input_shape() {
        let bnet = BayesianNetwork::new(models::lenet5(2), 0.4);
        let masks = bnet.generate_masks(17, 0);
        let mut ws = Workspace::new();
        let err = bnet
            .forward_sample_checked(
                &Tensor::zeros(Shape::new(2, 5, 5)),
                &masks,
                &mut ws,
                &ActivationGuard::strict(),
            )
            .unwrap_err();
        assert!(matches!(err, BayesError::Graph(_)));
    }

    #[test]
    fn checked_forward_detects_poisoned_weights() {
        use fbcnn_nn::Layer;
        let mut net = models::lenet5(2);
        for (_, layer) in net.layers_mut() {
            if let Layer::Conv(c) = layer {
                c.weights_mut()[0] = f32::NAN;
                break;
            }
        }
        let bnet = BayesianNetwork::new(net, 0.3);
        let input = input_for(bnet.network());
        let masks = bnet.generate_masks(1, 0);
        let mut ws = Workspace::new();
        let err = bnet
            .forward_sample_checked(&input, &masks, &mut ws, &ActivationGuard::strict())
            .unwrap_err();
        assert!(matches!(err, BayesError::Numeric(_)), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1)")]
    fn full_drop_rate_rejected() {
        let _ = BayesianNetwork::new(models::lenet5(0), 1.0);
    }

    #[test]
    fn sample_run_logits_shape() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.1);
        let run = bnet.forward_deterministic(&Tensor::zeros(Shape::new(1, 28, 28)));
        assert_eq!(run.logits().len(), 10);
    }
}
