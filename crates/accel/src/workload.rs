use fbcnn_bayes::BayesianNetwork;
use fbcnn_nn::{NodeId, Op};
use fbcnn_predictor::{PredictiveInference, SkipStats, ThresholdSet};
use fbcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Static description of one convolution layer, as seen by the cycle
/// models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWork {
    /// Graph node id.
    pub node: NodeId,
    /// Layer label (e.g. `"conv2_1"`).
    pub label: String,
    /// Kernel size `K`.
    pub k: usize,
    /// Input channels `N`.
    pub n: usize,
    /// Output channels `M`.
    pub m: usize,
    /// Output feature-map shape.
    pub out_shape: Shape,
    /// Whether the layer's inputs carry dropout. `false` means the layer
    /// sees identical inputs in every sample, enabling the first-layer
    /// shortcut.
    pub upstream_dropout: bool,
}

impl LayerWork {
    /// Output positions per channel (`R × C`).
    pub fn plane(&self) -> usize {
        self.out_shape.plane()
    }

    /// Total output neurons (`M × R × C`).
    pub fn neurons(&self) -> usize {
        self.out_shape.len()
    }

    /// PE cycles to compute one neuron: `K² · ⌈N/Tn⌉`.
    pub fn cycles_per_neuron(&self, tn: usize) -> u64 {
        (self.k * self.k * self.n.div_ceil(tn)) as u64
    }
}

/// Per-sample, per-layer skip information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSkips {
    /// Dropped neurons per output channel.
    pub dropped_per_channel: Vec<u32>,
    /// Predicted-unaffected neurons per output channel.
    pub predicted_per_channel: Vec<u32>,
    /// Union (skip-engine decisions) per output channel.
    pub skipped_per_channel: Vec<u32>,
    /// Aggregate counts.
    pub stats: SkipStats,
    /// Non-zero fraction of each *input* channel as seen by an
    /// input-sparsity skipper (Cnvlutin): the *naturally* zero
    /// activations. The paper notes Cnvlutin is "oblivious of dropped
    /// neurons" — its zero-compressed stream is encoded at ReLU time,
    /// before the dropout multiply — so dropout-induced zeros do not
    /// shrink its work.
    pub input_channel_density: Vec<f32>,
}

/// All per-layer skip info of one sample inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSkips {
    /// Aligned with [`Workload::layers`].
    pub per_layer: Vec<LayerSkips>,
}

/// Everything the cycle models need, extracted once per
/// `(network, input, drop rate, thresholds)` and reused across hardware
/// configurations — the expensive functional passes run exactly once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Model name (for reports).
    pub model_name: String,
    /// Convolution layers in execution order.
    pub layers: Vec<LayerWork>,
    /// Dense layers as `(in_features, out_features)` pairs (a small,
    /// skip-free tail of the computation).
    pub dense: Vec<(usize, usize)>,
    /// Per-sample skip data (`T` entries).
    pub samples: Vec<SampleSkips>,
}

impl Workload {
    /// Extracts the workload: one pre-inference plus the skip maps of
    /// `t` samples, built from the masks `generate_masks(seed, 0..t)`, the
    /// pre-inference zero index and `thresholds`. No dropout pass runs:
    /// the predictor state and the skip maps are exactly those of
    /// [`PredictiveInference::run_sample`] under the same masks.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or the input shape mismatches the network.
    pub fn build(
        bnet: &BayesianNetwork,
        input: &Tensor,
        thresholds: &ThresholdSet,
        t: usize,
        seed: u64,
    ) -> Self {
        assert!(t > 0, "workload needs at least one sample");
        let net = bnet.network();
        let predictor = PredictiveInference::new(bnet, input, thresholds.clone());
        let pre = predictor.pre_inference();

        // Static layer descriptions.
        let layers: Vec<LayerWork> = net
            .conv_nodes()
            .into_iter()
            .map(|node| {
                let conv = net
                    .node(node)
                    .layer()
                    .and_then(|l| l.as_conv())
                    .expect("conv node");
                LayerWork {
                    node,
                    label: net.node(node).label().to_string(),
                    k: conv.kernel_size(),
                    n: conv.in_channels(),
                    m: conv.out_channels(),
                    out_shape: net.shape(node),
                    upstream_dropout: predictor.shared().upstream_dropout(node),
                }
            })
            .collect();

        let dense: Vec<(usize, usize)> = net
            .nodes()
            .iter()
            .filter_map(|n| match n.op() {
                Op::Layer(fbcnn_nn::Layer::Dense(d)) => Some((d.in_features(), d.out_features())),
                _ => None,
            })
            .collect();

        // Per-layer natural input densities (dropout-free) are
        // sample-independent; compute them once.
        let densities: Vec<Vec<f32>> = layers
            .iter()
            .map(|lw| {
                let upstream = net.node(lw.node).inputs()[0];
                let in_act = &pre.activations[upstream.0];
                let in_plane = in_act.shape().plane();
                (0..lw.n)
                    .map(|ch| {
                        let nnz = in_act.channel(ch).iter().filter(|&&v| v != 0.0).count();
                        nnz as f32 / in_plane as f32
                    })
                    .collect()
            })
            .collect();

        let samples = (0..t)
            .map(|s| {
                let maps = predictor.skip_maps(&bnet.generate_masks(seed, s));
                let per_layer = layers
                    .iter()
                    .zip(&densities)
                    .map(|(lw, density)| {
                        let map = maps[lw.node.0].as_ref().expect("conv skip map");
                        let plane = lw.plane();
                        let mut dropped = vec![0u32; lw.m];
                        let mut predicted = vec![0u32; lw.m];
                        let mut skipped = vec![0u32; lw.m];
                        for i in map.dropped.iter_set() {
                            dropped[i / plane] += 1;
                        }
                        for i in map.predicted.iter_set() {
                            predicted[i / plane] += 1;
                        }
                        for i in map.skip.iter_set() {
                            skipped[i / plane] += 1;
                        }
                        LayerSkips {
                            dropped_per_channel: dropped,
                            predicted_per_channel: predicted,
                            skipped_per_channel: skipped,
                            stats: map.stats(),
                            input_channel_density: density.clone(),
                        }
                    })
                    .collect();
                SampleSkips { per_layer }
            })
            .collect();

        Self {
            model_name: net.name().to_string(),
            layers,
            dense,
            samples,
        }
    }

    /// Number of sample inferences `T`.
    pub fn t(&self) -> usize {
        self.samples.len()
    }

    /// Total convolution output neurons of one pass.
    pub fn conv_neurons_per_pass(&self) -> u64 {
        self.layers.iter().map(|l| l.neurons() as u64).sum()
    }

    /// Aggregate skip statistics over all samples and layers.
    pub fn total_skip_stats(&self) -> SkipStats {
        let mut total = SkipStats::default();
        for s in &self.samples {
            for l in &s.per_layer {
                total.absorb(l.stats);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_nn::models;
    use fbcnn_predictor::ThresholdOptimizer;

    fn workload() -> Workload {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
            ((r * 5 + c * 3) % 9) as f32 / 9.0
        });
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        Workload::build(&bnet, &input, &thresholds, 3, 3)
    }

    #[test]
    fn layer_inventory_matches_lenet() {
        let w = workload();
        assert_eq!(w.layers.len(), 3);
        assert_eq!(w.layers[0].label, "conv1");
        assert!(
            !w.layers[0].upstream_dropout,
            "layer 1 has no input dropout"
        );
        assert!(w.layers[1].upstream_dropout);
        assert!(w.layers[2].upstream_dropout);
        assert_eq!(w.dense, vec![(120, 84), (84, 10)]);
        assert_eq!(w.t(), 3);
    }

    #[test]
    fn per_channel_counts_sum_to_stats() {
        let w = workload();
        for sample in &w.samples {
            for (lw, ls) in w.layers.iter().zip(&sample.per_layer) {
                assert_eq!(ls.dropped_per_channel.len(), lw.m);
                assert_eq!(
                    ls.dropped_per_channel.iter().sum::<u32>() as usize,
                    ls.stats.dropped
                );
                assert_eq!(
                    ls.predicted_per_channel.iter().sum::<u32>() as usize,
                    ls.stats.predicted
                );
                assert_eq!(
                    ls.skipped_per_channel.iter().sum::<u32>() as usize,
                    ls.stats.skipped
                );
                for m in 0..lw.m {
                    assert!(ls.skipped_per_channel[m] as usize <= lw.plane());
                }
            }
        }
    }

    #[test]
    fn input_densities_are_fractions() {
        let w = workload();
        for sample in &w.samples {
            for (lw, ls) in w.layers.iter().zip(&sample.per_layer) {
                assert_eq!(ls.input_channel_density.len(), lw.n);
                assert!(ls
                    .input_channel_density
                    .iter()
                    .all(|&d| (0.0..=1.0).contains(&d)));
            }
        }
        // The very first layer sees the (mostly dense) image.
        let first = &w.samples[0].per_layer[0];
        let mean: f32 = first.input_channel_density.iter().sum::<f32>()
            / first.input_channel_density.len() as f32;
        assert!(mean > 0.5, "image density {mean} unexpectedly low");
    }

    #[test]
    fn cycles_per_neuron_formula() {
        let w = workload();
        // conv2: K=5, N=6, Tn=4 -> 25 * 2 = 50.
        assert_eq!(w.layers[1].cycles_per_neuron(4), 50);
        // conv1: K=5, N=1 -> 25 * 1.
        assert_eq!(w.layers[0].cycles_per_neuron(4), 25);
    }

    #[test]
    fn total_stats_aggregates_everything() {
        let w = workload();
        let total = w.total_skip_stats();
        assert_eq!(total.total as u64, w.conv_neurons_per_pass() * w.t() as u64);
        assert!(total.skip_rate() > 0.2);
    }
}
