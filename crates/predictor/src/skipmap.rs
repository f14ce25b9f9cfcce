use crate::counting::{count_dropped_nw_inputs, input_drop_mask};
use crate::{PolarityIndicators, ThresholdSet};
use fbcnn_bayes::mask::DropoutMasks;
use fbcnn_nn::Network;
use fbcnn_tensor::BitMask;
use serde::{Deserialize, Serialize};

/// The skip decisions for one convolution layer in one sample inference.
///
/// A neuron is skipped when it is a *dropped neuron* (its own dropout bit
/// is `1`) or a *predicted unaffected neuron* (zero in the pre-inference
/// and `N_d < α`). These are the two OR-gate inputs of the skip engine
/// (Fig. 8a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkipMap {
    /// Dropped neurons (the dropout mask itself).
    pub dropped: BitMask,
    /// Predicted-unaffected neurons.
    pub predicted: BitMask,
    /// The union — everything the PE skips.
    pub skip: BitMask,
}

/// Aggregate counts over one or more [`SkipMap`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkipStats {
    /// Total neurons considered.
    pub total: usize,
    /// Dropped neurons.
    pub dropped: usize,
    /// Predicted-unaffected neurons.
    pub predicted: usize,
    /// Skipped neurons (union; ≤ dropped + predicted).
    pub skipped: usize,
}

impl SkipMap {
    /// Builds the map from its two constituent masks.
    ///
    /// # Panics
    ///
    /// Panics if the mask shapes differ.
    pub fn new(dropped: BitMask, predicted: BitMask) -> Self {
        let skip = dropped.or(&predicted);
        Self {
            dropped,
            predicted,
            skip,
        }
    }

    /// Whether neuron `i` is skipped.
    #[inline]
    pub fn is_skipped(&self, i: usize) -> bool {
        self.skip.get(i)
    }

    /// Counts for this map.
    pub fn stats(&self) -> SkipStats {
        SkipStats {
            total: self.skip.len(),
            dropped: self.dropped.count_ones(),
            predicted: self.predicted.count_ones(),
            skipped: self.skip.count_ones(),
        }
    }
}

impl SkipStats {
    /// Accumulates another stats record.
    pub fn absorb(&mut self, other: SkipStats) {
        self.total += other.total;
        self.dropped += other.dropped;
        self.predicted += other.predicted;
        self.skipped += other.skipped;
    }

    /// Fraction of neurons skipped.
    pub fn skip_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.skipped as f64 / self.total as f64
        }
    }

    /// Overlap between dropped and predicted (both conditions held).
    pub fn overlap(&self) -> usize {
        (self.dropped + self.predicted).saturating_sub(self.skipped)
    }
}

/// Builds the per-node [`SkipMap`]s of one sample inference.
///
/// `zero_masks` holds, per node id, the pre-inference zero-neuron index of
/// each convolution node (`None` elsewhere). Nodes whose input dropout
/// mask cannot be resolved (the first layer) receive a skip map with only
/// the dropped component — the hardware handles them via the first-layer
/// shortcut instead.
pub fn build_skip_maps(
    net: &Network,
    masks: &DropoutMasks,
    zero_masks: &[Option<BitMask>],
    indicators: &PolarityIndicators,
    thresholds: &ThresholdSet,
) -> Vec<Option<SkipMap>> {
    let mut out: Vec<Option<SkipMap>> = vec![None; net.len()];
    for &node in &net.conv_nodes() {
        let own_mask = masks
            .get(node)
            .expect("every conv node carries a dropout mask")
            .clone();
        let shape = own_mask.shape();
        let predicted = match (
            input_drop_mask(net, masks, node),
            thresholds.get(node),
            zero_masks[node.0].as_ref(),
        ) {
            (Some(input_mask), Some(alphas), Some(zeros)) => {
                let conv = net
                    .node(node)
                    .layer()
                    .and_then(|l| l.as_conv())
                    .expect("conv node");
                let counts = count_dropped_nw_inputs(conv, indicators.kernels(node), &input_mask);
                // Only pre-inference zeros can be predicted: walk the set
                // bits directly instead of scanning the whole map.
                let plane = shape.plane();
                let mut predicted = BitMask::zeros(shape);
                let (mut hits, mut misses) = (0u64, 0u64);
                for i in zeros.iter_set() {
                    if counts.at_linear(i) < alphas[i / plane] {
                        predicted.set(i, true);
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                if fbcnn_telemetry::enabled() {
                    let labels = [("layer", net.node(node).label())];
                    fbcnn_telemetry::counter_add("predictor_threshold_hits", &labels, hits);
                    fbcnn_telemetry::counter_add("predictor_threshold_misses", &labels, misses);
                }
                predicted
            }
            _ => BitMask::zeros(shape),
        };
        out[node.0] = Some(SkipMap::new(own_mask, predicted));
    }
    out
}

/// Sums the stats of every conv layer's skip map (ignoring `None` slots).
pub fn total_stats(maps: &[Option<SkipMap>]) -> SkipStats {
    let mut total = SkipStats::default();
    for map in maps.iter().flatten() {
        total.absorb(map.stats());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredictiveInference, ThresholdOptimizer};
    use fbcnn_bayes::BayesianNetwork;
    use fbcnn_nn::models;
    use fbcnn_tensor::{Shape, Tensor};

    /// LeNet-5's skip maps for one sample under calibrated thresholds.
    fn setup() -> (BayesianNetwork, Vec<Option<SkipMap>>) {
        let bnet = BayesianNetwork::new(models::lenet5(3), 0.3);
        let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
            ((r * 3 + c * 5) % 11) as f32 / 11.0
        });
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 9);
        let maps = PredictiveInference::new(&bnet, &input, thresholds)
            .skip_maps(&bnet.generate_masks(4, 0));
        (bnet, maps)
    }

    #[test]
    fn skip_is_union_of_components() {
        let (_, maps) = setup();
        for map in maps.iter().flatten() {
            for i in 0..map.skip.len() {
                assert_eq!(map.skip.get(i), map.dropped.get(i) || map.predicted.get(i));
            }
            // Predicted neurons are always pre-inference zeros.
            let s = map.stats();
            assert!(s.skipped <= s.dropped + s.predicted);
            assert!(s.skipped >= s.dropped.max(s.predicted));
        }
    }

    #[test]
    fn first_layer_skips_only_dropped() {
        let (bnet, maps) = setup();
        let first = bnet.network().conv_nodes()[0];
        let map = maps[first.0].as_ref().unwrap();
        assert_eq!(map.predicted.count_ones(), 0);
        assert_eq!(&map.skip, &map.dropped);
    }

    #[test]
    fn later_layers_predict_something() {
        let (bnet, maps) = setup();
        let second = bnet.network().conv_nodes()[1];
        let map = maps[second.0].as_ref().unwrap();
        assert!(
            map.predicted.count_ones() > 0,
            "expected unaffected predictions in layer 2"
        );
        let stats = total_stats(&maps);
        assert!(stats.skip_rate() > 0.3, "skip rate {}", stats.skip_rate());
    }

    #[test]
    fn stats_overlap_identity() {
        let s = Shape::flat(100);
        let dropped = BitMask::from_fn(s, |i| i.is_multiple_of(2));
        let predicted = BitMask::from_fn(s, |i| i % 3 == 0);
        let map = SkipMap::new(dropped, predicted);
        let stats = map.stats();
        // |A ∩ B| = |A| + |B| - |A ∪ B| = 50 + 34 - 67 = 17
        assert_eq!(stats.overlap(), 17);
        assert_eq!(stats.skipped, 67);
    }
}
