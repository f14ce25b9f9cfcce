//! Property-based tests for the prediction machinery.

use fbcnn_bayes::BayesianNetwork;
use fbcnn_nn::{init, models, Conv2d, Dense, Network, NetworkBuilder};
use fbcnn_predictor::{
    build_skip_maps, count_dropped_nw_inputs, count_dropped_nw_inputs_scalar, PolarityIndicators,
    PredictiveInference, ThresholdOptimizer, ThresholdSet,
};
use fbcnn_tensor::{BitMask, Shape, Tensor};
use proptest::prelude::*;

fn arb_conv_and_mask() -> impl Strategy<Value = (Conv2d, BitMask)> {
    (1usize..4, 1usize..4, 5usize..9).prop_flat_map(|(n, m, dim)| {
        let wlen = m * n * 9;
        (
            proptest::collection::vec(-1.0f32..1.0, wlen),
            proptest::collection::vec(any::<bool>(), n * dim * dim),
            Just((n, m, dim)),
        )
            .prop_map(|(weights, bits, (n, m, dim))| {
                let mut conv = Conv2d::new(n, m, 3, 1, 1, true);
                conv.weights_mut().copy_from_slice(&weights);
                let shape = Shape::new(n, dim, dim);
                let mut mask = BitMask::zeros(shape);
                for (i, b) in bits.into_iter().enumerate() {
                    mask.set(i, b);
                }
                (conv, mask)
            })
    })
}

/// Like [`arb_conv_and_mask`], but varying kernel size, stride and
/// padding — including kernels whose bit count crosses the 64-bit word
/// boundary of the packed counting lanes.
fn arb_counting_case() -> impl Strategy<Value = (Conv2d, BitMask)> {
    (
        (1usize..4, 1usize..4, 0usize..3),
        (0usize..3, 1usize..3, 5usize..10),
    )
        .prop_flat_map(|((n, m, k_idx), (pad, stride, dim))| {
            let k = [1usize, 3, 5][k_idx % 3].min(dim);
            let pad = pad.min(k.saturating_sub(1));
            let wlen = m * n * k * k;
            (
                proptest::collection::vec(-1.0f32..1.0, wlen),
                proptest::collection::vec(any::<bool>(), n * dim * dim),
                Just((n, m, k, pad, stride, dim)),
            )
                .prop_map(|(weights, bits, (n, m, k, pad, stride, dim))| {
                    let mut conv = Conv2d::new(n, m, k, stride, pad, true);
                    conv.weights_mut().copy_from_slice(&weights);
                    let mut mask = BitMask::zeros(Shape::new(n, dim, dim));
                    for (i, b) in bits.into_iter().enumerate() {
                        mask.set(i, b);
                    }
                    (conv, mask)
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_counting_matches_scalar_reference((conv, mask) in arb_counting_case()) {
        // The word-parallel lanes must agree with the per-bit reference
        // on every count, for every geometry.
        let indicators = PolarityIndicators::profile_conv(&conv);
        prop_assert_eq!(
            count_dropped_nw_inputs(&conv, &indicators, &mask),
            count_dropped_nw_inputs_scalar(&conv, &indicators, &mask)
        );
    }

    #[test]
    fn counting_is_monotone_in_the_mask((conv, mask) in arb_conv_and_mask()) {
        // Clearing mask bits can never increase any count.
        let indicators = PolarityIndicators::profile_conv(&conv);
        let full = count_dropped_nw_inputs(&conv, &indicators, &mask);
        let mut reduced_mask = mask.clone();
        let set: Vec<usize> = mask.iter_set().collect();
        for &i in set.iter().step_by(2) {
            reduced_mask.set(i, false);
        }
        let reduced = count_dropped_nw_inputs(&conv, &indicators, &reduced_mask);
        for i in 0..full.shape().len() {
            prop_assert!(reduced.at_linear(i) <= full.at_linear(i));
        }
    }

    #[test]
    fn counts_are_bounded_by_indicator_popcount((conv, mask) in arb_conv_and_mask()) {
        let indicators = PolarityIndicators::profile_conv(&conv);
        let counts = count_dropped_nw_inputs(&conv, &indicators, &mask);
        let shape = counts.shape();
        for i in 0..shape.len() {
            let (m, _, _) = shape.unravel(i);
            prop_assert!(
                (counts.at_linear(i) as usize) <= indicators.kernels_popcount(m),
                "count exceeds negative-weight population"
            );
        }
    }
}

// Helper: expose popcount through a tiny extension trait for the test.
trait KernelPopcount {
    fn kernels_popcount(&self, m: usize) -> usize;
}

impl KernelPopcount for Vec<BitMask> {
    fn kernels_popcount(&self, m: usize) -> usize {
        self[m].count_ones()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn thresholds_are_monotone_in_confidence(seed in 0u64..50) {
        let bnet = BayesianNetwork::new(models::lenet5(seed), 0.3);
        let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
            ((r.wrapping_mul(7) + c.wrapping_mul(3) + seed as usize) % 11) as f32 / 11.0
        });
        let opt = |pcf: f64| {
            ThresholdOptimizer {
                samples: 2,
                confidence: pcf,
                ..ThresholdOptimizer::default()
            }
            .optimize(&bnet, &input, seed)
        };
        let loose = opt(0.55);
        let strict = opt(0.99);
        for node in loose.nodes() {
            for (a, b) in loose
                .get(node)
                .unwrap()
                .iter()
                .zip(strict.get(node).unwrap())
            {
                prop_assert!(b <= a, "confidence monotonicity violated");
            }
        }
    }

    #[test]
    fn skip_maps_partition_consistently(seed in 0u64..50) {
        let bnet = BayesianNetwork::new(models::lenet5(seed), 0.3);
        let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
            ((r * 5 + c + seed as usize) % 9) as f32 / 9.0
        });
        let net = bnet.network();
        let indicators = PolarityIndicators::from_network(net);
        let pre = bnet.forward_deterministic(&input);
        let zero_masks: Vec<Option<BitMask>> = net
            .nodes()
            .iter()
            .map(|n| {
                n.layer()
                    .filter(|l| l.is_conv())
                    .map(|_| pre.activations[n.id().0].zero_mask())
            })
            .collect();
        let thresholds = ThresholdOptimizer {
            samples: 2,
            ..ThresholdOptimizer::default()
        }
        .optimize(&bnet, &input, seed);
        let masks = bnet.generate_masks(seed, 0);
        let maps = build_skip_maps(net, &masks, &zero_masks, &indicators, &thresholds);
        for (idx, map) in maps.iter().enumerate() {
            let Some(map) = map else { continue };
            // Predicted bits live inside the pre-inference zero set.
            let zeros = zero_masks[idx].as_ref().unwrap();
            for i in map.predicted.iter_set() {
                prop_assert!(zeros.get(i), "prediction outside the zero set");
            }
            // Dropped bits equal the dropout mask exactly.
            prop_assert_eq!(&map.dropped, masks.get(fbcnn_nn::NodeId(idx)).unwrap());
            // Union algebra.
            let stats = map.stats();
            prop_assert_eq!(
                stats.skipped + map.dropped.count_and(&map.predicted),
                stats.dropped + stats.predicted
            );
        }
    }

    #[test]
    fn never_predict_thresholds_do_nothing(seed in 0u64..30, branchy in any::<bool>(), dim in 7usize..12) {
        // Every zoo conv has stride 1; the branchy network adds stride-2
        // padded convs, a 1×1 conv and a concat.
        let net = if branchy { branchy_net(seed, dim) } else { models::lenet5(seed) };
        let bnet = BayesianNetwork::new(net, 0.4);
        let input = smooth_input(&bnet, seed);
        let thresholds = ThresholdSet::never_predict(bnet.network().len());
        let pe = PredictiveInference::new(&bnet, &input, thresholds);
        let masks = bnet.generate_masks(seed, 1);
        let run = pe.run_sample(&masks);
        let exact = bnet.forward_sample(&input, &masks);
        for (node, (a, b)) in run.activations.iter().zip(&exact.activations).enumerate() {
            prop_assert_eq!(bits(a), bits(b), "node {} diverged", node);
        }
    }
}

/// A small network outside the zoo's geometry: a stride-2 padded stem,
/// a 1×1 conv and a 3×3 conv branching off it, their concat, and a
/// stride-2 padded conv behind the concat.
fn branchy_net(seed: u64, dim: usize) -> Network {
    let mut b = NetworkBuilder::named("branchy", Shape::new(3, dim, dim));
    let x = b.input();
    let stem = b
        .layer(x, Conv2d::new(3, 8, 3, 2, 1, true), "stem")
        .unwrap();
    let narrow = b
        .layer(stem, Conv2d::new(8, 8, 1, 1, 0, true), "narrow")
        .unwrap();
    let wide = b
        .layer(stem, Conv2d::new(8, 4, 3, 1, 1, true), "wide")
        .unwrap();
    let cat = b.concat(&[narrow, wide], "cat").unwrap();
    let down = b
        .layer(cat, Conv2d::new(12, 8, 3, 2, 1, true), "down")
        .unwrap();
    let side = dim.div_ceil(2).div_ceil(2);
    b.layer(down, Dense::new(8 * side * side, 5, false), "fc")
        .unwrap();
    let mut net = b.build().unwrap();
    init::calibrated(&mut net, seed);
    net
}

fn smooth_input(bnet: &BayesianNetwork, seed: u64) -> Tensor {
    Tensor::from_fn(bnet.network().input_shape(), |ch, r, c| {
        ((r + c + ch + seed as usize) % 6) as f32 / 6.0
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn calibrated_thresholds_on_the_branchy_net_zero_skips_and_keep_computed_neurons() {
    let bnet = BayesianNetwork::new(branchy_net(3, 11), 0.3);
    let input = smooth_input(&bnet, 3);
    let thresholds = ThresholdOptimizer {
        samples: 4,
        ..ThresholdOptimizer::default()
    }
    .optimize(&bnet, &input, 3);
    let pe = PredictiveInference::new(&bnet, &input, thresholds);
    let convs = bnet.network().conv_nodes();
    let mut predicted = 0;
    for t in 0..4 {
        let masks = bnet.generate_masks(9, t);
        let run = pe.run_sample(&masks);
        let exact = bnet.forward_sample(&input, &masks);
        for &node in &convs {
            let map = run.skip_maps[node.0].as_ref().unwrap();
            predicted += map.stats().predicted;
            let act = &run.activations[node.0];
            for i in map.skip.iter_set() {
                assert_eq!(
                    act.at(i).to_bits(),
                    0.0f32.to_bits(),
                    "sample {t}: skipped {i}"
                );
            }
        }
        // The stem takes the first-layer shortcut, so the second conv
        // reads exactly the exact pass's input: its computed neurons must
        // match bit for bit.
        for &node in convs.iter().take(2) {
            let map = run.skip_maps[node.0].as_ref().unwrap();
            let (a, b) = (&run.activations[node.0], &exact.activations[node.0]);
            for i in (0..a.len()).filter(|&i| !map.is_skipped(i)) {
                assert_eq!(
                    a.at(i).to_bits(),
                    b.at(i).to_bits(),
                    "sample {t}: neuron {i}"
                );
            }
        }
    }
    assert!(
        predicted > 0,
        "calibration predicted nothing; the case is vacuous"
    );
}
