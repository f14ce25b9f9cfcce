//! Property-based tests for the prediction machinery.

use fbcnn_bayes::BayesianNetwork;
use fbcnn_nn::{models, Conv2d};
use fbcnn_predictor::{
    count_dropped_nw_inputs, count_dropped_nw_inputs_scalar, PolarityIndicators,
    PredictiveInference, ThresholdOptimizer,
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

/// Geometries `(n, m, k, stride, pad, dim)` drawn as explicit cases:
/// clipping on every side, stride 2 and 3, and LeNet conv2's 150-bit
/// windows, which span more than one word.
const GEOMETRIES: [(usize, usize, usize, usize, usize, usize); 5] = [
    (1, 1, 1, 1, 0, 4),
    (3, 4, 3, 1, 1, 6),
    (2, 3, 5, 2, 2, 9),
    (6, 16, 5, 1, 0, 14),
    (4, 2, 3, 3, 1, 10),
];

/// Like [`arb_conv_and_mask`], but varying kernel size, stride and
/// padding — including kernels whose bit count crosses the 64-bit word
/// boundary of the packed counting lanes. One of [`GEOMETRIES`] on about
/// 5 cases in 16; the shim's generator is seeded per case, so every run
/// draws all of them.
fn arb_counting_case() -> impl Strategy<Value = (Conv2d, BitMask)> {
    (
        0usize..16,
        (1usize..4, 1usize..4, 0usize..3),
        (0usize..3, 1usize..3, 5usize..10),
    )
        .prop_flat_map(|(pick, (n, m, k_idx), (pad, stride, dim))| {
            let (n, m, k, stride, pad, dim) = GEOMETRIES.get(pick).copied().unwrap_or_else(|| {
                let k = [1usize, 3, 5][k_idx].min(dim);
                (n, m, k, stride, pad.min(k - 1), dim)
            });
            (
                proptest::collection::vec(-1.0f32..1.0, m * n * k * k),
                proptest::collection::vec(any::<bool>(), n * dim * dim),
            )
                .prop_map(move |(weights, bits)| {
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
        let thresholds = ThresholdOptimizer {
            samples: 2,
            ..ThresholdOptimizer::default()
        }
        .optimize(&bnet, &input, seed);
        let pe = PredictiveInference::new(&bnet, &input, thresholds);
        let masks = bnet.generate_masks(seed, 0);
        let maps = pe.skip_maps(&masks);
        let zero_masks = pe.zero_masks();
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
}
