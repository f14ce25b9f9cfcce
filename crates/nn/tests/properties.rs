//! Property-based tests for the CNN substrate.

use fbcnn_nn::{Conv2d, Dense, Pool2d, PoolKind, Workspace};
use fbcnn_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn arb_conv() -> impl Strategy<Value = (Conv2d, Tensor)> {
    (1usize..4, 1usize..5, 1usize..4, 0usize..2, 4usize..8).prop_flat_map(
        |(n, m, k_idx, pad, dim)| {
            let k = [1usize, 3, 5][k_idx % 3].min(dim);
            let pad = pad.min(k.saturating_sub(1));
            let wlen = m * n * k * k;
            (
                proptest::collection::vec(-1.0f32..1.0, wlen),
                proptest::collection::vec(-1.0f32..1.0, n * dim * dim),
                Just((n, m, k, pad, dim)),
            )
                .prop_map(|(weights, data, (n, m, k, pad, dim))| {
                    let mut conv = Conv2d::new(n, m, k, 1, pad, false);
                    conv.weights_mut().copy_from_slice(&weights);
                    let input = Tensor::from_vec(Shape::new(n, dim, dim), data);
                    (conv, input)
                })
        },
    )
}

/// Geometries `(n, m, k, stride, pad, dim)` drawn as explicit cases:
/// LeNet-like shapes, a 1×1 kernel, stride 2 and 3, and a pad larger than
/// the kernel needs.
const GEOMETRIES: [(usize, usize, usize, usize, usize, usize); 6] = [
    (1, 1, 1, 1, 0, 4),
    (1, 6, 5, 1, 2, 14),
    (3, 4, 3, 1, 1, 6),
    (2, 3, 5, 2, 2, 9),
    (6, 16, 5, 1, 0, 14),
    (4, 2, 3, 3, 1, 10),
];

/// A conv geometry: one of [`GEOMETRIES`] on about 3 cases in 8, a random
/// one otherwise. The shim's generator is seeded per case, so every run
/// draws the same cases, all six explicit geometries among them.
fn arb_geometry() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
    (
        0usize..16,
        (1usize..4, 1usize..6, 0usize..3),
        (0usize..3, 1usize..3, 4usize..9),
    )
        .prop_map(|(pick, (n, m, k_idx), (pad, stride, dim))| {
            GEOMETRIES.get(pick).copied().unwrap_or_else(|| {
                let k = [1usize, 3, 5][k_idx].min(dim);
                (n, m, k, stride, pad.min(k - 1), dim)
            })
        })
}

/// A weight: exactly zero on about one draw in four (the kernels skip
/// those), uniform in `[-1, 1)` otherwise.
fn arb_weight() -> impl Strategy<Value = f32> {
    (0u8..4, -1.0f32..1.0).prop_map(|(pick, w)| if pick == 0 { 0.0 } else { w })
}

/// An input value: NaN, ±Inf or ±0.0 on about one draw in eight, uniform
/// in `[-1, 1)` otherwise.
fn arb_input_value() -> impl Strategy<Value = f32> {
    (0u8..40, -1.0f32..1.0).prop_map(|(pick, v)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => v,
    })
}

/// Like [`arb_conv`], but additionally varies stride, fused ReLU and the
/// bias, draws exact-zero weights and non-finite or signed-zero inputs,
/// and covers [`GEOMETRIES`] — the dimensions the blocked kernel must
/// reproduce exactly.
fn arb_conv_fast() -> impl Strategy<Value = (Conv2d, Tensor)> {
    (arb_geometry(), any::<bool>()).prop_flat_map(|((n, m, k, stride, pad, dim), relu)| {
        (
            proptest::collection::vec(arb_weight(), m * n * k * k),
            proptest::collection::vec(-1.0f32..1.0, m),
            proptest::collection::vec(arb_input_value(), n * dim * dim),
        )
            .prop_map(move |(weights, bias, data)| {
                let mut conv = Conv2d::new(n, m, k, stride, pad, relu);
                conv.weights_mut().copy_from_slice(&weights);
                conv.bias_mut().copy_from_slice(&bias);
                let input = Tensor::from_vec(Shape::new(n, dim, dim), data);
                (conv, input)
            })
    })
}

/// The exactness comparator: the same bits, or both NaN (which NaN an
/// addition of two NaNs returns depends on operand order).
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_ws_matches_naive_forward((conv, input) in arb_conv_fast()) {
        // The im2col + blocked kernel must agree with the naive reference
        // loop bit for bit (same accumulation order, so same rounding).
        let mut ws = Workspace::new();
        let (fast, naive) = (conv.forward_ws(&input, &mut ws), conv.forward(&input));
        prop_assert_eq!(fast.shape(), naive.shape());
        for (i, (&a, &b)) in fast.iter().zip(naive.iter()).enumerate() {
            prop_assert!(same_bits(a, b), "{:?}: neuron {} is {} vs naive {}", conv, i, a, b);
        }
    }

    #[test]
    fn convolution_is_linear_in_the_input((conv, input) in arb_conv(), scale in -2.0f32..2.0) {
        // With zero bias and no ReLU, conv(s·x) == s·conv(x).
        let scaled = input.map(|v| v * scale);
        let a = conv.forward(&scaled);
        let mut b = conv.forward(&input);
        b.scale_inplace(scale);
        prop_assert!(a.max_abs_diff(&b) < 1e-3, "nonlinearity detected: {}", a.max_abs_diff(&b));
    }

    #[test]
    fn convolution_is_additive((conv, input) in arb_conv()) {
        // conv(x + x) == conv(x) + conv(x) with zero bias.
        let doubled = input.map(|v| v + v);
        let a = conv.forward(&doubled);
        let single = conv.forward(&input);
        let mut b = single.clone();
        b.add_assign(&single);
        prop_assert!(a.max_abs_diff(&b) < 1e-3);
    }

    #[test]
    fn relu_only_clamps((conv, input) in arb_conv()) {
        let mut relu_conv = conv.clone();
        // Rebuild with fused ReLU by comparing manually.
        let plain = conv.forward(&input);
        let _ = &mut relu_conv;
        let clamped = plain.map(|v| v.max(0.0));
        let mut by_hand = plain.clone();
        by_hand.relu_inplace();
        prop_assert_eq!(clamped, by_hand);
    }

    #[test]
    fn max_pool_dominates_avg_pool(
        data in proptest::collection::vec(-5.0f32..5.0, 64),
        k in 1usize..4,
    ) {
        let input = Tensor::from_vec(Shape::new(1, 8, 8), data);
        let maxp = Pool2d::new(PoolKind::Max, k, k).forward(&input);
        let avgp = Pool2d::new(PoolKind::Avg, k, k).forward(&input);
        for i in 0..maxp.len() {
            prop_assert!(maxp.at(i) >= avgp.at(i) - 1e-6);
        }
    }

    #[test]
    fn max_pool_output_is_a_window_member(
        data in proptest::collection::vec(-5.0f32..5.0, 2 * 36),
    ) {
        let input = Tensor::from_vec(Shape::new(2, 6, 6), data);
        let pool = Pool2d::new(PoolKind::Max, 2, 2);
        let (out, arg) = pool.forward_with_argmax(&input);
        for (i, &src) in arg.iter().enumerate() {
            prop_assert_eq!(out.at(i), input.at(src));
        }
    }

    #[test]
    fn dense_is_linear(
        weights in proptest::collection::vec(-1.0f32..1.0, 12),
        x in proptest::collection::vec(-1.0f32..1.0, 4),
        s in -2.0f32..2.0,
    ) {
        let mut fc = Dense::new(4, 3, false);
        fc.weights_mut().copy_from_slice(&weights);
        let input = Tensor::from_vec(Shape::flat(4), x.clone());
        let scaled = Tensor::from_vec(Shape::flat(4), x.iter().map(|v| v * s).collect());
        let a = fc.forward(&scaled);
        let mut b = fc.forward(&input);
        b.scale_inplace(s);
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
    }
}
