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

/// Like [`arb_conv`], but additionally varies stride, fused ReLU and the
/// bias — the dimensions the blocked kernel must reproduce exactly.
fn arb_conv_fast() -> impl Strategy<Value = (Conv2d, Tensor)> {
    (
        (1usize..4, 1usize..6, 0usize..3),
        (0usize..3, 1usize..3, 4usize..9, any::<bool>()),
    )
        .prop_flat_map(|((n, m, k_idx), (pad, stride, dim, relu))| {
            let k = [1usize, 3, 5][k_idx % 3].min(dim);
            let pad = pad.min(k.saturating_sub(1));
            let wlen = m * n * k * k;
            (
                proptest::collection::vec(-1.0f32..1.0, wlen),
                proptest::collection::vec(-1.0f32..1.0, m),
                proptest::collection::vec(-1.0f32..1.0, n * dim * dim),
                Just((n, m, k, pad, stride, dim, relu)),
            )
                .prop_map(
                    |(weights, bias, data, (n, m, k, pad, stride, dim, relu))| {
                        let mut conv = Conv2d::new(n, m, k, stride, pad, relu);
                        conv.weights_mut().copy_from_slice(&weights);
                        conv.bias_mut().copy_from_slice(&bias);
                        let input = Tensor::from_vec(Shape::new(n, dim, dim), data);
                        (conv, input)
                    },
                )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_ws_matches_naive_forward((conv, input) in arb_conv_fast()) {
        // The im2col + blocked kernel must agree with the naive reference
        // loop exactly (same accumulation order, so same rounding).
        let mut ws = Workspace::new();
        prop_assert_eq!(conv.forward_ws(&input, &mut ws), conv.forward(&input));
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
