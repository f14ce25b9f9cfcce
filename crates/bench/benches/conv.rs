//! Criterion benches for the convolution hot path: the naive reference
//! loop vs the im2col + cache-blocked workspace kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use fbcnn_nn::{Conv2d, Workspace};
use fbcnn_tensor::{Shape, Tensor};
use std::hint::black_box;

fn seeded_conv(in_c: usize, out_c: usize, k: usize, pad: usize) -> Conv2d {
    let mut conv = Conv2d::new(in_c, out_c, k, 1, pad, true);
    let mut state = 17u64;
    for w in conv.weights_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *w = ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0;
    }
    conv
}

fn bench_geometry(c: &mut Criterion, label: &str, conv: Conv2d, in_dim: usize) {
    let input = Tensor::from_fn(
        Shape::new(conv.in_channels(), in_dim, in_dim),
        |ch, r, col| ((ch * 31 + r * 7 + col) % 13) as f32 / 6.0 - 1.0,
    );
    let mut group = c.benchmark_group(label);
    group.bench_function("naive", |b| {
        b.iter(|| black_box(conv.forward(black_box(&input))));
    });
    let mut ws = Workspace::new();
    group.bench_function("im2col_blocked", |b| {
        b.iter(|| black_box(conv.forward_ws(black_box(&input), &mut ws)));
    });
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    // conv2 of LeNet-5.
    bench_geometry(c, "conv_lenet_conv2", seeded_conv(6, 16, 5, 0), 14);
    // A VGG-ish 3x3 layer where the blocked kernel has room to work.
    bench_geometry(c, "conv_wide_3x3", seeded_conv(32, 64, 3, 1), 16);
}

criterion_group!(benches, bench_conv);
criterion_main!(benches);
