//! Criterion bench for a full MC-dropout inference (T = 30) on
//! B-LeNet-5: the naive per-sample forward vs the workspace fast path vs
//! the multithreaded runner.

use criterion::{criterion_group, criterion_main, Criterion};
use fbcnn_bayes::{BayesianNetwork, McDropout, McRequest};
use fbcnn_nn::models;
use fbcnn_tensor::{stats, Tensor};
use std::hint::black_box;

const T: usize = 30;
const SEED: u64 = 5;

/// The pre-workspace reference: `T` naive dense passes (what
/// `McDropout::run` did before the im2col fast path existed).
fn run_naive(bnet: &BayesianNetwork, input: &Tensor) -> Vec<Vec<f32>> {
    (0..T)
        .map(|t| {
            let masks = bnet.generate_masks(SEED, t);
            let run = bnet.forward_sample(input, &masks);
            stats::softmax(run.logits())
        })
        .collect()
}

fn bench_mc(c: &mut Criterion) {
    let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
    let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, col| {
        ((r * 5 + col) % 7) as f32 / 7.0
    });
    let runner = McDropout::new(T, SEED);
    let mut group = c.benchmark_group("mc_lenet5_t30");
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| black_box(run_naive(&bnet, black_box(&input))));
    });
    group.bench_function("workspace", |b| {
        b.iter(|| black_box(runner.run(&bnet, black_box(&input))));
    });
    group.bench_function("parallel_4t", |b| {
        let request = [McRequest {
            input: &input,
            seed: SEED,
        }];
        b.iter(|| black_box(runner.run_batch(&bnet, black_box(&request), 4)));
    });
    group.finish();
}

criterion_group!(benches, bench_mc);
criterion_main!(benches);
