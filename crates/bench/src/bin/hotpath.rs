//! Before/after wall-clock measurements for the word-parallel counting
//! lanes and the blocked, multithreaded convolution hot path.
//!
//! Emits `BENCH_hotpath.json` (override the path with `--json`); `--t`
//! sets the MC sample count and `--threads` the worker count used by the
//! parallel variants. The committed reference numbers were produced with
//! `--t 30 --threads 4`.

use fbcnn_bayes::{BayesianNetwork, McDropout, McRequest};
use fbcnn_nn::models;
use fbcnn_nn::{Conv2d, Workspace};
use fbcnn_predictor::{
    count_dropped_nw_inputs, count_dropped_nw_inputs_scalar, PolarityIndicators,
};
use fbcnn_tensor::{stats, BitMask, Shape, Tensor};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One kernel's before/after timing, nanoseconds per call (minimum over
/// the measurement repetitions). `parallel_ns` is `None` for kernels
/// without a threaded variant — reported honestly as absent instead of
/// echoing the single-threaded number.
#[derive(Debug, Serialize)]
struct Timing {
    reference_ns: u64,
    fast_ns: u64,
    parallel_ns: Option<u64>,
    speedup_fast: f64,
    speedup_parallel: Option<f64>,
}

#[derive(Debug, Serialize)]
struct HotpathReport {
    t: usize,
    threads: usize,
    seed: u64,
    quick: bool,
    /// Dropped-nw-input counting, conv2-of-LeNet-5 geometry. `reference`
    /// is the scalar per-bit kernel, `fast` the packed word-parallel one.
    /// Counting has no threaded variant, so `parallel` is absent.
    counting: Timing,
    /// One Conv2d forward, conv2-of-LeNet-5 geometry. `reference` is the
    /// naive loop, `fast` the im2col + blocked kernel, `parallel` the
    /// channel-parallel variant.
    conv: Timing,
    /// Full MC-dropout inference on B-LeNet-5. `reference` is T naive
    /// dense passes, `fast` the workspace runner, `parallel` the
    /// multithreaded runner.
    mc_end_to_end: Timing,
}

/// Minimum wall-clock of `reps` calls, in nanoseconds (after one warmup).
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> u64 {
    black_box(f());
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

fn timing(reference_ns: u64, fast_ns: u64, parallel_ns: Option<u64>) -> Timing {
    Timing {
        reference_ns,
        fast_ns,
        parallel_ns,
        speedup_fast: reference_ns as f64 / fast_ns.max(1) as f64,
        speedup_parallel: parallel_ns.map(|p| reference_ns as f64 / p.max(1) as f64),
    }
}

fn seeded_conv(in_c: usize, out_c: usize, k: usize) -> Conv2d {
    let mut conv = Conv2d::new(in_c, out_c, k, 1, 0, true);
    let mut state = 3u64;
    for w in conv.weights_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *w = ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0;
    }
    conv
}

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let quick = args.cfg.t <= 8;
    let (reps_kernel, reps_mc) = if quick { (20, 1) } else { (200, 3) };
    let threads = args.cfg.threads;

    // -- counting: packed vs scalar, conv2-of-LeNet-5 geometry ----------
    let conv = seeded_conv(6, 16, 5);
    let indicators = PolarityIndicators::profile_conv(&conv);
    let mask = BitMask::from_fn(Shape::new(6, 14, 14), |i| i % 3 == 0);
    let scalar_ns = time_ns(reps_kernel, || {
        count_dropped_nw_inputs_scalar(&conv, &indicators, &mask)
    });
    let packed_ns = time_ns(reps_kernel, || {
        count_dropped_nw_inputs(&conv, &indicators, &mask)
    });
    let counting = timing(scalar_ns, packed_ns, None);

    // -- conv forward: naive vs im2col vs channel-parallel --------------
    let input = Tensor::from_fn(Shape::new(6, 14, 14), |ch, r, c| {
        ((ch * 31 + r * 7 + c) % 13) as f32 / 6.0 - 1.0
    });
    let naive_ns = time_ns(reps_kernel, || conv.forward(&input));
    let mut ws = Workspace::new();
    let im2col_ns = time_ns(reps_kernel, || conv.forward_ws(&input, &mut ws));
    let mut ws_par = Workspace::new();
    let par_ns = time_ns(reps_kernel, || {
        conv.forward_parallel(&input, threads, &mut ws_par)
    });
    let conv_timing = timing(naive_ns, im2col_ns, Some(par_ns));

    // -- MC-dropout end to end on B-LeNet-5 ------------------------------
    let t = args.cfg.t;
    let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
    let mc_input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
        ((r * 5 + c) % 7) as f32 / 7.0
    });
    let runner = McDropout::new(t, args.cfg.seed);
    let mc_naive_ns = time_ns(reps_mc, || {
        (0..t)
            .map(|s| {
                let masks = bnet.generate_masks(args.cfg.seed, s);
                stats::softmax(bnet.forward_sample(&mc_input, &masks).logits())
            })
            .collect::<Vec<_>>()
    });
    let mc_ws_ns = time_ns(reps_mc, || runner.run(&bnet, &mc_input));
    let mc_request = [McRequest {
        input: &mc_input,
        seed: args.cfg.seed,
    }];
    let mc_par_ns = time_ns(reps_mc, || {
        McDropout::expect_complete(runner.run_batch(&bnet, &mc_request, threads))
    });
    let mc = timing(mc_naive_ns, mc_ws_ns, Some(mc_par_ns));

    let report = HotpathReport {
        t,
        threads,
        seed: args.cfg.seed,
        quick,
        counting,
        conv: conv_timing,
        mc_end_to_end: mc,
    };

    println!("== hot-path before/after (ns per call, min of reps) ==");
    for (name, tm) in [
        ("counting", &report.counting),
        ("conv", &report.conv),
        ("mc_end_to_end", &report.mc_end_to_end),
    ] {
        let (par, par_speedup) = match (tm.parallel_ns, tm.speedup_parallel) {
            (Some(p), Some(s)) => (p.to_string(), format!("{s:.2}x")),
            _ => ("n/a".to_string(), "no threaded variant".to_string()),
        };
        println!(
            "{name:<14} reference {:>12}  fast {:>12} ({:.2}x)  parallel({threads}t) {par:>12} ({par_speedup})",
            tm.reference_ns, tm.fast_ns, tm.speedup_fast
        );
    }

    let path = args.json.as_deref().unwrap_or("BENCH_hotpath.json");
    match fast_bcnn::report::save_json(path, &report) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
