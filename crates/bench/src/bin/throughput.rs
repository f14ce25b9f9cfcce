//! Batched-serving throughput harness: sequential `predict_robust_seeded`
//! loop vs [`fast_bcnn::BatchEngine::run_batch`] across batch sizes.
//!
//! Emits `BENCH_batch.json` (override the path with `--json`); `--t`
//! sets the per-request MC sample count, `--threads` the batch engine's
//! worker count and `--quick` the smoke configuration CI runs. Every
//! point re-checks the headline invariant — batched results bit-identical
//! to the sequential ones — and the record carries the host CPU count so
//! `bench_check` can apply the single-CPU correctness-only acceptance
//! (see `EXPERIMENTS.md`).

use fast_bcnn::Ledger;
use fast_bcnn::{synth_input, BatchConfig, BatchEngine, BatchRequest, Engine, EngineConfig};
use fbcnn_bench::BenchRecord;
use fbcnn_nn::models::ModelKind;
use std::time::Instant;

/// Builds a queue of `n` requests cycling a few distinct inputs, the way
/// a serving queue repeats popular inputs; repeats exercise the
/// pre-inference cache.
fn request_queue(engine: &Engine, n: usize) -> Vec<BatchRequest> {
    let distinct = n.clamp(1, 4);
    (0..n)
        .map(|i| {
            BatchRequest::new(
                i as u64,
                synth_input(engine.network().input_shape(), 11 + (i % distinct) as u64),
            )
        })
        .collect()
}

/// One batch-size measurement.
struct Point {
    batch_size: usize,
    sequential_ns: u64,
    batch_ns: u64,
    cache_hits: usize,
    cache_misses: usize,
    /// Batched results bit-identical to their sequential counterparts —
    /// the headline invariant, measured not assumed.
    matched: usize,
}

fn measure(engine: &Engine, threads: usize, n: usize) -> Point {
    let requests = request_queue(engine, n);

    let sequential_start = Instant::now();
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| engine.predict_robust_seeded(&r.input, r.resolved_seed(engine.config().seed)))
        .collect();
    let sequential_ns = (sequential_start.elapsed().as_nanos() as u64).max(1);

    let batch = BatchEngine::new(
        engine.clone(),
        BatchConfig {
            threads,
            ..BatchConfig::default()
        },
    );
    let report = batch.run_batch(&requests);
    let matched = report
        .outcomes
        .iter()
        .zip(&sequential)
        .filter(|(b, s)| match (&b.result, s) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        })
        .count();

    Point {
        batch_size: n,
        sequential_ns,
        batch_ns: report.elapsed_ns.max(1),
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        matched,
    }
}

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let quick = args.cfg.t <= 4;
    let engine = Engine::new(EngineConfig {
        samples: args.cfg.t,
        seed: args.cfg.seed,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    });
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = args.cfg.threads;
    let sizes: &[usize] = if quick { &[1, 4, 8] } else { &[1, 2, 4, 8, 16] };
    let points: Vec<Point> = sizes
        .iter()
        .map(|&n| measure(&engine, threads, n))
        .collect();

    println!(
        "== batched serving throughput (B-LeNet-5, T = {}, {threads} threads, {cpus} CPUs) ==",
        args.cfg.t
    );
    let rps = |n: usize, ns: u64| n as f64 / (ns as f64 / 1e9);
    let matched = points.iter().map(|p| p.matched as u64).sum();
    let requests = points.iter().map(|p| p.batch_size as u64).sum();
    let zero_timings = points
        .iter()
        .filter(|p| p.sequential_ns == 0 || p.batch_ns == 0);
    let ledger = Ledger::from([(
        "batched requests bit-identical to sequential",
        matched,
        requests,
    )]);
    let mut record = BenchRecord::new("batch-v2", args.cfg.seed, quick, ledger).with([
        ("t", args.cfg.t as u64),
        ("threads", threads as u64),
        ("cpus", cpus as u64),
        ("parallelism", cpus.min(threads) as u64),
        ("points", points.len() as u64),
        ("zero_timings", zero_timings.count() as u64),
    ]);
    for p in &points {
        let speedup = p.sequential_ns as f64 / p.batch_ns as f64;
        println!(
            "batch {:>3}: sequential {:>8.1} req/s | batch {:>8.1} req/s ({speedup:.2}x) | \
             cache {}/{} | bit-identical: {}",
            p.batch_size,
            rps(p.batch_size, p.sequential_ns),
            rps(p.batch_size, p.batch_ns),
            p.cache_hits,
            p.cache_hits + p.cache_misses,
            if p.matched == p.batch_size {
                "yes"
            } else {
                "NO"
            },
        );
        let at = |field: &str| format!("{field}[batch_size={}]", p.batch_size);
        record.headline.insert(at("speedup"), speedup);
        record = record.with([
            (at("sequential_ns"), p.sequential_ns),
            (at("batch_ns"), p.batch_ns),
            (at("cache_hits"), p.cache_hits as u64),
            (at("cache_misses"), p.cache_misses as u64),
        ]);
    }
    if cpus < 4 {
        println!(
            "note: {cpus} CPU(s) — speedup is informational, correctness-only acceptance applies"
        );
    }

    let path = args.json.as_deref().unwrap_or("BENCH_batch.json");
    fbcnn_bench::write_record("throughput", &record, path);
}
