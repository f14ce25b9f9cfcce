//! Acceptance tests for the workspace telemetry layer:
//!
//! * the no-op recorder costs under 5% on the exact MC-dropout hot path;
//! * a recording-enabled skipping run emits per-layer skip counters that
//!   reconcile *exactly* with the `SkipStats` the inference returns, both
//!   live in the registry and through the JSONL trace round-trip;
//! * the Prometheus-style dump parses back, with a nonzero fallback
//!   counter when a fault forces the robust path to degrade.
//!
//! Every test installs (or explicitly clears) the global recorder; the
//! install guard holds a process-wide lock, so the tests in this binary
//! never observe each other's events. They also run one at a time
//! (`serial`), so no sibling's work lands inside a timing.

use fast_bcnn::models::ModelKind;
use fast_bcnn::telemetry::{self, Registry};
use fast_bcnn::{
    DegradedMode, Engine, EngineConfig, McDropout, RobustConfig, RunControl, SkipStats,
};
use fbcnn_bayes::BayesianNetwork;
use fbcnn_bench::harness::faults::{FaultInjector, ThresholdFault};
use fbcnn_nn::Workspace;
use fbcnn_tensor::stats::softmax;
use fbcnn_tensor::Tensor;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Runs the tests of this binary one at a time, start to finish: the
/// overhead test must not share the CPU with a sibling that is still
/// building its engine outside the telemetry install lock.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lenet_engine(samples: usize) -> Engine {
    Engine::new(EngineConfig {
        samples,
        calibration_samples: 3,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    })
}

fn probe_input(engine: &Engine, seed: u64) -> Tensor {
    fast_bcnn::synth_input(engine.network().input_shape(), seed)
}

/// Wall-clock of one call.
fn elapsed_ns<R>(f: &mut impl FnMut() -> R) -> u64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_nanos() as u64
}

/// Minimum wall-clock of `a` and of `b` over `reps` calls each, after one
/// warmup each. The two sides alternate rep by rep, and which side goes
/// first alternates too, so a slow stretch of a shared host (or an order
/// effect within a pair) lands on both sides instead of on one.
fn min_ns_interleaved<R, S>(
    reps: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> S,
) -> (u64, u64) {
    std::hint::black_box(a());
    std::hint::black_box(b());
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    for rep in 0..reps {
        if rep % 2 == 0 {
            best_a = best_a.min(elapsed_ns(&mut a));
            best_b = best_b.min(elapsed_ns(&mut b));
        } else {
            best_b = best_b.min(elapsed_ns(&mut b));
            best_a = best_a.min(elapsed_ns(&mut a));
        }
    }
    (best_a, best_b)
}

#[test]
fn disabled_telemetry_costs_under_five_percent() {
    let _serial = serial();
    // Pin the recorder to "none" for the whole measurement: the guard
    // holds the install lock, so no concurrent test can enable recording
    // and inflate the instrumented timing.
    let _guard = telemetry::install_none();

    let bnet = BayesianNetwork::new(fast_bcnn::models::lenet5(1), 0.3);
    let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
        ((r * 5 + c) % 7) as f32 / 7.0
    });
    let t = 10usize;
    let seed = 0xFB_C0DE;

    // Baseline: the per-sample work of `McDropout::run` (masks → forward
    // pass → softmax → summary) with no telemetry call and no per-sample
    // panic isolation — what the hot path cost before this layer existed.
    let baseline = || {
        let mut ws = Workspace::new();
        let rows: Vec<Vec<f32>> = (0..t)
            .map(|s| {
                let masks = bnet.generate_masks(seed, s);
                let run = bnet.forward_sample_ws(&input, &masks, &mut ws);
                softmax(run.logits())
            })
            .collect();
        McDropout::summarize(rows)
    };
    // Instrumented: the real runner, whose spans and counters all hit the
    // disabled fast path (one relaxed atomic load each).
    let runner = McDropout::new(t, seed);
    let instrumented = || runner.run(&bnet, &input);

    assert_eq!(
        baseline().mean,
        instrumented().mean,
        "instrumentation must not change results"
    );

    let reps = 30;
    let (base_ns, inst_ns) = min_ns_interleaved(reps, baseline, instrumented);
    let overhead = inst_ns as f64 / base_ns as f64 - 1.0;
    assert!(
        overhead < 0.05,
        "disabled telemetry overhead {:.2}% (baseline {base_ns} ns, instrumented {inst_ns} ns) \
         exceeds the 5% budget",
        overhead * 100.0
    );
}

#[test]
fn skip_counters_reconcile_exactly_with_skip_stats() {
    let _serial = serial();
    let engine = lenet_engine(30);
    let input = probe_input(&engine, 11);

    let registry = Arc::new(Registry::new());
    let stats: SkipStats = {
        let _guard = telemetry::install(registry.clone());
        let (_, stats) = engine.predict_fast(&input);
        stats
    };
    assert!(stats.total > 0 && stats.skipped > 0, "stats: {stats:?}");

    // Registry view: the per-layer counters were recorded from the very
    // SkipMaps the run aggregated, so the totals match exactly.
    for (name, expected) in [
        ("skip_neurons_considered", stats.total),
        ("skip_neurons_dropped", stats.dropped),
        ("skip_neurons_predicted", stats.predicted),
        ("skip_neurons_skipped", stats.skipped),
    ] {
        assert_eq!(
            registry.counter_total(name),
            expected as u64,
            "{name} disagrees with SkipStats {stats:?}"
        );
    }

    // The per-sample counter agrees too.
    assert_eq!(
        registry.counter_value("mc_samples", &[("path", "skipping")]),
        Some(30)
    );

    // Trace round-trip: export as JSONL, re-read through the versioned
    // envelope parser, and reconcile again from the decoded events.
    let events = fast_bcnn::io::read_trace_str(&registry.to_jsonl()).expect("trace parses back");
    for (name, expected) in [
        ("skip_neurons_considered", stats.total),
        ("skip_neurons_dropped", stats.dropped),
        ("skip_neurons_predicted", stats.predicted),
        ("skip_neurons_skipped", stats.skipped),
    ] {
        let total: u64 = events
            .iter()
            .filter(|e| e.kind == "counter" && e.name == name)
            .map(|e| e.count)
            .sum();
        assert_eq!(
            total, expected as u64,
            "{name} lost in the JSONL round-trip"
        );
    }

    // The summarizer reads the same counters.
    let report = fast_bcnn::TelemetryReport::from_registry(&registry);
    let considered: u64 = report.layers.iter().map(|r| r.considered).sum();
    let skipped: u64 = report.layers.iter().map(|r| r.skipped).sum();
    assert_eq!(considered, stats.total as u64);
    assert_eq!(skipped, stats.skipped as u64);
    assert!((report.overall_skip_rate() - stats.skip_rate()).abs() < 1e-12);
}

#[test]
fn prometheus_dump_parses_back_with_nonzero_fallback_counter() {
    let _serial = serial();
    // Saturated thresholds are structurally valid but push the skip rate
    // above any sane ceiling; a tiny `max_skip_rate` then forces every
    // sample onto the exact fallback path.
    let mut engine = lenet_engine(6);
    let net = engine.network().clone();
    FaultInjector::new(7).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Saturate,
    );
    let input = probe_input(&engine, 12);
    let rc = RobustConfig {
        max_skip_rate: 0.05,
        canary_tolerance: 10.0, // canary stays quiet: degrade per sample
        ..RobustConfig::default()
    };

    let registry = Arc::new(Registry::new());
    let report = {
        let _guard = telemetry::install(registry.clone());
        let (_, report) = engine
            .predict_robust_controlled(&input, engine.config().seed, &rc, &RunControl::none())
            .expect("fallback path recovers");
        report
    };
    assert_eq!(report.mode, DegradedMode::PartialFallback);
    assert!(report.fallback_samples > 0);

    let text = registry.to_prometheus();
    let samples = telemetry::parse_exposition(&text).expect("exposition parses back");
    let fallback: f64 = samples
        .iter()
        .filter(|s| s.name == "engine_fallback_samples")
        .map(|s| s.value)
        .sum();
    assert_eq!(
        fallback, report.fallback_samples as f64,
        "exposition fallback counter disagrees with the robust report"
    );
    let degraded = samples
        .iter()
        .find(|s| {
            s.name == "engine_degraded_runs"
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "mode" && v == "partial_fallback")
        })
        .expect("degraded-run counter exported");
    assert!(degraded.value >= 1.0);

    // The trace export of the same registry stays envelope-clean too.
    assert!(!fast_bcnn::io::read_trace_str(&registry.to_jsonl())
        .expect("trace parses")
        .is_empty());
}
