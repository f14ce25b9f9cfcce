//! Telemetry acceptance for the batched serving path:
//!
//! * the `batch_requests` / `batch_cache_*` counters reconcile exactly
//!   with the [`fast_bcnn::BatchReport`];
//! * the `skip_neurons_*` counters a batch records equal the sum of the
//!   per-request `SkipStats` in each outcome's `RobustReport` exactly
//!   (the canary's skipping run is sample 0, counted once);
//! * a batch run's registry exports cleanly: the JSONL trace round-trips
//!   through the versioned envelope reader and the Prometheus-style dump
//!   parses back — the same checks `trace_check` applies in CI to a
//!   `fastbcnn serve-batch --trace-out/--metrics-out` run;
//! * a fault-degraded batch keeps its fallback accounting consistent
//!   between counters and per-request reports;
//! * under the watchdog, a resilient batch counts every request exactly
//!   once, even after its hung attempts wake up and finish.
//!
//! Every test installs a private registry; the install guard holds a
//! process-wide lock, so the tests serialize and never observe each
//! other's events.

use fast_bcnn::models::ModelKind;
use fast_bcnn::telemetry::{self, parse_exposition, Registry};
use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchReport, BatchRequest, DegradedMode, Engine,
    EngineConfig, FlightRecorder, InferenceError, ResilienceConfig, ResilientBatchEngine,
    RobustConfig, SkipStats,
};
use fbcnn_bench::harness::faults::{FaultInjector, ThresholdFault};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

fn lenet_engine(samples: usize) -> Engine {
    Engine::new(EngineConfig {
        samples,
        calibration_samples: 3,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    })
}

/// Four requests over three distinct inputs: one repeat to exercise the
/// pre-inference cache.
fn queue(engine: &Engine) -> Vec<BatchRequest> {
    [31u64, 32, 31, 33]
        .iter()
        .enumerate()
        .map(|(i, &s)| BatchRequest::new(i as u64, synth_input(engine.network().input_shape(), s)))
        .collect()
}

fn run_recorded(batch: &BatchEngine, requests: &[BatchRequest]) -> (Arc<Registry>, BatchReport) {
    let registry = Arc::new(Registry::new());
    let report = {
        let _guard = telemetry::install(registry.clone());
        batch.run_batch(requests)
    };
    (registry, report)
}

#[test]
fn batch_counters_reconcile_with_report_and_per_request_skip_stats() {
    let engine = lenet_engine(4);
    let requests = queue(&engine);
    let batch = BatchEngine::new(engine, BatchConfig::default());
    let (registry, report) = run_recorded(&batch, &requests);
    assert!(report.all_ok());

    // Batch bookkeeping counters mirror the report exactly.
    assert_eq!(
        registry.counter_total("batch_requests"),
        requests.len() as u64
    );
    assert_eq!(
        registry.counter_total("batch_cache_hits"),
        report.cache_hits as u64
    );
    assert_eq!(
        registry.counter_total("batch_cache_misses"),
        report.cache_misses as u64
    );
    assert_eq!(report.cache_hits, 1, "one repeated input");
    assert_eq!(report.cache_misses, 3);

    // Per-layer skip counters equal the sum of the per-request
    // SkipStats: the canary's skipping run is sample 0, counted once.
    let mut expected = SkipStats::default();
    for outcome in &report.outcomes {
        let (_, rep) = outcome.result.as_ref().expect("healthy batch");
        expected.absorb(rep.skip);
    }
    for (name, want) in [
        ("skip_neurons_considered", expected.total),
        ("skip_neurons_dropped", expected.dropped),
        ("skip_neurons_predicted", expected.predicted),
        ("skip_neurons_skipped", expected.skipped),
    ] {
        assert_eq!(
            registry.counter_total(name),
            want as u64,
            "{name} disagrees with per-request SkipStats"
        );
    }

    // The TelemetryReport digest reads the same registry consistently.
    let digest = fast_bcnn::TelemetryReport::from_registry(&registry);
    assert_eq!(digest.batch_requests, requests.len() as u64);
    assert_eq!(digest.batch_cache_hits, report.cache_hits as u64);
    assert_eq!(digest.batch_cache_misses, report.cache_misses as u64);
    let considered: u64 = digest.layers.iter().map(|r| r.considered).sum();
    assert_eq!(considered, expected.total as u64);
    assert!(digest.render().contains("batch requests 4"));
}

#[test]
fn batch_run_exports_parse_like_trace_check() {
    let engine = lenet_engine(3);
    let requests = queue(&engine);
    let batch = BatchEngine::new(
        engine,
        BatchConfig {
            threads: 2,
            ..BatchConfig::default()
        },
    );
    let (registry, report) = run_recorded(&batch, &requests);
    assert!(report.all_ok());

    // JSONL round-trip through the same versioned envelope reader that
    // backs `trace_check`, including the batch span and histograms.
    let events = fast_bcnn::io::read_trace_str(&registry.to_jsonl()).expect("trace parses back");
    assert!(events
        .iter()
        .any(|e| e.kind == "span" && e.name == "batch_run"));
    assert!(events
        .iter()
        .any(|e| e.kind == "histogram" && e.name == "batch_depth"));
    assert!(events
        .iter()
        .any(|e| e.kind == "histogram" && e.name == "batch_queue_wait_ns"));
    let batched: u64 = events
        .iter()
        .filter(|e| e.kind == "counter" && e.name == "batch_requests")
        .map(|e| e.count)
        .sum();
    assert_eq!(batched, requests.len() as u64);

    // Prometheus exposition parses back with the batch counters present.
    let samples = parse_exposition(&registry.to_prometheus()).expect("exposition parses back");
    let total: f64 = samples
        .iter()
        .filter(|s| s.name == "batch_requests")
        .map(|s| s.value)
        .sum();
    assert_eq!(total, requests.len() as f64);
}

#[test]
fn degraded_batch_keeps_fallback_accounting_consistent() {
    // Saturated thresholds + a tiny skip-rate ceiling force every sample
    // of every request onto the exact fallback path; the batch must keep
    // the per-request isolation and the counter accounting intact.
    let mut engine = lenet_engine(3);
    let net = engine.network().clone();
    FaultInjector::new(7).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Saturate,
    );
    let requests = queue(&engine);
    let batch = BatchEngine::new(
        engine,
        BatchConfig {
            robust: RobustConfig {
                max_skip_rate: 0.05,
                canary_tolerance: 10.0, // keep the canary quiet: degrade per sample
                ..RobustConfig::default()
            },
            ..BatchConfig::default()
        },
    );
    let (registry, report) = run_recorded(&batch, &requests);
    assert!(report.all_ok(), "fallback path must recover every request");

    let mut fallback_total = 0u64;
    for outcome in &report.outcomes {
        let (pred, rep) = outcome.result.as_ref().expect("recovered");
        assert_eq!(rep.mode, DegradedMode::PartialFallback);
        assert!(rep.fallback_samples > 0);
        assert!(pred.mean.iter().all(|p| (0.0..=1.0).contains(p)));
        fallback_total += rep.fallback_samples as u64;
    }
    assert_eq!(
        registry.counter_total("engine_fallback_samples"),
        fallback_total,
        "fallback counter disagrees with the per-request reports"
    );
    assert_eq!(
        registry.counter_total("batch_requests"),
        requests.len() as u64
    );
}

#[test]
fn watchdog_batch_counts_every_request_exactly_once() {
    // Request 0 hangs on its first execution and is requeued; request 1
    // hangs on every execution and is abandoned; request 2 runs clean.
    // A hung execution blocks on `gate` until the batch has returned,
    // then runs to completion; none of that may add a request-level
    // count.
    for threads in [1, 2] {
        let engine = lenet_engine(4);
        let requests = queue(&engine)[..3].to_vec();
        let gate = Arc::new(RwLock::new(()));
        let blocked = Arc::new(AtomicUsize::new(0));
        let (hook_gate, waiting) = (Arc::clone(&gate), Arc::clone(&blocked));
        let first = AtomicBool::new(false);
        let flight = Arc::new(FlightRecorder::new(64));
        let layer = ResilientBatchEngine::new(
            BatchEngine::new(
                engine,
                BatchConfig {
                    threads,
                    ..BatchConfig::default()
                },
            ),
            ResilienceConfig {
                watchdog_timeout: Some(Duration::from_millis(200)),
                max_requeues: 1,
                ..ResilienceConfig::default()
            },
        )
        .with_flight_recorder(Arc::clone(&flight))
        .with_request_sample_hook(Arc::new(move |id, _attempt, s| {
            let hang = s == 0 && (id == 1 || (id == 0 && !first.swap(true, Ordering::SeqCst)));
            if hang {
                waiting.fetch_add(1, Ordering::SeqCst);
                drop(hook_gate.read());
                waiting.fetch_sub(1, Ordering::SeqCst);
            }
        }));
        let registry = Arc::new(Registry::new());
        let report = {
            let _guard = telemetry::install(registry.clone());
            let closed = gate.write().expect("gate lock");
            let report = layer.run_batch(&requests);
            drop(closed);
            // Keep recording until every hung hook has returned and its
            // execution has had time to finish.
            while blocked.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(300));
            report
        };
        report.reconcile().unwrap();
        let requeues: Vec<u32> = report.outcomes.iter().map(|o| o.requeues).collect();
        assert_eq!(requeues, vec![1, 1, 0], "at {threads} threads");
        assert!(report.outcomes[0].outcome.result.is_ok());
        assert!(matches!(
            report.outcomes[1].outcome.result,
            Err(InferenceError::WorkerHung { requeues: 1 })
        ));
        assert!(report.outcomes[2].outcome.result.is_ok());

        let offered = report.totals.offered as u64;
        assert_eq!(
            registry.counter_total(telemetry::REQUEST_OUTCOME_METRIC),
            offered,
            "request_outcomes counted a request twice at {threads} threads"
        );
        assert_eq!(
            flight.recorded(),
            offered,
            "flight records at {threads} threads"
        );
        assert_eq!(
            registry.counter_total("watchdog_requeues"),
            report.totals.requeues
        );
        assert_eq!(
            registry.counter_total("watchdog_abandoned"),
            report.totals.abandoned
        );
    }
}
