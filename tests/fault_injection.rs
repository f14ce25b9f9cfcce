//! Fault-injection suite: every fault class from `fbcnn_bench::harness::faults` is
//! either *detected* (a typed error names the problem) or *recovered*
//! (graceful degradation produces a prediction within tolerance of the
//! exact path). In no case may a fault abort the process — the suite
//! finishing at all is half the point.
//!
//! Fault classes exercised: conv-weight bit flips / NaN poisoning,
//! dropout-mask corruption (bit flips and shape breaks), threshold
//! poisoning (saturation, truncation, misaddressing) and MC worker kills.

use fast_bcnn::models::ModelKind;
use fast_bcnn::{
    ActivationGuard, BayesError, Engine, EngineConfig, GuardPolicy, InferenceError, McDropout,
    McRequest, RobustConfig, RunControl, ThresholdError,
};
use fbcnn_bench::harness::faults::{FaultInjector, ThresholdFault};
use fbcnn_tensor::Tensor;
use std::sync::OnceLock;

fn base_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::new(EngineConfig {
            samples: 6,
            calibration_samples: 3,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    })
}

fn probe_input(engine: &Engine, seed: u64) -> Tensor {
    fast_bcnn::synth_input(engine.network().input_shape(), seed)
}

fn l1(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

// ---------------------------------------------------------------- weights

#[test]
fn nan_weight_poisoning_is_detected_as_a_typed_error() {
    let mut engine = base_engine().clone();
    let flip = FaultInjector::new(0xDEAD)
        .poison_conv_weight_nan(engine.bayesian_network_mut().network_mut())
        .expect("lenet has conv weights");
    assert!(flip.after.is_nan());
    let input = probe_input(&engine, 1);
    // Corrupt weights have no healthy fallback: detection, not recovery.
    match engine.predict_robust_seeded(&input, engine.config().seed) {
        Err(InferenceError::Numeric(_)) => {}
        other => panic!("NaN weights must be a numeric fault, got {other:?}"),
    }
}

#[test]
fn random_weight_bit_flips_are_detected_or_recovered() {
    let input = probe_input(base_engine(), 2);
    let mut detected = 0usize;
    let mut recovered = 0usize;
    for seed in 0..12u64 {
        let mut engine = base_engine().clone();
        let flip = FaultInjector::new(seed)
            .flip_conv_weight_bit(engine.bayesian_network_mut().network_mut())
            .expect("lenet has conv weights");
        match engine.predict_robust_seeded(&input, engine.config().seed) {
            // Detected: the guard (or the sanity checks) refused the run.
            Err(InferenceError::Numeric(_) | InferenceError::AllSamplesFailed { .. }) => {
                detected += 1
            }
            Err(other) => panic!("unexpected error class for bit flip {flip:?}: {other}"),
            // Recovered: the prediction must track the engine's own exact
            // path on the (identically flipped) weights.
            Ok((pred, report)) => {
                let exact = engine.predict_exact(&input);
                assert!(
                    l1(&pred.mean, &exact.mean) < 0.15,
                    "flip {flip:?} drifted {} from exact (report {report:?})",
                    l1(&pred.mean, &exact.mean)
                );
                assert!(pred.mean.iter().all(|p| p.is_finite()));
                recovered += 1;
            }
        }
    }
    assert_eq!(detected + recovered, 12);
    assert!(recovered > 0, "mantissa-region flips should survive");
}

// ------------------------------------------------------------------ masks

#[test]
fn mask_bit_corruption_is_absorbed_statistically() {
    let engine = base_engine();
    let bnet = engine.bayesian_network();
    let input = probe_input(engine, 3);
    let guard = ActivationGuard::default();
    let mut ws = fbcnn_nn::Workspace::new();
    let mut inj = FaultInjector::new(0xC0FFEE);
    for t in 0..4 {
        let clean = bnet.generate_masks(7, t);
        let mut dirty = clean.clone();
        inj.corrupt_masks(&mut dirty, 5);
        let (clean_run, _) = bnet
            .forward_sample_checked(&input, &clean, &mut ws, &guard)
            .expect("clean masks pass");
        let (dirty_run, _) = bnet
            .forward_sample_checked(&input, &dirty, &mut ws, &guard)
            .expect("bit-corrupted masks are valid masks");
        let a = fbcnn_tensor::stats::softmax(clean_run.logits());
        let b = fbcnn_tensor::stats::softmax(dirty_run.logits());
        assert!(ActivationGuard::probs_are_sane(&b));
        // A handful of flipped dropout bits sits inside MC-dropout's own
        // sampling noise; the row may move but must stay comparable.
        assert!(l1(&a, &b) < 0.6, "sample {t} moved {}", l1(&a, &b));
    }
}

#[test]
fn wrong_shape_masks_are_a_typed_error_not_a_panic() {
    let engine = base_engine();
    let bnet = engine.bayesian_network();
    let input = probe_input(engine, 4);
    let killer = FaultInjector::sample_killing_masks(bnet);
    let mut ws = fbcnn_nn::Workspace::new();
    match bnet.forward_sample_checked(&input, &killer, &mut ws, &ActivationGuard::default()) {
        Err(BayesError::MaskShape { .. } | BayesError::MissingMask { .. }) => {}
        other => panic!("expected a mask validation error, got {other:?}"),
    }
}

// ------------------------------------------------------------- thresholds

#[test]
fn truncated_thresholds_are_detected_structurally() {
    let mut engine = base_engine().clone();
    let net = engine.network().clone();
    FaultInjector::new(5).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Truncate,
    );
    let input = probe_input(&engine, 5);
    match engine.predict_robust_seeded(&input, engine.config().seed) {
        Err(InferenceError::Thresholds(ThresholdError::KernelCountMismatch { .. })) => {}
        other => panic!("expected a kernel-count mismatch, got {other:?}"),
    }
}

#[test]
fn misaddressed_thresholds_are_detected_structurally() {
    let mut engine = base_engine().clone();
    let net = engine.network().clone();
    FaultInjector::new(6).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Misaddress,
    );
    let input = probe_input(&engine, 6);
    match engine.predict_robust_seeded(&input, engine.config().seed) {
        Err(InferenceError::Thresholds(
            ThresholdError::NotAConvNode { .. } | ThresholdError::UnknownNode { .. },
        )) => {}
        other => panic!("expected a structural threshold error, got {other:?}"),
    }
}

#[test]
fn saturated_thresholds_are_recovered_within_tolerance() {
    // u16::MAX thresholds are structurally valid — every zero neuron is
    // "predicted" and skipped. The skipping design bounds the harm: only
    // pre-inference-zero neurons are skip candidates, so even maximal
    // value poisoning can at worst force all of them to zero — an
    // operating point the canary and skip-rate anomaly checks watch, and
    // that stays within tolerance of the exact path on these models
    // (calibration at p_cf = 0.68 already predicts nearly all of them).
    let mut engine = base_engine().clone();
    let net = engine.network().clone();
    FaultInjector::new(7).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Saturate,
    );
    let input = probe_input(&engine, 7);
    let (pred, report) = engine
        .predict_robust_seeded(&input, engine.config().seed)
        .expect("saturation must be recovered, not fatal");
    assert!(ActivationGuard::probs_are_sane(&pred.mean));
    assert_eq!(report.used_samples, engine.config().samples);
    assert_eq!(report.lost_samples, 0);
    // Recovery contract: the prediction tracks the untainted engine's
    // exact path (thresholds never affect the exact path).
    let exact = base_engine().predict_exact(&input);
    assert!(
        l1(&pred.mean, &exact.mean) < 0.25,
        "poisoned-threshold mean drifted {} from exact (report {report:?})",
        l1(&pred.mean, &exact.mean)
    );
}

// ---------------------------------------------------------------- workers

#[test]
fn killed_workers_lose_only_their_own_samples() {
    let engine = base_engine();
    let bnet = engine.bayesian_network();
    let input = probe_input(engine, 8);
    let seed = engine.config().seed;
    let runner = McDropout::new(6, seed);
    let request = [McRequest {
        input: &input,
        seed,
    }];
    let run = runner
        .run_with_masks(bnet, &request, 2, |_, t| {
            if t == 2 {
                FaultInjector::sample_killing_masks(bnet)
            } else {
                bnet.generate_masks(seed, t)
            }
        })
        .expect("five of six samples survive")
        .remove(0);
    assert_eq!(run.failed, vec![2]);
    assert!(ActivationGuard::probs_are_sane(&run.prediction.mean));
    // The survivors are bit-identical to a clean sequential run of the
    // same masks, so killing one worker only widens the MC estimate.
    let clean = runner.run(bnet, &input);
    assert_eq!(clean.mean.len(), run.prediction.mean.len());
    assert!(l1(&clean.mean, &run.prediction.mean) < 0.3);
}

#[test]
fn all_workers_killed_is_a_typed_error() {
    let engine = base_engine();
    let bnet = engine.bayesian_network();
    let input = probe_input(engine, 9);
    let request = [McRequest {
        input: &input,
        seed: 1,
    }];
    let result = McDropout::new(4, 1).run_with_masks(bnet, &request, 2, |_, _| {
        FaultInjector::sample_killing_masks(bnet)
    });
    assert_eq!(result, Err(BayesError::AllSamplesFailed { requested: 4 }));
}

// -------------------------------------------------------------- telemetry
//
// The degradation paths must be observable: falling back (partially or
// wholesale) increments the engine's fallback/degraded-run counters.
// Assertions use >= rather than == because sibling tests in this binary
// run concurrently and may record into whichever registry is installed.

#[test]
fn partial_fallback_under_fault_increments_the_fallback_counter() {
    let mut engine = base_engine().clone();
    let net = engine.network().clone();
    FaultInjector::new(7).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Saturate,
    );
    let input = probe_input(&engine, 11);
    let rc = RobustConfig {
        max_skip_rate: 0.05,    // every fast sample looks anomalous
        canary_tolerance: 10.0, // but the canary stays quiet
        ..RobustConfig::default()
    };
    let registry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let _guard = fast_bcnn::telemetry::install(registry.clone());
    let (_, report) = engine
        .predict_robust_controlled(&input, engine.config().seed, &rc, &RunControl::none())
        .expect("per-sample fallback recovers");
    assert_eq!(report.mode, fast_bcnn::DegradedMode::PartialFallback);
    assert!(report.fallback_samples > 0);
    assert!(
        registry.counter_total("engine_fallback_samples") >= report.fallback_samples as u64,
        "fallback counter lags the robust report"
    );
    assert!(
        registry
            .counter_value("engine_degraded_runs", &[("mode", "partial_fallback")])
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn full_fallback_under_fault_is_counted_as_a_degraded_run() {
    let mut engine = base_engine().clone();
    let net = engine.network().clone();
    FaultInjector::new(7).poison_thresholds(
        engine.thresholds_mut(),
        &net,
        ThresholdFault::Saturate,
    );
    let input = probe_input(&engine, 12);
    let rc = RobustConfig {
        canary_tolerance: 0.0, // any fast/exact divergence trips the canary
        ..RobustConfig::default()
    };
    let registry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let _guard = fast_bcnn::telemetry::install(registry.clone());
    let (_, report) = engine
        .predict_robust_controlled(&input, engine.config().seed, &rc, &RunControl::none())
        .expect("wholesale fallback recovers");
    assert_eq!(report.mode, fast_bcnn::DegradedMode::FullFallback);
    assert_eq!(report.fallback_samples, engine.config().samples);
    assert!(registry.counter_total("engine_fallback_samples") >= report.fallback_samples as u64);
    assert!(registry.counter_total("engine_canary_trips") >= 1);
    assert!(
        registry
            .counter_value("engine_degraded_runs", &[("mode", "full_fallback")])
            .unwrap_or(0)
            >= 1
    );
}

// ------------------------------------------------------------ guard modes

#[test]
fn strict_guard_policy_turns_recovery_into_detection() {
    // Under GuardPolicy::Fail the engine must not silently degrade: an
    // anomalous fast path whose exact fallback also faults becomes a
    // typed error. NaN weights trip the pre-inference screen first.
    let mut engine = base_engine().clone();
    FaultInjector::new(0xBAD)
        .poison_conv_weight_nan(engine.bayesian_network_mut().network_mut())
        .expect("lenet has conv weights");
    let input = probe_input(&engine, 10);
    let rc = RobustConfig {
        guard: ActivationGuard::strict(),
        ..RobustConfig::default()
    };
    match engine.predict_robust_controlled(&input, engine.config().seed, &rc, &RunControl::none()) {
        Err(InferenceError::Numeric(_)) => {}
        other => panic!("strict guard must fail typed, got {other:?}"),
    }
    assert_eq!(rc.guard.policy, GuardPolicy::Fail);
}
