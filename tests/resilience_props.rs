//! Property tests for the resilience layer's statistical and timing
//! contracts:
//!
//! * **partial-T validity** — a robust run expired after `k` samples is
//!   bit-identical to the same run capped at `k` samples (sample `t`
//!   always draws `generate_masks(seed, t)`, so a prefix of samples IS a
//!   shorter run);
//! * **latency invariance** — injected per-sample delays perturb time
//!   only, never numerics;
//! * **backoff determinism** — the seeded exponential backoff is a pure
//!   function of `(policy, request seed, attempt)` and respects its cap.

use fast_bcnn::models::ModelKind;
use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchRequest, CancelToken, DegradedMode, Engine,
    EngineConfig, ResilienceConfig, ResilientBatchEngine, RetryPolicy, RobustConfig, RunControl,
    SeededJitter,
};
use fbcnn_bench::harness::faults::FaultInjector;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const T: usize = 4;

fn base_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::new(EngineConfig {
            samples: T,
            calibration_samples: 2,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    })
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_expired_partials_equal_the_capped_run(
        k in 1usize..T,
        input_seed in 0u64..1000,
    ) {
        // The robust pipeline under a sample budget of k must land on the
        // same bits as the same pipeline explicitly capped at k samples:
        // a deadline interruption after k samples IS a k-sample run.
        let engine = base_engine();
        let input = synth_input(engine.network().input_shape(), input_seed);
        let seed = engine.config().seed;
        let rc = RobustConfig::default();

        let expired_ctl = RunControl {
            cancel: CancelToken::with_limits(None, Some(k as u64)),
            ..RunControl::none()
        };
        let (expired_pred, expired_report) = engine
            .predict_robust_controlled(&input, seed, &rc, &expired_ctl)
            .expect("budget of k >= 1 yields a partial prediction");
        prop_assert!(expired_report.expired);
        prop_assert_eq!(expired_report.used_samples, k);
        prop_assert_eq!(expired_report.mode, DegradedMode::PartialSamples);

        let capped_ctl = RunControl {
            max_samples: Some(k),
            ..RunControl::none()
        };
        let (capped_pred, capped_report) = engine
            .predict_robust_controlled(&input, seed, &rc, &capped_ctl)
            .expect("capped run succeeds on a healthy engine");
        prop_assert!(!capped_report.expired);
        prop_assert_eq!(capped_report.mode, DegradedMode::PartialSamples);
        prop_assert_eq!(bits(&expired_pred.mean), bits(&capped_pred.mean));
    }

    #[test]
    fn latency_faults_never_change_numerics(
        fault_seed in proptest::arbitrary::any::<u64>(),
        input_seed in 0u64..1000,
    ) {
        // Satellite regression: a seeded latency schedule through the
        // sample hook slows requests down but every bit of every result
        // must match the undelayed run.
        let requests: Vec<BatchRequest> = (0..3)
            .map(|i| {
                BatchRequest::new(
                    i,
                    synth_input(
                        base_engine().network().input_shape(),
                        input_seed ^ (i * 131),
                    ),
                )
            })
            .collect();
        let build = || {
            ResilientBatchEngine::new(
                BatchEngine::new(base_engine().clone(), BatchConfig::default()),
                ResilienceConfig::default(),
            )
        };

        let calm = build().run_batch(&requests);
        let schedule = FaultInjector::new(fault_seed)
            .latency_schedule(0.4, Duration::from_micros(120));
        let delayed_engine = build().with_request_sample_hook(Arc::new(move |_id, _a, s| {
            let d = schedule.delay_for(s);
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }));
        let delayed = delayed_engine.run_batch(&requests);

        prop_assert_eq!(calm.outcomes.len(), delayed.outcomes.len());
        for (a, b) in calm.outcomes.iter().zip(&delayed.outcomes) {
            let (pa, ra) = a.outcome.result.as_ref().expect("calm run is healthy");
            let (pb, rb) = b.outcome.result.as_ref().expect("delayed run is healthy");
            prop_assert_eq!(bits(&pa.mean), bits(&pb.mean), "delay changed the mean");
            prop_assert_eq!(pa.class, pb.class);
            prop_assert_eq!(ra.used_samples, rb.used_samples);
            prop_assert_eq!(ra.mode, rb.mode);
        }
    }

    #[test]
    fn backoff_is_a_pure_seeded_function_and_respects_its_cap(
        policy_seed in proptest::arbitrary::any::<u64>(),
        request_seed in proptest::arbitrary::any::<u64>(),
        attempt in 0u32..8,
    ) {
        let policy = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(5),
            seed: policy_seed,
        };
        let jitter = SeededJitter;
        let a = policy.backoff(request_seed, attempt, &jitter);
        let b = policy.backoff(request_seed, attempt, &jitter);
        prop_assert_eq!(a, b, "same inputs, different backoff");
        prop_assert!(a <= policy.max_backoff, "{a:?} exceeds the cap");
        prop_assert!(a >= policy.base_backoff / 2, "jitter floor is 0.5x");
    }
}
