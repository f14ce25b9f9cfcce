//! Property tests for the robustness layer: no randomly injected fault —
//! corrupted dropout masks, arbitrary threshold values, flipped weight
//! bits — may ever make `predict_fast` / `predict_robust_seeded` emit a `NaN`
//! or an out-of-`[0, 1]` probability. Faults either surface as typed
//! errors or degrade into predictions that still pass the probability
//! sanity check.

use fast_bcnn::models::ModelKind;
use fast_bcnn::{ActivationGuard, Engine, EngineConfig, InferenceError, ThresholdSet};
use fbcnn_bench::harness::faults::FaultInjector;
use fbcnn_nn::Workspace;
use proptest::prelude::*;
use std::sync::OnceLock;

fn base_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::new(EngineConfig {
            samples: 3,
            calibration_samples: 2,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    })
}

fn assert_probs_in_unit_interval(probs: &[f32], context: &str) {
    assert!(
        ActivationGuard::probs_are_sane(probs),
        "{context}: insane probability row {probs:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arbitrary_threshold_values_never_break_probabilities(
        fill in proptest::arbitrary::any::<u16>(),
        jitter_seed in proptest::arbitrary::any::<u64>(),
        input_seed in 0u64..1000,
    ) {
        // Structurally valid thresholds with arbitrary values — every
        // value is a legal operating point and must yield sane rows.
        let mut engine = base_engine().clone();
        let nodes: Vec<_> = engine.thresholds().nodes().collect();
        let mut state = jitter_seed;
        let mut next_u16 = move || -> u16 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z >> 48) as u16
        };
        let mut poisoned = ThresholdSet::never_predict(engine.network().len());
        for node in nodes {
            let len = engine
                .thresholds()
                .get(node)
                .map(<[u16]>::len)
                .unwrap_or_default();
            // Half the kernels take the proptest fill value, half a
            // per-kernel pseudo-random value.
            let vals: Vec<u16> = (0..len)
                .map(|i| if i % 2 == 0 { fill } else { next_u16() })
                .collect();
            poisoned.insert(node, vals);
        }
        *engine.thresholds_mut() = poisoned;

        let input = fast_bcnn::synth_input(engine.network().input_shape(), input_seed);
        let (fast, _) = engine.predict_fast(&input);
        assert_probs_in_unit_interval(&fast.mean, "predict_fast mean");
        match engine.predict_robust_seeded(&input, engine.config().seed) {
            Ok((pred, report)) => {
                assert_probs_in_unit_interval(&pred.mean, "predict_robust mean");
                prop_assert!(report.used_samples > 0);
            }
            Err(e) => prop_assert!(
                matches!(e, InferenceError::Thresholds(_)),
                "unexpected error class: {e}"
            ),
        }
    }

    #[test]
    fn corrupted_masks_never_break_probabilities(
        fault_seed in proptest::arbitrary::any::<u64>(),
        flips in 1usize..24,
        t in 0usize..4,
    ) {
        let engine = base_engine();
        let bnet = engine.bayesian_network();
        let input = fast_bcnn::synth_input(engine.network().input_shape(), 42);
        let mut masks = bnet.generate_masks(engine.config().seed, t);
        FaultInjector::new(fault_seed).corrupt_masks(&mut masks, flips);
        let mut ws = Workspace::new();
        let guard = ActivationGuard::default();
        let (run, repaired) = bnet
            .forward_sample_checked(&input, &masks, &mut ws, &guard)
            .expect("bit-corrupted masks keep valid shapes");
        prop_assert_eq!(repaired, 0);
        let probs = fbcnn_tensor::stats::softmax(run.logits());
        assert_probs_in_unit_interval(&probs, "corrupted-mask sample row");
    }

    #[test]
    fn flipped_weight_bits_error_or_stay_sane(
        fault_seed in proptest::arbitrary::any::<u64>(),
        input_seed in 0u64..1000,
    ) {
        let mut engine = base_engine().clone();
        FaultInjector::new(fault_seed)
            .flip_conv_weight_bit(engine.bayesian_network_mut().network_mut())
            .expect("lenet has conv weights");
        let input = fast_bcnn::synth_input(engine.network().input_shape(), input_seed);
        match engine.predict_robust_seeded(&input, engine.config().seed) {
            Ok((pred, _)) => assert_probs_in_unit_interval(&pred.mean, "flipped-bit robust mean"),
            Err(
                InferenceError::Numeric(_) | InferenceError::AllSamplesFailed { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}
