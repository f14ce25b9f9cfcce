//! Determinism properties of the batched serving path:
//!
//! * `BatchEngine::run_batch` is bit-identical to sequential
//!   `predict_robust_seeded` calls for the same per-request seeds — the
//!   headline serving invariant, checked here over randomized inputs;
//! * results are invariant under worker thread count for both the robust
//!   batch path (1, 2, 4) and the exact `McDropout::run_batch` runner
//!   (1, 2, 3, 16);
//! * a request's result is invariant under batch *composition*: which
//!   other requests share the batch, and in what order, never changes
//!   its bits.

use fast_bcnn::models::ModelKind;
use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchRequest, Engine, EngineConfig, McDropout,
};
use fbcnn_bayes::McRequest;
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

fn batch_engine(threads: usize) -> BatchEngine {
    BatchEngine::new(
        base_engine().clone(),
        BatchConfig {
            threads,
            ..BatchConfig::default()
        },
    )
}

fn requests_from_seeds(input_seeds: &[u64]) -> Vec<BatchRequest> {
    let engine = base_engine();
    input_seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| BatchRequest::new(i as u64, synth_input(engine.network().input_shape(), s)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_is_bit_identical_to_sequential_robust_calls(
        input_seeds in proptest::collection::vec(0u64..10_000, 1..5),
    ) {
        let engine = base_engine();
        let requests = requests_from_seeds(&input_seeds);
        for threads in [1usize, 2, 4] {
            let report = batch_engine(threads).run_batch(&requests);
            prop_assert_eq!(report.depth, requests.len());
            for (req, outcome) in requests.iter().zip(&report.outcomes) {
                let (seq_pred, seq_report) = engine
                    .predict_robust_seeded(&req.input, outcome.seed)
                    .expect("sequential robust path failed");
                let (pred, rep) = outcome
                    .result
                    .as_ref()
                    .expect("batched request failed on a healthy engine");
                prop_assert_eq!(
                    pred, &seq_pred,
                    "request {} diverged from sequential at {} threads", req.id, threads
                );
                prop_assert_eq!(rep, &seq_report);
            }
        }
    }

    #[test]
    fn request_results_are_invariant_under_batch_composition(
        input_seeds in proptest::collection::vec(0u64..10_000, 2..5),
        by in 1usize..4,
    ) {
        // One request observed in three different batches: the full
        // queue, the queue rotated, and a sub-batch holding it alone.
        // Its (id, input, seed) triple is fixed, so its bits must be too.
        let requests = requests_from_seeds(&input_seeds);
        let engine = batch_engine(2);
        let full = engine.run_batch(&requests);

        let mut rotated = requests.clone();
        let pivot = by % rotated.len();
        rotated.rotate_left(pivot);
        let rotated_report = engine.run_batch(&rotated);
        for (req, outcome) in rotated.iter().zip(&rotated_report.outcomes) {
            let original = full
                .outcomes
                .iter()
                .find(|o| o.id == req.id)
                .expect("id present in full batch");
            prop_assert_eq!(
                outcome.result.as_ref().expect("rotated request failed").0.mean.clone(),
                original.result.as_ref().expect("original request failed").0.mean.clone(),
                "request {} changed bits when the batch was reordered", req.id
            );
        }

        let solo = engine.run_batch(std::slice::from_ref(&requests[0]));
        prop_assert_eq!(
            solo.outcomes[0].result.as_ref().expect("solo failed").0.mean.clone(),
            full.outcomes[0].result.as_ref().expect("full failed").0.mean.clone(),
            "request 0 changed bits between a solo batch and a full batch"
        );
    }

    #[test]
    fn exact_paths_are_invariant_under_thread_count(
        input_seed in 0u64..10_000,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let engine = base_engine();
        let bnet = engine.bayesian_network();
        let input = synth_input(engine.network().input_shape(), input_seed);
        let runner = McDropout::new(3, seed);

        // run_batch at any thread count equals itself at one thread, and
        // each request equals the standalone runner with its seed.
        let mc_requests = [
            McRequest { input: &input, seed },
            McRequest { input: &input, seed: seed ^ 1 },
        ];
        let one = runner
            .run_batch(bnet, &mc_requests, 1)
            .expect("single-threaded batch failed");
        prop_assert_eq!(&one[0].prediction, &runner.run(bnet, &input));
        for threads in [2usize, 3, 16] {
            let many = runner
                .run_batch(bnet, &mc_requests, threads)
                .expect("multi-threaded batch failed");
            prop_assert_eq!(many.len(), one.len());
            for (a, b) in many.iter().zip(&one) {
                prop_assert_eq!(
                    &a.prediction, &b.prediction,
                    "exact batch diverged at {} threads", threads
                );
            }
        }
    }
}
