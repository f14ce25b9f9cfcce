//! Trained-model accuracy — the SynthDigits substitution for the paper's
//! MNIST accuracy numbers.
//!
//! LeNet-5 is *actually trained* from scratch (see `fbcnn_nn::train`) so
//! the accuracy-loss measurement has a real classification metric behind
//! it: the exact BCNN and the skipping BCNN classify a held-out test set
//! and their accuracies are compared.

use fast_bcnn::{Engine, EngineConfig, McDropout, McRequest, PredictiveInference};
use fbcnn_nn::data::SynthDigits;
use fbcnn_nn::models::{ModelKind, ModelScale};
use fbcnn_nn::train::{self, TrainConfig};
use fbcnn_nn::Network;
use fbcnn_predictor::PreparedInput;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Accuracy of the exact vs skipping BCNN on a trained LeNet-5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedAccuracyResult {
    /// Confidence level used for threshold calibration.
    pub confidence: f64,
    /// Deterministic (single-pass) test accuracy of the trained model.
    pub deterministic_accuracy: f64,
    /// Test accuracy of exact MC-dropout (T samples averaged).
    pub exact_bcnn_accuracy: f64,
    /// Test accuracy of the skipping MC-dropout.
    pub skipping_bcnn_accuracy: f64,
    /// The accuracy loss attributable to skipping.
    pub accuracy_loss: f64,
    /// Number of test images.
    pub test_size: usize,
}

/// Sizing for the trained-accuracy experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainedAccuracyConfig {
    /// Training images.
    pub train_size: usize,
    /// Held-out test images.
    pub test_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// MC samples per test image.
    pub samples: usize,
    /// Dropout rate during inference.
    pub drop_rate: f64,
    /// Seed.
    pub seed: u64,
    /// Worker threads for the exact MC-dropout passes (1 = sequential).
    pub threads: usize,
}

impl Default for TrainedAccuracyConfig {
    fn default() -> Self {
        Self {
            train_size: 400,
            test_size: 100,
            epochs: 6,
            samples: 12,
            drop_rate: 0.3,
            seed: 0x7EA1,
            threads: 1,
        }
    }
}

/// Trains LeNet-5 on SynthDigits and returns the trained network.
pub fn train_lenet(cfg: &TrainedAccuracyConfig) -> Network {
    let mut net = ModelKind::LeNet5.build(cfg.seed);
    // Training from the calibrated (sparsity-shaped) init is harder than
    // from a neutral one; reinitialize neutrally.
    fbcnn_nn::init::he_uniform(&mut net, cfg.seed);
    let data = SynthDigits::new(cfg.seed).batch(0, cfg.train_size);
    train::train(
        &mut net,
        &data,
        &TrainConfig {
            epochs: cfg.epochs,
            ..TrainConfig::default()
        },
    );
    net
}

/// Runs the trained-accuracy experiment at one confidence level.
pub fn run_with_network(
    net: Network,
    confidence: f64,
    cfg: &TrainedAccuracyConfig,
) -> TrainedAccuracyResult {
    let test = SynthDigits::new(cfg.seed ^ 0xDEAD).batch(0, cfg.test_size);
    let deterministic_accuracy = train::accuracy(&net, &test) as f64;

    let engine = Engine::with_network(
        net,
        EngineConfig {
            model: ModelKind::LeNet5,
            scale: ModelScale::FULL,
            drop_rate: cfg.drop_rate,
            samples: cfg.samples,
            confidence,
            calibration_samples: 6,
            seed: cfg.seed,
            threads: cfg.threads,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        },
    );

    let bnet = engine.bayesian_network();
    let shared = Arc::new(engine.predictor_shared());
    let mut exact_correct = 0usize;
    let mut skip_correct = 0usize;
    for s in &test {
        let request = McRequest {
            input: &s.image,
            seed: cfg.seed,
        };
        let exact = McDropout::expect_complete(McDropout::new(cfg.samples, cfg.seed).run_batch(
            bnet,
            &[request],
            cfg.threads,
        ));
        if exact.class == s.label {
            exact_correct += 1;
        }
        let prepared = Arc::new(PreparedInput::new(bnet, &s.image));
        let (probs, _) = PredictiveInference::from_parts(bnet, Arc::clone(&shared), prepared)
            .run_mc(cfg.seed, cfg.samples);
        if McDropout::summarize(probs).class == s.label {
            skip_correct += 1;
        }
    }

    let exact_acc = exact_correct as f64 / cfg.test_size as f64;
    let skip_acc = skip_correct as f64 / cfg.test_size as f64;
    TrainedAccuracyResult {
        confidence,
        deterministic_accuracy,
        exact_bcnn_accuracy: exact_acc,
        skipping_bcnn_accuracy: skip_acc,
        accuracy_loss: exact_acc - skip_acc,
        test_size: cfg.test_size,
    }
}

/// Trains once and evaluates at several confidence levels.
pub fn run(confidences: &[f64], cfg: &TrainedAccuracyConfig) -> Vec<TrainedAccuracyResult> {
    let net = train_lenet(cfg);
    confidences
        .iter()
        .map(|&pcf| run_with_network(net.clone(), pcf, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trained_lenet_learns_and_skipping_tracks_it() {
        let cfg = TrainedAccuracyConfig {
            train_size: 300,
            test_size: 40,
            epochs: 5,
            samples: 6,
            ..Default::default()
        };
        let results = run(&[0.68], &cfg);
        let r = &results[0];
        assert!(
            r.deterministic_accuracy > 0.6,
            "trained accuracy {} too low",
            r.deterministic_accuracy
        );
        assert!(
            r.exact_bcnn_accuracy > 0.6,
            "exact BCNN accuracy {}",
            r.exact_bcnn_accuracy
        );
        assert!(
            r.accuracy_loss.abs() < 0.15,
            "skipping lost too much accuracy: {}",
            r.accuracy_loss
        );
    }
}
