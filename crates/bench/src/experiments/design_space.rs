//! Fig. 10 — performance, energy and accuracy across the FB-8…FB-64
//! design space, per network.

use crate::experiments::ExpConfig;
use fast_bcnn::{
    synth_input, BaselineSim, Engine, EngineConfig, FastBcnnSim, HwConfig, PredictiveInference,
    SkipMode,
};
use fbcnn_nn::models::ModelKind;
use fbcnn_predictor::PreparedInput;
use fbcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One design point's results (one bar of Fig. 10 a–c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Design name (`"FB-8"` … `"FB-64"`).
    pub design: String,
    /// Cycles normalized to the baseline (lower is better).
    pub normalized_cycles: f64,
    /// Energy normalized to the baseline.
    pub normalized_energy: f64,
    /// Speedup over the baseline.
    pub speedup: f64,
    /// Cycle reduction vs the baseline.
    pub cycle_reduction: f64,
    /// Energy reduction vs the baseline.
    pub energy_reduction: f64,
    /// Prediction-unit share of this design's energy.
    pub prediction_energy_share: f64,
    /// Central-predictor share of this design's energy.
    pub central_energy_share: f64,
}

/// Fig. 10 panel for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpaceResult {
    /// The model's Bayesian name.
    pub model: String,
    /// Results per design point.
    pub points: Vec<DesignPoint>,
    /// Accuracy loss of the skipping inference (class-disagreement rate
    /// between exact and skipping MC-dropout over a batch of inputs).
    /// Design-point independent: prediction depends only on thresholds.
    pub accuracy_loss: f64,
    /// Mean absolute probability shift of the final averaged prediction.
    pub mean_prob_shift: f64,
    /// Overall skip rate of the workload.
    pub skip_rate: f64,
}

/// Measures accuracy loss: *material* class disagreement between exact
/// and skipping MC-dropout under common random masks, over a batch of
/// synthetic inputs.
///
/// A disagreement counts only when the exact run genuinely preferred its
/// class: on near-uniform outputs (synthetic-weight VGG/GoogLeNet produce
/// ties at the 1e-6 level), an argmax flip between statistically equal
/// classes is measurement noise, not lost accuracy. The trained-model
/// experiment (`experiments::accuracy`) provides the real classification
/// metric.
pub fn accuracy_loss(engine: &Engine, cfg: &ExpConfig) -> (f64, f64) {
    let mut disagreements = 0usize;
    let mut prob_shift = 0.0f64;
    for i in 0..cfg.accuracy_inputs {
        let input = synth_input(
            engine.network().input_shape(),
            cfg.seed ^ (0xACC0 + i as u64),
        );
        let exact = exact_prediction(engine, &input, cfg.accuracy_samples);
        let fast = fast_prediction(engine, &input, cfg.accuracy_samples);
        let margin = exact.mean[exact.class] - exact.mean[fast.class];
        if exact.class != fast.class && margin > 1e-3 {
            disagreements += 1;
        }
        prob_shift += exact
            .mean
            .iter()
            .zip(&fast.mean)
            .map(|(a, b)| (a - b).abs() as f64)
            .sum::<f64>()
            / exact.mean.len() as f64;
    }
    (
        disagreements as f64 / cfg.accuracy_inputs as f64,
        prob_shift / cfg.accuracy_inputs as f64,
    )
}

fn exact_prediction(engine: &Engine, input: &Tensor, t: usize) -> fast_bcnn::Prediction {
    let seed = engine.config().seed;
    let request = fast_bcnn::McRequest { input, seed };
    fast_bcnn::McDropout::expect_complete(fast_bcnn::McDropout::new(t, seed).run_batch(
        engine.bayesian_network(),
        &[request],
        engine.config().threads,
    ))
}

fn fast_prediction(engine: &Engine, input: &Tensor, t: usize) -> fast_bcnn::Prediction {
    let bnet = engine.bayesian_network();
    let (probs, _) = PredictiveInference::from_parts(
        bnet,
        Arc::new(engine.predictor_shared()),
        Arc::new(PreparedInput::new(bnet, input)),
    )
    .run_mc(engine.config().seed, t);
    fast_bcnn::McDropout::summarize(probs)
}

/// Runs the Fig. 10 sweep for one network.
pub fn run_model(kind: ModelKind, cfg: &ExpConfig) -> DesignSpaceResult {
    let engine = Engine::new(EngineConfig {
        model: kind,
        scale: cfg.scale,
        drop_rate: cfg.drop_rate,
        samples: cfg.t,
        confidence: cfg.confidence,
        seed: cfg.seed,
        threads: cfg.threads,
        ..EngineConfig::for_model(kind)
    });
    let input = synth_input(engine.network().input_shape(), cfg.seed ^ 0x10AD);
    let workload = engine.workload(&input);
    let base = BaselineSim::new(HwConfig::baseline()).run(&workload);

    let points = HwConfig::design_space()
        .iter()
        .map(|&hw| {
            let r = FastBcnnSim::new(hw, SkipMode::Both).run(&workload);
            DesignPoint {
                design: hw.name(),
                normalized_cycles: r.normalized_cycles() / base.normalized_cycles(),
                normalized_energy: r.energy.total() / base.energy.total(),
                speedup: r.speedup_over(&base),
                cycle_reduction: r.cycle_reduction_vs(&base),
                energy_reduction: r.energy_reduction_vs(&base),
                prediction_energy_share: r.energy.prediction_share(),
                central_energy_share: r.energy.central_share(),
            }
        })
        .collect();

    let (accuracy_loss, mean_prob_shift) = accuracy_loss(&engine, cfg);
    DesignSpaceResult {
        model: kind.bayesian_name().to_string(),
        points,
        accuracy_loss,
        mean_prob_shift,
        skip_rate: workload.total_skip_stats().skip_rate(),
    }
}

/// Runs the full Fig. 10 sweep over all three networks.
pub fn run(cfg: &ExpConfig) -> Vec<DesignSpaceResult> {
    ModelKind::ALL.iter().map(|&k| run_model(k, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_sweep_has_expected_shape() {
        let r = run_model(ModelKind::LeNet5, &ExpConfig::quick());
        assert_eq!(r.points.len(), 4);
        for p in &r.points {
            assert!(
                p.speedup > 1.0,
                "{} did not beat baseline ({:.2}x)",
                p.design,
                p.speedup
            );
            assert!((0.0..1.0).contains(&p.cycle_reduction));
            assert!(p.normalized_cycles < 1.0);
        }
        assert!((0.0..=1.0).contains(&r.accuracy_loss));
        assert!(r.skip_rate > 0.2);
    }

    #[test]
    fn accuracy_loss_is_small_at_default_confidence() {
        let r = run_model(ModelKind::LeNet5, &ExpConfig::quick());
        // The paper restricts loss to ~0.3-1.4%; at quick scale allow more
        // slack, but most classes must agree.
        assert!(r.accuracy_loss <= 0.5, "accuracy loss {}", r.accuracy_loss);
    }
}
