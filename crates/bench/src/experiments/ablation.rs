//! Design-choice ablations beyond the paper's FB-d / FB-u split:
//!
//! * **counting-lane provisioning** — Eq. 9 sizes the prediction unit at
//!   `δ·Tn` lanes with δ = 4 in Table I while the analysis says the
//!   demand is 4–8; sweeping δ shows where under-provisioning stalls the
//!   pipeline and where extra lanes stop paying;
//! * **calibration tolerance** — the substitution knob documented in
//!   DESIGN.md §3b: how the admitted flip tolerance trades skip rate
//!   against prediction exactness.

use crate::experiments::ExpConfig;
use fast_bcnn::{
    synth_input, BaselineSim, BayesianNetwork, Engine, EngineConfig, FastBcnnSim, HwConfig,
    SkipMode, ThresholdOptimizer, Workload,
};
use fbcnn_nn::models::ModelKind;
use serde::{Deserialize, Serialize};

/// One lane-provisioning point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LanePoint {
    /// Lane factor δ (lanes = δ·Tn).
    pub delta: usize,
    /// Counting lanes per PE.
    pub lanes: usize,
    /// Cycle reduction vs the baseline.
    pub cycle_reduction: f64,
    /// Total prediction-stall cycles.
    pub stall_cycles: u64,
    /// Prediction-unit share of energy.
    pub prediction_energy_share: f64,
}

/// The δ sweep for one model on FB-`tm`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneAblation {
    /// The model's Bayesian name.
    pub model: String,
    /// PE count.
    pub tm: usize,
    /// Sweep points.
    pub points: Vec<LanePoint>,
}

/// Sweeps the counting-lane factor δ for one model.
pub fn lane_sweep(kind: ModelKind, tm: usize, deltas: &[usize], cfg: &ExpConfig) -> LaneAblation {
    let engine = Engine::new(EngineConfig {
        model: kind,
        scale: cfg.scale,
        drop_rate: cfg.drop_rate,
        samples: cfg.t,
        confidence: cfg.confidence,
        seed: cfg.seed,
        ..EngineConfig::for_model(kind)
    });
    let input = synth_input(engine.network().input_shape(), cfg.seed ^ 0x10AD);
    let w = engine.workload(&input);
    let base = BaselineSim::new(HwConfig::baseline()).run(&w);
    let points = deltas
        .iter()
        .map(|&delta| {
            let hw = HwConfig::fast_bcnn(tm).with_lane_factor(delta);
            let r = FastBcnnSim::new(hw, SkipMode::Both).run(&w);
            LanePoint {
                delta,
                lanes: hw.counting_lanes(),
                cycle_reduction: r.cycle_reduction_vs(&base),
                stall_cycles: r.total_stall(),
                prediction_energy_share: r.energy.prediction_share(),
            }
        })
        .collect();
    LaneAblation {
        model: kind.bayesian_name().to_string(),
        tm,
        points,
    }
}

/// One calibration-tolerance point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TolerancePoint {
    /// The relative tolerance used in Algorithm 1's ground truth.
    pub tolerance: f32,
    /// Overall skip rate achieved.
    pub skip_rate: f64,
    /// FB-64 cycle reduction vs baseline.
    pub cycle_reduction: f64,
}

/// Sweeps the calibration tolerance for one model.
pub fn tolerance_sweep(
    kind: ModelKind,
    tolerances: &[f32],
    cfg: &ExpConfig,
) -> Vec<TolerancePoint> {
    let net = kind.build_scaled(cfg.seed, cfg.scale);
    let bnet = BayesianNetwork::new(net, cfg.drop_rate);
    let input = synth_input(bnet.network().input_shape(), cfg.seed ^ 0x10AD);
    tolerances
        .iter()
        .map(|&tol| {
            let thresholds = ThresholdOptimizer {
                confidence: cfg.confidence,
                affected_tolerance: tol,
                ..ThresholdOptimizer::default()
            }
            .optimize(&bnet, &input, cfg.seed ^ 0x7E57);
            let w = Workload::build(&bnet, &input, &thresholds, cfg.t, cfg.seed);
            let base = BaselineSim::new(HwConfig::baseline()).run(&w);
            let fb = FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both).run(&w);
            TolerancePoint {
                tolerance: tol,
                skip_rate: w.total_skip_stats().skip_rate(),
                cycle_reduction: fb.cycle_reduction_vs(&base),
            }
        })
        .collect()
}

/// The int8-quantization ablation: does the skipping machinery survive
/// fixed-point weights? (The paper stays in fp32; this is its natural
/// future-work experiment.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantAblation {
    /// The model's Bayesian name.
    pub model: String,
    /// Fraction of weight-polarity indicator bits unchanged by
    /// quantization (the prediction unit's input).
    pub polarity_stability: f64,
    /// Skip rate with the original fp32 weights.
    pub skip_rate_fp32: f64,
    /// Skip rate with int8-quantized weights (thresholds recalibrated).
    pub skip_rate_int8: f64,
    /// FB-64 cycle reduction with fp32 weights.
    pub cycle_reduction_fp32: f64,
    /// FB-64 cycle reduction with int8 weights.
    pub cycle_reduction_int8: f64,
}

/// Runs the quantization ablation for one model.
pub fn quantization(kind: ModelKind, cfg: &ExpConfig) -> QuantAblation {
    let original = kind.build_scaled(cfg.seed, cfg.scale);
    let quantized = fbcnn_nn::quant::quantize_network(&original);
    let polarity_stability = fbcnn_nn::quant::polarity_stability(&original, &quantized);

    let measure = |net: fbcnn_nn::Network| {
        let bnet = BayesianNetwork::new(net, cfg.drop_rate);
        let input = synth_input(bnet.network().input_shape(), cfg.seed ^ 0x10AD);
        let thresholds = ThresholdOptimizer {
            confidence: cfg.confidence,
            ..ThresholdOptimizer::default()
        }
        .optimize(&bnet, &input, cfg.seed ^ 0x7E57);
        let w = Workload::build(&bnet, &input, &thresholds, cfg.t, cfg.seed);
        let base = BaselineSim::new(HwConfig::baseline()).run(&w);
        let fb = FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both).run(&w);
        (
            w.total_skip_stats().skip_rate(),
            fb.cycle_reduction_vs(&base),
        )
    };
    let (skip_rate_fp32, cycle_reduction_fp32) = measure(original);
    let (skip_rate_int8, cycle_reduction_int8) = measure(quantized);
    QuantAblation {
        model: kind.bayesian_name().to_string(),
        polarity_stability,
        skip_rate_fp32,
        skip_rate_int8,
        cycle_reduction_fp32,
        cycle_reduction_int8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_preserves_the_skipping_opportunity() {
        let q = quantization(ModelKind::LeNet5, &ExpConfig::quick());
        assert!(q.polarity_stability > 0.99);
        assert!(
            (q.skip_rate_int8 - q.skip_rate_fp32).abs() < 0.1,
            "skip rate moved too much: {} vs {}",
            q.skip_rate_fp32,
            q.skip_rate_int8
        );
        assert!(q.cycle_reduction_int8 > 0.0);
    }

    #[test]
    fn more_lanes_never_hurt() {
        let r = lane_sweep(ModelKind::LeNet5, 64, &[1, 4, 8], &ExpConfig::quick());
        assert_eq!(r.points.len(), 3);
        for pair in r.points.windows(2) {
            assert!(
                pair[1].cycle_reduction >= pair[0].cycle_reduction - 1e-9,
                "extra lanes reduced performance: {:?}",
                pair
            );
            assert!(pair[1].stall_cycles <= pair[0].stall_cycles);
        }
    }

    #[test]
    fn tolerance_grows_skipping() {
        let pts = tolerance_sweep(ModelKind::LeNet5, &[0.0, 0.5], &ExpConfig::quick());
        assert!(pts[1].skip_rate >= pts[0].skip_rate - 1e-9);
    }
}
