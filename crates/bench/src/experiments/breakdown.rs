//! Per-layer cycle breakdown — the paper's layer-level discussion in
//! §VI-B1: B-LeNet-5's first layer enjoys the biggest boost (~8.2×, from
//! the shortcut), B-VGG16's advantage diminishes into the deeper /
//! heavier layers, and B-GoogLeNet's three inception groups accelerate
//! almost evenly.

use crate::experiments::ExpConfig;
use fast_bcnn::{synth_input, BaselineSim, Engine, EngineConfig, FastBcnnSim, HwConfig, SkipMode};
use fbcnn_nn::models::ModelKind;
use serde::{Deserialize, Serialize};

/// One layer's baseline-vs-Fast-BCNN cycle accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerBreakdown {
    /// Layer label.
    pub layer: String,
    /// Baseline cycles attributed to the layer (all samples).
    pub baseline_cycles: u64,
    /// Fast-BCNN cycles attributed to the layer.
    pub fast_cycles: u64,
    /// The layer's speedup.
    pub speedup: f64,
    /// Share of the baseline's total conv cycles this layer represents.
    pub baseline_share: f64,
    /// Prediction-unit stall cycles charged to this layer.
    pub stall_cycles: u64,
}

/// The per-layer breakdown of one model on one design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownResult {
    /// The model's Bayesian name.
    pub model: String,
    /// Design point name.
    pub design: String,
    /// Layer rows in execution order.
    pub layers: Vec<LayerBreakdown>,
}

/// Computes the per-layer breakdown for one model on FB-`tm`.
pub fn run_model(kind: ModelKind, tm: usize, cfg: &ExpConfig) -> BreakdownResult {
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
    let fast = FastBcnnSim::new(HwConfig::fast_bcnn(tm), SkipMode::Both).run(&w);
    let total_base: u64 = base.layers.iter().map(|l| l.cycles).sum();
    let layers = base
        .layers
        .iter()
        .zip(&fast.layers)
        .map(|(b, f)| LayerBreakdown {
            layer: b.label.clone(),
            baseline_cycles: b.cycles,
            fast_cycles: f.cycles,
            speedup: b.cycles as f64 / f.cycles.max(1) as f64,
            baseline_share: b.cycles as f64 / total_base as f64,
            stall_cycles: f.stall_cycles,
        })
        .collect();
    BreakdownResult {
        model: kind.bayesian_name().to_string(),
        design: HwConfig::fast_bcnn(tm).name(),
        layers,
    }
}

/// Runs the breakdown for all three models on FB-64.
pub fn run(cfg: &ExpConfig) -> Vec<BreakdownResult> {
    ModelKind::ALL
        .iter()
        .map(|&k| run_model(k, 64, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_first_layer_gets_the_biggest_boost() {
        let r = run_model(ModelKind::LeNet5, 64, &ExpConfig::quick());
        assert_eq!(r.layers.len(), 3);
        let conv1 = &r.layers[0];
        // The shortcut makes layer 1 the headline winner (paper: ~8.2x).
        assert!(
            conv1.speedup >= r.layers[1].speedup,
            "conv1 {}x vs conv2 {}x",
            conv1.speedup,
            r.layers[1].speedup
        );
        assert!(conv1.speedup > 2.0, "conv1 speedup {}", conv1.speedup);
        // LeNet's first layer dominates the baseline cycle budget.
        assert!(
            conv1.baseline_share > 0.5,
            "conv1 share {}",
            conv1.baseline_share
        );
    }

    #[test]
    fn shares_sum_to_one() {
        let r = run_model(ModelKind::LeNet5, 64, &ExpConfig::quick());
        let sum: f64 = r.layers.iter().map(|l| l.baseline_share).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
