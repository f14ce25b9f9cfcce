//! §III motivation — the cost of a complete BCNN inference (T = 50
//! samples) relative to a single CNN inference on skip-oblivious
//! hardware.

use crate::experiments::ExpConfig;
use fast_bcnn::{synth_input, BaselineSim, Engine, EngineConfig, HwConfig};
use fbcnn_nn::models::ModelKind;
use serde::{Deserialize, Serialize};

/// The BCNN-vs-CNN cost on a skip-oblivious accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotivationResult {
    /// The model's Bayesian name.
    pub model: String,
    /// MC-dropout samples `T`.
    pub t: usize,
    /// Cycles of one deterministic CNN inference.
    pub cnn_cycles: u64,
    /// Cycles of the complete BCNN inference (T stochastic passes).
    pub bcnn_cycles: u64,
    /// The slowdown factor (the paper observes ~50.6× on a CNN
    /// accelerator and ~51× on a P100 at T = 50).
    pub slowdown: f64,
    /// The energy ratio.
    pub energy_ratio: f64,
}

/// Measures the BCNN-vs-CNN cost for one model on the baseline
/// accelerator.
pub fn run_model(kind: ModelKind, cfg: &ExpConfig) -> MotivationResult {
    let engine = Engine::new(EngineConfig {
        model: kind,
        scale: cfg.scale,
        drop_rate: cfg.drop_rate,
        samples: cfg.t,
        seed: cfg.seed,
        ..EngineConfig::for_model(kind)
    });
    let input = synth_input(engine.network().input_shape(), cfg.seed ^ 0x10AD);
    let w = engine.workload(&input);
    let sim = BaselineSim::new(HwConfig::baseline());
    let bcnn = sim.run(&w);
    let cnn_cycles = bcnn.total_cycles / cfg.t as u64;
    MotivationResult {
        model: kind.bayesian_name().to_string(),
        t: cfg.t,
        cnn_cycles,
        bcnn_cycles: bcnn.total_cycles,
        slowdown: bcnn.total_cycles as f64 / cnn_cycles as f64,
        energy_ratio: cfg.t as f64, // energy scales with identical passes
    }
}

/// Runs the motivation measurement for all three models.
pub fn run(cfg: &ExpConfig) -> Vec<MotivationResult> {
    ModelKind::ALL.iter().map(|&k| run_model(k, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_equals_sample_count() {
        let mut cfg = ExpConfig::quick();
        cfg.t = 5;
        let r = run_model(ModelKind::LeNet5, &cfg);
        assert!((r.slowdown - 5.0).abs() < 1e-9);
        assert_eq!(r.bcnn_cycles, 5 * r.cnn_cycles);
    }
}
