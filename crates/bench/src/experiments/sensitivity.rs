//! Fig. 12 — sensitivity to the confidence level `p_cf` (a) and to the
//! drop rate `p` (b).

use crate::experiments::{design_space, ExpConfig};
use fast_bcnn::{synth_input, BaselineSim, Engine, EngineConfig, FastBcnnSim, HwConfig, SkipMode};
use fbcnn_nn::models::ModelKind;
use serde::{Deserialize, Serialize};

/// One point of the Fig. 12(a) confidence sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidencePoint {
    /// The confidence level `p_cf`.
    pub confidence: f64,
    /// Accuracy loss (class disagreement vs exact MC-dropout).
    pub accuracy_loss: f64,
    /// Mean absolute probability shift.
    pub mean_prob_shift: f64,
    /// Cycle reduction of FB-64 vs the baseline.
    pub cycle_reduction: f64,
    /// Overall skip rate.
    pub skip_rate: f64,
}

/// One point of the Fig. 12(b) drop-rate sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DropRatePoint {
    /// The model's Bayesian name.
    pub model: String,
    /// The drop rate `p`.
    pub drop_rate: f64,
    /// FB-64 speedup over the baseline.
    pub speedup: f64,
}

/// Runs the Fig. 12(a) sweep (B-VGG16 in the paper) on FB-64.
pub fn confidence_sweep(
    kind: ModelKind,
    confidences: &[f64],
    cfg: &ExpConfig,
) -> Vec<ConfidencePoint> {
    confidences
        .iter()
        .map(|&pcf| {
            let engine = Engine::new(EngineConfig {
                model: kind,
                scale: cfg.scale,
                drop_rate: cfg.drop_rate,
                samples: cfg.t,
                confidence: pcf,
                seed: cfg.seed,
                ..EngineConfig::for_model(kind)
            });
            let input = synth_input(engine.network().input_shape(), cfg.seed ^ 0x10AD);
            let w = engine.workload(&input);
            let base = BaselineSim::new(HwConfig::baseline()).run(&w);
            let fb = FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both).run(&w);
            let (accuracy_loss, mean_prob_shift) = design_space::accuracy_loss(&engine, cfg);
            ConfidencePoint {
                confidence: pcf,
                accuracy_loss,
                mean_prob_shift,
                cycle_reduction: fb.cycle_reduction_vs(&base),
                skip_rate: w.total_skip_stats().skip_rate(),
            }
        })
        .collect()
}

/// Runs the Fig. 12(b) sweep: FB-64 speedup at each drop rate per model.
pub fn drop_rate_sweep(rates: &[f64], cfg: &ExpConfig) -> Vec<DropRatePoint> {
    let mut out = Vec::new();
    for &kind in &ModelKind::ALL {
        for &p in rates {
            let engine = Engine::new(EngineConfig {
                model: kind,
                scale: cfg.scale,
                drop_rate: p,
                samples: cfg.t,
                confidence: cfg.confidence,
                seed: cfg.seed,
                ..EngineConfig::for_model(kind)
            });
            let input = synth_input(engine.network().input_shape(), cfg.seed ^ 0x10AD);
            let w = engine.workload(&input);
            let base = BaselineSim::new(HwConfig::baseline()).run(&w);
            let fb = FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both).run(&w);
            out.push(DropRatePoint {
                model: kind.bayesian_name().to_string(),
                drop_rate: p,
                speedup: fb.speedup_over(&base),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stricter_confidence_reduces_skipping() {
        let points = confidence_sweep(ModelKind::LeNet5, &[0.60, 0.90], &ExpConfig::quick());
        assert_eq!(points.len(), 2);
        assert!(
            points[0].skip_rate >= points[1].skip_rate - 1e-9,
            "loose {} vs strict {}",
            points[0].skip_rate,
            points[1].skip_rate
        );
        assert!(points[0].cycle_reduction >= points[1].cycle_reduction - 0.02);
    }

    #[test]
    fn higher_drop_rate_speeds_up() {
        let cfg = ExpConfig::quick();
        let pts: Vec<DropRatePoint> = drop_rate_sweep(&[0.2, 0.5], &cfg)
            .into_iter()
            .filter(|p| p.model == "B-LeNet-5")
            .collect();
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].speedup >= pts[0].speedup - 0.05,
            "p=0.5 ({:.2}x) should not be slower than p=0.2 ({:.2}x)",
            pts[1].speedup,
            pts[0].speedup
        );
        assert!(pts.iter().all(|p| p.speedup > 1.0));
    }
}
