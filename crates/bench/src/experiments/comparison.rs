//! Fig. 11 — Fast-BCNN-64 against Cnvlutin, the ideal case and the FB-d /
//! FB-u ablations.

use crate::experiments::ExpConfig;
use fast_bcnn::{
    synth_input, BaselineSim, CnvlutinSim, Engine, EngineConfig, FastBcnnSim, HwConfig, IdealSim,
    SkipMode,
};
use fbcnn_nn::models::ModelKind;
use serde::{Deserialize, Serialize};

/// One design's normalized results in the Fig. 11 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonPoint {
    /// Design name.
    pub design: String,
    /// Cycles normalized to the baseline.
    pub normalized_cycles: f64,
    /// Energy normalized to the baseline.
    pub normalized_energy: f64,
    /// Cycle reduction vs baseline.
    pub cycle_reduction: f64,
    /// Energy reduction vs baseline.
    pub energy_reduction: f64,
}

/// The Fig. 11 panel for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// The model's Bayesian name.
    pub model: String,
    /// baseline, cnvlutin, FB-64-d, FB-64-u, FB-64, ideal — in that order.
    pub points: Vec<ComparisonPoint>,
    /// FB-64's speedup over Cnvlutin (the paper reports 1.9× average).
    pub fb_vs_cnvlutin_speedup: f64,
    /// FB-64's energy reduction relative to Cnvlutin (paper: 34 %).
    pub fb_vs_cnvlutin_energy_reduction: f64,
    /// The performance gap between FB-64 and the ideal case (paper:
    /// 11.3 % average).
    pub gap_to_ideal: f64,
}

/// Runs the Fig. 11 comparison for one network.
pub fn run_model(kind: ModelKind, cfg: &ExpConfig) -> ComparisonResult {
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
    let fb64 = HwConfig::fast_bcnn(64);
    let runs = [
        base.clone(),
        CnvlutinSim::new().run(&w),
        FastBcnnSim::new(fb64, SkipMode::DroppedOnly).run(&w),
        FastBcnnSim::new(fb64, SkipMode::UnaffectedOnly).run(&w),
        FastBcnnSim::new(fb64, SkipMode::Both).run(&w),
        IdealSim::new(fb64).run(&w),
    ];

    let points: Vec<ComparisonPoint> = runs
        .iter()
        .map(|r| ComparisonPoint {
            design: r.name.clone(),
            normalized_cycles: r.normalized_cycles() / base.normalized_cycles(),
            normalized_energy: r.energy.total() / base.energy.total(),
            cycle_reduction: r.cycle_reduction_vs(&base),
            energy_reduction: r.energy_reduction_vs(&base),
        })
        .collect();

    let cnv = &runs[1];
    let fb = &runs[4];
    let ideal = &runs[5];
    ComparisonResult {
        model: kind.bayesian_name().to_string(),
        points,
        fb_vs_cnvlutin_speedup: fb.speedup_over(cnv),
        fb_vs_cnvlutin_energy_reduction: fb.energy_reduction_vs(cnv),
        gap_to_ideal: 1.0 - ideal.normalized_cycles() / fb.normalized_cycles(),
    }
}

/// Runs the Fig. 11 comparison for all three networks.
pub fn run(cfg: &ExpConfig) -> Vec<ComparisonResult> {
    ModelKind::ALL.iter().map(|&k| run_model(k, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_match_the_paper() {
        let r = run_model(ModelKind::LeNet5, &ExpConfig::quick());
        assert_eq!(r.points.len(), 6);
        let by_name = |n: &str| {
            r.points
                .iter()
                .find(|p| p.design == n)
                .unwrap_or_else(|| panic!("missing design {n}"))
        };
        let base = by_name("baseline");
        let cnv = by_name("cnvlutin");
        let fb = by_name("FB-64");
        let ideal = by_name("ideal");
        assert!((base.normalized_cycles - 1.0).abs() < 1e-9);
        // Who wins: ideal <= FB-64 <= cnvlutin <= baseline.
        assert!(ideal.normalized_cycles <= fb.normalized_cycles + 1e-9);
        assert!(fb.normalized_cycles < cnv.normalized_cycles);
        assert!(cnv.normalized_cycles <= base.normalized_cycles + 1e-9);
        assert!(r.fb_vs_cnvlutin_speedup > 1.0);
        assert!((0.0..1.0).contains(&r.gap_to_ideal));
    }

    #[test]
    fn single_mode_reductions_exceed_combined() {
        // Fig. 11's sub-additivity observation: reduction(FB-d) +
        // reduction(FB-u) >= reduction(FB) because of overlap.
        let r = run_model(ModelKind::LeNet5, &ExpConfig::quick());
        let red = |n: &str| {
            r.points
                .iter()
                .find(|p| p.design == n)
                .unwrap()
                .cycle_reduction
        };
        assert!(red("FB-64-d") + red("FB-64-u") >= red("FB-64") - 0.02);
    }
}
