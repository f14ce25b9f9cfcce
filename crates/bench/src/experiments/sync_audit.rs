//! Eq. 8 / Eq. 9 synchronization audit: for every layer transition, does
//! the prediction unit finish counting before the convolution unit needs
//! the bits, and what lane multiple δ (Eq. 9) would the transition
//! require?

use crate::experiments::ExpConfig;
use fast_bcnn::{synth_input, Engine, EngineConfig, FastBcnnSim, HwConfig, SkipMode};
use fbcnn_nn::models::ModelKind;
use fbcnn_tensor::stats::ceil_div;
use serde::{Deserialize, Serialize};

/// One layer transition's synchronization data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionAudit {
    /// The executing layer.
    pub current: String,
    /// The layer whose prediction bits are being counted.
    pub next: String,
    /// The Eq. 9 lane factor δ this transition requires at the measured
    /// skip rate: `δ = M'·R'·C'·K'² / (K²·⌈N/Tn⌉·Tn·R·C·(1−s))`.
    pub delta_required: f64,
    /// Whether the per-transition Eq. 8 condition holds with the
    /// provisioned `4·Tn` lanes.
    pub eq8_holds: bool,
}

/// The audit of one model on one design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncAuditResult {
    /// The model's Bayesian name.
    pub model: String,
    /// Design point.
    pub design: String,
    /// Measured overall skip rate used in the Eq. 8 right-hand side.
    pub skip_rate: f64,
    /// Per-transition rows.
    pub transitions: Vec<TransitionAudit>,
    /// Fraction of transitions satisfying Eq. 8 per-transition; the
    /// cumulative pipeline model absorbs the rest (see
    /// `FastBcnnSim::run`).
    pub eq8_pass_rate: f64,
}

/// Audits one model on FB-`tm`.
pub fn run_model(kind: ModelKind, tm: usize, cfg: &ExpConfig) -> SyncAuditResult {
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
    let skip_rate = w.total_skip_stats().skip_rate();
    let hw = HwConfig::fast_bcnn(tm);
    let sim = FastBcnnSim::new(hw, SkipMode::Both);

    let mut transitions = Vec::new();
    for pair in w.layers.windows(2) {
        let (current, next) = (&pair[0], &pair[1]);
        if !next.upstream_dropout {
            continue;
        }
        let conv_per_channel = (current.k * current.k) as f64
            * ceil_div(current.n, hw.tn()) as f64
            * current.out_shape.plane() as f64
            * (1.0 - skip_rate);
        let count_work = (next.k * next.k * next.m) as f64 * next.out_shape.plane() as f64;
        // Lanes needed so counting one channel's bits fits the channel's
        // convolution time: lanes = count_work / conv_per_channel, and
        // δ = lanes / Tn.
        let delta_required = count_work / conv_per_channel / hw.tn() as f64;
        transitions.push(TransitionAudit {
            current: current.label.clone(),
            next: next.label.clone(),
            delta_required,
            eq8_holds: sim.sync_ok(current, next, skip_rate),
        });
    }
    let pass = transitions.iter().filter(|t| t.eq8_holds).count();
    let eq8_pass_rate = if transitions.is_empty() {
        1.0
    } else {
        pass as f64 / transitions.len() as f64
    };
    SyncAuditResult {
        model: kind.bayesian_name().to_string(),
        design: hw.name(),
        skip_rate,
        transitions,
        eq8_pass_rate,
    }
}

/// Audits all three models on FB-64.
pub fn run(cfg: &ExpConfig) -> Vec<SyncAuditResult> {
    ModelKind::ALL
        .iter()
        .map(|&k| run_model(k, 64, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_reports_plausible_deltas() {
        let r = run_model(ModelKind::LeNet5, 64, &ExpConfig::quick());
        assert!(!r.transitions.is_empty());
        for t in &r.transitions {
            assert!(t.delta_required > 0.0 && t.delta_required.is_finite());
        }
        assert!((0.0..=1.0).contains(&r.eq8_pass_rate));
    }

    #[test]
    fn eq8_flag_matches_delta_threshold() {
        // Eq. 8 holds exactly when the provisioned δ = 4 covers the
        // requirement (up to the ceil in the lane count).
        let r = run_model(ModelKind::Vgg16, 64, &ExpConfig::quick());
        for t in &r.transitions {
            if t.delta_required < 3.5 {
                assert!(
                    t.eq8_holds,
                    "{} -> {}: δ {}",
                    t.current, t.next, t.delta_required
                );
            }
            if t.delta_required > 4.8 {
                assert!(
                    !t.eq8_holds,
                    "{} -> {}: δ {}",
                    t.current, t.next, t.delta_required
                );
            }
        }
    }
}
