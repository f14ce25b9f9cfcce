//! Experiment drivers — one per table/figure of the paper's evaluation.
//!
//! Every driver returns a serializable result record; the `fbcnn-bench`
//! crate's binaries print them as text tables and dump JSON next to
//! `EXPERIMENTS.md`. The mapping to the paper:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`characterization`] | Fig. 3 / Fig. 4 (zero / unaffected / affected neurons) |
//! | [`design_space`] | Fig. 10 (cycles, energy, accuracy across FB-8…FB-64) |
//! | [`comparison`] | Fig. 11 (FB-64 vs Cnvlutin vs ideal vs FB-d / FB-u) |
//! | [`sensitivity`] | Fig. 12(a) confidence sweep, Fig. 12(b) drop-rate sweep |
//! | [`tables`] | Table I (design space), Table II (resources), Table III (BRNG) |
//! | [`sync_audit`] | Eq. 8/9 counting-lane synchronization analysis |
//! | [`breakdown`] | §VI-B1 per-layer cycle breakdown (first-layer boost) |
//! | [`motivation`] | §III BCNN-vs-CNN slowdown arithmetic |
//! | [`accuracy`] | trained-LeNet accuracy deltas (SynthDigits substitution) |
//! | [`ablation`] | counting-lane (Eq. 9 δ) and calibration-tolerance ablations |

pub mod ablation;
pub mod accuracy;
pub mod breakdown;
pub mod characterization;
pub mod comparison;
pub mod design_space;
pub mod motivation;
pub mod sensitivity;
pub mod sync_audit;
pub mod tables;

use fbcnn_nn::models::ModelScale;

/// Shared experiment sizing knobs.
///
/// The defaults reproduce the paper's protocol (T = 50, drop rate 0.3,
/// `p_cf` = 68 %) at full model scale; [`ExpConfig::quick`] shrinks
/// everything for tests, and the harness binaries accept `--quick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// MC-dropout samples `T`.
    pub t: usize,
    /// Model scaling for the two large networks.
    pub scale: ModelScale,
    /// Drop rate `p`.
    pub drop_rate: f64,
    /// Confidence level `p_cf`.
    pub confidence: f64,
    /// Inputs used for accuracy-style measurements.
    pub accuracy_inputs: usize,
    /// Samples per input for accuracy-style measurements.
    pub accuracy_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for exact MC-dropout passes (1 = sequential;
    /// results are identical either way, see
    /// `fbcnn_bayes::McDropout::run_batch`).
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            t: 50,
            scale: ModelScale::FULL,
            drop_rate: 0.3,
            confidence: 0.68,
            accuracy_inputs: 4,
            accuracy_samples: 8,
            seed: 0xFB_C0DE,
            threads: 1,
        }
    }
}

impl ExpConfig {
    /// A small configuration for unit/integration tests.
    pub fn quick() -> Self {
        Self {
            t: 4,
            scale: ModelScale::TINY,
            accuracy_inputs: 2,
            accuracy_samples: 4,
            ..Self::default()
        }
    }
}
