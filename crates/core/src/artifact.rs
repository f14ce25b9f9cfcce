//! Versioned model artifacts: the complete serving state of an
//! [`Engine`] — network topology + weights, calibrated skip thresholds,
//! weight-polarity indicator maps and the engine configuration — in one
//! `core::io` envelope, fit to ship between machines and deploy into a
//! [`crate::ModelRegistry`].
//!
//! The format is defensive by construction, because a bad artifact must
//! never poison inference:
//!
//! * the envelope layer ([`crate::io`]) rejects truncated, corrupted,
//!   stale and mislabeled files with typed [`IoError`]s;
//! * a content digest over the payload's value tree catches corruption
//!   that still parses as valid JSON (a bit flip inside a number);
//! * [`ModelArtifact::validate`] re-runs the structural screens
//!   ([`EngineConfig::validate`], `ThresholdSet::validate`), recomputes
//!   the indicator maps from the shipped weights, and numerically
//!   screens a probe forward pass with an [`ActivationGuard`].
//!
//! Every failure is a typed [`ArtifactError`]; nothing in this module
//! panics on untrusted input. Value-level threshold poisoning that is
//! structurally valid (e.g. saturated thresholds) is deliberately left
//! to the serving layer's canary check — see `docs/REGISTRY.md`.

use crate::engine::{Engine, EngineConfig};
use crate::error::EngineError;
use crate::io::{self, IoError};
use crate::synth_input;
use fbcnn_nn::{ActivationGuard, Network, NumericFault};
use fbcnn_predictor::{PolarityIndicators, ThresholdError, ThresholdSet};
use fbcnn_tensor::hash::Fnv1a;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Errors from exporting, loading or validating a [`ModelArtifact`].
///
/// Each variant names the screen that refused the artifact, so fault
/// campaigns can assert the *class* of rejection, not just "it failed".
#[derive(Debug)]
pub enum ArtifactError {
    /// The file layer refused the artifact: filesystem failure, payload
    /// parse failure, or a corrupt / truncated / stale / mislabeled
    /// envelope (see [`IoError`] for the precise sub-kind).
    Io(IoError),
    /// The payload parsed but its content digest does not match the one
    /// recorded at export time — bytes changed in flight.
    Digest {
        /// Digest recorded in the artifact.
        stored: u64,
        /// Digest recomputed from the loaded payload.
        computed: u64,
    },
    /// The embedded engine configuration is outside its legal ranges.
    Config(EngineError),
    /// The threshold set does not fit the shipped network (wrong node
    /// coverage or kernel counts — a shape mismatch).
    Thresholds(ThresholdError),
    /// The shipped indicator maps disagree with maps recomputed from the
    /// shipped weights — the artifact mixes weights and indicators from
    /// different models.
    IndicatorMismatch {
        /// Explanation of the first disagreement found.
        reason: String,
    },
    /// A probe forward pass through the shipped weights produced a
    /// non-finite or exploding activation.
    Numeric(NumericFault),
    /// The artifact's model version is not newer than the version it
    /// would replace (returned by the registry's deploy gate).
    StaleVersion {
        /// Version offered for deployment.
        offered: u64,
        /// Version currently active.
        active: u64,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact file rejected: {e}"),
            ArtifactError::Digest { stored, computed } => write!(
                f,
                "artifact content digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ArtifactError::Config(e) => write!(f, "artifact engine config invalid: {e}"),
            ArtifactError::Thresholds(e) => {
                write!(f, "artifact thresholds do not fit the network: {e}")
            }
            ArtifactError::IndicatorMismatch { reason } => {
                write!(
                    f,
                    "artifact indicator maps inconsistent with weights: {reason}"
                )
            }
            ArtifactError::Numeric(fault) => {
                write!(f, "artifact weights fail the numeric screen: {fault}")
            }
            ArtifactError::StaleVersion { offered, active } => write!(
                f,
                "artifact model version {offered} is not newer than active version {active}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<IoError> for ArtifactError {
    fn from(e: IoError) -> Self {
        ArtifactError::Io(e)
    }
}

/// The complete, self-validating serving state of one model version.
///
/// Construct with [`ModelArtifact::from_engine`], persist with
/// [`ModelArtifact::save`], and recover a serving engine with
/// [`ModelArtifact::load`] + [`ModelArtifact::into_engine`]. The loaded
/// engine is bit-identical to the exporter's: thresholds are shipped, not
/// recalibrated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Monotonic model version (the registry's rollout unit). Distinct
    /// from the envelope's format version, which tracks the *schema*.
    pub model_version: u64,
    /// Free-form human label ("lenet5-retrain-2026-08").
    pub label: String,
    /// FNV-1a digest over the value trees of `config`, `network`,
    /// `thresholds` and `indicators`, in that order.
    pub digest: u64,
    /// Engine configuration the model was calibrated under.
    pub config: EngineConfig,
    /// Network topology and weights.
    pub network: Network,
    /// Calibrated per-kernel skip thresholds (Algorithm 1 output).
    pub thresholds: ThresholdSet,
    /// Weight-polarity indicator bitmaps, precomputed from the weights.
    pub indicators: PolarityIndicators,
}

impl ModelArtifact {
    /// Snapshots `engine` as a versioned artifact. The digest is
    /// computed here; [`ModelArtifact::validate`] will hold by
    /// construction.
    pub fn from_engine(engine: &Engine, model_version: u64, label: impl Into<String>) -> Self {
        let network = engine.network().clone();
        let indicators = PolarityIndicators::from_network(&network);
        let mut artifact = Self {
            model_version,
            label: label.into(),
            digest: 0,
            config: *engine.config(),
            network,
            thresholds: engine.thresholds().clone(),
            indicators,
        };
        artifact.digest = artifact.content_digest();
        artifact
    }

    /// The FNV-1a digest of the artifact's content (everything except
    /// `model_version`, `label` and the stored digest itself), computed
    /// over the serde value trees so it is independent of JSON
    /// formatting.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        digest_value(&serde::Serialize::to_value(&self.config), &mut h);
        digest_value(&serde::Serialize::to_value(&self.network), &mut h);
        digest_value(&serde::Serialize::to_value(&self.thresholds), &mut h);
        digest_value(&serde::Serialize::to_value(&self.indicators), &mut h);
        h.finish()
    }

    /// Runs every load-time screen: digest, config ranges, threshold
    /// structure, indicator consistency, and a numeric probe pass.
    ///
    /// # Errors
    ///
    /// The first failing screen's [`ArtifactError`] variant.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        let computed = self.content_digest();
        if computed != self.digest {
            return Err(ArtifactError::Digest {
                stored: self.digest,
                computed,
            });
        }
        self.config.validate().map_err(ArtifactError::Config)?;
        self.thresholds
            .validate(&self.network)
            .map_err(ArtifactError::Thresholds)?;
        let recomputed = PolarityIndicators::from_network(&self.network);
        if recomputed != self.indicators {
            return Err(ArtifactError::IndicatorMismatch {
                reason: "recomputed polarity maps differ from the shipped maps".into(),
            });
        }
        // Numeric screen: one deterministic probe input through the
        // shipped weights; NaN/Inf/exploding weights surface here instead
        // of mid-serving.
        let probe = synth_input(self.network.input_shape(), self.config.seed ^ 0xA47E);
        let guard = ActivationGuard::default();
        for (node, activation) in self.network.forward_full(&probe).iter().enumerate() {
            if let Some(fault) = guard.find_fault(node, activation) {
                return Err(ArtifactError::Numeric(fault));
            }
        }
        Ok(())
    }

    /// Writes the artifact under the `core::io` envelope (kind
    /// [`io::MODEL_KIND`]).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem or serialization failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        io::save(path, io::MODEL_KIND, self)?;
        Ok(())
    }

    /// Loads and fully validates an artifact written by
    /// [`ModelArtifact::save`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] for anything the envelope/payload layer
    /// rejects, then whatever [`ModelArtifact::validate`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let artifact = Self::load_unvalidated(path)?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Loads without running [`ModelArtifact::validate`] — for tools that
    /// inspect damaged artifacts. Serving code must use
    /// [`ModelArtifact::load`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on file, envelope or payload failure.
    pub fn load_unvalidated(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Ok(io::load(path, io::MODEL_KIND)?)
    }

    /// Builds the serving engine from the artifact, without
    /// recalibration (bit-identical to the exporter's engine).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Config`] when the configuration or thresholds
    /// are rejected by [`Engine::from_calibrated`].
    pub fn into_engine(self) -> Result<Engine, ArtifactError> {
        Engine::from_calibrated(self.config, self.network, self.thresholds)
            .map_err(ArtifactError::Config)
    }
}

/// Folds one serde value tree into an FNV-1a state. Each variant mixes a
/// distinct tag byte so `0` and `"0"` and `[]` cannot collide.
fn digest_value(v: &serde::Value, h: &mut Fnv1a) {
    match v {
        serde::Value::Null => h.write(&[0]),
        serde::Value::Bool(b) => h.write(&[1, u8::from(*b)]),
        serde::Value::Int(i) => {
            h.write(&[2]);
            h.write(&i.to_le_bytes());
        }
        serde::Value::UInt(u) => {
            // An integer digests the same whether it arrived signed or
            // unsigned (the JSON layer picks per magnitude).
            h.write(&[2]);
            h.write(&(*u as i64).to_le_bytes());
        }
        serde::Value::Float(x) => {
            h.write(&[4]);
            h.write_u64(x.to_bits());
        }
        serde::Value::Str(s) => {
            h.write(&[5]);
            h.write_u64(s.len() as u64);
            h.write(s.as_bytes());
        }
        serde::Value::Array(items) => {
            h.write(&[6]);
            h.write_u64(items.len() as u64);
            for item in items {
                digest_value(item, h);
            }
        }
        serde::Value::Map(entries) => {
            h.write(&[7]);
            h.write_u64(entries.len() as u64);
            for (key, value) in entries {
                h.write(key.as_bytes());
                digest_value(value, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_nn::models::ModelKind;

    fn tiny_engine(seed: u64) -> Engine {
        Engine::new(EngineConfig {
            samples: 3,
            calibration_samples: 2,
            seed,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    }

    #[test]
    fn digest_detects_value_level_corruption() {
        let engine = tiny_engine(5);
        let mut artifact = ModelArtifact::from_engine(&engine, 1, "unit");
        // A "parsed fine, value changed" corruption: nudge one weight
        // after the digest was recorded.
        for (_, layer) in artifact.network.layers_mut() {
            if let fbcnn_nn::Layer::Conv(conv) = layer {
                conv.weights_mut()[0] += 0.25;
                break;
            }
        }
        match artifact.validate() {
            Err(ArtifactError::Digest { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected digest mismatch, got {other:?}"),
        }
    }

    #[test]
    fn version_and_label_do_not_change_the_digest() {
        let engine = tiny_engine(5);
        let a = ModelArtifact::from_engine(&engine, 1, "first");
        let b = ModelArtifact::from_engine(&engine, 2, "second");
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn mismatched_indicators_are_rejected() {
        let engine_a = tiny_engine(5);
        let engine_b = tiny_engine(6);
        let mut artifact = ModelArtifact::from_engine(&engine_a, 1, "unit");
        artifact.indicators = PolarityIndicators::from_network(engine_b.network());
        artifact.digest = artifact.content_digest(); // digest screen passes
        assert!(matches!(
            artifact.validate(),
            Err(ArtifactError::IndicatorMismatch { .. })
        ));
    }

    #[test]
    fn nan_weights_fail_the_numeric_screen() {
        let engine = tiny_engine(5);
        let mut artifact = ModelArtifact::from_engine(&engine, 1, "unit");
        for (_, layer) in artifact.network.layers_mut() {
            if let fbcnn_nn::Layer::Conv(conv) = layer {
                conv.weights_mut()[0] = f32::NAN;
                break;
            }
        }
        // Keep the digest and indicators consistent so the *numeric*
        // screen is the one that must catch the poisoned weight.
        artifact.indicators = PolarityIndicators::from_network(&artifact.network);
        artifact.digest = artifact.content_digest();
        assert!(matches!(
            artifact.validate(),
            Err(ArtifactError::Numeric(_))
        ));
    }

    #[test]
    fn bad_config_is_rejected_typed() {
        let engine = tiny_engine(5);
        let mut artifact = ModelArtifact::from_engine(&engine, 1, "unit");
        artifact.config.samples = 0;
        artifact.digest = artifact.content_digest();
        assert!(matches!(artifact.validate(), Err(ArtifactError::Config(_))));
    }
}
