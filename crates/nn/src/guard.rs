//! Numeric health checks for forward-pass activations.
//!
//! Soft errors (bit flips in weights or activations), poisoned inputs and
//! runaway arithmetic all surface the same way in a CNN: a `NaN`, an
//! infinity, or an absurdly large activation somewhere in the layer
//! outputs — and once produced, the corruption propagates silently to the
//! logits and from there into every MC-dropout statistic. An
//! [`ActivationGuard`] screens each node's output tensor and either
//! reports the fault as a typed error or repairs it in place, depending
//! on its [`GuardPolicy`].

use fbcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a guard does when a tensor fails its health check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardPolicy {
    /// Abort the pass with a [`NumericFault`] — strict mode for callers
    /// that must never consume repaired values.
    Fail,
    /// Repair in place: `NaN` becomes `0`, infinities and over-limit
    /// values clamp to `±max_abs`. The pass continues on the repaired
    /// tensor and the caller learns how many values were touched.
    Saturate,
    /// Report the fault like [`GuardPolicy::Fail`]; higher layers (the
    /// engine's robust pipeline) interpret it as "abandon this fast-path
    /// sample and recompute it exactly".
    FallbackExact,
}

/// A typed numeric-health violation found in a node's output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NumericFault {
    /// A `NaN` or infinity at `index` of node `node`'s output.
    NotFinite {
        /// Graph node id where the value was produced.
        node: usize,
        /// Linear index of the first offending value.
        index: usize,
    },
    /// A finite activation whose magnitude exceeds the guard's limit.
    Explosion {
        /// Graph node id where the value was produced.
        node: usize,
        /// Linear index of the first offending value.
        index: usize,
        /// The offending value.
        value: f32,
    },
}

impl GuardPolicy {
    /// Stable lowercase policy name — the `policy` telemetry label.
    pub fn name(&self) -> &'static str {
        match self {
            GuardPolicy::Fail => "fail",
            GuardPolicy::Saturate => "saturate",
            GuardPolicy::FallbackExact => "fallback_exact",
        }
    }
}

impl NumericFault {
    /// Stable fault-kind name — the `kind` telemetry label.
    pub fn kind(&self) -> &'static str {
        match self {
            NumericFault::NotFinite { .. } => "not_finite",
            NumericFault::Explosion { .. } => "explosion",
        }
    }
}

impl fmt::Display for NumericFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericFault::NotFinite { node, index } => {
                write!(f, "non-finite activation at node {node}, index {index}")
            }
            NumericFault::Explosion { node, index, value } => {
                write!(
                    f,
                    "exploding activation {value:e} at node {node}, index {index}"
                )
            }
        }
    }
}

impl std::error::Error for NumericFault {}

/// Per-layer activation health check: every value must be finite and
/// within `±max_abs`.
///
/// # Examples
///
/// ```
/// use fbcnn_nn::{ActivationGuard, GuardPolicy};
/// use fbcnn_tensor::{Shape, Tensor};
///
/// let mut t = Tensor::full(Shape::flat(4), 1.0);
/// t.set(2, f32::NAN);
/// let strict = ActivationGuard::strict();
/// assert!(strict.screen(0, &mut t).is_err());
/// let lenient = ActivationGuard {
///     policy: GuardPolicy::Saturate,
///     ..ActivationGuard::default()
/// };
/// assert_eq!(lenient.screen(0, &mut t), Ok(1)); // NaN repaired to 0
/// assert_eq!(t.at(2), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationGuard {
    /// Largest activation magnitude considered healthy. Anything above is
    /// an [`NumericFault::Explosion`] (or is clamped under
    /// [`GuardPolicy::Saturate`]).
    pub max_abs: f32,
    /// What to do on a violation.
    pub policy: GuardPolicy,
}

impl Default for ActivationGuard {
    fn default() -> Self {
        Self {
            // Healthy activations in this workspace sit well below 1e3;
            // 1e12 flags genuine blow-ups without ever tripping on the
            // models' working range.
            max_abs: 1e12,
            policy: GuardPolicy::FallbackExact,
        }
    }
}

impl ActivationGuard {
    /// A guard that fails hard on any violation.
    pub fn strict() -> Self {
        Self {
            policy: GuardPolicy::Fail,
            ..Self::default()
        }
    }

    /// Scans `t` for the first unhealthy value, without modifying it.
    pub fn find_fault(&self, node: usize, t: &Tensor) -> Option<NumericFault> {
        for (index, &v) in t.iter().enumerate() {
            if !v.is_finite() {
                return Some(NumericFault::NotFinite { node, index });
            }
            if v.abs() > self.max_abs {
                return Some(NumericFault::Explosion {
                    node,
                    index,
                    value: v,
                });
            }
        }
        None
    }

    /// Checks (and under [`GuardPolicy::Saturate`] repairs) a node output.
    ///
    /// Returns the number of repaired values — always `0` for the
    /// non-repairing policies.
    ///
    /// Every violation increments the `guard_trips` telemetry counter
    /// (labels: fault kind, policy); repairs additionally feed
    /// `guard_repaired_values`.
    ///
    /// # Errors
    ///
    /// Returns the first [`NumericFault`] found when the policy is
    /// [`GuardPolicy::Fail`] or [`GuardPolicy::FallbackExact`].
    pub fn screen(&self, node: usize, t: &mut Tensor) -> Result<usize, NumericFault> {
        match self.policy {
            GuardPolicy::Fail | GuardPolicy::FallbackExact => match self.find_fault(node, t) {
                Some(fault) => {
                    fbcnn_telemetry::counter_add(
                        "guard_trips",
                        &[("kind", fault.kind()), ("policy", self.policy.name())],
                        1,
                    );
                    Err(fault)
                }
                None => Ok(0),
            },
            GuardPolicy::Saturate => {
                let max = self.max_abs;
                let mut repaired = 0usize;
                for v in t.as_mut_slice() {
                    if v.is_nan() {
                        *v = 0.0;
                        repaired += 1;
                    } else if *v > max {
                        *v = max;
                        repaired += 1;
                    } else if *v < -max {
                        *v = -max;
                        repaired += 1;
                    }
                }
                if repaired > 0 {
                    fbcnn_telemetry::counter_add(
                        "guard_trips",
                        &[("kind", "repaired"), ("policy", self.policy.name())],
                        1,
                    );
                    fbcnn_telemetry::counter_add("guard_repaired_values", &[], repaired as u64);
                }
                Ok(repaired)
            }
        }
    }

    /// Checks a probability row: finite, within `[0, 1]`, and summing to
    /// one (softmax output). Used by the inference layers to validate
    /// per-sample rows before they enter the predictive mean.
    pub fn probs_are_sane(probs: &[f32]) -> bool {
        !probs.is_empty()
            && probs
                .iter()
                .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
            && (probs.iter().sum::<f32>() - 1.0).abs() < 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_tensor::Shape;

    fn tensor(vals: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), vals.to_vec())
    }

    #[test]
    fn healthy_tensor_passes_every_policy() {
        for policy in [
            GuardPolicy::Fail,
            GuardPolicy::Saturate,
            GuardPolicy::FallbackExact,
        ] {
            let guard = ActivationGuard {
                policy,
                ..ActivationGuard::default()
            };
            let mut t = tensor(&[0.0, -3.5, 1e6]);
            assert_eq!(guard.screen(7, &mut t), Ok(0));
            assert_eq!(t, tensor(&[0.0, -3.5, 1e6]));
        }
    }

    #[test]
    fn nan_and_inf_are_detected_with_location() {
        let guard = ActivationGuard::strict();
        let mut t = tensor(&[1.0, f32::NAN, 2.0]);
        assert_eq!(
            guard.screen(3, &mut t),
            Err(NumericFault::NotFinite { node: 3, index: 1 })
        );
        let mut t = tensor(&[f32::INFINITY]);
        assert_eq!(
            guard.screen(0, &mut t),
            Err(NumericFault::NotFinite { node: 0, index: 0 })
        );
    }

    #[test]
    fn explosion_reports_the_value() {
        let guard = ActivationGuard {
            max_abs: 10.0,
            policy: GuardPolicy::Fail,
        };
        let mut t = tensor(&[1.0, -11.0]);
        match guard.screen(2, &mut t) {
            Err(NumericFault::Explosion {
                node: 2,
                index: 1,
                value,
            }) => {
                assert_eq!(value, -11.0);
            }
            other => panic!("unexpected screen outcome {other:?}"),
        }
    }

    #[test]
    fn saturate_repairs_in_place_and_counts() {
        let guard = ActivationGuard {
            max_abs: 10.0,
            policy: GuardPolicy::Saturate,
        };
        let mut t = tensor(&[f32::NAN, 20.0, -f32::INFINITY, 3.0]);
        assert_eq!(guard.screen(0, &mut t), Ok(3));
        assert_eq!(t, tensor(&[0.0, 10.0, -10.0, 3.0]));
    }

    #[test]
    fn fallback_policy_reports_like_fail() {
        let guard = ActivationGuard {
            policy: GuardPolicy::FallbackExact,
            ..ActivationGuard::default()
        };
        let mut t = tensor(&[f32::NAN]);
        assert!(matches!(
            guard.screen(1, &mut t),
            Err(NumericFault::NotFinite { node: 1, index: 0 })
        ));
        assert!(t.at(0).is_nan(), "fallback must not modify the tensor");
    }

    #[test]
    fn probability_sanity() {
        assert!(ActivationGuard::probs_are_sane(&[0.25, 0.75]));
        assert!(!ActivationGuard::probs_are_sane(&[]));
        assert!(!ActivationGuard::probs_are_sane(&[0.5, f32::NAN]));
        assert!(!ActivationGuard::probs_are_sane(&[0.9, 0.9]));
        assert!(!ActivationGuard::probs_are_sane(&[1.5, -0.5]));
    }

    #[test]
    fn screen_violations_feed_telemetry() {
        let registry = std::sync::Arc::new(fbcnn_telemetry::Registry::new());
        let _telemetry = fbcnn_telemetry::install(registry.clone());
        let strict = ActivationGuard::strict();
        let mut t = tensor(&[f32::NAN]);
        let _ = strict.screen(0, &mut t);
        assert_eq!(
            registry.counter_value("guard_trips", &[("kind", "not_finite"), ("policy", "fail")]),
            Some(1)
        );
        let lenient = ActivationGuard {
            max_abs: 10.0,
            policy: GuardPolicy::Saturate,
        };
        let mut t = tensor(&[f32::NAN, 20.0, 1.0]);
        assert_eq!(lenient.screen(0, &mut t), Ok(2));
        assert_eq!(registry.counter_total("guard_repaired_values"), 2);
        assert_eq!(
            registry.counter_value(
                "guard_trips",
                &[("kind", "repaired"), ("policy", "saturate")]
            ),
            Some(1)
        );
    }

    #[test]
    fn display_messages_are_informative() {
        let a = NumericFault::NotFinite { node: 4, index: 9 };
        assert!(a.to_string().contains("node 4"));
        let b = NumericFault::Explosion {
            node: 1,
            index: 0,
            value: 1e30,
        };
        assert!(b.to_string().contains("exploding"));
    }
}
