//! The metric catalogue and the per-workload record every run produces.
//!
//! `BENCHMARK.json` at the repository root lists the `EndToEnd` and
//! `Layer` entries of [`CATALOGUE`]; a unit test keeps the two in step.
//! `Unlisted` metrics are printed and recorded but carry no committed
//! bound: tail percentiles swing more from run to run on a
//! shared 2-CPU host than any bound the benchmark may set, serving-tier
//! and per-conv-layer numbers exist on only some workloads, and the
//! error, degradation and quality figures are checks the run enforces.

use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported by every untraced run; bounded in `BENCHMARK.json`.
    EndToEnd,
    /// Reported by every profile run; listed in `BENCHMARK.json`.
    Layer,
    /// Printed and recorded only.
    Unlisted,
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Spec {
    Spec {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{EndToEnd, Layer, Unlisted};

/// Every fixed-name metric. Per-conv-layer metrics (`nn.<L>.dense_us`,
/// `predictor.<L>.count_us`, `predictor.<L>.skip_frac`,
/// `accel.<L>.cycles`) are named at run time from the layer labels.
pub const CATALOGUE: &[Spec] = &[
    spec("setup_s", "s", Lower, EndToEnd),
    spec("throughput_rps", "req/s", Higher, EndToEnd),
    spec("latency_p50_ms", "ms", Lower, EndToEnd),
    spec("peak_rss_mb", "MB", Lower, EndToEnd),
    spec("latency_p90_ms", "ms", Lower, Unlisted),
    spec("latency_p99_ms", "ms", Lower, Unlisted),
    spec("error_rate", "share", Lower, Unlisted),
    spec("degraded_rate", "share", Lower, Unlisted),
    spec("top1_agree", "share", Higher, Unlisted),
    spec("mean_l1", "l1", Lower, Unlisted),
    spec("engine.shared_build_ms", "ms", Lower, Layer),
    spec("engine.preinference_ms", "ms", Lower, Layer),
    spec("engine.canary_ms", "ms", Lower, Layer),
    spec("engine.samples_per_req", "count", Lower, Layer),
    spec("bayes.mask_gen_us", "us", Lower, Layer),
    spec("bayes.dense_sample_ms", "ms", Lower, Layer),
    spec("nn.conv_dense_ms", "ms", Lower, Layer),
    spec("predictor.sample_ms", "ms", Lower, Layer),
    spec("predictor.skip_maps_ms", "ms", Lower, Layer),
    spec("predictor.count_ms", "ms", Lower, Layer),
    spec("predictor.conv_ms", "ms", Lower, Layer),
    spec("predictor.skip_vs_dense", "ratio", Lower, Layer),
    spec("predictor.skip_rate", "share", Higher, Layer),
    spec("predictor.mac_skip_frac", "share", Higher, Layer),
    spec("accel.speedup_vs_baseline", "ratio", Higher, Layer),
    spec("serve.codec_us", "us", Lower, Layer),
    spec("engine.fallback_samples_per_req", "count", Lower, Unlisted),
    spec("trace.coverage", "ratio", Higher, Unlisted),
    spec("batch.cache_hit_rate", "share", Higher, Unlisted),
    spec("registry.handle_ms", "ms", Lower, Unlisted),
    spec("registry.shard_share_max", "share", Lower, Unlisted),
    spec("resilience.attempts_per_req", "count", Lower, Unlisted),
    spec("serve.overhead_ms", "ms", Lower, Unlisted),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
    pub kind: Kind,
}

impl Metric {
    /// A catalogue metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`CATALOGUE`] — a bug in this file.
    pub fn of(name: &str, value: f64) -> Self {
        let s = CATALOGUE
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        Self {
            name: name.to_string(),
            value,
            unit: s.unit.to_string(),
            better: s.better,
            kind: s.kind,
        }
    }

    /// A per-conv-layer profile metric.
    pub fn layer(name: String, value: f64, unit: &str, better: Better) -> Self {
        Self {
            name,
            value,
            unit: unit.to_string(),
            better,
            kind: Unlisted,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every output mean, in request order.
    pub digest: Option<String>,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

fn str_of(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn uint(v: u64) -> Value {
    Value::UInt(v)
}

impl Record {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::of(name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The full record, as `--json` files and `compare` hold it.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), str_of(&m.unit)),
                    ("better".to_string(), str_of(m.better.name())),
                ];
                (m.name.clone(), Value::Map(body))
            })
            .collect();
        Value::Map(vec![
            ("workload".to_string(), str_of(&self.workload)),
            ("seed".to_string(), uint(self.seed)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), uint(self.attempted)),
            ("failed".to_string(), uint(self.failed)),
            (
                "digest".to_string(),
                self.digest.as_deref().map_or(Value::Null, str_of),
            ),
            (
                "problems".to_string(),
                Value::Array(self.problems.iter().map(|p| str_of(p)).collect()),
            ),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }

    /// The one-line result: the committed end-to-end metrics for an
    /// untraced run, the committed per-layer metrics for a profile.
    pub fn result_line(&self) -> String {
        let wanted = if self.trace { Layer } else { EndToEnd };
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.kind == wanted)
            .map(|m| {
                let body = vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), str_of(&m.unit)),
                ];
                (m.name.clone(), Value::Map(body))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), uint(self.attempted)),
            ("failed".to_string(), uint(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("the value model always prints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let map = v.as_map().expect("object");
        &map.iter().find(|(k, _)| k == key).expect(key).1
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_committed_metrics() {
        let bench: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (section, kind) in [("end_to_end", EndToEnd), ("per_layer", Layer)] {
            let listed: Vec<(String, String, String)> = field(&bench, section)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        text(field(m, "name")).to_string(),
                        text(field(m, "unit")).to_string(),
                        text(field(m, "better")).to_string(),
                    )
                })
                .collect();
            let catalogue: Vec<(String, String, String)> = CATALOGUE
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.name.into(), s.unit.into(), s.better.name().into()))
                .collect();
            assert_eq!(listed, catalogue, "{section} drifted from the catalogue");
        }
        let names: Vec<&str> = field(&bench, "workloads")
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
