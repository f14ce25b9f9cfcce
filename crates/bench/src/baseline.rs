//! Baseline regression diffing for bench records.
//!
//! `bench_check --baseline <file>` compares the *headline ratios* of a
//! freshly produced record against a committed baseline and fails on a
//! regression beyond [`DEFAULT_TOLERANCE`] or on a floored ratio the
//! record no longer reports. Ratios are dimensionless
//! speedups, so they compare meaningfully across hosts in a way raw
//! nanosecond timings never would.
//!
//! The walk is schema-agnostic: every numeric entry of a `headline`
//! map (the [`crate::BenchRecord`] shape, e.g.
//! `headline.speedup[batch_size=8]`) and any numeric field named
//! `speedup`, `speedup_fast` or `speedup_parallel` anywhere in the JSON
//! tree is a headline ratio, keyed by its path (array elements carrying
//! a `batch_size` field are keyed by it). This covers both the
//! schema-tagged records and the schema-less `BENCH_hotpath.json`
//! (`conv.speedup_fast`, …) without binding the checker to either
//! shape.

use serde::Value;
use std::collections::BTreeMap;

/// Relative regression tolerated before the diff fails: the current
/// ratio must stay at or above `baseline × (1 - tolerance)`.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Field names treated as headline ratios.
const RATIO_FIELDS: [&str; 3] = ["speedup", "speedup_fast", "speedup_parallel"];

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn walk(v: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Map(m) => {
            for (k, child) in m {
                let child_path = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                if let (true, Some(ratios)) = (k == "headline", child.as_map()) {
                    for (name, x) in ratios {
                        if let Some(x) = as_number(x) {
                            out.insert(format!("{child_path}.{name}"), x);
                        }
                    }
                    continue;
                }
                if RATIO_FIELDS.contains(&k.as_str()) {
                    if let Some(x) = as_number(child) {
                        out.insert(child_path, x);
                        continue;
                    }
                }
                walk(child, &child_path, out);
            }
        }
        Value::Array(a) => {
            for (i, child) in a.iter().enumerate() {
                let key = child
                    .as_map()
                    .and_then(|m| m.iter().find(|(k, _)| k == "batch_size"))
                    .and_then(|(_, size)| as_number(size))
                    .map(|b| format!("{path}[batch_size={b}]"))
                    .unwrap_or_else(|| format!("{path}[{i}]"));
                walk(child, &key, out);
            }
        }
        _ => {}
    }
}

/// Every headline ratio in a parsed bench record, keyed by JSON path.
pub fn headline_ratios(record: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(record, "", &mut out);
    out
}

/// One compared ratio of a baseline diff.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioDiff {
    /// JSON path of the ratio.
    pub key: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
}

impl RatioDiff {
    /// Relative change, `+` for improvement.
    pub fn relative_change(&self) -> f64 {
        if self.baseline == 0.0 {
            0.0
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// Diffs the headline ratios of `current` against `baseline`, failing on
/// the first ratio that regressed by more than `tolerance` (relative) or
/// that the baseline floors but `current` no longer reports — deleting a
/// kernel must not silently drop its floor. A `null` baseline entry is
/// not a ratio, so it sets no floor; ratios only `current` reports are
/// ignored.
///
/// # Errors
///
/// Returns a message naming the regressed or vanished ratio (or the
/// absence of any comparable one).
pub fn diff_ratios(
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<Vec<RatioDiff>, String> {
    let current = headline_ratios(current);
    let baseline = headline_ratios(baseline);
    let mut compared = Vec::new();
    let mut vanished = None;
    for (key, &base) in &baseline {
        let Some(&now) = current.get(key) else {
            vanished.get_or_insert((key, base));
            continue;
        };
        let diff = RatioDiff {
            key: key.clone(),
            baseline: base,
            current: now,
        };
        if now < base * (1.0 - tolerance) {
            return Err(format!(
                "{key} regressed {:.1}%: baseline {base:.3}x, current {now:.3}x \
                 (tolerance {:.0}%)",
                -diff.relative_change() * 100.0,
                tolerance * 100.0
            ));
        }
        compared.push(diff);
    }
    if compared.is_empty() {
        return Err(
            "the records share no headline ratios (speedup/speedup_fast/speedup_parallel)"
                .to_string(),
        );
    }
    if let Some((key, base)) = vanished {
        return Err(format!(
            "{key} vanished: the baseline floors it at {base:.3}x but the current record \
             does not report it (set it to null in the baseline to drop the floor)"
        ));
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn ratios_are_keyed_by_path_and_batch_size() {
        let v = parse(
            r#"{"conv": {"speedup_fast": 3.5, "speedup_parallel": 5.0},
                "points": [{"batch_size": 8, "speedup": 1.7},
                           {"batch_size": 1, "speedup": 1.0}],
                "seed": 7, "note": "speedup"}"#,
        );
        let ratios = headline_ratios(&v);
        assert_eq!(ratios.get("conv.speedup_fast"), Some(&3.5));
        assert_eq!(ratios.get("conv.speedup_parallel"), Some(&5.0));
        assert_eq!(ratios.get("points[batch_size=8].speedup"), Some(&1.7));
        assert_eq!(ratios.get("points[batch_size=1].speedup"), Some(&1.0));
        // A *string* field named like a ratio is not a ratio.
        assert_eq!(ratios.len(), 4);
    }

    #[test]
    fn every_headline_entry_is_a_ratio() {
        let v = parse(r#"{"headline": {"speedup[batch_size=8]": 1.7, "speedup": 0.75}}"#);
        let ratios = headline_ratios(&v);
        assert_eq!(ratios.get("headline.speedup[batch_size=8]"), Some(&1.7));
        assert_eq!(ratios.get("headline.speedup"), Some(&0.75));
        assert_eq!(ratios.len(), 2);
    }

    #[test]
    fn within_tolerance_passes_and_reports() {
        let base = parse(r#"{"conv": {"speedup_fast": 4.0}}"#);
        let now = parse(r#"{"conv": {"speedup_fast": 3.5}}"#);
        let compared = diff_ratios(&now, &base, 0.15).unwrap();
        assert_eq!(compared.len(), 1);
        assert!(compared[0].relative_change() < 0.0);
    }

    #[test]
    fn a_regression_past_tolerance_fails_naming_the_key() {
        let base = parse(r#"{"conv": {"speedup_fast": 4.0}}"#);
        let now = parse(r#"{"conv": {"speedup_fast": 3.0}}"#);
        let err = diff_ratios(&now, &base, 0.15).unwrap_err();
        assert!(err.contains("conv.speedup_fast"), "unhelpful: {err}");
        assert!(err.contains("regressed"), "unhelpful: {err}");
    }

    #[test]
    fn improvements_always_pass() {
        let base = parse(r#"{"points": [{"batch_size": 8, "speedup": 1.5}]}"#);
        let now = parse(r#"{"points": [{"batch_size": 8, "speedup": 2.5}]}"#);
        assert!(diff_ratios(&now, &base, 0.15).is_ok());
    }

    #[test]
    fn disjoint_records_are_an_error() {
        let base = parse(r#"{"conv": {"speedup_fast": 4.0}}"#);
        let now = parse(r#"{"points": []}"#);
        assert!(diff_ratios(&now, &base, 0.15)
            .unwrap_err()
            .contains("share no headline ratios"));
    }

    #[test]
    fn a_ratio_missing_from_the_current_record_fails_naming_it() {
        let base = parse(r#"{"conv": {"speedup_fast": 4.0, "speedup_parallel": 9.0}}"#);
        for now in [
            r#"{"conv": {"speedup_fast": 4.0}}"#,
            r#"{"conv": {"speedup_fast": 4.0, "speedup_parallel": null}}"#,
        ] {
            let err = diff_ratios(&parse(now), &base, 0.15).unwrap_err();
            assert!(err.contains("conv.speedup_parallel"), "unhelpful: {err}");
            assert!(err.contains("vanished"), "unhelpful: {err}");
        }
    }

    #[test]
    fn null_baseline_entries_and_current_only_ratios_set_no_floor() {
        let base = parse(r#"{"conv": {"speedup_fast": 4.0, "speedup_parallel": null}}"#);
        let now = parse(r#"{"conv": {"speedup_fast": 4.0}, "mc": {"speedup_fast": 2.0}}"#);
        let compared = diff_ratios(&now, &base, 0.15).unwrap();
        assert_eq!(compared.len(), 1);
        assert_eq!(compared[0].key, "conv.speedup_fast");
    }
}
