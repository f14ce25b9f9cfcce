//! `e2e compare <A.json>... -- <B.json>...`: set A (say, the parent
//! commit's runs) against set B, per (workload, metric) pair.
//!
//! A metric's bound comes from `BENCHMARK.json` (`--benchmark <path>`,
//! default `./BENCHMARK.json`); metrics it does not bound — counts,
//! quality, tail percentiles, per-layer numbers — get bound 0, so for
//! them only identical sets read `same`. The verdict follows the
//! repository's measurement rule: when either set's spread (quartile
//! distance over median) exceeds the bound, the pair is `unresolved`
//! unless every run of one set beats every run of the other.

use crate::record::Better;
use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `x` as a share of `m`, treating 0 of 0 as no change.
fn share(x: f64, m: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x / m.abs()
    }
}

/// Set B against set A for a metric where `better` is the good
/// direction and `bound` the tolerated relative worsening.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = share(sign * (bm - am), am);
    let spread = share(a3 - a1, am).max(share(b3 - b1, bm));
    let fold = |f: fn(f64, f64) -> f64, v: &[f64], init| v.iter().copied().fold(init, f);
    let (a_lo, a_hi) = (
        fold(f64::min, a, f64::INFINITY),
        fold(f64::max, a, f64::NEG_INFINITY),
    );
    let (b_lo, b_hi) = (
        fold(f64::min, b, f64::INFINITY),
        fold(f64::max, b, f64::NEG_INFINITY),
    );
    let (b_all_better, b_all_worse) = match better {
        Better::Lower => (b_hi < a_lo, b_lo > a_hi),
        Better::Higher => (b_lo > a_hi, b_hi < a_lo),
    };
    if spread > bound {
        if b_all_better {
            Verdict::Better
        } else if b_all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `metric -> bound` of every end-to-end metric `BENCHMARK.json` lists.
fn bounds(bench: &Value) -> Result<BTreeMap<String, f64>, String> {
    let list = field(bench, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = text(m, "name").ok_or("end_to_end metric without a name")?;
            let bound = field(m, "bound")
                .and_then(number)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

#[derive(Default)]
struct Pair {
    a: Vec<f64>,
    b: Vec<f64>,
    unit: String,
    better: Option<Better>,
}

/// Runs `compare`; `Ok(true)` when no pair reads `worse`.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut sets: [Vec<&str>; 2] = [Vec::new(), Vec::new()];
    let mut bench_path = "BENCHMARK.json";
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" if side == 0 => side = 1,
            "--benchmark" => bench_path = it.next().ok_or("--benchmark needs a path")?,
            flag if flag.starts_with("--") => return Err(format!("unknown compare flag {flag}")),
            file => sets[side].push(file),
        }
    }
    if sets.iter().any(Vec::is_empty) {
        return Err("compare needs record files on both sides of --".into());
    }
    let bounds = bounds(&load(bench_path)?)?;

    let mut pairs: BTreeMap<(String, String), Pair> = BTreeMap::new();
    let mut digests: BTreeMap<String, [Vec<String>; 2]> = BTreeMap::new();
    for (side, files) in sets.iter().enumerate() {
        for file in files {
            let value = load(file)?;
            let records = match &value {
                Value::Array(v) => v.as_slice(),
                single => std::slice::from_ref(single),
            };
            for rec in records {
                let workload =
                    text(rec, "workload").ok_or(format!("{file}: record without workload"))?;
                if let Some(d) = text(rec, "digest") {
                    let attempted = field(rec, "attempted").and_then(number).unwrap_or(0.0);
                    digests.entry(workload.to_string()).or_default()[side]
                        .push(format!("{d}/{attempted}"));
                }
                let metrics = field(rec, "metrics")
                    .and_then(Value::as_map)
                    .ok_or(format!("{file}: record without metrics"))?;
                for (name, m) in metrics {
                    let value = field(m, "value")
                        .and_then(number)
                        .ok_or(format!("{file}: {name} has no value"))?;
                    let pair = pairs
                        .entry((workload.to_string(), name.clone()))
                        .or_default();
                    pair.unit = text(m, "unit").unwrap_or("").to_string();
                    pair.better = text(m, "better").and_then(Better::parse);
                    if side == 0 {
                        pair.a.push(value);
                    } else {
                        pair.b.push(value);
                    }
                }
            }
        }
    }

    let mut clean = true;
    println!(
        "{:<16} {:<34} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    for ((workload, name), pair) in &pairs {
        let better = pair.better.unwrap_or(Better::Lower);
        if pair.a.is_empty() || pair.b.is_empty() {
            println!("{workload:<16} {name:<34} present in one set only");
            continue;
        }
        let bound = bounds.get(name).copied().unwrap_or(0.0);
        let v = verdict(&pair.a, &pair.b, better, bound);
        clean &= v != Verdict::Worse;
        let show = |x: &[f64]| {
            let (q1, m, q3) = quartiles(x);
            format!("{m:.4} [{q1:.4}, {q3:.4}]")
        };
        println!(
            "{workload:<16} {:<34} {:>30} {:>30} {bound:>6.2}  {}",
            format!("{name} ({})", pair.unit),
            show(&pair.a),
            show(&pair.b),
            v.name()
        );
    }
    for (workload, [a, b]) in &digests {
        let all: Vec<&String> = a.iter().chain(b).collect();
        let verdict = if all.windows(2).all(|w| w[0] == w[1]) {
            "identical"
        } else {
            "differ (expected across seeds or request counts)"
        };
        println!("{workload:<16} output digests {verdict}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within bound either way.
        assert_eq!(
            verdict(&a, &[10.3, 10.2, 10.4, 10.3, 10.25], Better::Lower, 0.1),
            Verdict::Same
        );
        // 20% slower, tight sets.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], Better::Higher, 0.1),
            Verdict::Better
        );
        // Wide B that overlaps A: unresolved.
        assert_eq!(
            verdict(&a, &[6.0, 14.0, 10.0, 7.0, 13.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Wide B entirely below A: better despite the spread.
        assert_eq!(
            verdict(&a, &[5.0, 9.0, 7.0, 6.0, 8.0], Better::Lower, 0.1),
            Verdict::Better
        );
        // Counts: bound 0, identical sets are the same, any move is not.
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.0], Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.5, 0.5], Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[33.2, 33.2], &[33.2, 33.2], Better::Lower, 0.0),
            Verdict::Same
        );
    }
}
