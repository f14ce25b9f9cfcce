//! The in-memory [`Registry`] recorder and its two exporters (JSONL
//! trace events and Prometheus-style text exposition).

use crate::{Recorder, SpanRecord, TRACE_ARTIFACT, TRACE_FORMAT_VERSION};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Default histogram bucket upper bounds (powers of four): wide enough
/// for nanosecond durations and for `N_d` neuron counts alike. The
/// implicit `+Inf` bucket is derived from the total count on export.
pub const DEFAULT_BUCKETS: &[f64] = &[
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
    268435456.0,
    1073741824.0,
];

/// Histogram every closed span's duration is folded into, labeled
/// `span=<name>` plus the span's own labels — so the Prometheus dump
/// carries timing distributions without shipping raw span events.
pub const SPAN_DURATION_METRIC: &str = "span_duration_ns";

/// Histogram of end-to-end request latency in nanoseconds, labeled
/// `class=<deadline class>`. Recorded by the resilience layer once per
/// served request attempt chain.
pub const REQUEST_LATENCY_METRIC: &str = "request_latency_ns";

/// Counter of finished requests, labeled `class=<deadline class>` and
/// `result=ok|failed`. Every request outcome increments exactly one
/// cell, so windowed sums reconcile exactly against report accounting.
pub const REQUEST_OUTCOME_METRIC: &str = "request_outcomes";

/// The standard quantile set rendered by operator tooling.
pub const STANDARD_QUANTILES: &[(&str, f64)] =
    &[("p50", 0.5), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

/// The documented error bound of [`histogram_quantile`] under the
/// default power-of-four buckets: the estimate is the upper edge of the
/// bucket holding the true quantile, so for values at or above the
/// first bound it over-reports by strictly less than this factor.
pub const QUANTILE_WIDTH_RATIO: f64 = 4.0;

/// Estimates the `q`-quantile of a fixed-bucket histogram using the
/// upper-edge rule: the estimate is the smallest bucket upper bound
/// whose cumulative count reaches `ceil(q * count)`.
///
/// Error bound: the true quantile lies in `(prev_bound, bound]`, so the
/// estimate never under-reports, and over-reports by strictly less than
/// the bucket width ratio (×[`QUANTILE_WIDTH_RATIO`] for
/// [`DEFAULT_BUCKETS`]). Two clamps apply: true quantiles below
/// the first bound report the first bound, and ranks landing in the
/// overflow (`+Inf`) bucket report the largest finite bound — callers
/// sizing buckets should keep the observed range inside the bounds.
///
/// `counts` carries `bounds.len() + 1` non-cumulative entries (last is
/// overflow), the layout of [`HistogramSnapshot::counts`]. Returns
/// `None` for an empty histogram, empty bounds, a `q` outside `(0, 1]`,
/// or a `counts`/`bounds` length mismatch.
pub fn histogram_quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    if bounds.is_empty() || counts.len() != bounds.len() + 1 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &c) in counts[..bounds.len()].iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return Some(bounds[i]);
        }
    }
    // Rank falls in the overflow bucket: clamp to the largest bound.
    bounds.last().copied()
}

/// Raw span events kept verbatim for the JSONL trace; beyond this the
/// registry keeps aggregating histograms but drops the raw events (see
/// [`Registry::dropped_spans`]).
const SPAN_CAP: usize = 100_000;

type Key = (String, Vec<(String, String)>);

/// One counter cell at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Label set (sorted by key).
    pub labels: Vec<(String, String)>,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram cell at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Label set (sorted by key).
    pub labels: Vec<(String, String)>,
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the
    /// last is the overflow/`+Inf` bucket), **not** cumulative.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// A closed span kept for the JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span id on the same thread, 0 for roots.
    pub parent: u64,
    /// Process-unique id of the recording thread (never 0 for spans).
    pub thread: u64,
    /// Span name.
    pub name: String,
    /// Labels attached at open time.
    pub labels: Vec<(String, String)>,
    /// Open time, nanoseconds since the registry was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
}

#[derive(Debug)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            sum: 0.0,
            count: 0,
        }
    }

    fn record(&mut self, value: f64) {
        // Non-finite observations would poison the sum (and serialize as
        // null); the recorder simply refuses them.
        if !value.is_finite() {
            return;
        }
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    histograms: BTreeMap<Key, Histogram>,
    bucket_overrides: BTreeMap<String, Vec<f64>>,
    spans: Vec<SpanEvent>,
    dropped_spans: u64,
}

/// The standard [`Recorder`]: aggregates counters, histograms and span
/// events in memory behind one mutex, with snapshot accessors and the
/// JSONL / Prometheus exporters. Install it with
/// [`crate::install`]`(Arc::new(Registry::new()))`.
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry; its epoch (the zero point of span start
    /// offsets) is the construction instant.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Overrides the bucket bounds used when histogram `name` is first
    /// observed (non-finite bounds are discarded; the list is sorted and
    /// deduplicated). No effect on histograms that already exist.
    pub fn set_buckets(&self, name: &str, bounds: &[f64]) {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        self.lock()
            .bucket_overrides
            .insert(name.to_string(), bounds);
    }

    // ------------------------------------------------------- snapshots

    /// Every counter cell, sorted by (name, labels).
    pub fn counters(&self) -> Vec<CounterSnapshot> {
        self.lock()
            .counters
            .iter()
            .map(|((name, labels), &value)| CounterSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value,
            })
            .collect()
    }

    /// Sum of counter `name` across all label sets (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// The value of counter `name` under exactly the given labels.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = (name.to_string(), owned_labels(labels));
        self.lock().counters.get(&key).copied()
    }

    /// Every histogram cell, sorted by (name, labels).
    pub fn histograms(&self) -> Vec<HistogramSnapshot> {
        self.lock()
            .histograms
            .iter()
            .map(|((name, labels), h)| HistogramSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                bounds: h.bounds.clone(),
                counts: h.counts.clone(),
                sum: h.sum,
                count: h.count,
            })
            .collect()
    }

    /// The raw span events recorded so far (oldest first).
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.lock().spans.clone()
    }

    /// Span events discarded because the raw-event buffer was full.
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped_spans
    }

    // ------------------------------------------------------- exporters

    /// Renders every span, counter and histogram as one JSONL trace
    /// event per line, each wrapped in the workspace's versioned
    /// artifact envelope (`core::io` can read it back as a typed
    /// `TraceEvent`).
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for s in &inner.spans {
            let payload = format!(
                "{{\"kind\":\"span\",\"name\":{},\"labels\":{},\"id\":{},\"parent\":{},\
                 \"thread\":{},\"start_ns\":{},\"duration_ns\":{},\"value\":0.0,\"count\":0,\
                 \"buckets\":[]}}",
                json_str(&s.name),
                json_labels(&s.labels),
                s.id,
                s.parent,
                s.thread,
                s.start_ns,
                s.duration_ns
            );
            push_envelope(&mut out, &payload);
        }
        for ((name, labels), &value) in &inner.counters {
            let payload = format!(
                "{{\"kind\":\"counter\",\"name\":{},\"labels\":{},\"id\":0,\"parent\":0,\
                 \"thread\":0,\"start_ns\":0,\"duration_ns\":0,\"value\":{},\"count\":{value},\
                 \"buckets\":[]}}",
                json_str(name),
                json_labels(labels),
                json_num(value as f64)
            );
            push_envelope(&mut out, &payload);
        }
        for ((name, labels), h) in &inner.histograms {
            let mut buckets = String::from("[");
            let mut cumulative = 0u64;
            for (i, &b) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                if i > 0 {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{},{cumulative}]", json_num(b));
            }
            buckets.push(']');
            let payload = format!(
                "{{\"kind\":\"histogram\",\"name\":{},\"labels\":{},\"id\":0,\"parent\":0,\
                 \"thread\":0,\"start_ns\":0,\"duration_ns\":0,\"value\":{},\"count\":{},\
                 \"buckets\":{buckets}}}",
                json_str(name),
                json_labels(labels),
                json_num(h.sum),
                h.count
            );
            push_envelope(&mut out, &payload);
        }
        out
    }

    /// Renders the counters and histograms in the Prometheus text
    /// exposition format (`# TYPE` headers, `_bucket`/`_sum`/`_count`
    /// series, `le="+Inf"` derived from the total count).
    pub fn to_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let mut last_name = None::<&str>;
        for ((name, labels), &value) in &inner.counters {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_name = Some(name.as_str());
            }
            let _ = writeln!(out, "{name}{} {value}", prom_labels(labels, None));
        }
        for ((name, labels), h) in &inner.histograms {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_name = Some(name.as_str());
            }
            let mut cumulative = 0u64;
            for (i, &b) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    prom_labels(labels, Some(&format!("{b:?}")))
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{} {}",
                prom_labels(labels, Some("+Inf")),
                h.count
            );
            let _ = writeln!(
                out,
                "{name}_sum{} {}",
                prom_labels(labels, None),
                json_num(h.sum)
            );
            let _ = writeln!(out, "{name}_count{} {}", prom_labels(labels, None), h.count);
        }
        out
    }

    /// Writes [`Registry::to_jsonl`] to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Writes [`Registry::to_prometheus`] to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_prometheus(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_prometheus())
    }
}

impl Recorder for Registry {
    fn counter_add(&self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        let key = (name.to_string(), owned_labels(labels));
        *self.lock().counters.entry(key).or_insert(0) += delta;
    }

    fn histogram_record(&self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.histogram_batch(name, labels, &[value]);
    }

    fn histogram_batch(&self, name: &'static str, labels: &[(&str, &str)], values: &[f64]) {
        let key = (name.to_string(), owned_labels(labels));
        let mut inner = self.lock();
        let bounds = inner
            .bucket_overrides
            .get(name)
            .cloned()
            .unwrap_or_else(|| DEFAULT_BUCKETS.to_vec());
        let h = inner
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds));
        for &v in values {
            h.record(v);
        }
    }

    fn span_record(&self, span: &SpanRecord<'_>) {
        let start_ns = span
            .start
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let duration_ns = span.duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        {
            let mut inner = self.lock();
            if inner.spans.len() < SPAN_CAP {
                inner.spans.push(SpanEvent {
                    id: span.id,
                    parent: span.parent,
                    thread: span.thread,
                    name: span.name.to_string(),
                    labels: span.labels.to_vec(),
                    start_ns,
                    duration_ns,
                });
            } else {
                inner.dropped_spans += 1;
            }
        }
        // Aggregate view for the Prometheus dump: span=<name> plus the
        // span's own labels.
        let mut labels: Vec<(&str, &str)> = vec![("span", span.name)];
        labels.extend(span.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        self.histogram_record(SPAN_DURATION_METRIC, &labels, duration_ns as f64);
    }

    fn sink(&self) -> Option<&Registry> {
        Some(self)
    }
}

// ------------------------------------------------------------ formatting

fn push_envelope(out: &mut String, payload: &str) {
    let _ = writeln!(
        out,
        "{{\"artifact\":\"{TRACE_ARTIFACT}\",\"version\":{TRACE_FORMAT_VERSION},\"payload\":{payload}}}"
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("[");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", json_str(k), json_str(v));
    }
    out.push(']');
    out
}

/// Non-finite doubles have no JSON representation; `null` matches what
/// the workspace's serde shim emits for them.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let escape = |v: &str| {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape(v));
        first = false;
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_upper_edge_rule() {
        let bounds = [1.0, 4.0, 16.0];
        // counts: 2 in (..1], 1 in (1,4], 1 in (4,16], 0 overflow
        let counts = [2, 1, 1, 0];
        assert_eq!(histogram_quantile(&bounds, &counts, 0.5), Some(1.0));
        assert_eq!(histogram_quantile(&bounds, &counts, 0.75), Some(4.0));
        assert_eq!(histogram_quantile(&bounds, &counts, 1.0), Some(16.0));
        // Overflow rank clamps to the largest bound.
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 5], 0.5), Some(16.0));
        // Degenerate inputs.
        assert_eq!(histogram_quantile(&bounds, &counts, 0.0), None);
        assert_eq!(histogram_quantile(&bounds, &counts, 1.5), None);
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 0], 0.5), None);
        assert_eq!(histogram_quantile(&[], &[1], 0.5), None);
        assert_eq!(histogram_quantile(&bounds, &[1, 2], 0.5), None);
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.counter_add("hits", &[("layer", "conv1")], 2);
        r.counter_add("hits", &[("layer", "conv1")], 3);
        r.counter_add("hits", &[("layer", "conv2")], 1);
        assert_eq!(r.counter_value("hits", &[("layer", "conv1")]), Some(5));
        assert_eq!(r.counter_total("hits"), 6);
        assert_eq!(r.counter_value("hits", &[]), None);
        assert_eq!(r.counters().len(), 2);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = Registry::new();
        r.set_buckets("nd", &[1.0, 4.0, 16.0]);
        r.histogram_batch("nd", &[], &[0.5, 1.0, 3.0, 100.0, f64::NAN]);
        let h = &r.histograms()[0];
        assert_eq!(h.bounds, vec![1.0, 4.0, 16.0]);
        assert_eq!(h.counts, vec![2, 1, 0, 1]); // NaN refused
        assert_eq!(h.count, 4);
        assert!((h.sum - 104.5).abs() < 1e-9);
    }

    #[test]
    fn jsonl_lines_wear_the_envelope() {
        let r = Registry::new();
        r.counter_add("c", &[("k", "v\"q")], 7);
        r.histogram_record("h", &[], 2.0);
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"artifact\":\"trace-event\",\"version\":1,\"payload\":"));
        }
        assert!(jsonl.contains("\\\"q")); // escaping survived
    }

    #[test]
    fn prometheus_dump_has_types_buckets_and_inf() {
        let r = Registry::new();
        r.counter_add("requests", &[("kind", "fast")], 3);
        r.set_buckets("lat", &[10.0, 100.0]);
        r.histogram_batch("lat", &[], &[5.0, 50.0, 500.0]);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE requests counter"));
        assert!(text.contains("requests{kind=\"fast\"} 3"));
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"10.0\"} 1"));
        assert!(text.contains("lat_bucket{le=\"100.0\"} 2"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum 555.0"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn span_events_feed_the_duration_histogram() {
        use crate::Recorder as _;
        let r = Registry::new();
        r.span_record(&SpanRecord {
            id: 1,
            parent: 0,
            thread: 1,
            name: "phase",
            labels: &[("stage".to_string(), "conv".to_string())],
            start: r.epoch,
            duration: std::time::Duration::from_nanos(500),
        });
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.dropped_spans(), 0);
        let h = r.histograms();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].name, SPAN_DURATION_METRIC);
        assert!(h[0]
            .labels
            .contains(&("span".to_string(), "phase".to_string())));
        assert!(h[0]
            .labels
            .contains(&("stage".to_string(), "conv".to_string())));
        assert_eq!(h[0].count, 1);
    }
}
