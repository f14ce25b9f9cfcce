//! Windowed time-series on top of [`Registry`]: a ring of fixed-width
//! window panes and an [`SloPolicy`] evaluator that turns windowed
//! request accounting into a typed [`HealthStatus`]. The SLO soak and
//! `fastbcnn watch` install it; the serving library only records the
//! metrics it reads ([`REQUEST_LATENCY_METRIC`],
//! [`REQUEST_OUTCOME_METRIC`]).
//!
//! The cumulative [`Registry`] answers "how many, ever"; serving health
//! needs "how many, lately". [`WindowedRegistry`] wraps a cumulative
//! registry and additionally folds every event into the pane for the
//! current window, where a window is `clock.now_ns() / width_ns`. The
//! clock is injectable ([`ManualClock`](fbcnn_telemetry::ManualClock))
//! so soaks and proptests advance time deterministically.

use fbcnn_telemetry::{
    histogram_quantile, Clock, CounterSnapshot, HistogramSnapshot, Recorder, Registry, SpanRecord,
    REQUEST_LATENCY_METRIC, REQUEST_OUTCOME_METRIC, SPAN_DURATION_METRIC,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// --------------------------------------------------------------- windows

/// One window's worth of aggregated telemetry.
struct WindowSnapshot {
    /// Window index (`clock.now_ns() / width_ns`).
    index: u64,
    /// Counter cells observed during the window.
    counters: Vec<CounterSnapshot>,
    /// Histogram cells observed during the window.
    histograms: Vec<HistogramSnapshot>,
}

struct Pane {
    index: u64,
    registry: Registry,
}

/// A [`Recorder`] that tees every event into a cumulative total
/// [`Registry`] *and* the pane for the current fixed-width window.
///
/// Windows are sparse: a window in which nothing was recorded has no
/// pane (queries treat it as zero). The ring keeps the most recent
/// `capacity` panes; evicting older ones only loses the *windowed* view
/// — the total registry keeps everything.
pub struct WindowedRegistry {
    total: Arc<Registry>,
    clock: Arc<dyn Clock>,
    width_ns: u64,
    capacity: usize,
    ring: Mutex<VecDeque<Pane>>,
    evicted_windows: AtomicU64,
}

impl std::fmt::Debug for WindowedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedRegistry")
            .field("width_ns", &self.width_ns)
            .field("capacity", &self.capacity)
            .field("windows", &self.lock_ring().len())
            .finish()
    }
}

impl WindowedRegistry {
    /// A windowed registry over a fresh total registry.
    ///
    /// `width_ns` is clamped to at least 1; `capacity` to at least 2
    /// (an SLO needs at least a fast and a slow window).
    pub fn new(width_ns: u64, capacity: usize, clock: Arc<dyn Clock>) -> Self {
        Self {
            total: Arc::new(Registry::new()),
            clock,
            width_ns: width_ns.max(1),
            capacity: capacity.max(2),
            ring: Mutex::new(VecDeque::new()),
            evicted_windows: AtomicU64::new(0),
        }
    }

    fn lock_ring(&self) -> MutexGuard<'_, VecDeque<Pane>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cumulative registry (lifetime totals, exporters, spans).
    pub fn total(&self) -> &Arc<Registry> {
        &self.total
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// The window index the clock currently points into.
    fn current_index(&self) -> u64 {
        self.clock.now_ns() / self.width_ns
    }

    /// Panes evicted because the ring was full.
    pub fn evicted_windows(&self) -> u64 {
        self.evicted_windows.load(Ordering::Relaxed)
    }

    /// Runs `f` against the pane for the current window, creating (and
    /// evicting, if over capacity) as needed.
    fn with_current_pane<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        let index = self.current_index();
        let mut ring = self.lock_ring();
        let fresh = match ring.back() {
            Some(pane) if pane.index == index => false,
            // The clock never goes backwards, so a mismatched back pane
            // means a new window opened.
            _ => true,
        };
        if fresh {
            ring.push_back(Pane {
                index,
                registry: Registry::new(),
            });
            while ring.len() > self.capacity {
                ring.pop_front();
                self.evicted_windows.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A pane was just pushed if none matched, so back() is Some.
        let pane = match ring.back() {
            Some(pane) => pane,
            None => unreachable!("pane pushed above"),
        };
        f(&pane.registry)
    }

    /// Every retained window, oldest first.
    fn windows(&self) -> Vec<WindowSnapshot> {
        self.lock_ring()
            .iter()
            .map(|pane| WindowSnapshot {
                index: pane.index,
                counters: pane.registry.counters(),
                histograms: pane.registry.histograms(),
            })
            .collect()
    }

    /// The retained windows whose index lies in the last `n` windows
    /// ending at the current one (`(current - n, current]`), oldest
    /// first. Sparse: silent windows are simply absent.
    fn last_windows(&self, n: usize) -> Vec<WindowSnapshot> {
        let current = self.current_index();
        let lo = current.saturating_sub(n.saturating_sub(1) as u64);
        self.windows()
            .into_iter()
            .filter(|w| w.index >= lo && w.index <= current)
            .collect()
    }

    /// Sum of counter `name` under exactly `labels` over the last `n`
    /// windows.
    pub fn windowed_counter(&self, n: usize, name: &str, labels: &[(&str, &str)]) -> u64 {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        self.last_windows(n)
            .iter()
            .flat_map(|w| w.counters.iter())
            .filter(|c| c.name == name && c.labels == sorted)
            .map(|c| c.value)
            .sum()
    }

    /// Sum of counter `name` across all label sets over the last `n`
    /// windows.
    pub fn windowed_counter_total(&self, n: usize, name: &str) -> u64 {
        self.last_windows(n)
            .iter()
            .flat_map(|w| w.counters.iter())
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Merges histogram `name` under exactly `labels` over the last `n`
    /// windows into one snapshot. Returns `None` when no window
    /// observed it. Cells whose bucket bounds disagree with the first
    /// matching cell are skipped (only possible if bounds were
    /// re-registered mid-run).
    pub fn windowed_histogram(
        &self,
        n: usize,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let mut merged: Option<HistogramSnapshot> = None;
        for w in self.last_windows(n) {
            for h in w.histograms {
                if h.name != name || h.labels != sorted {
                    continue;
                }
                match &mut merged {
                    None => merged = Some(h),
                    Some(m) => {
                        if m.bounds != h.bounds {
                            continue;
                        }
                        for (dst, src) in m.counts.iter_mut().zip(h.counts.iter()) {
                            *dst += src;
                        }
                        m.sum += h.sum;
                        m.count += h.count;
                    }
                }
            }
        }
        merged
    }

    /// Quantile estimates (via [`histogram_quantile`]) for histogram
    /// `name{labels}` over the last `n` windows; `None` when the
    /// histogram is empty or absent.
    pub fn windowed_quantiles(
        &self,
        n: usize,
        name: &str,
        labels: &[(&str, &str)],
        qs: &[f64],
    ) -> Option<Vec<f64>> {
        let h = self.windowed_histogram(n, name, labels)?;
        qs.iter()
            .map(|&q| histogram_quantile(&h.bounds, &h.counts, q))
            .collect()
    }
}

impl Recorder for WindowedRegistry {
    fn counter_add(&self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        self.total.counter_add(name, labels, delta);
        self.with_current_pane(|pane| pane.counter_add(name, labels, delta));
    }

    fn histogram_record(&self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.total.histogram_record(name, labels, value);
        self.with_current_pane(|pane| pane.histogram_record(name, labels, value));
    }

    fn histogram_batch(&self, name: &'static str, labels: &[(&str, &str)], values: &[f64]) {
        self.total.histogram_batch(name, labels, values);
        self.with_current_pane(|pane| pane.histogram_batch(name, labels, values));
    }

    fn span_record(&self, span: &SpanRecord<'_>) {
        // Raw span events (for the JSONL trace) live on the total
        // registry only; panes keep the aggregate duration histogram so
        // windowed span quantiles stay cheap.
        self.total.span_record(span);
        let duration_ns = span.duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut labels: Vec<(&str, &str)> = vec![("span", span.name)];
        labels.extend(span.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        self.with_current_pane(|pane| {
            pane.histogram_record(SPAN_DURATION_METRIC, &labels, duration_ns as f64)
        });
    }

    fn sink(&self) -> Option<&Registry> {
        Some(&self.total)
    }
}

// -------------------------------------------------------------- SLO policy

/// Tri-state serving health verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// All objectives met.
    Ok,
    /// An objective is slipping; not yet page-worthy.
    Warning,
    /// An objective is blown badly enough to page (and, in this
    /// workspace, to auto-emit a flight-recorder postmortem).
    Critical,
}

impl HealthStatus {
    /// Stable lowercase name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Warning => "warning",
            HealthStatus::Critical => "critical",
        }
    }
}

/// A per-deadline-class latency objective: "quantile `quantile` of
/// `request_latency_ns{class}` over the fast window span stays at or
/// under `threshold_ns`".
#[derive(Debug, Clone)]
pub struct LatencyObjective {
    /// Deadline class label value.
    pub class: String,
    /// Quantile in `(0, 1]`, e.g. `0.99`.
    pub quantile: f64,
    /// Objective in nanoseconds (compared against the bucket-edge
    /// estimate, so size it with the documented error bound in mind).
    pub threshold_ns: f64,
}

/// One concrete reason the health verdict is not `Ok`.
#[derive(Debug, Clone)]
pub enum SloViolation {
    /// A latency quantile objective was missed over the fast window
    /// span.
    LatencyAboveObjective {
        /// Deadline class.
        class: String,
        /// The objective's quantile.
        quantile: f64,
        /// The observed (bucket-edge) estimate.
        observed_ns: f64,
        /// The objective.
        threshold_ns: f64,
        /// How many windows the estimate covered.
        windows: usize,
    },
    /// The error-budget burn rate limit was exceeded.
    BurnRateExceeded {
        /// Deadline class.
        class: String,
        /// Observed burn rate (failure fraction / error budget).
        burn: f64,
        /// The limit that was crossed.
        limit: f64,
        /// How many windows the burn covered.
        windows: usize,
        /// Failed requests in those windows.
        failed: u64,
        /// Total requests in those windows.
        total: u64,
    },
}

impl SloViolation {
    /// One-line operator rendering.
    pub fn render(&self) -> String {
        match self {
            SloViolation::LatencyAboveObjective {
                class,
                quantile,
                observed_ns,
                threshold_ns,
                windows,
            } => format!(
                "latency class={class} p{:.4}: observed {observed_ns:.0}ns > objective \
                 {threshold_ns:.0}ns over last {windows} window(s)",
                quantile * 100.0
            ),
            SloViolation::BurnRateExceeded {
                class,
                burn,
                limit,
                windows,
                failed,
                total,
            } => format!(
                "burn class={class}: {burn:.2}x budget (limit {limit:.2}x) over last \
                 {windows} window(s) ({failed}/{total} failed)"
            ),
        }
    }
}

/// Error-budget burn observed for one deadline class.
#[derive(Debug, Clone)]
pub struct ClassBurn {
    /// Deadline class.
    pub class: String,
    /// Burn over the fast window span (failure fraction / budget).
    pub fast_burn: f64,
    /// Burn over the slow window span.
    pub slow_burn: f64,
    /// Failed / total over the fast span.
    pub failed_fast: u64,
    /// Total requests over the fast span.
    pub total_fast: u64,
    /// Failed / total over the slow span.
    pub failed_slow: u64,
    /// Total requests over the slow span.
    pub total_slow: u64,
}

/// The evaluated health verdict with its evidence.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst severity across all violations.
    pub status: HealthStatus,
    /// Every violation found, in evaluation order.
    pub violations: Vec<SloViolation>,
    /// Burn accounting per observed deadline class (also for classes
    /// that did not violate).
    pub burns: Vec<ClassBurn>,
}

/// Per-deadline-class latency objectives plus a multi-window
/// error-budget burn-rate alerting rule.
///
/// Semantics (deterministic, pinned by proptests):
/// - **Latency**: each [`LatencyObjective`] is checked against the
///   bucket-edge quantile estimate over the last `fast_windows`
///   windows. A miss is `Warning`; a miss at ≥ 2× the objective is
///   `Critical`. Empty histograms are treated as met.
/// - **Burn**: for every class observed in `request_outcomes`, burn =
///   (failed/total) / `error_budget`. Fast-span burn ≥ `critical_burn`
///   → `Critical`; otherwise slow-span burn ≥ `warning_burn` →
///   `Warning`. Spans with fewer than `min_requests` requests are
///   skipped (no traffic is not an outage).
/// - The report's status is the maximum severity of any violation.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Latency objectives (may be empty).
    pub objectives: Vec<LatencyObjective>,
    /// Allowed failure fraction, e.g. `0.05` (clamped to a minimum of
    /// 1e-9 at evaluation time to keep the division meaningful).
    pub error_budget: f64,
    /// Short alerting span in windows (the "page fast" view).
    pub fast_windows: usize,
    /// Long alerting span in windows (the "budget trend" view).
    pub slow_windows: usize,
    /// Slow-span burn at or above this is a `Warning`.
    pub warning_burn: f64,
    /// Fast-span burn at or above this is `Critical`.
    pub critical_burn: f64,
    /// Minimum requests in a span before its burn is judged.
    pub min_requests: u64,
    /// Restrict burn evaluation to these deadline classes; `None`
    /// judges every class observed in `request_outcomes`. An explicit
    /// list keeps a policy deterministic when the recorder is shared
    /// with traffic it does not own (e.g. parallel test threads).
    pub classes: Option<Vec<String>>,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            objectives: Vec::new(),
            error_budget: 0.05,
            fast_windows: 2,
            slow_windows: 8,
            warning_burn: 1.0,
            critical_burn: 4.0,
            min_requests: 1,
            classes: None,
        }
    }
}

impl SloPolicy {
    /// Evaluates the policy against the windowed registry's recent
    /// windows (see the type-level semantics).
    pub fn evaluate(&self, windowed: &WindowedRegistry) -> HealthReport {
        let mut violations = Vec::new();
        let fast = self.fast_windows.max(1);
        let slow = self.slow_windows.max(fast);
        let budget = self.error_budget.max(1e-9);

        for obj in &self.objectives {
            let labels = [("class", obj.class.as_str())];
            let Some(h) = windowed.windowed_histogram(fast, REQUEST_LATENCY_METRIC, &labels) else {
                continue;
            };
            let Some(observed) = histogram_quantile(&h.bounds, &h.counts, obj.quantile) else {
                continue;
            };
            if observed > obj.threshold_ns {
                violations.push(SloViolation::LatencyAboveObjective {
                    class: obj.class.clone(),
                    quantile: obj.quantile,
                    observed_ns: observed,
                    threshold_ns: obj.threshold_ns,
                    windows: fast,
                });
            }
        }

        let mut burns = Vec::new();
        for class in self.observed_classes(windowed, slow) {
            let span_counts = |n: usize| {
                let ok = windowed.windowed_counter(
                    n,
                    REQUEST_OUTCOME_METRIC,
                    &[("class", class.as_str()), ("result", "ok")],
                );
                let failed = windowed.windowed_counter(
                    n,
                    REQUEST_OUTCOME_METRIC,
                    &[("class", class.as_str()), ("result", "failed")],
                );
                (failed, ok + failed)
            };
            let (failed_fast, total_fast) = span_counts(fast);
            let (failed_slow, total_slow) = span_counts(slow);
            let burn = |failed: u64, total: u64| {
                if total == 0 {
                    0.0
                } else {
                    (failed as f64 / total as f64) / budget
                }
            };
            let fast_burn = burn(failed_fast, total_fast);
            let slow_burn = burn(failed_slow, total_slow);
            if total_fast >= self.min_requests && fast_burn >= self.critical_burn {
                violations.push(SloViolation::BurnRateExceeded {
                    class: class.clone(),
                    burn: fast_burn,
                    limit: self.critical_burn,
                    windows: fast,
                    failed: failed_fast,
                    total: total_fast,
                });
            } else if total_slow >= self.min_requests && slow_burn >= self.warning_burn {
                violations.push(SloViolation::BurnRateExceeded {
                    class: class.clone(),
                    burn: slow_burn,
                    limit: self.warning_burn,
                    windows: slow,
                    failed: failed_slow,
                    total: total_slow,
                });
            }
            burns.push(ClassBurn {
                class,
                fast_burn,
                slow_burn,
                failed_fast,
                total_fast,
                failed_slow,
                total_slow,
            });
        }

        let status = violations
            .iter()
            .map(|v| self.severity(v))
            .max()
            .unwrap_or(HealthStatus::Ok);
        HealthReport {
            status,
            violations,
            burns,
        }
    }

    /// The severity this policy assigns to one violation.
    fn severity(&self, violation: &SloViolation) -> HealthStatus {
        match violation {
            SloViolation::LatencyAboveObjective {
                observed_ns,
                threshold_ns,
                ..
            } => {
                if *observed_ns >= 2.0 * *threshold_ns {
                    HealthStatus::Critical
                } else {
                    HealthStatus::Warning
                }
            }
            SloViolation::BurnRateExceeded { limit, .. } => {
                if *limit >= self.critical_burn {
                    HealthStatus::Critical
                } else {
                    HealthStatus::Warning
                }
            }
        }
    }

    fn observed_classes(&self, windowed: &WindowedRegistry, slow: usize) -> Vec<String> {
        let mut classes: Vec<String> = windowed
            .last_windows(slow)
            .iter()
            .flat_map(|w| w.counters.iter())
            .filter(|c| c.name == REQUEST_OUTCOME_METRIC)
            .filter_map(|c| {
                c.labels
                    .iter()
                    .find(|(k, _)| k == "class")
                    .map(|(_, v)| v.clone())
            })
            .filter(|class| {
                self.classes
                    .as_ref()
                    .map(|allow| allow.iter().any(|c| c == class))
                    .unwrap_or(true)
            })
            .collect();
        classes.sort();
        classes.dedup();
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_telemetry::{ManualClock, DEFAULT_BUCKETS};
    use proptest::prelude::*;

    fn windowed(width: u64, cap: usize) -> (Arc<ManualClock>, WindowedRegistry) {
        let clock = Arc::new(ManualClock::new());
        let w = WindowedRegistry::new(width, cap, clock.clone() as Arc<dyn Clock>);
        (clock, w)
    }

    #[test]
    fn panes_follow_the_clock_and_evict() {
        let (clock, w) = windowed(100, 2);
        w.counter_add("hits", &[], 1);
        clock.set(150);
        w.counter_add("hits", &[], 2);
        clock.set(250);
        w.counter_add("hits", &[], 4);
        // Window 0 evicted (capacity 2); totals survive on the total
        // registry.
        assert_eq!(w.windows().len(), 2);
        assert_eq!(w.evicted_windows(), 1);
        assert_eq!(w.total().counter_total("hits"), 7);
        assert_eq!(w.windowed_counter_total(1, "hits"), 4);
        assert_eq!(w.windowed_counter_total(2, "hits"), 6);
    }

    #[test]
    fn windowed_histogram_merges_and_estimates() {
        let (clock, w) = windowed(100, 8);
        w.histogram_record(REQUEST_LATENCY_METRIC, &[("class", "a")], 3.0);
        clock.set(120);
        w.histogram_record(REQUEST_LATENCY_METRIC, &[("class", "a")], 200.0);
        let h = w
            .windowed_histogram(2, REQUEST_LATENCY_METRIC, &[("class", "a")])
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.bounds, DEFAULT_BUCKETS.to_vec());
        let qs = w
            .windowed_quantiles(2, REQUEST_LATENCY_METRIC, &[("class", "a")], &[0.5, 1.0])
            .unwrap();
        assert_eq!(qs, vec![4.0, 256.0]);
        // Only the newest window.
        let h1 = w
            .windowed_histogram(1, REQUEST_LATENCY_METRIC, &[("class", "a")])
            .unwrap();
        assert_eq!(h1.count, 1);
    }

    #[test]
    fn slo_walks_ok_warning_critical() {
        let (clock, w) = windowed(100, 16);
        let policy = SloPolicy {
            error_budget: 0.1,
            fast_windows: 1,
            slow_windows: 4,
            warning_burn: 1.0,
            critical_burn: 5.0,
            min_requests: 1,
            ..SloPolicy::default()
        };
        let record = |ok: u64, failed: u64| {
            w.counter_add(
                REQUEST_OUTCOME_METRIC,
                &[("class", "default"), ("result", "ok")],
                ok,
            );
            w.counter_add(
                REQUEST_OUTCOME_METRIC,
                &[("class", "default"), ("result", "failed")],
                failed,
            );
        };
        // Healthy window: 0 failures.
        record(100, 0);
        assert_eq!(policy.evaluate(&w).status, HealthStatus::Ok);
        // Mild failure rate: 20% > 10% budget over the slow span but
        // below the 5x fast limit -> Warning.
        clock.set(100);
        record(80, 20);
        let report = policy.evaluate(&w);
        assert_eq!(report.status, HealthStatus::Warning);
        assert_eq!(report.violations.len(), 1);
        // Burst: 60% failures in the fast window -> 6x burn -> Critical.
        clock.set(200);
        record(40, 60);
        assert_eq!(policy.evaluate(&w).status, HealthStatus::Critical);
        // Recovery: clean windows push the burst out of the fast span
        // and dilute the slow span... eventually Ok again.
        for i in 1..=8u64 {
            clock.set(200 + i * 100);
            record(100, 0);
        }
        assert_eq!(policy.evaluate(&w).status, HealthStatus::Ok);
    }

    #[test]
    fn latency_objective_misses_grade_by_margin() {
        let (_clock, w) = windowed(100, 4);
        let policy = SloPolicy {
            objectives: vec![LatencyObjective {
                class: "a".into(),
                quantile: 0.5,
                threshold_ns: 100.0,
            }],
            ..SloPolicy::default()
        };
        w.histogram_record(REQUEST_LATENCY_METRIC, &[("class", "a")], 150.0);
        // Estimate is 256 (bucket edge) -> >= 2x 100 -> Critical.
        let report = policy.evaluate(&w);
        assert_eq!(report.status, HealthStatus::Critical);
        // A miss under 2x is a Warning.
        let warn = SloPolicy {
            objectives: vec![LatencyObjective {
                class: "a".into(),
                quantile: 0.5,
                threshold_ns: 200.0,
            }],
            ..SloPolicy::default()
        };
        assert_eq!(warn.evaluate(&w).status, HealthStatus::Warning);
    }

    #[test]
    fn sink_reports_the_total_registry() {
        let (_clock, w) = windowed(100, 4);
        let total = w.total().clone();
        let arc: Arc<dyn Recorder> = Arc::new(w);
        let _guard = fbcnn_telemetry::install(arc);
        assert!(fbcnn_telemetry::installed_sink_is(&total));
        assert!(!fbcnn_telemetry::installed_sink_is(&Arc::new(
            Registry::new()
        )));
    }

    proptest! {
        /// Feeding a synthetic per-window (ok, failed) stream through the
        /// windowed registry under an injected clock, the policy verdict
        /// after every window is exactly the documented burn arithmetic —
        /// including the Ok → Warning → Critical escalations and the decay
        /// back to Ok as a burst ages out of the spans.
        #[test]
        fn burn_rate_walk_matches_the_documented_arithmetic(
            stream in proptest::collection::vec((0u64..20, 0u64..6), 1..24),
            budget_permille in 5u64..200,
        ) {
            let clock = Arc::new(ManualClock::new());
            let width = 1_000u64;
            let windowed = WindowedRegistry::new(
                width,
                stream.len() + 4,
                Arc::clone(&clock) as Arc<dyn Clock>,
            );
            let policy = SloPolicy {
                error_budget: budget_permille as f64 / 1000.0,
                classes: Some(vec!["prop".to_string()]),
                ..SloPolicy::default()
            };

            for (w, &(ok, failed)) in stream.iter().enumerate() {
                clock.set(w as u64 * width);
                if ok > 0 {
                    windowed.counter_add(
                        REQUEST_OUTCOME_METRIC,
                        &[("class", "prop"), ("result", "ok")],
                        ok,
                    );
                }
                if failed > 0 {
                    windowed.counter_add(
                        REQUEST_OUTCOME_METRIC,
                        &[("class", "prop"), ("result", "failed")],
                        failed,
                    );
                }
                let got = policy.evaluate(&windowed).status;

                // Independent oracle: fold the stream prefix by hand. A
                // span of n windows covers [w-n+1, w] inclusive.
                let span = |n: usize| {
                    let lo = (w + 1).saturating_sub(n);
                    stream[lo..=w]
                        .iter()
                        .fold((0u64, 0u64), |(f, t), &(o, x)| (f + x, t + o + x))
                };
                let burn = |failed: u64, total: u64| {
                    if total == 0 {
                        0.0
                    } else {
                        (failed as f64 / total as f64) / policy.error_budget
                    }
                };
                let (failed_fast, total_fast) = span(policy.fast_windows);
                let (failed_slow, total_slow) = span(policy.slow_windows);
                let expected = if total_fast >= policy.min_requests
                    && burn(failed_fast, total_fast) >= policy.critical_burn
                {
                    HealthStatus::Critical
                } else if total_slow >= policy.min_requests
                    && burn(failed_slow, total_slow) >= policy.warning_burn
                {
                    HealthStatus::Warning
                } else {
                    HealthStatus::Ok
                };
                prop_assert_eq!(
                    got,
                    expected,
                    "window {} of stream {:?} (budget {})",
                    w,
                    stream,
                    policy.error_budget
                );
            }
        }
    }
}
