#![warn(missing_docs)]

//! Telemetry substrate of the Fast-BCNN workspace: spans (scoped
//! wall-clock timers with parent/child nesting), monotonic counters and
//! fixed-bucket histograms, behind a cheap [`Recorder`] trait.
//!
//! The design follows the `log`-crate pattern: instrumented code calls
//! the free functions ([`counter_add`], [`histogram_record`], [`span`]),
//! which consult a process-global recorder slot. When nothing is
//! installed — the default — every call short-circuits on one relaxed
//! atomic load, so the instrumented hot paths cost nothing measurable
//! (the workspace asserts < 5 % MC-dropout overhead in a test). When a
//! [`Registry`] is installed, events aggregate in memory and can be
//! exported as JSONL trace events or a Prometheus-style text exposition.
//!
//! The crate has **zero dependencies** (std only) so that every other
//! workspace crate can depend on it without widening the offline build
//! surface.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let registry = Arc::new(fbcnn_telemetry::Registry::new());
//! let _guard = fbcnn_telemetry::install(registry.clone());
//! {
//!     let _span = fbcnn_telemetry::span("work");
//!     fbcnn_telemetry::counter_add("items_processed", &[("kind", "demo")], 3);
//! }
//! assert_eq!(registry.counter_total("items_processed"), 3);
//! assert_eq!(registry.spans().len(), 1);
//! ```

mod clock;
mod exposition;
mod registry;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use exposition::{parse_exposition, ExpositionError, Sample};
pub use registry::{
    histogram_quantile, CounterSnapshot, HistogramSnapshot, Registry, SpanEvent, DEFAULT_BUCKETS,
    QUANTILE_WIDTH_RATIO, REQUEST_LATENCY_METRIC, REQUEST_OUTCOME_METRIC, SPAN_DURATION_METRIC,
    STANDARD_QUANTILES,
};

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Artifact kind written on every JSONL trace line (the `core::io`
/// envelope's `artifact` field).
pub const TRACE_ARTIFACT: &str = "trace-event";

/// Trace line format version; readers refuse other versions.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// A closed span, as delivered to [`Recorder::span_record`].
#[derive(Debug)]
pub struct SpanRecord<'a> {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Process-unique id (never 0) of the thread that opened and closed
    /// the span — span stacks are thread-local, so nesting invariants
    /// only hold per thread.
    pub thread: u64,
    /// Static span name (e.g. `"mc_run"`).
    pub name: &'static str,
    /// Dynamic labels attached at open time.
    pub labels: &'a [(String, String)],
    /// When the span opened.
    pub start: Instant,
    /// How long it stayed open.
    pub duration: Duration,
}

/// Where telemetry events go. Implementations must be cheap and
/// non-blocking enough to sit inside inference loops.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter `name` under the given labels.
    fn counter_add(&self, name: &'static str, labels: &[(&str, &str)], delta: u64);

    /// Records one observation into the histogram `name`.
    fn histogram_record(&self, name: &'static str, labels: &[(&str, &str)], value: f64);

    /// Records a batch of observations; the default loops over
    /// [`Recorder::histogram_record`], implementations may lock once.
    fn histogram_batch(&self, name: &'static str, labels: &[(&str, &str)], values: &[f64]) {
        for &v in values {
            self.histogram_record(name, labels, v);
        }
    }

    /// Receives a span that just closed.
    fn span_record(&self, span: &SpanRecord<'_>);

    /// The cumulative [`Registry`] this recorder ultimately aggregates
    /// into, if it has one. Wrapper recorders (e.g. a windowed SLO
    /// monitor) return their inner total registry so that
    /// library code holding an `Arc<Registry>` can recognise — via
    /// [`installed_sink_is`] — that the global slot already feeds it,
    /// instead of trying to re-`install` and deadlocking on the
    /// non-reentrant install lock.
    fn sink(&self) -> Option<&Registry> {
        None
    }
}

/// A recorder that drops everything — the explicit form of the default
/// "nothing installed" state, useful for overhead tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _: &'static str, _: &[(&str, &str)], _: u64) {}
    fn histogram_record(&self, _: &'static str, _: &[(&str, &str)], _: f64) {}
    fn span_record(&self, _: &SpanRecord<'_>) {}
}

// ------------------------------------------------------------ global slot

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
// Serializes installs across threads: tests that install a registry hold
// the guard for their whole body, so concurrent test binaries' threads
// never fight over the global slot.
static INSTALL: Mutex<()> = Mutex::new(());
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique id (never 0) for the calling thread, assigned
/// on first use. Stable for the thread's lifetime; stamped on every
/// [`SpanRecord`] so trace consumers can check per-thread ordering.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|&id| id)
}

fn lock_install() -> MutexGuard<'static, ()> {
    // A poisoned install lock only means another test panicked while
    // holding it; the slot itself is always in a consistent state.
    INSTALL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn set_recorder(rec: Option<Arc<dyn Recorder>>) {
    let enabled = rec.is_some();
    {
        let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
        *slot = rec;
    }
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Keeps the installed recorder alive; dropping it uninstalls and
/// releases the install lock.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        set_recorder(None);
    }
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InstallGuard")
    }
}

/// Installs `recorder` as the process-global telemetry sink.
///
/// The returned guard holds an exclusive install lock — a second
/// `install` (or [`install_none`]) from another thread blocks until the
/// first guard drops, which keeps concurrently running tests from
/// recording into each other's registries.
pub fn install(recorder: Arc<dyn Recorder>) -> InstallGuard {
    let lock = lock_install();
    set_recorder(Some(recorder));
    InstallGuard { _lock: lock }
}

/// Holds the install lock with *no* recorder installed — the state an
/// overhead test wants pinned for its whole measurement.
pub fn install_none() -> InstallGuard {
    let lock = lock_install();
    set_recorder(None);
    InstallGuard { _lock: lock }
}

/// Whether a recorder is currently installed. This is the only cost
/// disabled instrumentation pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn current() -> Option<Arc<dyn Recorder>> {
    if !enabled() {
        return None;
    }
    RECORDER
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// A handle to the currently installed recorder, if any.
///
/// This is the `install`-free threading path: a harness that already
/// holds the global slot (e.g. a CLI front end with a [`FileSink`]) can
/// hand its recorder down to library code, and that library code can
/// check — via [`is_installed`] — whether a registry it was given is
/// already the global sink instead of trying to re-`install` it, which
/// would deadlock on the non-reentrant install lock.
pub fn recorder() -> Option<Arc<dyn Recorder>> {
    current()
}

/// Whether `rec` is the recorder currently installed in the global slot
/// (pointer identity, not value equality).
pub fn is_installed(rec: &Arc<dyn Recorder>) -> bool {
    current().is_some_and(|cur| Arc::ptr_eq(&cur, rec))
}

/// Whether the installed recorder ultimately aggregates into `registry`
/// — either because `registry` *is* the installed recorder, or because
/// the installed recorder (e.g. a windowed SLO monitor) reports it as
/// its [`Recorder::sink`]. Library code that is handed an
/// `Arc<Registry>` should use this, not [`is_installed`], before
/// deciding whether it needs to `install` — the install lock is not
/// reentrant.
pub fn installed_sink_is(registry: &Arc<Registry>) -> bool {
    current().is_some_and(|cur| {
        cur.sink()
            .is_some_and(|sink| std::ptr::eq(sink, Arc::as_ptr(registry)))
    })
}

// ---------------------------------------------------------- free functions

/// Adds `delta` to counter `name` on the installed recorder, if any.
#[inline]
pub fn counter_add(name: &'static str, labels: &[(&str, &str)], delta: u64) {
    if let Some(rec) = current() {
        rec.counter_add(name, labels, delta);
    }
}

/// Records one histogram observation on the installed recorder, if any.
#[inline]
pub fn histogram_record(name: &'static str, labels: &[(&str, &str)], value: f64) {
    if let Some(rec) = current() {
        rec.histogram_record(name, labels, value);
    }
}

/// Records a batch of histogram observations on the installed recorder,
/// if any.
#[inline]
pub fn histogram_batch(name: &'static str, labels: &[(&str, &str)], values: &[f64]) {
    if let Some(rec) = current() {
        rec.histogram_batch(name, labels, values);
    }
}

/// Opens an unlabeled span; it closes (and records) when the returned
/// guard drops. Disabled cost: one atomic load.
#[inline]
pub fn span(name: &'static str) -> Span {
    open_span(name, Vec::new)
}

/// Opens a labeled span. `labels` is only invoked when a recorder is
/// installed, so formatting label values costs nothing when disabled.
#[inline]
pub fn span_with(name: &'static str, labels: impl FnOnce() -> Vec<(String, String)>) -> Span {
    open_span(name, labels)
}

fn open_span(name: &'static str, labels: impl FnOnce() -> Vec<(String, String)>) -> Span {
    let Some(recorder) = current() else {
        return Span { active: None };
    };
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Span {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            labels: labels(),
            start: Instant::now(),
            recorder,
        }),
    }
}

/// RAII span guard returned by [`span`] / [`span_with`]; recording
/// happens on drop. A span opened while no recorder was installed is
/// inert.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    labels: Vec<(String, String)>,
    start: Instant,
    recorder: Arc<dyn Recorder>,
}

impl Span {
    /// The span id, or 0 when the span is inert (no recorder installed
    /// at open time).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let duration = active.start.elapsed();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Scoped drops unwind in LIFO order, so the top is ours; be
            // defensive anyway — a leaked span must not corrupt nesting.
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != active.id);
            }
        });
        active.recorder.span_record(&SpanRecord {
            id: active.id,
            parent: active.parent,
            thread: thread_id(),
            name: active.name,
            labels: &active.labels,
            start: active.start,
            duration,
        });
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.active {
            Some(a) => write!(f, "Span({} #{})", a.name, a.id),
            None => f.write_str("Span(inert)"),
        }
    }
}

// ----------------------------------------------------------------- sinks

/// Owns a [`Registry`] installed as the global recorder and writes the
/// requested export files when dropped — the one-liner CLI front ends
/// use to honor `--trace-out` / `--metrics-out`.
#[derive(Debug)]
pub struct FileSink {
    registry: Arc<Registry>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    // Dropped after the files are written (field order!).
    _guard: InstallGuard,
}

impl FileSink {
    /// Installs a fresh registry when at least one output path is given;
    /// returns `None` (and installs nothing) otherwise.
    pub fn new(trace_out: Option<&str>, metrics_out: Option<&str>) -> Option<Self> {
        if trace_out.is_none() && metrics_out.is_none() {
            return None;
        }
        let registry = Arc::new(Registry::new());
        let guard = install(registry.clone());
        Some(Self {
            registry,
            trace_out: trace_out.map(PathBuf::from),
            metrics_out: metrics_out.map(PathBuf::from),
            _guard: guard,
        })
    }

    /// The installed registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        for (path, content) in [
            (self.trace_out.take(), self.registry.to_jsonl()),
            (self.metrics_out.take(), self.registry.to_prometheus()),
        ] {
            let Some(path) = path else { continue };
            match std::fs::write(&path, content) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        let _guard = install_none();
        assert!(!enabled());
        counter_add("nobody_listens", &[], 5);
        histogram_record("nobody_listens", &[], 1.0);
        let s = span("nobody_listens");
        assert_eq!(s.id(), 0);
        drop(s);
    }

    #[test]
    fn install_routes_events_and_uninstalls_on_drop() {
        let registry = Arc::new(Registry::new());
        {
            let _guard = install(registry.clone());
            assert!(enabled());
            counter_add("hits", &[("kind", "a")], 2);
            counter_add("hits", &[("kind", "b")], 1);
            histogram_batch("obs", &[], &[1.0, 3.0]);
            {
                let _outer = span("outer");
                let _inner = span_with("inner", || vec![("k".into(), "v".into())]);
            }
        }
        assert!(!enabled());
        assert_eq!(registry.counter_total("hits"), 3);
        assert_eq!(registry.counter_value("hits", &[("kind", "a")]), Some(2));
        let spans = registry.spans();
        assert_eq!(spans.len(), 2);
        // Inner closed first; its parent is the outer span.
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.labels, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn spans_opened_before_install_never_record() {
        let registry = Arc::new(Registry::new());
        let orphan = {
            let _g = install_none();
            span("orphan")
        };
        let _guard = install(registry.clone());
        drop(orphan);
        assert!(registry.spans().is_empty());
    }

    #[test]
    fn file_sink_requires_an_output_path() {
        assert!(FileSink::new(None, None).is_none());
    }

    #[test]
    fn file_sink_writes_both_files_on_drop() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("fbcnn_tel_sink_{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("fbcnn_tel_sink_{}.prom", std::process::id()));
        {
            let sink = FileSink::new(trace.to_str(), metrics.to_str()).unwrap();
            counter_add("sink_events", &[], 4);
            assert_eq!(sink.registry().counter_total("sink_events"), 4);
        }
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("sink_events"));
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        assert!(metrics_text.contains("sink_events 4"));
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
    }
}
