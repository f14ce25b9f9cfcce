//! Resilient serving around the batch engine: deadlines, cancellation,
//! retry with seeded backoff, a fast-path circuit breaker, admission
//! control with load shedding, and a worker watchdog.
//!
//! The layer wraps [`BatchEngine`] without changing its numerics: a
//! request served with no deadline pressure, a closed breaker and no
//! faults is bit-identical to a sequential
//! [`Engine::predict_robust_seeded`] call (the determinism suites pin
//! this). Resilience only decides *whether*, *when* and *on which path*
//! the identical staged pipeline runs:
//!
//! * **Deadlines / cancellation** — a [`fbcnn_bayes::CancelToken`] is
//!   checked at every MC sample boundary; an expired request returns the
//!   partial-T mean over its completed samples, flagged
//!   [`DegradedMode::PartialSamples`] (valid because samples are i.i.d.),
//!   or a typed [`InferenceError::Expired`] when nothing completed.
//! * **Retry** — only typed-*transient* failures are retried
//!   ([`retry_class`]): panic-isolated total sample loss and (optionally)
//!   canary trips. Numeric faults, structural violations, expiry and
//!   overload never retry. Backoff is seeded deterministic exponential
//!   with an injectable [`Jitter`] source.
//! * **Circuit breaker** — a sliding-window error-rate tracker over fast
//!   path attempts; when it opens, requests are served on the exact path
//!   (`force_exact`) until a request-count cooldown half-opens it for
//!   probe requests. Request-count cooldown (not wall clock) keeps the
//!   transition sequence deterministic enough to golden-pin.
//! * **Admission control** — a bounded queue with a [`ShedPolicy`];
//!   rejected requests carry a typed [`InferenceError::Overloaded`],
//!   degraded ones run with a smaller sample budget.
//! * **Watchdog** — hung work units are requeued (bounded times) to a
//!   fresh worker instead of hanging the batch; an abandoned unit carries
//!   a typed [`InferenceError::WorkerHung`]. The same watchdog guards the
//!   single-request paths ([`ResilientBatchEngine::run_request`] /
//!   `run_request_classed`): with a timeout configured, each attempt runs
//!   on a watched worker thread, so a wedged engine can never hang a
//!   network connection.
//!
//! Every decision is exported as a `breaker_*` / `shed_*` / `retry_*` /
//! `deadline_*` / `watchdog_*` telemetry counter (see
//! `docs/OBSERVABILITY.md`) and must reconcile exactly with the
//! per-request outcomes — the chaos harness asserts this.

use crate::batch::{BatchEngine, BatchOutcome, BatchRequest};
use crate::engine::{DegradedMode, RobustReport};
use crate::error::InferenceError;
use crate::ledger::Ledger;
use fbcnn_bayes::{CancelToken, Prediction};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A per-sample hook fired inside the panic-isolated sample execution —
/// the injection point for latency faults and chaos (a panicking hook is
/// a contained lost sample).
pub type SampleHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Run-level control threaded into [`Engine::robust_core`]'s staged
/// pipeline by the resilience layer.
///
/// [`RunControl::none`] (also `Default`) reproduces uncontrolled behavior
/// bit-for-bit; every field tightens one aspect:
///
/// [`Engine::robust_core`]: crate::Engine
#[derive(Clone, Default)]
pub struct RunControl {
    /// Cancellation/deadline token, checked before every sample.
    pub cancel: CancelToken,
    /// Serve on the exact path without consulting the canary (an open
    /// circuit breaker's verdict).
    pub force_exact: bool,
    /// Cap the sample budget below the configured `T` (admission-control
    /// degradation); clamped to at least 1.
    pub max_samples: Option<usize>,
    /// Optional per-sample hook; see [`SampleHook`].
    pub sample_hook: Option<SampleHook>,
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("force_exact", &self.force_exact)
            .field("max_samples", &self.max_samples)
            .field("sample_hook", &self.sample_hook.is_some())
            .finish()
    }
}

impl RunControl {
    /// No deadline, no cap, fast path allowed, no hook — behaves exactly
    /// like the pre-resilience pipeline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fires the sample hook, if any.
    pub(crate) fn fire_sample_hook(&self, sample: usize) {
        if let Some(hook) = &self.sample_hook {
            hook(sample);
        }
    }
}

/// Whether a failed request is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// The failure is plausibly ephemeral (panic-isolated sample loss);
    /// an identical re-run may succeed.
    Transient,
    /// Retrying cannot help: the fault is in the data, the configuration
    /// or the budget itself.
    Permanent,
}

/// Classifies an [`InferenceError`] for the retry policy; the taxonomy
/// table in `docs/RESILIENCE.md` documents the reasoning per variant.
pub fn retry_class(error: &InferenceError) -> RetryClass {
    match error {
        // Total sample loss comes from panic-isolated workers — the one
        // failure shape that is routinely ephemeral (a poisoned mask
        // buffer, a torn scratch allocation).
        InferenceError::AllSamplesFailed { .. } => RetryClass::Transient,
        // Structural and numeric faults are properties of the request or
        // the engine state: identical retries fail identically.
        InferenceError::Input(_)
        | InferenceError::Thresholds(_)
        | InferenceError::Numeric(_)
        | InferenceError::Bayes(_) => RetryClass::Permanent,
        // Expiry means the budget is spent; retrying spends more.
        // Overload and abandonment are batch-level verdicts.
        InferenceError::Expired { .. }
        | InferenceError::Overloaded { .. }
        | InferenceError::WorkerHung { .. } => RetryClass::Permanent,
    }
}

/// A backoff jitter source; injectable so tests can pin sleep durations.
pub trait Jitter: Send + Sync {
    /// A factor in `[0.5, 1.0]` for the given mix token (derived from
    /// policy seed, request seed and attempt index).
    fn factor(&self, token: u64) -> f64;
}

/// The default jitter: a splitmix64 hash of the token mapped into
/// `[0.5, 1.0]` — fully determined by `(policy seed, request seed,
/// attempt)`, so reruns back off identically.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeededJitter;

pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Jitter for SeededJitter {
    fn factor(&self, token: u64) -> f64 {
        0.5 + (mix64(token) >> 11) as f64 / (1u64 << 53) as f64 * 0.5
    }
}

/// A jitter source that always returns 1.0 — pure exponential backoff,
/// used by tests and the deterministic chaos schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoJitter;

impl Jitter for NoJitter {
    fn factor(&self, _token: u64) -> f64 {
        1.0
    }
}

/// Seeded deterministic exponential-backoff retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retry attempts beyond the first execution (0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per further attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed mixed into the jitter token.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based) of the
    /// request with `request_seed`: `min(cap, base · 2^attempt)` scaled
    /// by the jitter factor for the derived token.
    pub fn backoff(&self, request_seed: u64, attempt: u32, jitter: &dyn Jitter) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.max_backoff);
        let token = mix64(self.seed ^ request_seed).wrapping_add(u64::from(attempt));
        let factor = jitter.factor(token).clamp(0.0, 1.0);
        Duration::from_nanos((exp.as_nanos() as f64 * factor) as u64)
    }
}

/// Circuit-breaker states; named after the electrical metaphor — an
/// *open* circuit does not conduct (the fast path is bypassed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Fast path in use; failures tracked in the sliding window.
    Closed,
    /// Fast path bypassed: every request is served exact. After
    /// `cooldown_requests` served, the breaker half-opens.
    Open,
    /// Probe requests run the fast path again; a failure reopens, enough
    /// successes close.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name — the `from`/`to` telemetry label.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Knobs of the fast-path [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length in observations.
    pub window: usize,
    /// Observations required before the error rate is meaningful.
    pub min_observations: usize,
    /// Error rate (strictly) above which the breaker opens, in (0, 1].
    pub threshold: f64,
    /// Requests served exact while open before half-opening. Counted in
    /// requests, not wall time, so transition sequences are
    /// deterministic under a single-threaded schedule.
    pub cooldown_requests: usize,
    /// Consecutive successful probes required to close again.
    pub probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 16,
            min_observations: 8,
            threshold: 0.5,
            cooldown_requests: 8,
            probes: 2,
        }
    }
}

/// What the breaker told a request attempt to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDecision {
    /// Run the normal staged pipeline (canary + fast path).
    Fast,
    /// Serve on the exact path; do not consult the canary.
    ForcedExact,
    /// Run the fast path as a half-open probe; the result decides the
    /// breaker's fate.
    Probe,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Sliding window of recent fast-path attempts; `true` = failure.
    window: VecDeque<bool>,
    /// Requests served while open (cooldown progress).
    open_served: usize,
    /// Consecutive successful probes while half-open.
    probes_passed: usize,
    transitions: Vec<(BreakerState, BreakerState)>,
}

/// Sliding-window error-rate circuit breaker for the fast path; see the
/// module docs for the state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
    /// A jammed breaker (chaos fault class) stays `Open` forever: no
    /// cooldown, no half-open probes, no observations. Only replacing
    /// the breaker — which is what a shard rebuild does — clears it.
    jammed: AtomicBool,
}

impl CircuitBreaker {
    /// A closed breaker with the given knobs.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                window: VecDeque::with_capacity(cfg.window.max(1)),
                open_served: 0,
                probes_passed: 0,
                transitions: Vec::new(),
            }),
            jammed: AtomicBool::new(false),
        }
    }

    /// Jams the breaker open: every subsequent attempt is forced onto
    /// the exact path and no transition can ever close it again. This is
    /// the chaos layer's breaker fault — persistent, and curable only by
    /// swapping in a fresh breaker (a shard rebuild).
    pub fn jam_open(&self) {
        self.jammed.store(true, Ordering::Release);
        let mut inner = self.lock();
        if inner.state != BreakerState::Open {
            Self::transition(&mut inner, BreakerState::Open);
            inner.open_served = 0;
        }
    }

    /// Whether [`CircuitBreaker::jam_open`] was called.
    pub fn is_jammed(&self) -> bool {
        self.jammed.load(Ordering::Acquire)
    }

    /// The breaker configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Every state transition since construction, in order.
    pub fn transitions(&self) -> Vec<(BreakerState, BreakerState)> {
        self.lock().transitions.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn transition(inner: &mut BreakerInner, to: BreakerState) {
        let from = inner.state;
        inner.state = to;
        inner.transitions.push((from, to));
        fbcnn_telemetry::counter_add(
            "breaker_transitions",
            &[("from", from.name()), ("to", to.name())],
            1,
        );
    }

    /// Routes one request attempt. Call exactly once per attempt and pair
    /// each call with one [`CircuitBreaker::observe`].
    pub fn decide(&self) -> PathDecision {
        if self.is_jammed() {
            fbcnn_telemetry::counter_add("breaker_forced_exact", &[], 1);
            return PathDecision::ForcedExact;
        }
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => PathDecision::Fast,
            BreakerState::Open => {
                if inner.open_served >= self.cfg.cooldown_requests {
                    Self::transition(&mut inner, BreakerState::HalfOpen);
                    inner.probes_passed = 0;
                    fbcnn_telemetry::counter_add("breaker_probes", &[("phase", "issued")], 1);
                    PathDecision::Probe
                } else {
                    inner.open_served += 1;
                    fbcnn_telemetry::counter_add("breaker_forced_exact", &[], 1);
                    PathDecision::ForcedExact
                }
            }
            BreakerState::HalfOpen => {
                fbcnn_telemetry::counter_add("breaker_probes", &[("phase", "issued")], 1);
                PathDecision::Probe
            }
        }
    }

    /// Reports the attempt's outcome back. `failure` means the fast path
    /// misbehaved: a typed error, or a canary trip on a non-forced
    /// attempt. Forced-exact outcomes carry no fast-path signal and are
    /// ignored.
    pub fn observe(&self, decision: PathDecision, failure: bool) {
        if self.is_jammed() {
            return;
        }
        let mut inner = self.lock();
        match (inner.state, decision) {
            (BreakerState::Closed, PathDecision::Fast) => {
                inner.window.push_back(failure);
                while inner.window.len() > self.cfg.window.max(1) {
                    inner.window.pop_front();
                }
                let n = inner.window.len();
                if n >= self.cfg.min_observations.max(1) {
                    let failures = inner.window.iter().filter(|&&f| f).count();
                    if failures as f64 / n as f64 > self.cfg.threshold {
                        Self::transition(&mut inner, BreakerState::Open);
                        inner.open_served = 0;
                        inner.window.clear();
                    }
                }
            }
            (BreakerState::HalfOpen, PathDecision::Probe) => {
                if failure {
                    fbcnn_telemetry::counter_add("breaker_probes", &[("phase", "failed")], 1);
                    Self::transition(&mut inner, BreakerState::Open);
                    inner.open_served = 0;
                } else {
                    fbcnn_telemetry::counter_add("breaker_probes", &[("phase", "passed")], 1);
                    inner.probes_passed += 1;
                    if inner.probes_passed >= self.cfg.probes.max(1) {
                        Self::transition(&mut inner, BreakerState::Closed);
                        inner.window.clear();
                        inner.probes_passed = 0;
                    }
                }
            }
            // Forced-exact outcomes, or observations arriving after a
            // concurrent transition: no fast-path signal, drop them.
            _ => {}
        }
    }
}

/// What admission control does with requests beyond the queue capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Drop the newest requests (the tail of the offered batch).
    RejectNewest,
    /// Drop the oldest requests (the head of the offered batch).
    RejectOldest,
    /// Admit everything but scale every request's sample budget down so
    /// total work stays near capacity; degraded requests are flagged
    /// [`DegradedMode::PartialSamples`].
    DegradeToFewerSamples,
}

impl ShedPolicy {
    /// Stable lowercase name — the `policy` telemetry label.
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject_newest",
            ShedPolicy::RejectOldest => "reject_oldest",
            ShedPolicy::DegradeToFewerSamples => "degrade_samples",
        }
    }
}

/// Knobs of a [`ResilientBatchEngine`]; `Default` disables everything
/// optional (no deadline, unbounded queue, no watchdog) and keeps the
/// default retry/breaker settings.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Per-request wall-clock deadline, spanning retries.
    pub deadline: Option<Duration>,
    /// Per-request deterministic sample budget (expires after this many
    /// sample checkpoints, spanning retries) — the testable deadline.
    pub sample_budget: Option<u64>,
    /// Retry policy for typed-transient failures.
    pub retry: RetryPolicy,
    /// Also retry canary trips (a tripped canary may be ephemeral; the
    /// exact-path result is kept if retries keep tripping).
    pub retry_canary_trips: bool,
    /// Circuit-breaker knobs.
    pub breaker: BreakerConfig,
    /// Bounded queue capacity per `run_batch` call; 0 = unbounded.
    pub queue_capacity: usize,
    /// What to do with the overflow.
    pub shed_policy: ShedPolicy,
    /// Sample-budget floor for [`ShedPolicy::DegradeToFewerSamples`].
    pub min_degraded_samples: usize,
    /// Watchdog timeout for a claimed-but-unfinished work unit; `None`
    /// disables the watchdog (and its extra worker threads). With a
    /// timeout set, single-request serving also runs each attempt on a
    /// watched worker thread — hung attempts are requeued and finally
    /// abandoned instead of blocking the caller.
    pub watchdog_timeout: Option<Duration>,
    /// Times a hung unit is requeued before it is abandoned with a typed
    /// [`InferenceError::WorkerHung`].
    pub max_requeues: u32,
    /// Deadline class this engine serves — the `class` label on the
    /// `request_latency_ns` / `request_outcomes` telemetry the SLO
    /// monitor windows, and the class [`crate::FlightRecord`]s carry.
    pub deadline_class: String,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            deadline: None,
            sample_budget: None,
            retry: RetryPolicy::default(),
            retry_canary_trips: true,
            breaker: BreakerConfig::default(),
            queue_capacity: 0,
            shed_policy: ShedPolicy::RejectNewest,
            min_degraded_samples: 1,
            watchdog_timeout: None,
            max_requeues: 2,
            deadline_class: "default".to_string(),
        }
    }
}

impl ResilienceConfig {
    /// Builds the config from the CLI-facing [`crate::EngineConfig`]
    /// fields (`deadline_ms`, `retry_max`, `breaker_threshold`), keeping
    /// every other knob at its default.
    pub fn from_engine_config(cfg: &crate::EngineConfig) -> Self {
        Self {
            deadline: cfg.deadline_ms.map(Duration::from_millis),
            retry: RetryPolicy {
                max_retries: cfg.retry_max,
                seed: cfg.seed ^ 0x5EED_BACC,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                threshold: cfg.breaker_threshold,
                ..BreakerConfig::default()
            },
            ..Self::default()
        }
    }
}

/// A per-request serving class: the network tier's admission control
/// prices each request's SLO class into one of these before handing it
/// to the resilience layer. A `Some` field overrides the engine-level
/// [`ResilienceConfig`] knob for this one request; the `name` always
/// overrides the telemetry `class` label, so `request_latency_ns{class}`
/// and `request_outcomes{class,result}` are tiered end-to-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestClass {
    /// Class label on the request's telemetry and flight records.
    pub name: String,
    /// Wall-clock deadline override (spanning retries).
    pub deadline: Option<Duration>,
    /// Deterministic sample-budget override (the testable deadline).
    pub sample_budget: Option<u64>,
}

impl RequestClass {
    /// A class that only relabels telemetry, keeping the engine's own
    /// deadline and budget.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            deadline: None,
            sample_budget: None,
        }
    }
}

/// One request's outcome under the resilience layer: the inner
/// [`BatchOutcome`] plus everything the layer decided around it.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The wrapped outcome (id, seed, result). Shed and abandoned
    /// requests carry a synthesized outcome with the typed error.
    pub outcome: BatchOutcome,
    /// Execution attempts (1 on the happy path; 0 for shed requests).
    pub attempts: u32,
    /// Watchdog requeues this request's unit went through.
    pub requeues: u32,
    /// Whether the final attempt was forced onto the exact path by an
    /// open breaker.
    pub forced_exact: bool,
    /// Whether the final attempt was a half-open probe.
    pub probe: bool,
    /// Whether admission control shed the request outright.
    pub shed: bool,
    /// Whether a retryable failure survived every allowed attempt (for a
    /// canary-trip chain the final outcome is still a valid exact-path
    /// prediction, so this can be true alongside an `Ok` result).
    pub retry_exhausted: bool,
    /// The degraded sample cap, when [`ShedPolicy::DegradeToFewerSamples`]
    /// applied one.
    pub degraded_to: Option<usize>,
    /// Whether the deadline/cancellation expired this request (partial
    /// result or typed [`InferenceError::Expired`]).
    pub expired: bool,
    /// Total deterministic backoff this request slept across retries.
    pub backoff_total: Duration,
    /// End-to-end wall clock of the attempt chain in nanoseconds (0 for
    /// requests that never executed: shed or abandoned).
    pub elapsed_ns: u64,
}

impl ResilientOutcome {
    /// The prediction/report pair, when the request produced one.
    pub fn result(&self) -> &Result<(Prediction, RobustReport), InferenceError> {
        &self.outcome.result
    }
}

/// Aggregates of one [`ResilientBatchEngine::run_batch`] call; the
/// fold of its `outcomes` — [`ResilientBatchReport::reconcile`] asserts
/// the two never drift apart.
#[derive(Debug, Clone, Default)]
pub struct ResilienceTotals {
    /// Requests offered to `run_batch`.
    pub offered: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests admitted with a degraded sample cap.
    pub degraded: usize,
    /// Requests whose deadline expired (partial or empty).
    pub expired: usize,
    /// Retry attempts performed (executions beyond each request's first).
    pub retries: u64,
    /// Requests that succeeded only after retrying.
    pub retry_successes: u64,
    /// Requests whose transient failure survived all retries.
    pub retry_exhausted: u64,
    /// Attempts forced onto the exact path by an open breaker.
    pub forced_exact: u64,
    /// Half-open probe attempts.
    pub probes: u64,
    /// Watchdog requeues across all units.
    pub requeues: u64,
    /// Units abandoned as [`InferenceError::WorkerHung`].
    pub abandoned: u64,
}

/// The outcome of one [`ResilientBatchEngine::run_batch`] call.
#[derive(Debug)]
pub struct ResilientBatchReport {
    /// Per-request outcomes, in offered order.
    pub outcomes: Vec<ResilientOutcome>,
    /// Aggregates, maintained alongside the outcomes.
    pub totals: ResilienceTotals,
    /// Breaker transitions that happened during this call.
    pub transitions: Vec<(BreakerState, BreakerState)>,
    /// Breaker state after the call.
    pub breaker_state: BreakerState,
    /// Wall-clock of the whole call, nanoseconds.
    pub elapsed_ns: u64,
}

impl ResilientBatchReport {
    /// The aggregate totals against a fresh fold over the per-request
    /// outcomes — the accounting half of the chaos harness's "counters
    /// reconcile exactly" criterion.
    pub fn ledger(&self) -> Ledger {
        let mut fold = ResilienceTotals {
            offered: self.outcomes.len(),
            ..ResilienceTotals::default()
        };
        for o in &self.outcomes {
            if o.shed {
                fold.shed += 1;
            }
            if o.degraded_to.is_some() {
                fold.degraded += 1;
            }
            if o.expired {
                fold.expired += 1;
            }
            fold.retries += u64::from(o.attempts.saturating_sub(1));
            if o.retry_exhausted {
                fold.retry_exhausted += 1;
            } else if o.attempts > 1 && o.outcome.result.is_ok() {
                fold.retry_successes += 1;
            }
            fold.requeues += u64::from(o.requeues);
            if matches!(o.outcome.result, Err(InferenceError::WorkerHung { .. })) {
                fold.abandoned += 1;
            }
        }
        let t = &self.totals;
        let rows = [
            ("offered", t.offered as u64, fold.offered as u64),
            ("shed", t.shed as u64, fold.shed as u64),
            ("degraded", t.degraded as u64, fold.degraded as u64),
            ("expired", t.expired as u64, fold.expired as u64),
            ("retries", t.retries, fold.retries),
            ("retry_successes", t.retry_successes, fold.retry_successes),
            ("retry_exhausted", t.retry_exhausted, fold.retry_exhausted),
            ("requeues", t.requeues, fold.requeues),
            ("abandoned", t.abandoned, fold.abandoned),
        ];
        Ledger::from(
            rows.map(|(name, got, want)| (format!("totals.{name} vs outcomes"), got, want)),
        )
    }

    /// Checks [`ResilientBatchReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger().check()
    }

    /// Whether every failed request carries a typed error (always true by
    /// construction — `Result` is typed — but the chaos harness asserts
    /// it against this list of recognized reasons).
    pub fn all_losses_typed(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.outcome.result.is_ok() || error_reason(&self.reason_of(o)).is_some())
    }

    fn reason_of(&self, o: &ResilientOutcome) -> String {
        match &o.outcome.result {
            Ok(_) => "ok".into(),
            Err(e) => error_reason_name(e).into(),
        }
    }
}

fn error_reason(reason: &str) -> Option<&str> {
    [
        "input",
        "thresholds",
        "numeric",
        "bayes",
        "all_samples_failed",
        "expired",
        "overloaded",
        "worker_hung",
    ]
    .into_iter()
    .find(|r| *r == reason)
}

/// The stable lowercase reason label for a typed inference error — the
/// vocabulary the chaos report buckets losses under.
pub fn error_reason_name(e: &InferenceError) -> &'static str {
    match e {
        InferenceError::Input(_) => "input",
        InferenceError::Thresholds(_) => "thresholds",
        InferenceError::Numeric(_) => "numeric",
        InferenceError::Bayes(_) => "bayes",
        InferenceError::AllSamplesFailed { .. } => "all_samples_failed",
        InferenceError::Expired { .. } => "expired",
        InferenceError::Overloaded { .. } => "overloaded",
        InferenceError::WorkerHung { .. } => "worker_hung",
    }
}

type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;
/// A per-(request, attempt, sample) hook; the chaos harness keys faults
/// off all three.
pub type RequestSampleHook = Arc<dyn Fn(u64, u32, usize) + Send + Sync>;

struct Inner {
    batch: Arc<BatchEngine>,
    cfg: ResilienceConfig,
    breaker: Arc<CircuitBreaker>,
    jitter: Arc<dyn Jitter>,
    sleeper: Sleeper,
    hook: Option<RequestSampleHook>,
    flight: Option<Arc<crate::FlightRecorder>>,
}

/// Stamps one finished outcome into the request-level observability
/// surface: exactly one `request_outcomes{class,result}` increment per
/// [`ResilientOutcome`] (the invariant windowed reconciliation relies
/// on), a `request_latency_ns{class}` observation when the request
/// actually executed, and a [`crate::FlightRecord`] when a recorder is
/// attached.
fn note_outcome(inner: &Inner, out: &ResilientOutcome, class: Option<&RequestClass>) {
    let class = class
        .map(|c| c.name.as_str())
        .unwrap_or(inner.cfg.deadline_class.as_str());
    let result = if out.outcome.result.is_ok() {
        "ok"
    } else {
        "failed"
    };
    fbcnn_telemetry::counter_add(
        fbcnn_telemetry::REQUEST_OUTCOME_METRIC,
        &[("class", class), ("result", result)],
        1,
    );
    if out.attempts > 0 {
        fbcnn_telemetry::histogram_record(
            fbcnn_telemetry::REQUEST_LATENCY_METRIC,
            &[("class", class)],
            out.elapsed_ns as f64,
        );
    }
    if let Some(flight) = &inner.flight {
        flight.record(crate::FlightRecord::from_outcome(out, class));
    }
}

/// The resilient serving layer over a [`BatchEngine`]; see the module
/// docs.
pub struct ResilientBatchEngine {
    inner: Arc<Inner>,
}

impl fmt::Debug for ResilientBatchEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientBatchEngine")
            .field("cfg", &self.inner.cfg)
            .field("breaker", &self.inner.breaker.state())
            .finish()
    }
}

impl ResilientBatchEngine {
    /// Wraps a batch engine with its own (closed) breaker.
    pub fn new(batch: BatchEngine, cfg: ResilienceConfig) -> Self {
        let breaker = Arc::new(CircuitBreaker::new(cfg.breaker));
        Self::with_breaker(batch, cfg, breaker)
    }

    /// Wraps a batch engine sharing an existing breaker — the chaos
    /// harness uses this to carry breaker state across engine swaps.
    pub fn with_breaker(
        batch: BatchEngine,
        cfg: ResilienceConfig,
        breaker: Arc<CircuitBreaker>,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                batch: Arc::new(batch),
                cfg,
                breaker,
                jitter: Arc::new(SeededJitter),
                sleeper: Arc::new(|d| {
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                }),
                hook: None,
                flight: None,
            }),
        }
    }

    fn remake(&self, f: impl FnOnce(&mut Inner)) -> Self {
        let inner = self.inner.as_ref();
        let mut clone = Inner {
            batch: Arc::clone(&inner.batch),
            cfg: inner.cfg.clone(),
            breaker: Arc::clone(&inner.breaker),
            jitter: Arc::clone(&inner.jitter),
            sleeper: Arc::clone(&inner.sleeper),
            hook: inner.hook.clone(),
            flight: inner.flight.clone(),
        };
        f(&mut clone);
        Self {
            inner: Arc::new(clone),
        }
    }

    /// Replaces the jitter source (tests pin backoff with [`NoJitter`]).
    pub fn with_jitter(&self, jitter: Arc<dyn Jitter>) -> Self {
        self.remake(|i| i.jitter = jitter)
    }

    /// Replaces the backoff sleeper (tests observe instead of sleeping).
    pub fn with_sleeper(&self, sleeper: Arc<dyn Fn(Duration) + Send + Sync>) -> Self {
        self.remake(|i| i.sleeper = sleeper)
    }

    /// Installs a per-(request id, attempt, sample) hook — the chaos
    /// harness's fault injection point.
    pub fn with_request_sample_hook(&self, hook: RequestSampleHook) -> Self {
        self.remake(|i| i.hook = Some(hook))
    }

    /// Attaches a flight recorder: every request this layer finishes is
    /// flattened into a [`crate::FlightRecord`]. Without one the
    /// serving path pays nothing.
    pub fn with_flight_recorder(&self, flight: Arc<crate::FlightRecorder>) -> Self {
        self.remake(|i| i.flight = Some(flight))
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<crate::FlightRecorder>> {
        self.inner.flight.as_ref()
    }

    /// The wrapped batch engine.
    pub fn batch(&self) -> &BatchEngine {
        &self.inner.batch
    }

    /// The breaker (shared with every clone of this layer).
    pub fn breaker(&self) -> &Arc<CircuitBreaker> {
        &self.inner.breaker
    }

    /// The resilience configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.inner.cfg
    }

    /// Serves a batch under full resilience: admission control first,
    /// then per-request deadline/retry/breaker serving on the worker
    /// pool (with watchdog requeue when configured). Outcomes land in
    /// offered order; a request never fails its batch-mates.
    pub fn run_batch(&self, requests: &[BatchRequest]) -> ResilientBatchReport {
        let start = Instant::now();
        let _span = fbcnn_telemetry::span_with("resilient_batch", || {
            vec![("depth".into(), requests.len().to_string())]
        });
        let inner = &self.inner;
        let n = requests.len();
        let mut totals = ResilienceTotals {
            offered: n,
            ..ResilienceTotals::default()
        };

        // Admission control: decide per offered index whether it is
        // shed, degraded, or admitted untouched.
        let capacity = inner.cfg.queue_capacity;
        let mut shed_flags = vec![false; n];
        let mut cap: Option<usize> = None;
        if capacity > 0 && n > capacity {
            let policy = inner.cfg.shed_policy;
            match policy {
                ShedPolicy::RejectNewest => {
                    for flag in shed_flags.iter_mut().skip(capacity) {
                        *flag = true;
                    }
                }
                ShedPolicy::RejectOldest => {
                    for flag in shed_flags.iter_mut().take(n - capacity) {
                        *flag = true;
                    }
                }
                ShedPolicy::DegradeToFewerSamples => {
                    let t = inner.batch.engine().config().samples;
                    let scaled = t * capacity / n;
                    cap = Some(scaled.max(inner.cfg.min_degraded_samples).max(1));
                }
            }
            let shed_count = shed_flags.iter().filter(|&&s| s).count();
            if shed_count > 0 {
                fbcnn_telemetry::counter_add(
                    "shed_requests",
                    &[("policy", policy.name())],
                    shed_count as u64,
                );
            }
            if cap.is_some() {
                fbcnn_telemetry::counter_add(
                    "shed_degraded_requests",
                    &[("policy", policy.name())],
                    n as u64,
                );
            }
        }

        let engine_seed = inner.batch.engine().config().seed;
        let mut slots: Vec<Option<ResilientOutcome>> = Vec::new();
        slots.resize_with(n, || None);
        let mut admitted: Vec<usize> = Vec::with_capacity(n);
        for (i, req) in requests.iter().enumerate() {
            if shed_flags[i] {
                let out = ResilientOutcome {
                    outcome: BatchOutcome {
                        id: req.id,
                        seed: req.resolved_seed(engine_seed),
                        queue_wait_ns: 0,
                        cache_hit: false,
                        result: Err(InferenceError::Overloaded {
                            queue_depth: n,
                            capacity,
                        }),
                    },
                    attempts: 0,
                    requeues: 0,
                    forced_exact: false,
                    probe: false,
                    shed: true,
                    retry_exhausted: false,
                    degraded_to: None,
                    expired: false,
                    backoff_total: Duration::ZERO,
                    elapsed_ns: 0,
                };
                note_outcome(inner, &out, None);
                slots[i] = Some(out);
                totals.shed += 1;
            } else {
                admitted.push(i);
            }
        }
        totals.degraded = if cap.is_some() { n - totals.shed } else { 0 };

        let threads = inner.batch.batch_config().threads.max(1);
        if threads == 1 && inner.cfg.watchdog_timeout.is_none() {
            // Sequential serving: the deterministic path (golden chaos
            // schedules run here — breaker transitions are a pure
            // function of the request order).
            for &i in &admitted {
                let out = serve_with_resilience(inner, &requests[i], cap, &mut totals, None, true);
                slots[i] = Some(out);
            }
        } else {
            self.drain_with_workers(requests, &admitted, cap, &mut slots, &mut totals);
        }

        let outcomes: Vec<ResilientOutcome> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    let out = ResilientOutcome {
                        // Unreachable: every admitted slot is written by
                        // the pool (or its abandonment path) and every
                        // shed slot above; typed fallback kept instead
                        // of a panic.
                        outcome: BatchOutcome {
                            id: requests[i].id,
                            seed: requests[i].resolved_seed(engine_seed),
                            queue_wait_ns: 0,
                            cache_hit: false,
                            result: Err(InferenceError::WorkerHung { requeues: 0 }),
                        },
                        attempts: 0,
                        requeues: 0,
                        forced_exact: false,
                        probe: false,
                        shed: false,
                        retry_exhausted: false,
                        degraded_to: None,
                        expired: false,
                        backoff_total: Duration::ZERO,
                        elapsed_ns: 0,
                    };
                    note_outcome(inner, &out, None);
                    out
                })
            })
            .collect();

        ResilientBatchReport {
            transitions: inner.breaker.transitions(),
            breaker_state: inner.breaker.state(),
            outcomes,
            totals,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// Serves a single request under deadline/retry/breaker control —
    /// the sequential form of [`ResilientBatchEngine::run_batch`].
    pub fn run_request(&self, req: &BatchRequest) -> ResilientOutcome {
        let mut totals = ResilienceTotals::default();
        serve_with_resilience(&self.inner, req, None, &mut totals, None, true)
    }

    /// [`ResilientBatchEngine::run_request`] under a per-request
    /// [`RequestClass`]: the network tier's priced deadline/budget and
    /// telemetry class label override the engine-level config for this
    /// one request. `None` behaves exactly like `run_request`.
    pub fn run_request_classed(
        &self,
        req: &BatchRequest,
        class: Option<&RequestClass>,
    ) -> ResilientOutcome {
        let mut totals = ResilienceTotals::default();
        serve_with_resilience(&self.inner, req, None, &mut totals, class, true)
    }

    /// The worker pool with watchdog: detached workers drain a shared
    /// unit queue; the main thread waits on a condvar and, when a
    /// watchdog timeout is configured, requeues units claimed longer ago
    /// than the timeout (bumping their epoch so the stale worker's
    /// eventual write is discarded) and spawns a replacement worker.
    fn drain_with_workers(
        &self,
        requests: &[BatchRequest],
        admitted: &[usize],
        cap: Option<usize>,
        slots: &mut [Option<ResilientOutcome>],
        totals: &mut ResilienceTotals,
    ) {
        struct SlotState {
            epoch: u32,
            claimed_at: Option<Instant>,
            requeues: u32,
            done: Option<(ResilientOutcome, ResilienceTotals)>,
        }
        struct Pool {
            requests: Vec<BatchRequest>,
            /// admitted index (into `requests`) + epoch pairs.
            queue: Mutex<VecDeque<(usize, u32)>>,
            slots: Mutex<Vec<SlotState>>,
            done: Condvar,
            completed: AtomicUsize,
            cap: Option<usize>,
        }

        let inner = &self.inner;
        let pool = Arc::new(Pool {
            requests: admitted.iter().map(|&i| requests[i].clone()).collect(),
            queue: Mutex::new((0..admitted.len()).map(|u| (u, 0)).collect()),
            slots: Mutex::new(
                (0..admitted.len())
                    .map(|_| SlotState {
                        epoch: 0,
                        claimed_at: None,
                        requeues: 0,
                        done: None,
                    })
                    .collect(),
            ),
            done: Condvar::new(),
            completed: AtomicUsize::new(0),
            cap,
        });

        fn spawn_worker(inner: &Arc<Inner>, pool: &Arc<Pool>) {
            let inner = Arc::clone(inner);
            let pool = Arc::clone(pool);
            // Detached on purpose: a hung worker must not be joinable —
            // run_batch returns without it once the watchdog abandons
            // its unit. The thread holds only Arcs; it dies quietly.
            std::thread::spawn(move || loop {
                let unit = match pool.queue.lock() {
                    Ok(mut q) => q.pop_front(),
                    Err(_) => None,
                };
                let Some((u, epoch)) = unit else { break };
                {
                    let Ok(mut slots) = pool.slots.lock() else {
                        break;
                    };
                    let s = &mut slots[u];
                    if s.done.is_some() || s.epoch != epoch {
                        continue; // stale or already served elsewhere
                    }
                    s.claimed_at = Some(Instant::now());
                }
                let mut local = ResilienceTotals::default();
                // `watched: false`: this pool already watches the unit
                // at the unit level; nesting a per-attempt watchdog
                // would race the two requeue budgets.
                let out = serve_with_resilience(
                    &inner,
                    &pool.requests[u],
                    pool.cap,
                    &mut local,
                    None,
                    false,
                );
                let Ok(mut slots) = pool.slots.lock() else {
                    break;
                };
                let s = &mut slots[u];
                if s.done.is_none() && s.epoch == epoch {
                    let mut out = out;
                    out.requeues = s.requeues;
                    s.done = Some((out, local));
                    pool.completed.fetch_add(1, Ordering::Release);
                    pool.done.notify_all();
                }
            });
        }

        let workers = inner
            .batch
            .batch_config()
            .threads
            .max(1)
            .min(admitted.len().max(1));
        for _ in 0..workers {
            spawn_worker(inner, &pool);
        }

        let tick = inner
            .cfg
            .watchdog_timeout
            .map(|t| (t / 4).max(Duration::from_millis(5)))
            .unwrap_or(Duration::from_millis(50));
        let mut guard = match pool.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        while pool.completed.load(Ordering::Acquire) < admitted.len() {
            guard = match pool.done.wait_timeout(guard, tick) {
                Ok((g, _)) => g,
                Err(p) => p.into_inner().0,
            };
            let Some(timeout) = inner.cfg.watchdog_timeout else {
                continue;
            };
            let mut respawn = 0usize;
            for (u, s) in guard.iter_mut().enumerate() {
                let hung = s.done.is_none()
                    && s.claimed_at
                        .is_some_and(|claimed| claimed.elapsed() >= timeout);
                if !hung {
                    continue;
                }
                s.epoch += 1;
                s.claimed_at = None;
                s.requeues += 1;
                if s.requeues > inner.cfg.max_requeues {
                    // Give up: typed abandonment, batch completes.
                    fbcnn_telemetry::counter_add("watchdog_abandoned", &[], 1);
                    let req = &pool.requests[u];
                    let local = ResilienceTotals {
                        abandoned: 1,
                        ..ResilienceTotals::default()
                    };
                    let abandoned = ResilientOutcome {
                        outcome: BatchOutcome {
                            id: req.id,
                            seed: req.resolved_seed(inner.batch.engine().config().seed),
                            queue_wait_ns: 0,
                            cache_hit: false,
                            result: Err(InferenceError::WorkerHung {
                                requeues: s.requeues - 1,
                            }),
                        },
                        attempts: 0,
                        requeues: s.requeues - 1,
                        forced_exact: false,
                        probe: false,
                        shed: false,
                        retry_exhausted: false,
                        degraded_to: pool.cap,
                        expired: false,
                        backoff_total: Duration::ZERO,
                        elapsed_ns: 0,
                    };
                    note_outcome(inner, &abandoned, None);
                    s.done = Some((abandoned, local));
                    pool.completed.fetch_add(1, Ordering::Release);
                } else {
                    fbcnn_telemetry::counter_add("watchdog_requeues", &[], 1);
                    if let Ok(mut q) = pool.queue.lock() {
                        q.push_back((u, s.epoch));
                    }
                    respawn += 1;
                }
            }
            drop(guard);
            for _ in 0..respawn {
                // The old worker may be wedged for good; a fresh one
                // picks the requeued unit up.
                spawn_worker(inner, &pool);
            }
            guard = match pool.slots.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        let mut finished = guard;
        for (k, s) in finished.iter_mut().enumerate() {
            if let Some((out, local)) = s.done.take() {
                totals.expired += local.expired;
                totals.retries += local.retries;
                totals.retry_successes += local.retry_successes;
                totals.retry_exhausted += local.retry_exhausted;
                totals.forced_exact += local.forced_exact;
                totals.probes += local.probes;
                totals.requeues += u64::from(out.requeues);
                totals.abandoned += local.abandoned;
                slots[admitted[k]] = Some(out);
            }
        }
    }
}

/// One attempt of `req`, under the worker watchdog when one is
/// configured and the caller is not already running on the watched
/// pool (`watched`): the attempt executes on a detached worker thread
/// and, past `watchdog_timeout`, is requeued to a freshly spawned
/// worker (the wedged worker's eventual result lands on a closed
/// channel and is discarded). After `max_requeues` requeues the unit
/// is abandoned with a typed [`InferenceError::WorkerHung`] — the
/// signal the registry supervisor reads as shard abandonment.
/// `requeues` accumulates across a request's retry attempts: like the
/// deadline token, the requeue budget spans retries.
fn run_attempt(
    inner: &Inner,
    req: &BatchRequest,
    ctl: &RunControl,
    watched: bool,
    requeues: &mut u32,
    totals: &mut ResilienceTotals,
) -> BatchOutcome {
    let timeout = match inner.cfg.watchdog_timeout {
        Some(t) if watched => t,
        _ => return inner.batch.run_request(req, ctl),
    };
    loop {
        let (tx, rx) = mpsc::channel();
        let batch = Arc::clone(&inner.batch);
        let unit = req.clone();
        let unit_ctl = ctl.clone();
        // Detached on purpose: a wedged worker must not be joinable —
        // the attempt returns without it once the watchdog abandons
        // the unit. The thread holds only Arcs; it dies quietly.
        std::thread::spawn(move || {
            let _ = tx.send(batch.run_request(&unit, &unit_ctl));
        });
        match rx.recv_timeout(timeout) {
            Ok(out) => return out,
            Err(_) => {
                // Timed out — or the worker died without reporting,
                // which a fresh worker either reproduces (and the
                // requeue budget converts into abandonment) or was
                // transient and the requeue absorbs.
                if *requeues >= inner.cfg.max_requeues {
                    fbcnn_telemetry::counter_add("watchdog_abandoned", &[], 1);
                    totals.abandoned += 1;
                    return BatchOutcome {
                        id: req.id,
                        seed: req.resolved_seed(inner.batch.engine().config().seed),
                        queue_wait_ns: 0,
                        cache_hit: false,
                        result: Err(InferenceError::WorkerHung {
                            requeues: *requeues,
                        }),
                    };
                }
                *requeues += 1;
                totals.requeues += 1;
                fbcnn_telemetry::counter_add("watchdog_requeues", &[], 1);
            }
        }
    }
}

/// The per-request serving loop: deadline token, breaker routing, typed
/// retry with seeded backoff. Updates `totals` as it goes. `watched`
/// arms the per-attempt watchdog (see [`run_attempt`]); the batch
/// worker pool passes `false` because [`drain_with_workers`] already
/// watches its units at the unit level.
///
/// [`drain_with_workers`]: ResilientBatchEngine::drain_with_workers
fn serve_with_resilience(
    inner: &Inner,
    req: &BatchRequest,
    cap: Option<usize>,
    totals: &mut ResilienceTotals,
    class: Option<&RequestClass>,
    watched: bool,
) -> ResilientOutcome {
    let served_at = Instant::now();
    let cfg = &inner.cfg;
    let engine_seed = inner.batch.engine().config().seed;
    let request_seed = req.resolved_seed(engine_seed);
    // One token for the whole request: the deadline and the sample
    // budget span retries — a retry cannot buy more time. A priced
    // request class overrides the engine-level limits per field.
    let deadline = class.and_then(|c| c.deadline).or(cfg.deadline);
    let sample_budget = class.and_then(|c| c.sample_budget).or(cfg.sample_budget);
    let token = CancelToken::with_limits(deadline, sample_budget);

    let mut attempts: u32 = 0;
    let mut requeues: u32 = 0;
    let mut backoff_total = Duration::ZERO;
    let mut forced_exact_any = false;
    let mut probe_any = false;
    let max_attempts = 1 + cfg.retry.max_retries;

    loop {
        let decision = inner.breaker.decide();
        let forced = decision == PathDecision::ForcedExact;
        let probe = decision == PathDecision::Probe;
        forced_exact_any |= forced;
        probe_any |= probe;
        if forced {
            totals.forced_exact += 1;
        }
        if probe {
            totals.probes += 1;
        }
        let attempt_index = attempts;
        attempts += 1;

        let hook = inner.hook.as_ref().map(|h| {
            let h = Arc::clone(h);
            let id = req.id;
            let sample_hook: SampleHook = Arc::new(move |s| h(id, attempt_index, s));
            sample_hook
        });
        let ctl = RunControl {
            cancel: token.clone(),
            force_exact: forced,
            max_samples: cap,
            sample_hook: hook,
        };
        let outcome = run_attempt(inner, req, &ctl, watched, &mut requeues, totals);

        // A canary trip on a non-forced attempt is the fast path
        // misbehaving even though the request succeeded (exactly).
        let canary_trip = !forced
            && matches!(
                &outcome.result,
                Ok((_, report)) if report.mode == DegradedMode::FullFallback
            );
        let failure = outcome.result.is_err() || canary_trip;
        inner.breaker.observe(decision, failure);

        let expired = match &outcome.result {
            Ok((_, report)) => report.expired,
            Err(InferenceError::Expired { .. }) => true,
            Err(_) => false,
        };
        if expired {
            totals.expired += 1;
        }

        let finish = move |outcome: BatchOutcome, expired: bool, retry_exhausted: bool| {
            let out = ResilientOutcome {
                outcome,
                attempts,
                requeues,
                forced_exact: forced_exact_any,
                probe: probe_any,
                shed: false,
                retry_exhausted,
                degraded_to: cap,
                expired,
                backoff_total,
                elapsed_ns: served_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            };
            note_outcome(inner, &out, class);
            out
        };

        let retryable = match &outcome.result {
            // Expired partials are final: the budget is spent.
            Ok(_) if expired => None,
            Ok(_) if canary_trip && cfg.retry_canary_trips => Some("canary_trip"),
            Ok(_) => None,
            Err(_) if expired => None,
            Err(e) => match retry_class(e) {
                RetryClass::Transient => Some("transient"),
                RetryClass::Permanent => None,
            },
        };

        match retryable {
            Some(reason) if attempts < max_attempts && !token.expired() => {
                totals.retries += 1;
                fbcnn_telemetry::counter_add("retry_attempts", &[("reason", reason)], 1);
                let backoff = cfg
                    .retry
                    .backoff(request_seed, attempt_index, &*inner.jitter);
                fbcnn_telemetry::histogram_record(
                    "retry_backoff_ns",
                    &[],
                    backoff.as_nanos() as f64,
                );
                backoff_total += backoff;
                (inner.sleeper)(backoff);
            }
            Some(reason) => {
                // Out of attempts (or out of deadline): the last outcome
                // stands. For a canary-trip chain that is still a valid
                // exact-path prediction.
                totals.retry_exhausted += 1;
                fbcnn_telemetry::counter_add("retry_exhausted", &[("reason", reason)], 1);
                return finish(outcome, expired, true);
            }
            None => {
                if attempts > 1 && outcome.result.is_ok() {
                    totals.retry_successes += 1;
                    fbcnn_telemetry::counter_add("retry_successes", &[], 1);
                }
                return finish(outcome, expired, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;
    use crate::engine::{synth_input, Engine, EngineConfig};
    use fbcnn_bayes::BayesError;
    use fbcnn_nn::models::ModelKind;
    use fbcnn_nn::NnError;
    use std::sync::atomic::AtomicU32;

    fn small_engine() -> Engine {
        Engine::new(EngineConfig {
            samples: 4,
            calibration_samples: 3,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    }

    fn resilient(cfg: ResilienceConfig) -> ResilientBatchEngine {
        ResilientBatchEngine::new(
            BatchEngine::new(small_engine(), BatchConfig::default()),
            cfg,
        )
    }

    fn requests(engine: &Engine, n: usize) -> Vec<BatchRequest> {
        (0..n)
            .map(|i| {
                BatchRequest::new(
                    i as u64,
                    synth_input(engine.network().input_shape(), 50 + i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            seed: 7,
        };
        let no = NoJitter;
        assert_eq!(policy.backoff(9, 0, &no), Duration::from_millis(1));
        assert_eq!(policy.backoff(9, 1, &no), Duration::from_millis(2));
        assert_eq!(policy.backoff(9, 2, &no), Duration::from_millis(4));
        assert_eq!(
            policy.backoff(9, 3, &no),
            Duration::from_millis(4),
            "capped"
        );
        // Seeded jitter: in [0.5, 1.0]·exp, and replayable.
        let j = SeededJitter;
        for attempt in 0..4 {
            let a = policy.backoff(9, attempt, &j);
            let b = policy.backoff(9, attempt, &j);
            assert_eq!(a, b);
            let exp = policy.backoff(9, attempt, &no);
            assert!(
                a <= exp && a >= exp / 2,
                "{a:?} outside [{:?}/2, {:?}]",
                exp,
                exp
            );
        }
        // Different requests jitter differently (with overwhelming odds).
        assert_ne!(policy.backoff(1, 0, &j), policy.backoff(2, 0, &j));
    }

    #[test]
    fn retry_taxonomy_matches_the_docs() {
        use RetryClass::*;
        let cases = [
            (InferenceError::AllSamplesFailed { requested: 4 }, Transient),
            (InferenceError::Input(NnError::EmptyGraph), Permanent),
            (InferenceError::Bayes(BayesError::NoSamples), Permanent),
            (
                InferenceError::Expired {
                    samples_completed: 0,
                },
                Permanent,
            ),
            (
                InferenceError::Overloaded {
                    queue_depth: 9,
                    capacity: 4,
                },
                Permanent,
            ),
            (InferenceError::WorkerHung { requeues: 2 }, Permanent),
        ];
        for (e, want) in cases {
            assert_eq!(retry_class(&e), want, "{e}");
        }
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_recovers() {
        let b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_observations: 4,
            threshold: 0.5,
            cooldown_requests: 2,
            probes: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        // 3 failures out of 4 > 0.5 → open.
        for failure in [true, true, false, true] {
            let d = b.decide();
            assert_eq!(d, PathDecision::Fast);
            b.observe(d, failure);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown: 2 requests served exact, then a probe.
        assert_eq!(b.decide(), PathDecision::ForcedExact);
        b.observe(PathDecision::ForcedExact, true); // ignored while open
        assert_eq!(b.decide(), PathDecision::ForcedExact);
        b.observe(PathDecision::ForcedExact, false);
        let probe = b.decide();
        assert_eq!(probe, PathDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe → back to open; cool down again, then two passes.
        b.observe(probe, true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.decide(), PathDecision::ForcedExact);
        b.observe(PathDecision::ForcedExact, false);
        assert_eq!(b.decide(), PathDecision::ForcedExact);
        b.observe(PathDecision::ForcedExact, false);
        for _ in 0..2 {
            let p = b.decide();
            assert_eq!(p, PathDecision::Probe);
            b.observe(p, false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        let names: Vec<(&str, &str)> = b
            .transitions()
            .iter()
            .map(|&(f, t)| (f.name(), t.name()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("closed", "open"),
                ("open", "half_open"),
                ("half_open", "open"),
                ("open", "half_open"),
                ("half_open", "closed"),
            ]
        );
    }

    #[test]
    fn no_fault_run_batch_is_bit_identical_to_sequential_calls() {
        let engine = small_engine();
        let reqs = requests(&engine, 4);
        let layer = ResilientBatchEngine::new(
            BatchEngine::new(engine.clone(), BatchConfig::default()),
            ResilienceConfig::default(),
        );
        let report = layer.run_batch(&reqs);
        report.reconcile().unwrap();
        assert!(report.transitions.is_empty());
        for (req, o) in reqs.iter().zip(&report.outcomes) {
            assert_eq!(o.attempts, 1);
            assert!(!o.expired && !o.shed && !o.forced_exact);
            let (pred, rep) = o.outcome.result.as_ref().unwrap();
            let (seq_pred, seq_rep) = engine
                .predict_robust_seeded(&req.input, o.outcome.seed)
                .unwrap();
            assert_eq!(pred, &seq_pred, "request {} diverged", req.id);
            assert_eq!(rep, &seq_rep);
        }
    }

    #[test]
    fn shed_policies_pick_the_right_victims() {
        let engine = small_engine();
        let reqs = requests(&engine, 6);
        for (policy, shed_ids) in [
            (ShedPolicy::RejectNewest, vec![4u64, 5]),
            (ShedPolicy::RejectOldest, vec![0, 1]),
        ] {
            let layer = resilient(ResilienceConfig {
                queue_capacity: 4,
                shed_policy: policy,
                ..ResilienceConfig::default()
            });
            let report = layer.run_batch(&reqs);
            report.reconcile().unwrap();
            assert_eq!(report.totals.shed, 2, "{policy:?}");
            let shed: Vec<u64> = report
                .outcomes
                .iter()
                .filter(|o| o.shed)
                .map(|o| o.outcome.id)
                .collect();
            assert_eq!(shed, shed_ids, "{policy:?}");
            for o in report.outcomes.iter().filter(|o| o.shed) {
                assert!(matches!(
                    o.outcome.result,
                    Err(InferenceError::Overloaded {
                        queue_depth: 6,
                        capacity: 4
                    })
                ));
            }
        }
    }

    #[test]
    fn degrade_policy_admits_everyone_with_a_smaller_budget() {
        let engine = small_engine();
        let t = engine.config().samples;
        let reqs = requests(&engine, 8);
        let layer = resilient(ResilienceConfig {
            queue_capacity: 4,
            shed_policy: ShedPolicy::DegradeToFewerSamples,
            ..ResilienceConfig::default()
        });
        let report = layer.run_batch(&reqs);
        report.reconcile().unwrap();
        assert_eq!(report.totals.shed, 0);
        assert_eq!(report.totals.degraded, 8);
        let cap = t * 4 / 8;
        for o in &report.outcomes {
            assert_eq!(o.degraded_to, Some(cap));
            let (_, rep) = o.outcome.result.as_ref().unwrap();
            assert_eq!(rep.used_samples, cap);
            assert_eq!(rep.mode, DegradedMode::PartialSamples);
        }
    }

    #[test]
    fn deadline_pressure_yields_flagged_partials_never_silence() {
        let layer = resilient(ResilienceConfig {
            sample_budget: Some(2),
            ..ResilienceConfig::default()
        });
        let engine = layer.batch().engine().clone();
        let req = &requests(&engine, 1)[0];
        let out = layer.run_request(req);
        assert!(out.expired);
        assert_eq!(out.attempts, 1, "expiry is final, never retried");
        let (pred, rep) = out.outcome.result.as_ref().unwrap();
        assert!(rep.expired);
        assert_eq!(rep.mode, DegradedMode::PartialSamples);
        assert_eq!(rep.used_samples, 2);
        // The partial mean is exactly the 2-sample prefix run.
        let two = Engine::new(EngineConfig {
            samples: 2,
            calibration_samples: 3,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        });
        let (two_pred, _) = two
            .predict_robust_seeded(&req.input, out.outcome.seed)
            .unwrap();
        assert_eq!(pred.mean, two_pred.mean);
    }

    #[test]
    fn transient_failures_retry_and_heal() {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let slept = Arc::clone(&sleeps);
        let layer = resilient(ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(8),
                seed: 3,
            },
            ..ResilienceConfig::default()
        })
        .with_jitter(Arc::new(NoJitter))
        .with_sleeper(Arc::new(move |d| {
            if let Ok(mut s) = slept.lock() {
                s.push(d);
            }
        }))
        .with_request_sample_hook(Arc::new(move |_id, attempt, _s| {
            seen.fetch_add(1, Ordering::Relaxed);
            if attempt == 0 {
                panic!("chaos: injected failure");
            }
        }));
        let engine = layer.batch().engine().clone();
        let req = &requests(&engine, 1)[0];
        let out = layer.run_request(req);
        assert_eq!(out.attempts, 2);
        assert!(!out.retry_exhausted);
        assert!(out.outcome.result.is_ok());
        // Retried once after the deterministic base backoff (NoJitter).
        assert_eq!(
            sleeps.lock().map(|s| s.clone()).unwrap_or_default(),
            vec![Duration::from_millis(1)]
        );
        assert_eq!(out.backoff_total, Duration::from_millis(1));
        assert!(calls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn permanent_failures_never_retry() {
        let layer = resilient(ResilienceConfig::default());
        let engine = layer.batch().engine().clone();
        let mut req = requests(&engine, 1).remove(0);
        req.input = fbcnn_tensor::Tensor::zeros(fbcnn_tensor::Shape::new(1, 2, 2));
        let out = layer.run_request(&req);
        assert_eq!(out.attempts, 1);
        assert!(matches!(out.outcome.result, Err(InferenceError::Input(_))));
    }

    #[test]
    fn exhausted_retries_surface_the_typed_loss() {
        let layer = resilient(ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::from_micros(10),
                max_backoff: Duration::from_micros(10),
                seed: 3,
            },
            ..ResilienceConfig::default()
        })
        .with_request_sample_hook(Arc::new(|_id, _attempt, _s| {
            panic!("chaos: always down");
        }));
        let engine = layer.batch().engine().clone();
        let req = &requests(&engine, 1)[0];
        let out = layer.run_request(req);
        assert_eq!(out.attempts, 2);
        assert!(out.retry_exhausted);
        assert!(matches!(
            out.outcome.result,
            Err(InferenceError::AllSamplesFailed { .. })
        ));
    }

    #[test]
    fn watchdog_requeues_a_hung_unit_to_a_fresh_worker() {
        let hung_once = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&hung_once);
        let layer = resilient(ResilienceConfig {
            watchdog_timeout: Some(Duration::from_millis(40)),
            max_requeues: 2,
            ..ResilienceConfig::default()
        })
        .with_request_sample_hook(Arc::new(move |_id, _attempt, s| {
            if s == 0 && flag.fetch_add(1, Ordering::SeqCst) == 0 {
                // First execution wedges well past the watchdog timeout.
                std::thread::sleep(Duration::from_millis(400));
            }
        }));
        let engine = layer.batch().engine().clone();
        let reqs = requests(&engine, 1);
        let report = layer.run_batch(&reqs);
        report.reconcile().unwrap();
        let o = &report.outcomes[0];
        assert_eq!(o.requeues, 1, "one watchdog requeue");
        let (pred, _) = o.outcome.result.as_ref().unwrap();
        let (seq, _) = engine
            .predict_robust_seeded(&reqs[0].input, o.outcome.seed)
            .unwrap();
        assert_eq!(pred, &seq, "requeued unit still bit-identical");
    }

    #[test]
    fn watchdog_abandons_a_permanently_hung_unit() {
        let layer = resilient(ResilienceConfig {
            watchdog_timeout: Some(Duration::from_millis(30)),
            max_requeues: 1,
            ..ResilienceConfig::default()
        })
        .with_request_sample_hook(Arc::new(move |_id, _attempt, s| {
            if s == 0 {
                std::thread::sleep(Duration::from_millis(400));
            }
        }));
        let engine = layer.batch().engine().clone();
        let reqs = requests(&engine, 1);
        let start = Instant::now();
        let report = layer.run_batch(&reqs);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "abandonment must bound the batch"
        );
        report.reconcile().unwrap();
        assert_eq!(report.totals.abandoned, 1);
        assert!(matches!(
            report.outcomes[0].outcome.result,
            Err(InferenceError::WorkerHung { requeues: 1 })
        ));
    }
}
