//! Seeded SLO soak: drive the versioned registry through calm → fault
//! burst → recovery under a [`WindowedRegistry`] and a [`SloPolicy`],
//! and reconcile the windowed accounting **exactly** against the
//! registry's own fold and the chaos campaign's report.
//!
//! The soak is the executable acceptance criterion of the SLO monitor:
//!
//! 1. **Calm** windows of healthy registry traffic must evaluate
//!    [`HealthStatus::Ok`].
//! 2. A **burst** window deploys a crashy candidate (its canary traffic
//!    panics every sample) so the canary breaker trips, rolls the
//!    rollout back, and fires the armed flight-recorder postmortem;
//!    optionally a [`ChaosConfig::quick`] campaign runs in the same
//!    window under the `"default"` deadline class. The window must
//!    evaluate [`HealthStatus::Critical`].
//! 3. **Recovery** windows of healthy traffic walk the verdict back
//!    through [`HealthStatus::Warning`] (the slow-span error budget is
//!    still burned) to a final [`HealthStatus::Ok`].
//!
//! Time is a [`ManualClock`], so window boundaries — and therefore the
//! whole health walk — are a deterministic function of the seed.
//!
//! [`ChaosConfig::quick`]: super::chaos::ChaosConfig::quick

use super::chaos::{canary_crash_hook, run_chaos, ChaosConfig};
use super::window::{HealthStatus, LatencyObjective, SloPolicy, WindowedRegistry};
use super::{soak_engine_config, SilencedChaosPanics};
use fast_bcnn::{
    io, synth_input, ArtifactError, BatchConfig, BatchRequest, Engine, FlightRecorder, Ledger,
    ModelArtifact, ModelRegistry, NoJitter, RegistryConfig, RegistryOutcome, ResilienceConfig,
};
use fbcnn_telemetry::{
    ManualClock, Registry, QUANTILE_WIDTH_RATIO, REQUEST_LATENCY_METRIC, REQUEST_OUTCOME_METRIC,
    STANDARD_QUANTILES,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Deadline class the soak's registry traffic is served under.
pub const SOAK_CLASS: &str = "soak";

/// Deadline class the embedded chaos campaign runs under (the
/// resilience layer's default).
pub const CHAOS_CLASS: &str = "default";

/// Knobs of an SLO soak.
#[derive(Debug, Clone)]
pub struct SloSoakConfig {
    /// Master seed; traffic, routing and faults are a function of it.
    pub seed: u64,
    /// MC sample count `T` of the engines under test.
    pub samples: usize,
    /// Healthy windows before the burst.
    pub calm_windows: usize,
    /// Healthy windows after the burst. Must exceed the policy's slow
    /// span so the final verdict's budget excludes the burst.
    pub recovery_windows: usize,
    /// Registry requests driven per calm/recovery window.
    pub requests_per_window: usize,
    /// Minimum registry requests in the burst window (extended until at
    /// least six canary ids are included, so the canary breaker is
    /// guaranteed to trip).
    pub burst_requests: usize,
    /// Nominal window width on the manual clock, nanoseconds.
    pub window_width_ns: u64,
    /// Windows the registry retains; must cover the whole soak.
    pub window_capacity: usize,
    /// Also run a [`ChaosConfig::quick`] campaign inside the burst
    /// window (class `"default"`).
    pub with_chaos: bool,
    /// Where the auto-emitted postmortem dump lands; `None` picks a
    /// seed-keyed file in the system temp directory.
    pub postmortem_path: Option<PathBuf>,
}

impl SloSoakConfig {
    /// The CI smoke: small windows, chaos included, ~2s of work.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            samples: 4,
            calm_windows: 2,
            recovery_windows: 9,
            requests_per_window: 6,
            burst_requests: 16,
            window_width_ns: 1_000_000_000,
            window_capacity: 32,
            with_chaos: true,
            postmortem_path: None,
        }
    }

    /// The full soak: more traffic per window, same deterministic walk.
    pub fn full(seed: u64) -> Self {
        Self {
            calm_windows: 3,
            recovery_windows: 10,
            requests_per_window: 10,
            burst_requests: 24,
            window_capacity: 48,
            ..Self::quick(seed)
        }
    }

    /// The deadline classes this soak owns and is judged by.
    pub fn classes(&self) -> Vec<String> {
        let mut classes = vec![SOAK_CLASS.to_string()];
        if self.with_chaos {
            classes.push(CHAOS_CLASS.to_string());
        }
        classes
    }

    /// The policy the soak is judged by. The latency objective's
    /// threshold sits above the histogram's top bucket bound on
    /// purpose: wall-clock noise must never flake the health walk, so
    /// only the (deterministic) burn-rate rules can page. Burn judging
    /// is pinned to the soak's own classes so a recorder shared with
    /// foreign traffic (parallel test threads) cannot tilt the walk.
    pub fn policy(&self) -> SloPolicy {
        SloPolicy {
            objectives: vec![LatencyObjective {
                class: SOAK_CLASS.to_string(),
                quantile: 0.99,
                threshold_ns: 4e9,
            }],
            error_budget: 0.02,
            classes: Some(self.classes()),
            ..SloPolicy::default()
        }
    }
}

/// The health verdict of one window, in soak order.
#[derive(Debug, Clone)]
pub struct WindowVerdict {
    /// Window index on the manual clock.
    pub window: u64,
    /// `"calm"`, `"burst"` or `"recovery"`.
    pub phase: String,
    /// The evaluated status.
    pub status: HealthStatus,
    /// Rendered violations behind the status.
    pub violations: Vec<String>,
    /// Registry requests driven in this window.
    pub requests: usize,
}

/// Per-class request totals as the windowed registry saw them.
#[derive(Debug, Clone)]
pub struct ClassTotals {
    /// Deadline class label.
    pub class: String,
    /// `request_outcomes{class,result="ok"}` summed over the soak span.
    pub ok: u64,
    /// `request_outcomes{class,result="failed"}` summed likewise.
    pub failed: u64,
}

/// One quantile acceptance check: the windowed bucket-edge estimate
/// against the exact sorted quantile of the same latency population.
#[derive(Debug, Clone)]
pub struct QuantileCheck {
    /// Quantile name (`"p50"` … `"p999"`).
    pub name: String,
    /// The quantile in `(0, 1]`.
    pub q: f64,
    /// The windowed histogram estimate, nanoseconds.
    pub estimate_ns: f64,
    /// The exact same-rank value from the sorted latencies.
    pub exact_ns: u64,
    /// Whether the estimate honors the documented bucket error bound
    /// (`exact ≤ estimate ≤ exact × QUANTILE_WIDTH_RATIO`, clamped at
    /// the histogram edges).
    pub within_bound: bool,
}

/// Totals of the embedded chaos campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChaosTotals {
    /// Requests the campaign offered.
    pub requests: u64,
    /// Requests that produced a prediction.
    pub ok: u64,
    /// Requests that failed with a typed error.
    pub failed: u64,
}

/// The outcome of one [`run_slo_soak`].
#[derive(Debug)]
pub struct SloSoakReport {
    /// The soak seed.
    pub seed: u64,
    /// Manual-clock window width, nanoseconds.
    pub window_width_ns: u64,
    /// Windows the soak spanned (calm + burst + recovery).
    pub windows: usize,
    /// Windows evicted from the ring — must be 0 for exact accounting.
    pub evicted_windows: u64,
    /// Error budget of the policy the walk was judged by.
    pub error_budget: f64,
    /// Fast alerting span, windows.
    pub fast_windows: usize,
    /// Slow alerting span, windows.
    pub slow_windows: usize,
    /// Registry requests driven (calm + burst + recovery).
    pub registry_requests: u64,
    /// Registry requests that produced a prediction.
    pub registry_ok: u64,
    /// Registry requests that failed.
    pub registry_failed: u64,
    /// The windowed per-class totals over the whole soak span.
    pub windowed: Vec<ClassTotals>,
    /// The same classes read from the *total* (unwindowed) registry.
    pub totals: Vec<ClassTotals>,
    /// Chaos campaign totals, when the burst included one.
    pub chaos: Option<ChaosTotals>,
    /// Quantile acceptance checks for the soak class.
    pub quantiles: Vec<QuantileCheck>,
    /// The per-window health walk.
    pub verdicts: Vec<WindowVerdict>,
    /// The auto-emitted postmortem dump.
    pub postmortem_path: Option<PathBuf>,
    /// The dump's recorded trigger (`"canary_spike"` normally).
    pub postmortem_trigger: String,
    /// Failed request ids the dump replays, in recording order.
    pub postmortem_failed_ids: Vec<u64>,
    /// Failed registry request ids at dump time — what the dump *must*
    /// replay.
    pub expected_failed_ids: Vec<u64>,
    /// Records in the dump's live ring.
    pub postmortem_records: u64,
    /// Degraded records ([`fast_bcnn::FlightLog::degraded`]) in the dump.
    pub postmortem_degraded: u64,
    /// Mid-run invariant failures — must be empty.
    pub reconcile_errors: Vec<String>,
    /// Wall-clock of the soak, nanoseconds.
    pub elapsed_ns: u64,
}

impl SloSoakReport {
    /// Worst status any window evaluated to.
    pub fn peak_status(&self) -> HealthStatus {
        self.verdicts
            .iter()
            .map(|v| v.status)
            .max()
            .unwrap_or(HealthStatus::Ok)
    }

    /// The last window's status.
    pub fn final_status(&self) -> HealthStatus {
        self.verdicts
            .last()
            .map(|v| v.status)
            .unwrap_or(HealthStatus::Ok)
    }

    /// The windowed totals for `class`, zeros when the class was never
    /// observed.
    pub fn windowed_class(&self, class: &str) -> (u64, u64) {
        self.windowed
            .iter()
            .find(|c| c.class == class)
            .map(|c| (c.ok, c.failed))
            .unwrap_or((0, 0))
    }

    /// Every exact-accounting claim of the soak: the windowed view
    /// against the registry fold, the chaos report and the total
    /// registry; the quantile bound; the health walk; and the postmortem
    /// replay.
    pub fn ledger(&self) -> Ledger {
        let (ok, failed) = self.windowed_class(SOAK_CLASS);
        let (pm_ids, expected_ids) = (&self.postmortem_failed_ids, &self.expected_failed_ids);
        let expected = expected_ids.len() as u64;
        // The health walk: calm Ok, the burst pages, the budget decays
        // through Warning, and the soak ends healthy.
        let last_critical = self
            .verdicts
            .iter()
            .rposition(|v| v.status == HealthStatus::Critical)
            .unwrap_or(0);
        let warned = self.verdicts[last_critical..]
            .iter()
            .any(|v| v.status == HealthStatus::Warning);
        let out_of_bound = self.quantiles.iter().filter(|q| !q.within_bound).count();
        // The postmortem dump replays exactly the failed requests the
        // registry had served when the canary breaker tripped.
        let in_order = pm_ids
            .iter()
            .zip(expected_ids)
            .filter(|(a, b)| a == b)
            .count();
        let mut ledger = Ledger::from([
            (
                "failed mid-run invariants",
                self.reconcile_errors.len() as u64,
                0,
            ),
            ("evicted windows", self.evicted_windows, 0),
            ("windowed soak ok vs registry ok", ok, self.registry_ok),
            (
                "windowed soak failed vs registry failed",
                failed,
                self.registry_failed,
            ),
            (
                "registry ok + failed vs offered",
                self.registry_ok + self.registry_failed,
                self.registry_requests,
            ),
            (
                "quantile checks produced",
                u64::from(!self.quantiles.is_empty()),
                1,
            ),
            (
                "quantile estimates outside the bucket bound",
                out_of_bound as u64,
                0,
            ),
            (
                "the health walk reached critical",
                u64::from(self.peak_status() == HealthStatus::Critical),
                1,
            ),
            (
                "a warning window followed the last critical",
                u64::from(warned),
                1,
            ),
            (
                "the health walk ended ok",
                u64::from(self.final_status() == HealthStatus::Ok),
                1,
            ),
            (
                "postmortem dump emitted",
                u64::from(self.postmortem_path.is_some()),
                1,
            ),
            (
                "postmortem failed ids vs the soak's",
                pm_ids.len() as u64,
                expected,
            ),
            (
                "postmortem failed ids in recorded order",
                in_order as u64,
                expected,
            ),
        ]);
        if let Some(chaos) = &self.chaos {
            let (ok, failed) = self.windowed_class(CHAOS_CLASS);
            ledger.push("windowed chaos ok vs chaos report", ok, chaos.ok);
            ledger.push(
                "windowed chaos failed vs chaos report",
                failed,
                chaos.failed,
            );
            ledger.push(
                "chaos ok + failed vs offered",
                chaos.ok + chaos.failed,
                chaos.requests,
            );
        }
        // The windowed view and the total registry must agree cell by
        // cell (nothing was evicted, so the ring *is* the total).
        for w in &self.windowed {
            let total = self.totals.iter().find(|t| t.class == w.class);
            let (ok, failed) = total.map_or((0, 0), |t| (t.ok, t.failed));
            let class = &w.class;
            ledger.push(
                format!("class {class} in the total registry"),
                u64::from(total.is_some()),
                1,
            );
            ledger.push(format!("class {class} windowed ok vs total"), w.ok, ok);
            ledger.push(
                format!("class {class} windowed failed vs total"),
                w.failed,
                failed,
            );
        }
        ledger
    }

    /// Checks [`SloSoakReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row, plus the first entry of
    /// `reconcile_errors` when there is one.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger()
            .check()
            .map_err(|e| match self.reconcile_errors.first() {
                Some(first) => format!("{e}; first: {first}"),
                None => e,
            })
    }
}

/// Sum of `request_outcomes{class, result}` over the last `span`
/// windows.
fn windowed_class_counts(windowed: &WindowedRegistry, span: usize, class: &str) -> (u64, u64) {
    let ok = windowed.windowed_counter(
        span,
        REQUEST_OUTCOME_METRIC,
        &[("class", class), ("result", "ok")],
    );
    let failed = windowed.windowed_counter(
        span,
        REQUEST_OUTCOME_METRIC,
        &[("class", class), ("result", "failed")],
    );
    (ok, failed)
}

/// The same sums read from an unwindowed registry's counter cells.
fn total_class_counts(total: &Registry, class: &str) -> (u64, u64) {
    let mut ok = 0;
    let mut failed = 0;
    for c in total.counters() {
        if c.name != REQUEST_OUTCOME_METRIC {
            continue;
        }
        let matches = |result: &str| {
            let mut want = vec![
                ("class".to_string(), class.to_string()),
                ("result".to_string(), result.to_string()),
            ];
            want.sort();
            c.labels == want
        };
        if matches("ok") {
            ok += c.value;
        } else if matches("failed") {
            failed += c.value;
        }
    }
    (ok, failed)
}

/// Exact quantile of a sorted population, with the same rank rule as
/// [`fbcnn_telemetry::histogram_quantile`].
pub fn exact_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let total = sorted.len() as f64;
    let rank = (q * total).ceil().clamp(1.0, total) as usize;
    sorted.get(rank - 1).copied()
}

/// Whether a bucket-edge `estimate` honors the documented error bound
/// against the `exact` same-rank value, given the histogram's edge
/// bounds.
fn estimate_within_bound(estimate: f64, exact: u64, min_bound: f64, max_bound: f64) -> bool {
    let exact = exact as f64;
    if exact > max_bound {
        // Overflow rank: the estimate clamps to the top finite bound.
        (estimate - max_bound).abs() < f64::EPSILON
    } else {
        estimate >= exact && estimate <= (exact * QUANTILE_WIDTH_RATIO).max(min_bound)
    }
}

/// Runs the seeded SLO soak; see the module docs for the phase walk.
///
/// The soak installs a [`WindowedRegistry`] of its own as the global
/// telemetry recorder for the duration (the embedded chaos campaign
/// records straight through it) and hands it back with the report, so
/// a harness can export trace/metrics artifacts from its total view.
///
/// # Errors
///
/// Only artifact/registry construction can fail; every soak-level
/// invariant lands in [`SloSoakReport::reconcile_errors`] instead.
pub fn run_slo_soak(
    cfg: &SloSoakConfig,
) -> Result<(SloSoakReport, Arc<WindowedRegistry>), ArtifactError> {
    let start = Instant::now();
    let clock = Arc::new(ManualClock::new());
    let width = cfg.window_width_ns.max(1);
    let windowed = Arc::new(WindowedRegistry::new(
        width,
        cfg.window_capacity.max(4),
        Arc::clone(&clock) as Arc<dyn fbcnn_telemetry::Clock>,
    ));
    let _guard =
        fbcnn_telemetry::install(Arc::clone(&windowed) as Arc<dyn fbcnn_telemetry::Recorder>);
    let _silencer = SilencedChaosPanics::install();
    let policy = cfg.policy();
    let mut reconcile_errors = Vec::new();

    // --- the registry under observation -----------------------------
    let engine_cfg = soak_engine_config(cfg.seed, cfg.samples);
    let pristine = Engine::new(engine_cfg);
    let input_shape = pristine.network().input_shape();

    let flight = Arc::new(FlightRecorder::default());
    let postmortem_path = cfg.postmortem_path.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "fbcnn_slo_postmortem_{}_{}.json",
            cfg.seed,
            std::process::id()
        ))
    });
    flight.arm_postmortem(&postmortem_path);

    // The burst's fault: while armed, the candidate's canary traffic
    // panics on every sample of every attempt, so each canary request
    // fails hard and the version breaker trips at exactly
    // `canary_min_requests` observations — a deterministic failure
    // count.
    let armed = Arc::new(AtomicBool::new(false));
    let booted = Arc::new(OnceLock::new());
    let registry_cfg = RegistryConfig {
        shards: 2,
        routing_seed: cfg.seed ^ 0x510_CAFE,
        canary_percent: 50,
        canary_min_requests: 4,
        batch: BatchConfig {
            threads: 1,
            cache_capacity: 8,
            ..BatchConfig::default()
        },
        resilience: ResilienceConfig {
            deadline_class: SOAK_CLASS.to_string(),
            ..ResilienceConfig::default()
        },
        sample_hook: Some(canary_crash_hook(
            &armed,
            &booted,
            "chaos: slo candidate crashes on canary traffic",
        )),
        jitter: Some(Arc::new(NoJitter)),
        flight: Some(Arc::clone(&flight)),
        supervise: None,
    };
    let registry = Arc::new(ModelRegistry::new(
        ModelArtifact::from_engine(&pristine, 1, "v1"),
        registry_cfg,
    )?);
    let _ = booted.set(Arc::downgrade(&registry));

    let mut verdicts = Vec::new();
    let mut outcomes: Vec<RegistryOutcome> = Vec::new();
    let mut failed_ids = Vec::new();
    let mut expected_failed_ids: Option<Vec<u64>> = None;
    let mut window = 0u64;

    let drive = |registry: &ModelRegistry,
                 ids: &[u64],
                 outcomes: &mut Vec<RegistryOutcome>,
                 failed_ids: &mut Vec<u64>,
                 expected: &mut Option<Vec<u64>>| {
        for &id in ids {
            let input = synth_input(input_shape, cfg.seed ^ id.wrapping_mul(41));
            let o = registry.handle(&BatchRequest::new(id, input));
            if o.outcome.outcome.result.is_err() {
                failed_ids.push(id);
            }
            if o.rolled_back {
                // The fault dies with the version that carried it, and
                // the postmortem freezes exactly the failures seen so
                // far (including this request's own record).
                armed.store(false, Ordering::Relaxed);
                *expected = Some(failed_ids.clone());
            }
            outcomes.push(o);
        }
    };

    let verdict = |window: u64, phase: &str, requests: usize| {
        let report = policy.evaluate(&windowed);
        WindowVerdict {
            window,
            phase: phase.to_string(),
            status: report.status,
            violations: report.violations.iter().map(|v| v.render()).collect(),
            requests,
        }
    };

    // --- calm --------------------------------------------------------
    for _ in 0..cfg.calm_windows.max(1) {
        clock.set(window * width);
        let ids: Vec<u64> = (0..cfg.requests_per_window.max(1))
            .map(|i| window * 10_000 + i as u64)
            .collect();
        drive(
            &registry,
            &ids,
            &mut outcomes,
            &mut failed_ids,
            &mut expected_failed_ids,
        );
        verdicts.push(verdict(window, "calm", ids.len()));
        window += 1;
    }

    // --- burst -------------------------------------------------------
    clock.set(window * width);
    registry.deploy(ModelArtifact::from_engine(&pristine, 2, "v2-crashy"))?;
    armed.store(true, Ordering::Relaxed);
    // Pick burst ids until enough canaries are in the mix to guarantee
    // the trip (the breaker needs `canary_min_requests` observations).
    let mut burst_ids = Vec::new();
    let mut canaries = 0usize;
    let mut id = 500_000u64;
    while burst_ids.len() < cfg.burst_requests.max(8) || canaries < 6 {
        if registry.is_canary_id(id) {
            canaries += 1;
        }
        burst_ids.push(id);
        id += 1;
    }
    drive(
        &registry,
        &burst_ids,
        &mut outcomes,
        &mut failed_ids,
        &mut expected_failed_ids,
    );
    armed.store(false, Ordering::Relaxed);
    if expected_failed_ids.is_none() {
        reconcile_errors.push("the crashy canary never rolled the rollout back".to_string());
    }

    let chaos = if cfg.with_chaos {
        let chaos_report = run_chaos(&ChaosConfig::quick(cfg.seed), windowed.total());
        if let Err(e) = chaos_report.reconcile() {
            reconcile_errors.push(format!("chaos report failed to reconcile: {e}"));
        }
        Some(ChaosTotals {
            requests: chaos_report.requests_total as u64,
            ok: chaos_report.ok_total as u64,
            failed: chaos_report.failed_total as u64,
        })
    } else {
        None
    };

    let burst = verdict(window, "burst", burst_ids.len());
    // A Critical verdict with the dump still armed (no canary rollback
    // fired it) is the SLO monitor's own postmortem moment.
    if burst.status == HealthStatus::Critical {
        match flight.trigger_postmortem("slo_critical") {
            Some(Ok(_)) => {
                fbcnn_telemetry::counter_add("postmortem_dumps", &[("trigger", "slo_critical")], 1);
            }
            Some(Err(e)) => {
                fbcnn_telemetry::counter_add(
                    "postmortem_errors",
                    &[("trigger", "slo_critical")],
                    1,
                );
                reconcile_errors.push(format!("slo_critical postmortem failed: {e}"));
            }
            None => {}
        }
    }
    verdicts.push(burst);
    window += 1;

    // --- recovery ----------------------------------------------------
    for _ in 0..cfg.recovery_windows.max(1) {
        clock.set(window * width);
        let ids: Vec<u64> = (0..cfg.requests_per_window.max(1))
            .map(|i| window * 10_000 + i as u64)
            .collect();
        drive(
            &registry,
            &ids,
            &mut outcomes,
            &mut failed_ids,
            &mut expected_failed_ids,
        );
        verdicts.push(verdict(window, "recovery", ids.len()));
        window += 1;
    }

    // --- exact accounting -------------------------------------------
    let windows = window as usize;
    let span = windows;
    let registry_ok = outcomes
        .iter()
        .filter(|o| o.outcome.outcome.result.is_ok())
        .count() as u64;
    let registry_failed = outcomes.len() as u64 - registry_ok;
    // The registry's own per-version fold must agree with the outcomes.
    let fold: u64 = registry
        .version_counters()
        .values()
        .map(|c| c.requests)
        .sum();
    if fold != outcomes.len() as u64 {
        reconcile_errors.push(format!(
            "version counters fold to {fold} requests, the soak drove {}",
            outcomes.len()
        ));
    }

    let total = windowed.total();
    let windowed_totals: Vec<ClassTotals> = cfg
        .classes()
        .into_iter()
        .map(|class| {
            let (ok, failed) = windowed_class_counts(&windowed, span, &class);
            ClassTotals { class, ok, failed }
        })
        .collect();
    let total_totals: Vec<ClassTotals> = cfg
        .classes()
        .into_iter()
        .map(|class| {
            let (ok, failed) = total_class_counts(total, &class);
            ClassTotals { class, ok, failed }
        })
        .collect();

    // --- quantile acceptance ----------------------------------------
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .filter(|o| o.outcome.attempts > 0)
        .map(|o| o.outcome.elapsed_ns)
        .collect();
    latencies.sort_unstable();
    let mut quantiles = Vec::new();
    if let Some(h) =
        windowed.windowed_histogram(span, REQUEST_LATENCY_METRIC, &[("class", SOAK_CLASS)])
    {
        if h.count != latencies.len() as u64 {
            reconcile_errors.push(format!(
                "latency histogram holds {} values, the soak measured {}",
                h.count,
                latencies.len()
            ));
        }
        let min_bound = h.bounds.first().copied().unwrap_or(0.0);
        let max_bound = h.bounds.last().copied().unwrap_or(f64::MAX);
        for &(name, q) in STANDARD_QUANTILES {
            let estimate =
                fbcnn_telemetry::histogram_quantile(&h.bounds, &h.counts, q).unwrap_or(f64::NAN);
            let exact = exact_quantile(&latencies, q).unwrap_or(0);
            quantiles.push(QuantileCheck {
                name: name.to_string(),
                q,
                estimate_ns: estimate,
                exact_ns: exact,
                within_bound: estimate.is_finite()
                    && estimate_within_bound(estimate, exact, min_bound, max_bound),
            });
        }
    } else {
        reconcile_errors.push("no windowed latency histogram for the soak class".to_string());
    }

    // --- the postmortem dump ----------------------------------------
    let (postmortem_trigger, postmortem_failed_ids, postmortem_records, postmortem_degraded) =
        match io::read_flight_log(&postmortem_path) {
            Ok(log) => {
                let failed: Vec<u64> = log.failed().iter().map(|r| r.id).collect();
                let degraded = log.degraded().len() as u64;
                (
                    log.trigger.clone(),
                    failed,
                    log.records.len() as u64,
                    degraded,
                )
            }
            Err(e) => {
                reconcile_errors.push(format!("postmortem dump unreadable: {e}"));
                (String::new(), Vec::new(), 0, 0)
            }
        };

    let report = SloSoakReport {
        seed: cfg.seed,
        window_width_ns: width,
        windows,
        evicted_windows: windowed.evicted_windows(),
        error_budget: policy.error_budget,
        fast_windows: policy.fast_windows,
        slow_windows: policy.slow_windows,
        registry_requests: outcomes.len() as u64,
        registry_ok,
        registry_failed,
        windowed: windowed_totals,
        totals: total_totals,
        chaos,
        quantiles,
        verdicts,
        postmortem_path: Some(postmortem_path),
        postmortem_trigger,
        postmortem_failed_ids,
        expected_failed_ids: expected_failed_ids.unwrap_or_default(),
        postmortem_records,
        postmortem_degraded,
        reconcile_errors,
        elapsed_ns: start.elapsed().as_nanos() as u64,
    };
    Ok((report, windowed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_matches_rank_rule() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(exact_quantile(&sorted, 0.5), Some(20));
        assert_eq!(exact_quantile(&sorted, 0.75), Some(30));
        assert_eq!(exact_quantile(&sorted, 0.99), Some(40));
        assert_eq!(exact_quantile(&sorted, 0.0), Some(10));
        assert_eq!(exact_quantile(&[], 0.5), None);
    }

    #[test]
    fn estimate_bound_handles_edges() {
        assert!(estimate_within_bound(256.0, 100, 1.0, 1024.0));
        assert!(!estimate_within_bound(1024.0, 100, 1.0, 4096.0));
        // Overflow rank clamps to the top bound.
        assert!(estimate_within_bound(1024.0, 5000, 1.0, 1024.0));
        // Tiny exact values clamp to the smallest bucket edge.
        assert!(estimate_within_bound(1.0, 0, 1.0, 1024.0));
    }

    #[test]
    fn quick_soak_walks_and_reconciles() {
        // No embedded chaos here: lib tests share the process (and the
        // globally installed recorder), and foreign traffic under the
        // `"default"` class would break the chaos campaign's exact
        // reconciliation. The bench binary runs the chaos-inclusive
        // soak in a process of its own.
        let cfg = SloSoakConfig {
            with_chaos: false,
            ..SloSoakConfig::quick(0x510)
        };
        let (report, _) = run_slo_soak(&cfg).unwrap();
        if let Err(e) = report.reconcile() {
            panic!("soak failed to reconcile: {e}\nwalk: {:?}", report.verdicts);
        }
        assert_eq!(report.postmortem_trigger, "canary_spike");
        assert!(report.registry_failed >= 4);
        if let Some(p) = &report.postmortem_path {
            let _ = std::fs::remove_file(p);
        }
    }
}
