//! Chaos soak driver for the resilient serving layer.
//!
//! [`run_chaos`] hammers a [`fast_bcnn::ResilientBatchEngine`] with rounds of
//! seeded faults — injected sample panics, poisoned thresholds, NaN
//! weights, latency stalls, queue overload and deadline pressure — and
//! checks the robustness contract end to end:
//!
//! * **zero hangs, zero aborts** — every request returns, every failure
//!   is a typed [`fast_bcnn::InferenceError`] (never a panic past the
//!   isolation, never a silent truncation);
//! * **exact accounting** — the per-request outcomes, the aggregate
//!   [`fast_bcnn::ResilienceTotals`] and the `breaker_*` / `shed_*` /
//!   `retry_*` / `deadline_*` telemetry counters all reconcile with each
//!   other, with no slack;
//! * **determinism** — the whole campaign derives from one seed, so a
//!   failing run replays exactly. In deterministic mode (wall-clock
//!   faults excluded, sample-budget deadlines only) the breaker
//!   transition sequence and shed counts are stable enough to pin in a
//!   golden fixture.
//!
//! Both soaks record into a caller-owned telemetry [`Registry`] (see
//! [`super::record_into`]) and report the campaign's own counter deltas,
//! so counts already in the registry never leak into a report.

use super::faults::{FaultInjector, ThresholdFault};
use super::{record_into, soak_engine_config, SilencedChaosPanics};
use fast_bcnn::telemetry::Registry;
use fast_bcnn::{
    error_reason_name, synth_input, ArtifactError, BatchConfig, BatchEngine, BatchRequest,
    BreakerConfig, CircuitBreaker, DegradedMode, Engine, EngineConfig, Ledger, ModelArtifact,
    ModelRegistry, NoJitter, RegistryConfig, RegistryReport, RequestSampleHook, ResilienceConfig,
    ResilienceTotals, ResilientBatchEngine, RetryPolicy, ShedPolicy, VersionCounters,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// One fault class the soak rotates through. Each round applies exactly
/// one class, so per-class behavior is attributable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// No fault: the control group — every request must be healthy and
    /// bit-identical to the unwrapped engine.
    Calm,
    /// Seeded per-sample stalls through the sample hook; perturbs time
    /// only, never numerics.
    Latency,
    /// The sample hook panics on every sample of a request's first
    /// attempt: total contained loss ([`fast_bcnn::InferenceError::AllSamplesFailed`]),
    /// the typed-transient class a retry heals.
    SamplePanic,
    /// Truncated threshold vectors: a structural poisoning caught by
    /// validation as a typed, permanent error.
    ThresholdTruncate,
    /// A NaN convolution weight: pre-inference screening reports a typed
    /// numeric error; permanent failures open the breaker.
    WeightNan,
    /// Twice the queue capacity is offered; admission control sheds or
    /// degrades the overflow under the round's shed policy.
    Overload,
    /// A sample budget of half the configured `T`: every request expires
    /// mid-run and returns a flagged partial-T mean.
    Deadline,
}

impl ChaosClass {
    /// Stable lowercase class name — the report key.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosClass::Calm => "calm",
            ChaosClass::Latency => "latency",
            ChaosClass::SamplePanic => "sample_panic",
            ChaosClass::ThresholdTruncate => "threshold_truncate",
            ChaosClass::WeightNan => "weight_nan",
            ChaosClass::Overload => "overload",
            ChaosClass::Deadline => "deadline",
        }
    }

    /// The classes a campaign rotates through. Wall-clock latency faults
    /// are excluded in deterministic mode (they cannot change numerics,
    /// but their stalls make run time seed-dependent).
    pub fn roster(include_latency: bool) -> Vec<ChaosClass> {
        let mut classes = vec![
            ChaosClass::Calm,
            ChaosClass::SamplePanic,
            ChaosClass::ThresholdTruncate,
            ChaosClass::WeightNan,
            ChaosClass::Overload,
            ChaosClass::Deadline,
        ];
        if include_latency {
            classes.insert(1, ChaosClass::Latency);
        }
        classes
    }
}

/// Knobs of a chaos campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed; the whole campaign (faults, inputs, schedules) is a
    /// function of it.
    pub seed: u64,
    /// Fault rounds; each uses one class from the roster, round-robin.
    pub rounds: usize,
    /// Requests offered per round (the overload class offers double).
    pub requests_per_round: usize,
    /// Include wall-clock latency faults (off in deterministic mode).
    pub include_latency: bool,
    /// MC sample count `T` of the engine under test.
    pub samples: usize,
}

impl ChaosConfig {
    /// The full soak: ≥ 200 requests over every fault class including
    /// latency and deadline pressure.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            rounds: 28,
            requests_per_round: 8,
            include_latency: true,
            samples: 6,
        }
    }

    /// A CI smoke: every deterministic class once, a few requests each.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            rounds: 6,
            requests_per_round: 4,
            include_latency: false,
            samples: 4,
        }
    }

    /// The golden-pinned campaign: no wall-clock faults, sample-budget
    /// deadlines only, sized so the breaker walks a full
    /// Closed → Open → HalfOpen → Closed cycle.
    pub fn deterministic(seed: u64) -> Self {
        Self {
            seed,
            rounds: 12,
            requests_per_round: 4,
            include_latency: false,
            samples: 4,
        }
    }

    /// Total requests this campaign offers (overload rounds offer 2×).
    pub fn offered_requests(&self) -> usize {
        let roster = ChaosClass::roster(self.include_latency);
        (0..self.rounds)
            .map(|r| match roster[r % roster.len()] {
                ChaosClass::Overload => self.requests_per_round * 2,
                _ => self.requests_per_round,
            })
            .sum()
    }
}

/// Per-round aggregates of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosRoundSummary {
    /// The fault class applied ([`ChaosClass::name`]).
    pub class: String,
    /// Requests offered this round.
    pub offered: usize,
    /// Requests that produced a prediction.
    pub ok: usize,
    /// Requests that failed with a typed error.
    pub failed: usize,
    /// Requests whose sample budget expired (partial or empty).
    pub expired: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Retry attempts spent this round.
    pub retries: u64,
}

/// The outcome of one [`run_chaos`] campaign.
#[derive(Debug)]
pub struct ChaosReport {
    /// The campaign seed.
    pub seed: u64,
    /// Requests offered across all rounds.
    pub requests_total: usize,
    /// Requests that produced a prediction.
    pub ok_total: usize,
    /// Requests that failed with a typed error.
    pub failed_total: usize,
    /// Distinct fault classes exercised, in roster order.
    pub classes: Vec<String>,
    /// Per-round summaries, in order.
    pub rounds: Vec<ChaosRoundSummary>,
    /// Campaign-wide resilience totals (the fold of every round's).
    pub totals: ResilienceTotals,
    /// Failed-request counts bucketed by typed reason; an unrecognized
    /// reason cannot occur (the bucket names come from
    /// [`error_reason_name`]).
    pub loss_reasons: BTreeMap<String, u64>,
    /// The breaker's full transition sequence, as `(from, to)` names.
    pub transitions: Vec<(String, String)>,
    /// The breaker state after the campaign.
    pub final_breaker_state: String,
    /// Snapshot of the resilience telemetry counters (summed over label
    /// sets, except where a labeled cell is named explicitly).
    pub counters: BTreeMap<String, u64>,
    /// Per-round [`fast_bcnn::ResilientBatchReport::reconcile`] failures —
    /// must be empty.
    pub round_reconcile_errors: Vec<String>,
    /// Wall-clock of the campaign, nanoseconds.
    pub elapsed_ns: u64,
}

impl ChaosReport {
    /// The telemetry counter snapshot against the aggregate totals — the
    /// "counters reconcile exactly" half of the soak's acceptance
    /// criteria — plus the per-round outcome/total reconciliations (each
    /// drifted round is one entry of `round_reconcile_errors`).
    pub fn ledger(&self) -> Ledger {
        let (ok, failed) = (self.ok_total as u64, self.failed_total as u64);
        let mut ledger = Ledger::from([
            (
                "failed round ledgers",
                self.round_reconcile_errors.len() as u64,
                0,
            ),
            (
                "typed losses vs failed",
                self.loss_reasons.values().sum(),
                failed,
            ),
            (
                "ok + failed vs offered",
                ok + failed,
                self.requests_total as u64,
            ),
        ]);
        let t = &self.totals;
        for (name, want) in [
            ("shed_requests", t.shed as u64),
            ("retry_attempts", t.retries),
            ("retry_successes", t.retry_successes),
            ("retry_exhausted", t.retry_exhausted),
            ("breaker_forced_exact", t.forced_exact),
            ("breaker_probes_issued", t.probes),
            ("breaker_transitions", self.transitions.len() as u64),
            ("deadline_expired", t.expired as u64),
        ] {
            let got = self.counters.get(name).copied().unwrap_or(0);
            ledger.push(format!("counter {name} vs totals"), got, want);
        }
        ledger
    }

    /// Checks [`ChaosReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row, plus the first entry of
    /// `round_reconcile_errors` when there is one.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger()
            .check()
            .map_err(|e| match self.round_reconcile_errors.first() {
                Some(first) => format!("{e}; first: {first}"),
                None => e,
            })
    }
}

/// Runs a chaos campaign recording into `registry`; see the module
/// docs.
pub fn run_chaos(cfg: &ChaosConfig, registry: &Arc<Registry>) -> ChaosReport {
    let start = Instant::now();
    let telemetry_guard = record_into(registry);
    let counters_before = snapshot_resilience_counters(registry);
    let _silencer = SilencedChaosPanics::install();

    let engine_cfg = soak_engine_config(cfg.seed, cfg.samples);
    let pristine = Engine::new(engine_cfg);
    let input_shape = pristine.network().input_shape();

    // One breaker across all rounds, so permanent-fault rounds open it
    // and later healthy rounds walk it through cooldown, probes and
    // closure — the full state machine in one campaign.
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        window: 8,
        min_observations: 4,
        threshold: 0.5,
        cooldown_requests: 4,
    }));
    let mut injector = FaultInjector::new(cfg.seed ^ 0xC4A0_5EED);
    let roster = ChaosClass::roster(cfg.include_latency);
    let shed_policies = [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DegradeToFewerSamples,
    ];

    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut totals = ResilienceTotals::default();
    let mut loss_reasons: BTreeMap<String, u64> = BTreeMap::new();
    let mut round_reconcile_errors = Vec::new();
    let mut overload_rounds = 0usize;

    for round in 0..cfg.rounds {
        let class = roster[round % roster.len()];

        let mut engine = pristine.clone();
        match class {
            ChaosClass::ThresholdTruncate => {
                let net = engine.network().clone();
                injector.poison_thresholds(engine.thresholds_mut(), &net, ThresholdFault::Truncate);
            }
            ChaosClass::WeightNan => {
                injector.poison_conv_weight_nan(engine.bayesian_network_mut().network_mut());
            }
            _ => {}
        }
        let batch = BatchEngine::new(
            engine,
            BatchConfig {
                threads: 1,
                cache_capacity: 8,
                ..BatchConfig::default()
            },
        );

        let mut rcfg = ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(400),
                seed: cfg.seed,
            },
            queue_capacity: cfg.requests_per_round,
            shed_policy: shed_policies[overload_rounds % shed_policies.len()],
            breaker: *breaker.config(),
            ..ResilienceConfig::default()
        };
        if class == ChaosClass::Deadline {
            rcfg.sample_budget = Some((engine_cfg.samples / 2).max(1) as u64);
        }
        let mut resilient = ResilientBatchEngine::with_breaker(batch, rcfg, Arc::clone(&breaker))
            .with_jitter(Arc::new(NoJitter));
        match class {
            ChaosClass::SamplePanic => {
                resilient = resilient.with_request_sample_hook(Arc::new(|_id, attempt, _s| {
                    if attempt == 0 {
                        panic!("chaos: injected sample fault");
                    }
                }));
            }
            ChaosClass::Latency => {
                let schedule = injector.latency_schedule(0.3, Duration::from_micros(200));
                resilient = resilient.with_request_sample_hook(Arc::new(move |_id, _a, s| {
                    let d = schedule.delay_for(s);
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                }));
            }
            _ => {}
        }

        let offered = match class {
            ChaosClass::Overload => {
                overload_rounds += 1;
                cfg.requests_per_round * 2
            }
            _ => cfg.requests_per_round,
        };
        let requests: Vec<BatchRequest> = (0..offered)
            .map(|i| {
                let id = (round * 1000 + i) as u64;
                BatchRequest::new(id, synth_input(input_shape, cfg.seed ^ id.wrapping_mul(41)))
            })
            .collect();

        let report = resilient.run_batch(&requests);
        if let Err(e) = report.reconcile() {
            round_reconcile_errors.push(format!("round {round} ({}): {e}", class.name()));
        }

        let mut summary = ChaosRoundSummary {
            class: class.name().to_string(),
            offered,
            ok: 0,
            failed: 0,
            expired: 0,
            shed: 0,
            retries: report.totals.retries,
        };
        for o in &report.outcomes {
            match &o.outcome.result {
                Ok(_) => summary.ok += 1,
                Err(e) => {
                    summary.failed += 1;
                    *loss_reasons
                        .entry(error_reason_name(e).to_string())
                        .or_insert(0) += 1;
                }
            }
            if o.expired {
                summary.expired += 1;
            }
            if o.shed {
                summary.shed += 1;
            }
        }
        let t = &report.totals;
        totals.offered += t.offered;
        totals.shed += t.shed;
        totals.degraded += t.degraded;
        totals.expired += t.expired;
        totals.retries += t.retries;
        totals.retry_successes += t.retry_successes;
        totals.retry_exhausted += t.retry_exhausted;
        totals.forced_exact += t.forced_exact;
        totals.probes += t.probes;
        totals.requeues += t.requeues;
        totals.abandoned += t.abandoned;
        rounds.push(summary);
    }

    let transitions: Vec<(String, String)> = breaker
        .transitions()
        .into_iter()
        .map(|(from, to)| (from.name().to_string(), to.name().to_string()))
        .collect();
    let final_breaker_state = breaker.state().name().to_string();
    drop(telemetry_guard);

    let mut counters = snapshot_resilience_counters(registry);
    for (name, value) in counters.iter_mut() {
        *value -= counters_before.get(name).copied().unwrap_or(0);
    }

    let ok_total = rounds.iter().map(|r| r.ok).sum();
    let failed_total = rounds.iter().map(|r| r.failed).sum();
    ChaosReport {
        seed: cfg.seed,
        requests_total: totals.offered,
        ok_total,
        failed_total,
        classes: roster.iter().map(|c| c.name().to_string()).collect(),
        rounds,
        totals,
        loss_reasons,
        transitions,
        final_breaker_state,
        counters,
        round_reconcile_errors,
        elapsed_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Knobs of a swap-under-fire campaign: the chaos soak's traffic
/// pattern pointed at a [`ModelRegistry`] that deploys a new model
/// version every round — healthy versions are promoted mid-traffic,
/// crashing versions must be rolled back automatically by the canary
/// verdict, and nothing may be lost either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapChaosConfig {
    /// Master seed; traffic, routing and fault arming derive from it.
    pub seed: u64,
    /// Deploy rounds. Even rounds stage a healthy version (promoted
    /// after its traffic); odd rounds stage a version that crashes on
    /// every canary sample (must auto-roll back mid-round).
    pub rounds: usize,
    /// Requests offered per round.
    pub requests_per_round: usize,
    /// MC sample count `T` of the engines under test.
    pub samples: usize,
    /// Registry shards.
    pub shards: usize,
}

impl SwapChaosConfig {
    /// The full soak: several promote/rollback cycles under load.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            rounds: 8,
            requests_per_round: 24,
            samples: 4,
            shards: 2,
        }
    }

    /// A CI smoke: two promotions and two rollbacks, a few requests
    /// each.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            rounds: 4,
            requests_per_round: 16,
            samples: 3,
            shards: 2,
        }
    }

    /// Total requests the campaign offers.
    pub fn offered_requests(&self) -> usize {
        self.rounds * self.requests_per_round
    }
}

/// Per-round aggregates of a swap-under-fire campaign.
#[derive(Debug, Clone)]
pub struct SwapRoundSummary {
    /// Round index.
    pub round: usize,
    /// `"rollout_good"` or `"rollout_bad"`.
    pub action: String,
    /// Model version deployed this round.
    pub deployed_version: u64,
    /// Requests offered this round.
    pub offered: usize,
    /// Requests that produced a prediction.
    pub ok: usize,
    /// Requests that failed with a typed error (bad rounds only: the
    /// crashing candidate's canaries before the rollback).
    pub failed: usize,
    /// Whether the canary verdict rolled the round's rollout back.
    pub rolled_back: bool,
    /// Whether the round's rollout was promoted.
    pub promoted: bool,
}

/// The outcome of one [`run_swap_chaos`] campaign.
#[derive(Debug)]
pub struct SwapChaosReport {
    /// The campaign seed.
    pub seed: u64,
    /// Requests offered across all rounds.
    pub requests_total: usize,
    /// Requests that produced a prediction.
    pub ok_total: usize,
    /// Requests that failed with a typed error.
    pub failed_total: usize,
    /// Deploys staged (one per round).
    pub deploys: u64,
    /// Rollouts promoted (the healthy rounds).
    pub promotions: u64,
    /// Rollouts rolled back (the crashing rounds).
    pub rollbacks: u64,
    /// Model version active after the campaign.
    pub final_version: u64,
    /// Per-round summaries, in order.
    pub rounds: Vec<SwapRoundSummary>,
    /// The registry's exact per-version accounting over the campaign.
    pub version_requests: BTreeMap<u64, VersionCounters>,
    /// The `version_requests{version}` telemetry counter cells
    /// (campaign delta) — must equal the accounting, request for
    /// request.
    pub version_request_counters: BTreeMap<u64, u64>,
    /// Campaign deltas of the swap lifecycle counters
    /// (`swap_deploys`, `swap_promotions`, `rollback_total`).
    pub counters: BTreeMap<String, u64>,
    /// Per-round accounting reconciliation failures — must be empty.
    pub round_reconcile_errors: Vec<String>,
    /// Intact fast-path responses compared bit-for-bit against a
    /// reference engine.
    pub compared_outputs: usize,
    /// Compared responses that differed — must be zero.
    pub mismatched_outputs: usize,
    /// Wall-clock of the campaign, nanoseconds.
    pub elapsed_ns: u64,
}

impl SwapChaosReport {
    /// The whole campaign's ledger: per-round outcome folds, the registry
    /// accounting, the telemetry counters and the bit-identity sweep must
    /// all agree exactly.
    pub fn ledger(&self) -> Ledger {
        let (ok, failed) = (self.ok_total as u64, self.failed_total as u64);
        let offered = self.requests_total as u64;
        let accounted = self.version_requests.values().map(|c| c.requests).sum();
        let mut ledger = Ledger::from([
            (
                "failed round ledgers",
                self.round_reconcile_errors.len() as u64,
                0,
            ),
            ("ok + failed vs offered", ok + failed, offered),
            ("version accounting vs offered", accounted, offered),
            (
                "responses diverged from the reference engine",
                self.mismatched_outputs as u64,
                0,
            ),
        ]);
        for (version, counters) in &self.version_requests {
            let cell = self.version_request_counters.get(version);
            ledger.push(
                format!("counter version_requests{{version=\"{version}\"}} vs accounting"),
                cell.copied().unwrap_or(0),
                counters.requests,
            );
        }
        for (name, want) in [
            ("swap_deploys", self.deploys),
            ("swap_promotions", self.promotions),
            ("rollback_total", self.rollbacks),
        ] {
            let got = self.counters.get(name).copied().unwrap_or(0);
            ledger.push(format!("counter {name} vs registry"), got, want);
        }
        ledger
    }

    /// Checks [`SwapChaosReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row, plus the first entry of
    /// `round_reconcile_errors` when there is one.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger()
            .check()
            .map_err(|e| match self.round_reconcile_errors.first() {
                Some(first) => format!("{e}; first: {first}"),
                None => e,
            })
    }
}

/// Scaffolding shared by the swap-chaos and supervision soaks: builds a
/// pristine reference engine from `engine_cfg`, exports its artifact to
/// disk, reloads it (so every harness exercises the persistence
/// round-trip, not just in-memory clones) and boots a registry from the
/// reloaded artifact under `registry_cfg`.
///
/// # Errors
///
/// [`ArtifactError`] when the export/reload round-trip fails or the
/// registry rejects the artifact/config.
pub fn boot_registry_via_disk(
    engine_cfg: EngineConfig,
    version: u64,
    label: &str,
    registry_cfg: RegistryConfig,
) -> Result<(Arc<ModelRegistry>, Engine), ArtifactError> {
    let pristine = Engine::new(engine_cfg);
    let path = std::env::temp_dir().join(format!(
        "fbcnn_boot_{label}_{}_{}.json",
        pristine.config().seed,
        std::process::id()
    ));
    ModelArtifact::from_engine(&pristine, version, label).save(&path)?;
    let booted = ModelArtifact::load(&path);
    let _ = std::fs::remove_file(&path);
    let registry = ModelRegistry::new(booted?, registry_cfg)?;
    Ok((Arc::new(registry), pristine))
}

/// Runs a swap-under-fire campaign recording into `telemetry`; see
/// [`SwapChaosConfig`].
///
/// # Errors
///
/// [`ArtifactError`] when the campaign's own artifact export/reload
/// round-trip or a deploy fails (a harness bug, not an injected fault).
pub fn run_swap_chaos(
    cfg: &SwapChaosConfig,
    telemetry: &Arc<Registry>,
) -> Result<SwapChaosReport, ArtifactError> {
    let start = Instant::now();
    let telemetry_guard = record_into(telemetry);
    let _silencer = SilencedChaosPanics::install();

    // Campaign counter baselines, so a reused registry never leaks
    // pre-existing counts into the report.
    let campaign_versions: Vec<u64> = (1..=cfg.rounds as u64 + 1).collect();
    let swap_counter_names = ["swap_deploys", "swap_promotions", "rollback_total"];
    let cells_before: BTreeMap<u64, u64> = campaign_versions
        .iter()
        .map(|v| (*v, version_requests_cell(telemetry, *v)))
        .collect();
    let swap_before: BTreeMap<String, u64> = swap_counter_names
        .iter()
        .map(|n| ((*n).to_string(), telemetry.counter_total(n)))
        .collect();

    let engine_cfg = soak_engine_config(cfg.seed, cfg.samples);

    // A version that crashes on the traffic it serves: while a rollout
    // is in flight only the candidate serves canary ids, so arming the
    // hook on exactly those ids is a version-correlated fault.
    let armed = Arc::new(AtomicBool::new(false));
    let booted = Arc::new(OnceLock::new());
    let registry_cfg = RegistryConfig {
        shards: cfg.shards.max(1),
        routing_seed: cfg.seed ^ 0x5A_A55A,
        canary_percent: 50,
        canary_min_requests: 4,
        batch: BatchConfig {
            threads: 1,
            cache_capacity: 8,
            ..BatchConfig::default()
        },
        resilience: ResilienceConfig::default(),
        sample_hook: Some(canary_crash_hook(
            &armed,
            &booted,
            "chaos: candidate crashes on every sample it serves",
        )),
        jitter: Some(Arc::new(NoJitter)),
        flight: None,
        supervise: None,
    };
    let (registry, pristine) = boot_registry_via_disk(engine_cfg, 1, "v1", registry_cfg)?;
    let _ = booted.set(Arc::downgrade(&registry));
    let input_shape = pristine.network().input_shape();

    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut round_reconcile_errors = Vec::new();
    let mut compared_outputs = 0usize;
    let mut mismatched_outputs = 0usize;

    for round in 0..cfg.rounds {
        let bad = round % 2 == 1;
        let version = round as u64 + 2;
        let label = if bad {
            format!("v{version}-crashy")
        } else {
            format!("v{version}")
        };
        registry.deploy(ModelArtifact::from_engine(&pristine, version, label))?;
        if bad {
            armed.store(true, Ordering::Relaxed);
        }

        let before = registry.version_counters();
        let round_start = Instant::now();
        let mut outcomes = Vec::with_capacity(cfg.requests_per_round);
        let mut rolled_back = false;
        for i in 0..cfg.requests_per_round {
            let id = (round * 10_000 + i) as u64;
            let input = synth_input(input_shape, cfg.seed ^ id.wrapping_mul(41));
            let o = registry.handle(&BatchRequest::new(id, input));
            if o.rolled_back {
                rolled_back = true;
                // The fault dies with the version that carried it.
                armed.store(false, Ordering::Relaxed);
            }
            outcomes.push(o);
        }
        armed.store(false, Ordering::Relaxed);

        // Intact fast-path responses must be bit-identical to the
        // reference engine fed the same input and derived seed.
        for o in &outcomes {
            if o.outcome.forced_exact {
                continue;
            }
            if let Ok((pred, report)) = &o.outcome.outcome.result {
                if report.mode != DegradedMode::Healthy {
                    continue;
                }
                let id = o.outcome.outcome.id;
                let input = synth_input(input_shape, cfg.seed ^ id.wrapping_mul(41));
                compared_outputs += 1;
                match pristine.predict_robust_seeded(&input, o.outcome.outcome.seed) {
                    Ok((want, _)) => {
                        let same = want
                            .mean
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(pred.mean.iter().map(|x| x.to_bits()));
                        if !same {
                            mismatched_outputs += 1;
                        }
                    }
                    Err(_) => mismatched_outputs += 1,
                }
            }
        }

        // Exact accounting: the registry's per-version counters must
        // have moved by precisely this round's outcome fold.
        let mut version_delta = registry.version_counters();
        for (v, c) in version_delta.iter_mut() {
            if let Some(prev) = before.get(v) {
                c.requests -= prev.requests;
                c.ok -= prev.ok;
                c.failed -= prev.failed;
                c.canary -= prev.canary;
            }
        }
        version_delta.retain(|_, c| c.requests > 0);
        let ok = outcomes
            .iter()
            .filter(|o| o.outcome.outcome.result.is_ok())
            .count();
        let failed = outcomes.len() - ok;
        let fold = RegistryReport {
            outcomes,
            version_delta,
            elapsed_ns: round_start.elapsed().as_nanos() as u64,
        };
        if let Err(e) = fold.reconcile() {
            round_reconcile_errors.push(format!("round {round}: {e}"));
        }

        let promoted = if bad {
            if !rolled_back {
                round_reconcile_errors
                    .push(format!("round {round}: crashing canary never rolled back"));
            }
            false
        } else {
            if rolled_back {
                round_reconcile_errors.push(format!("round {round}: healthy rollout rolled back"));
            }
            registry.promote() == Some(version)
        };
        rounds.push(SwapRoundSummary {
            round,
            action: if bad { "rollout_bad" } else { "rollout_good" }.to_string(),
            deployed_version: version,
            offered: cfg.requests_per_round,
            ok,
            failed,
            rolled_back,
            promoted,
        });
    }

    let version_requests = registry.version_counters();
    let version_request_counters: BTreeMap<u64, u64> = campaign_versions
        .iter()
        .map(|v| {
            let cell = version_requests_cell(telemetry, *v);
            (*v, cell - cells_before.get(v).copied().unwrap_or(0))
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    let counters: BTreeMap<String, u64> = swap_counter_names
        .iter()
        .map(|n| {
            let total = telemetry.counter_total(n);
            (
                (*n).to_string(),
                total - swap_before.get(*n).copied().unwrap_or(0),
            )
        })
        .collect();
    drop(telemetry_guard);

    let ok_total = rounds.iter().map(|r| r.ok).sum();
    let failed_total = rounds.iter().map(|r| r.failed).sum();
    Ok(SwapChaosReport {
        seed: cfg.seed,
        requests_total: cfg.offered_requests(),
        ok_total,
        failed_total,
        deploys: registry.deploys(),
        promotions: registry.promotions(),
        rollbacks: registry.rollbacks(),
        final_version: registry.active_version(),
        rounds,
        version_requests,
        version_request_counters,
        counters,
        round_reconcile_errors,
        compared_outputs,
        mismatched_outputs,
        elapsed_ns: start.elapsed().as_nanos() as u64,
    })
}

/// A sample hook that panics with `message` on every canary id while
/// `armed` — a candidate version that crashes on the traffic it serves.
/// The canary split is the booted registry's own
/// ([`ModelRegistry::is_canary_id`]); until `registry` is filled the
/// hook stays quiet.
pub(crate) fn canary_crash_hook(
    armed: &Arc<AtomicBool>,
    registry: &Arc<OnceLock<Weak<ModelRegistry>>>,
    message: &'static str,
) -> RequestSampleHook {
    let (armed, registry) = (Arc::clone(armed), Arc::clone(registry));
    Arc::new(move |id, _attempt, _sample| {
        let canary = || {
            registry
                .get()
                .and_then(Weak::upgrade)
                .is_some_and(|r| r.is_canary_id(id))
        };
        if armed.load(Ordering::Relaxed) && canary() {
            panic!("{message}");
        }
    })
}

/// Reads one labeled `version_requests` counter cell.
fn version_requests_cell(telemetry: &Registry, version: u64) -> u64 {
    let label = version.to_string();
    telemetry
        .counter_value("version_requests", &[("version", &label)])
        .unwrap_or(0)
}

/// Snapshots every resilience counter the chaos reports reconcile
/// against (summed over label sets, plus the explicitly labeled
/// issued-probe cell).
fn snapshot_resilience_counters(registry: &Registry) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    for name in [
        "shed_requests",
        "shed_degraded_requests",
        "retry_attempts",
        "retry_successes",
        "retry_exhausted",
        "breaker_transitions",
        "breaker_forced_exact",
        "deadline_expired",
        "engine_lost_samples",
        "engine_canary_trips",
        "watchdog_requeues",
        "watchdog_abandoned",
    ] {
        counters.insert(name.to_string(), registry.counter_total(name));
    }
    counters.insert(
        "breaker_probes_issued".to_string(),
        registry
            .counter_value("breaker_probes", &[("phase", "issued")])
            .unwrap_or(0),
    );
    counters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos(cfg: &ChaosConfig) -> ChaosReport {
        run_chaos(cfg, &Arc::new(Registry::new()))
    }

    fn swap(cfg: &SwapChaosConfig) -> SwapChaosReport {
        run_swap_chaos(cfg, &Arc::new(Registry::new())).unwrap()
    }

    #[test]
    fn quick_campaign_reconciles_and_types_every_loss() {
        let report = chaos(&ChaosConfig::quick(5));
        assert_eq!(
            report.requests_total,
            ChaosConfig::quick(5).offered_requests()
        );
        assert!(report.round_reconcile_errors.is_empty(), "{report:?}");
        report.reconcile().unwrap();
        assert!(report.classes.len() >= 5);
        // Every class left a footprint: panics healed by retry, poisoned
        // rounds failed typed, deadline rounds expired, overload shed.
        assert!(report.totals.retries > 0, "sample_panic retried");
        assert!(report.totals.expired > 0, "deadline rounds expired");
        assert!(
            report.totals.shed > 0,
            "overload round shed under RejectNewest"
        );
        assert!(report.loss_reasons.contains_key("thresholds"));
        assert!(report.loss_reasons.contains_key("numeric"));
    }

    #[test]
    fn campaigns_replay_exactly_from_their_seed() {
        let a = chaos(&ChaosConfig::deterministic(9));
        let b = chaos(&ChaosConfig::deterministic(9));
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.final_breaker_state, b.final_breaker_state);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.loss_reasons, b.loss_reasons);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(
                (ra.ok, ra.failed, ra.expired, ra.shed, ra.retries),
                (rb.ok, rb.failed, rb.expired, rb.shed, rb.retries),
            );
        }
    }

    #[test]
    fn swap_under_fire_loses_nothing_and_reconciles_exactly() {
        let report = swap(&SwapChaosConfig::quick(7));
        report.reconcile().unwrap();
        assert_eq!(
            report.requests_total,
            SwapChaosConfig::quick(7).offered_requests()
        );
        // Two healthy rounds promoted, two crashing rounds rolled back.
        assert_eq!(report.promotions, 2);
        assert_eq!(report.rollbacks, 2);
        assert_eq!(report.deploys, 4);
        // The last good deploy (round 2 → version 4) ends up active.
        assert_eq!(report.final_version, 4);
        // Failures only ever came from the crashing candidates.
        for r in &report.rounds {
            if r.action == "rollout_good" {
                assert_eq!(r.failed, 0, "healthy round {} lost requests", r.round);
                assert!(r.promoted && !r.rolled_back);
            } else {
                assert!(r.rolled_back && !r.promoted);
            }
        }
        assert!(report.compared_outputs > 0, "bit-identity sweep never ran");
        assert_eq!(report.mismatched_outputs, 0);
    }

    #[test]
    fn swap_campaigns_replay_exactly_from_their_seed() {
        let a = swap(&SwapChaosConfig::quick(11));
        let b = swap(&SwapChaosConfig::quick(11));
        assert_eq!(a.version_requests, b.version_requests);
        assert_eq!(a.counters, b.counters);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(
                (ra.ok, ra.failed, ra.rolled_back, ra.promoted),
                (rb.ok, rb.failed, rb.rolled_back, rb.promoted)
            );
        }
    }

    #[test]
    fn deterministic_campaign_walks_the_breaker_through_a_full_cycle() {
        let report = chaos(&ChaosConfig::deterministic(5));
        report.reconcile().unwrap();
        let seq = &report.transitions;
        assert!(
            seq.iter().any(|(f, t)| f == "closed" && t == "open"),
            "breaker never opened: {seq:?}"
        );
        assert!(
            seq.iter().any(|(f, t)| f == "open" && t == "half_open"),
            "breaker never half-opened: {seq:?}"
        );
        assert!(
            seq.iter().any(|(f, t)| f == "half_open" && t == "closed"),
            "breaker never recovered: {seq:?}"
        );
    }
}
