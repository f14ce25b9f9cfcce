//! Sharded model registry with drain-free hot-swap and canary-gated
//! rollout.
//!
//! A [`ModelRegistry`] holds N independent [`ResilientBatchEngine`]
//! replicas (shard-per-core; requests route to shards by a seeded hash of
//! their id), all serving the same [`ModelArtifact`] version. Deploying a
//! new version stages one candidate engine per shard and serves it to a
//! deterministic canary fraction of traffic while the stable version
//! keeps serving everything else. The canary verdict is fed by the same
//! signals the robust engine already produces: a request whose result is
//! a typed error, or whose run degraded to
//! [`DegradedMode::FullFallback`] (the engine's canary sample caught the
//! new version's thresholds lying), counts against the candidate. When
//! the bad fraction crosses the version-breaker threshold, the rollout is
//! rolled back on **all** shards at once; when the operator promotes
//! instead, each shard's slot swaps its `Arc` atomically — in-flight
//! requests finish on the engine they started with, new requests see the
//! new version, and nothing ever drains or aborts.
//!
//! Request accounting is exact: every request increments the
//! `version_requests{version}` telemetry counter and the registry's own
//! per-version [`VersionCounters`], and
//! [`RegistryReport::reconcile`] proves the two folds agree with the
//! per-request outcomes. See `docs/REGISTRY.md` for the state machine.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::batch::{BatchConfig, BatchEngine, BatchRequest};
use crate::engine::{DegradedMode, Engine};
use crate::error::EngineError;
use crate::ledger::Ledger;
use crate::resilience::{
    error_reason_name, BreakerState, CircuitBreaker, Jitter, RequestSampleHook, ResilienceConfig,
    ResilientBatchEngine, ResilientOutcome,
};
use crate::supervise::{
    shard_route, splitmix64, OutcomeSignal, RouteDecision, SuperviseConfig, Supervisor,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Knobs of a [`ModelRegistry`].
#[derive(Clone)]
pub struct RegistryConfig {
    /// Number of engine replicas (shard-per-core; ≥ 1).
    pub shards: usize,
    /// Seed of the id → shard route and the canary split. Two registries
    /// with the same seed route identically.
    pub routing_seed: u64,
    /// Percent of traffic (per request id, deterministic) served by an
    /// in-flight rollout's candidate version, in `1..=100`.
    pub canary_percent: u32,
    /// Canary requests observed before the version breaker may bind.
    pub canary_min_requests: u64,
    /// Per-shard batch-engine knobs.
    pub batch: BatchConfig,
    /// Per-shard resilience knobs (each shard gets its own breaker,
    /// which survives version swaps on that shard).
    pub resilience: ResilienceConfig,
    /// Optional per-(request, attempt, sample) hook threaded into every
    /// shard engine — the chaos harness's fault-injection point.
    pub sample_hook: Option<RequestSampleHook>,
    /// Optional jitter override for retry backoff (tests pin
    /// [`crate::NoJitter`]).
    pub jitter: Option<Arc<dyn Jitter>>,
    /// Optional flight recorder. The registry records one *enriched*
    /// [`crate::FlightRecord`] per handled request (version, shard,
    /// canary and rollback routing filled in); shard engines stay
    /// recorder-free so nothing records twice. A canary-spike rollback
    /// fires the recorder's armed postmortem dump.
    pub flight: Option<Arc<crate::FlightRecorder>>,
    /// Optional shard health supervision (see [`crate::supervise`]).
    /// `None` — the default — keeps today's behavior: every shard stays
    /// in the routing ring forever. `Some` attaches a [`Supervisor`]
    /// that quarantines sick shards, fails their traffic over, and
    /// rebuilds them from the retained artifact.
    pub supervise: Option<SuperviseConfig>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            routing_seed: 0x5EED_0F5A,
            canary_percent: 20,
            canary_min_requests: 8,
            batch: BatchConfig::default(),
            resilience: ResilienceConfig::default(),
            sample_hook: None,
            jitter: None,
            flight: None,
            supervise: None,
        }
    }
}

impl fmt::Debug for RegistryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegistryConfig")
            .field("shards", &self.shards)
            .field("routing_seed", &self.routing_seed)
            .field("canary_percent", &self.canary_percent)
            .field("canary_min_requests", &self.canary_min_requests)
            .field("batch", &self.batch)
            .field("resilience", &self.resilience)
            .field("sample_hook", &self.sample_hook.is_some())
            .field("jitter", &self.jitter.is_some())
            .field("flight", &self.flight.is_some())
            .field("supervise", &self.supervise)
            .finish()
    }
}

impl RegistryConfig {
    /// Checks every field against its legal range.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), EngineError> {
        let fail = |reason: String| Err(EngineError::InvalidConfig { reason });
        if self.shards == 0 {
            return fail("registry shards must be > 0".into());
        }
        if !(1..=100).contains(&self.canary_percent) {
            return fail(format!(
                "canary_percent {} out of 1..=100",
                self.canary_percent
            ));
        }
        if self.canary_min_requests == 0 {
            return fail("canary_min_requests must be > 0".into());
        }
        if let Some(supervise) = &self.supervise {
            supervise.validate()?;
        }
        Ok(())
    }
}

/// Exact per-version request accounting, kept by the registry alongside
/// the `version_requests{version}` telemetry counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionCounters {
    /// Requests routed to this version.
    pub requests: u64,
    /// Requests that produced a prediction.
    pub ok: u64,
    /// Requests that ended in a typed error.
    pub failed: u64,
    /// Requests served as canaries of an in-flight rollout.
    pub canary: u64,
}

/// A snapshot of an in-flight rollout's canary verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutStatus {
    /// Candidate model version.
    pub version: u64,
    /// Candidate artifact label.
    pub label: String,
    /// Canary requests observed so far.
    pub observed: u64,
    /// Canary requests that ended in a typed error.
    pub failures: u64,
    /// Canary requests whose run degraded to full fallback (the engine's
    /// canary sample caught divergent thresholds).
    pub canary_trips: u64,
}

/// One request's outcome through the registry.
#[derive(Debug)]
pub struct RegistryOutcome {
    /// Shard the request was served by (equals the primary route unless
    /// supervision failed it over).
    pub shard: usize,
    /// The mod-hash primary shard of the request id.
    pub primary_shard: usize,
    /// Whether supervision served the request away from a sick primary.
    pub failed_over: bool,
    /// Whether the request probed a Rebuilding primary.
    pub probe: bool,
    /// Model version that served the request.
    pub version: u64,
    /// Whether the request was a canary of an in-flight rollout.
    pub canary: bool,
    /// Whether this request's canary verdict tripped the version breaker
    /// (the rollout rolled back on all shards as a result).
    pub rolled_back: bool,
    /// The resilience-layer outcome.
    pub outcome: ResilientOutcome,
}

/// The outcome of one [`ModelRegistry::run_batch`] call.
#[derive(Debug)]
pub struct RegistryReport {
    /// Per-request outcomes, in offered order.
    pub outcomes: Vec<RegistryOutcome>,
    /// Per-version accounting delta over exactly this batch.
    pub version_delta: BTreeMap<u64, VersionCounters>,
    /// Wall-clock of the whole call, nanoseconds.
    pub elapsed_ns: u64,
}

impl RegistryReport {
    /// The registry's per-version counter deltas against the fold of
    /// this batch's outcomes — the version half of the "counters
    /// reconcile exactly" criterion.
    pub fn ledger(&self) -> Ledger {
        let mut fold: BTreeMap<u64, VersionCounters> = BTreeMap::new();
        for o in &self.outcomes {
            let c = fold.entry(o.version).or_default();
            c.requests += 1;
            if o.outcome.outcome.result.is_ok() {
                c.ok += 1;
            } else {
                c.failed += 1;
            }
            if o.canary {
                c.canary += 1;
            }
        }
        let mut ledger = Ledger::new();
        let versions: BTreeSet<u64> = fold
            .keys()
            .chain(self.version_delta.keys())
            .copied()
            .collect();
        for v in versions {
            let moved = self.version_delta.get(&v).copied().unwrap_or_default();
            let folded = fold.get(&v).copied().unwrap_or_default();
            for (field, got, want) in [
                ("requests", moved.requests, folded.requests),
                ("ok", moved.ok, folded.ok),
                ("failed", moved.failed, folded.failed),
                ("canary", moved.canary, folded.canary),
            ] {
                ledger.push(format!("v{v} {field} vs outcomes"), got, want);
            }
        }
        ledger
    }

    /// Checks [`RegistryReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted version row.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger().check()
    }
}

/// One model version bound to one shard's serving stack.
struct VersionedEngine {
    version: u64,
    engine: ResilientBatchEngine,
}

struct Shard {
    slot: RwLock<Arc<VersionedEngine>>,
    /// The shard's breaker outlives version swaps (a shard's failure
    /// history indicts the shard, not the version) but NOT rebuilds: a
    /// rebuilt shard gets a fresh breaker, which is the only cure for a
    /// jammed one.
    breaker: RwLock<Arc<CircuitBreaker>>,
}

impl Shard {
    fn breaker(&self) -> Arc<CircuitBreaker> {
        Arc::clone(&self.breaker.read().unwrap_or_else(PoisonError::into_inner))
    }
}

struct Rollout {
    version: u64,
    label: String,
    /// The candidate artifact, retained so a promote can pin it as the
    /// registry's rebuild source of truth.
    artifact: ModelArtifact,
    candidates: Vec<Arc<VersionedEngine>>,
    observed: u64,
    failures: u64,
    canary_trips: u64,
}

/// The sharded serving registry; see the module docs.
pub struct ModelRegistry {
    cfg: RegistryConfig,
    shards: Vec<Shard>,
    /// The validated artifact the active version booted from — the
    /// pinned source of truth for shard rebuilds (and future retrain
    /// pipelines). Updated on promote, never on deploy.
    artifact: Mutex<ModelArtifact>,
    supervisor: Option<Arc<Supervisor>>,
    rollout: Mutex<Option<Rollout>>,
    accounting: Mutex<BTreeMap<u64, VersionCounters>>,
    deploys: AtomicU64,
    promotions: AtomicU64,
    rollbacks: AtomicU64,
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("shards", &self.shards.len())
            .field("active_version", &self.active_version())
            .field("rollout", &self.rollout_status())
            .finish()
    }
}

const CANARY_SALT: u64 = 0xCA_4A_12;
/// Bad-canary fraction (failures + full-fallback trips over observed)
/// at which a rollout auto-rolls back.
const CANARY_TRIP_THRESHOLD: f64 = 0.5;

/// The deterministic canary predicate behind
/// [`ModelRegistry::is_canary_id`].
fn is_canary(routing_seed: u64, percent: u32, id: u64) -> bool {
    splitmix64(id ^ routing_seed ^ CANARY_SALT) % 100 < u64::from(percent)
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ModelRegistry {
    /// Boots a registry with `artifact` active on every shard.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Config`] for an invalid registry configuration,
    /// plus everything [`ModelArtifact::validate`] reports.
    pub fn new(artifact: ModelArtifact, cfg: RegistryConfig) -> Result<Self, ArtifactError> {
        cfg.validate().map_err(ArtifactError::Config)?;
        artifact.validate()?;
        let version = artifact.model_version;
        let retained = artifact.clone();
        let engine = artifact.into_engine()?;
        let shards: Vec<Shard> = (0..cfg.shards)
            .map(|_| {
                let breaker = Arc::new(CircuitBreaker::new(cfg.resilience.breaker));
                let ve = build_versioned(&cfg, version, engine.clone(), &breaker);
                Shard {
                    slot: RwLock::new(ve),
                    breaker: RwLock::new(breaker),
                }
            })
            .collect();
        let supervisor = match &cfg.supervise {
            Some(sup_cfg) => Some(Arc::new(
                Supervisor::new(shards.len(), cfg.routing_seed, sup_cfg.clone())
                    .map_err(ArtifactError::Config)?,
            )),
            None => None,
        };
        Ok(Self {
            cfg,
            shards,
            artifact: Mutex::new(retained),
            supervisor,
            rollout: Mutex::new(None),
            accounting: Mutex::new(BTreeMap::new()),
            deploys: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        })
    }

    /// The validated artifact the active version booted from — the
    /// pinned rebuild source. Follows promotes: after a rollout is
    /// promoted, this is the promoted candidate's artifact.
    pub fn retained_artifact(&self) -> ModelArtifact {
        lock(&self.artifact).clone()
    }

    /// The attached shard health supervisor, when supervision is on.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// The registry configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.cfg
    }

    /// The model version currently active on the stable slots.
    pub fn active_version(&self) -> u64 {
        self.shards.first().map_or(0, |s| {
            s.slot
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .version
        })
    }

    /// The shard a request id primarily routes to (supervision failover
    /// may serve it elsewhere; see [`ModelRegistry::handle_classed`]).
    pub fn shard_of(&self, id: u64) -> usize {
        shard_route(self.cfg.routing_seed, self.shards.len(), id)
    }

    /// Whether a request id falls in the deterministic canary fraction
    /// (independent of whether a rollout is in flight).
    pub fn is_canary_id(&self, id: u64) -> bool {
        is_canary(self.cfg.routing_seed, self.cfg.canary_percent, id)
    }

    /// Stages `artifact` as an in-flight rollout: one candidate engine
    /// per shard (sharing that shard's breaker), serving the canary
    /// fraction until [`ModelRegistry::promote`] or an automatic
    /// rollback. A deploy over an existing rollout supersedes it (the
    /// old candidate counts as rolled back, reason `superseded`).
    ///
    /// # Errors
    ///
    /// Everything [`ModelArtifact::validate`] reports, plus
    /// [`ArtifactError::StaleVersion`] when the artifact's version is not
    /// newer than the active one.
    pub fn deploy(&self, artifact: ModelArtifact) -> Result<(), ArtifactError> {
        artifact.validate()?;
        let active = self.active_version();
        if artifact.model_version <= active {
            return Err(ArtifactError::StaleVersion {
                offered: artifact.model_version,
                active,
            });
        }
        let version = artifact.model_version;
        let label = artifact.label.clone();
        let retained = artifact.clone();
        let engine = artifact.into_engine()?;
        let candidates = self
            .shards
            .iter()
            .map(|s| build_versioned(&self.cfg, version, engine.clone(), &s.breaker()))
            .collect();
        let mut slot = lock(&self.rollout);
        if let Some(old) = slot.take() {
            self.note_rollback(old.version, "superseded");
        }
        *slot = Some(Rollout {
            version,
            label,
            artifact: retained,
            candidates,
            observed: 0,
            failures: 0,
            canary_trips: 0,
        });
        drop(slot);
        self.deploys.fetch_add(1, Ordering::Relaxed);
        fbcnn_telemetry::counter_add("swap_deploys", &[], 1);
        Ok(())
    }

    /// Promotes the in-flight rollout: every shard's slot swaps its
    /// `Arc` to the candidate engine (in-flight requests finish on the
    /// engine they started with). Returns the promoted version, or
    /// `None` when no rollout is in flight.
    pub fn promote(&self) -> Option<u64> {
        let rollout = lock(&self.rollout).take()?;
        for (shard, candidate) in self.shards.iter().zip(rollout.candidates) {
            let mut slot = shard.slot.write().unwrap_or_else(PoisonError::into_inner);
            *slot = candidate;
        }
        *lock(&self.artifact) = rollout.artifact;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let version = rollout.version.to_string();
        fbcnn_telemetry::counter_add("swap_promotions", &[("version", &version)], 1);
        Some(rollout.version)
    }

    /// Manually aborts the in-flight rollout (all shards back to the
    /// stable version for the full traffic). Returns the abandoned
    /// version, or `None` when no rollout is in flight.
    pub fn rollback(&self) -> Option<u64> {
        let rollout = lock(&self.rollout).take()?;
        self.note_rollback(rollout.version, "manual");
        Some(rollout.version)
    }

    /// The in-flight rollout's canary verdict, if any.
    pub fn rollout_status(&self) -> Option<RolloutStatus> {
        lock(&self.rollout).as_ref().map(|r| RolloutStatus {
            version: r.version,
            label: r.label.clone(),
            observed: r.observed,
            failures: r.failures,
            canary_trips: r.canary_trips,
        })
    }

    /// A snapshot of the per-version request accounting.
    pub fn version_counters(&self) -> BTreeMap<u64, VersionCounters> {
        lock(&self.accounting).clone()
    }

    /// Deploys staged since boot.
    pub fn deploys(&self) -> u64 {
        self.deploys.load(Ordering::Relaxed)
    }

    /// Rollouts promoted since boot.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Rollouts rolled back since boot (automatic, manual and
    /// superseded).
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Serves one request: route to its shard, pick the canary or stable
    /// engine, run under the resilience layer, account exactly, and feed
    /// the canary verdict (which may trip the version breaker and roll
    /// the rollout back on all shards before this call returns).
    pub fn handle(&self, req: &BatchRequest) -> RegistryOutcome {
        self.handle_classed(req, None)
    }

    /// [`ModelRegistry::handle`] under a per-request
    /// [`crate::RequestClass`] — the network serving tier's priced SLO
    /// class. The class's deadline/budget override the resilience config
    /// for this request, and its name becomes the request's telemetry
    /// and flight-record `class` label. `None` behaves exactly like
    /// [`ModelRegistry::handle`].
    pub fn handle_classed(
        &self,
        req: &BatchRequest,
        class: Option<&crate::RequestClass>,
    ) -> RegistryOutcome {
        let decision = match &self.supervisor {
            Some(sup) => sup.route(req.id),
            None => {
                let primary = self.shard_of(req.id);
                RouteDecision {
                    primary,
                    serve: primary,
                    failed_over: false,
                    probe: false,
                }
            }
        };
        let shard_idx = decision.serve;
        let canary_engine = if self.is_canary_id(req.id) {
            lock(&self.rollout)
                .as_ref()
                .map(|r| Arc::clone(&r.candidates[shard_idx]))
        } else {
            None
        };
        let canary = canary_engine.is_some();
        let engine = match canary_engine {
            Some(e) => e,
            None => Arc::clone(
                &self.shards[shard_idx]
                    .slot
                    .read()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
        };
        let outcome = engine.engine.run_request_classed(req, class);
        let ok = outcome.outcome.result.is_ok();
        if let Some(sup) = &self.supervisor {
            let abandoned = matches!(
                &outcome.outcome.result,
                Err(e) if error_reason_name(e) == "worker_hung"
            );
            sup.observe(
                shard_idx,
                OutcomeSignal {
                    ok,
                    expired: outcome.expired,
                    abandoned,
                    probe: decision.probe,
                },
            );
        }
        {
            let mut acc = lock(&self.accounting);
            let c = acc.entry(engine.version).or_default();
            c.requests += 1;
            if ok {
                c.ok += 1;
            } else {
                c.failed += 1;
            }
            if canary {
                c.canary += 1;
            }
        }
        let version_label = engine.version.to_string();
        fbcnn_telemetry::counter_add("version_requests", &[("version", &version_label)], 1);
        let mut rolled_back = false;
        if canary {
            // Only hard signals count against the candidate: a typed
            // error, a full-fallback run (the engine's own canary sample
            // caught the version's thresholds diverging), or a run where
            // *no* sample survived the fast path (the skip-rate ceiling
            // rejecting saturated thresholds sample after sample). A run
            // the breaker forced onto the exact path is excluded — that
            // full fallback indicts the shard's history, not this
            // version. Partial fallback / partial samples are ordinary
            // transient degradation and must not fail a healthy version.
            let failed = !ok;
            let tripped = match &outcome.outcome.result {
                Ok((_, report)) => {
                    !outcome.forced_exact
                        && (report.mode == DegradedMode::FullFallback
                            || (report.fallback_samples > 0
                                && report.fallback_samples
                                    == report.used_samples + report.lost_samples))
                }
                Err(_) => false,
            };
            rolled_back = self.observe_canary(engine.version, failed, tripped);
        }
        if let Some(flight) = &self.cfg.flight {
            let mut record = crate::FlightRecord::from_outcome(
                &outcome,
                class
                    .map(|c| c.name.as_str())
                    .unwrap_or(self.cfg.resilience.deadline_class.as_str()),
            );
            record.version = engine.version;
            record.shard = shard_idx as u64;
            record.canary = canary;
            record.rolled_back = rolled_back;
            record.primary_shard = decision.primary as u64;
            record.failed_over = decision.failed_over;
            record.rebuild_probe = decision.probe;
            flight.record(record);
            // An automatic rollback is exactly the moment operators want
            // the flight log frozen: fire the armed postmortem dump (if
            // any) *after* recording the triggering request, so the dump
            // replays up to and including the verdict that tripped it.
            if rolled_back {
                match flight.trigger_postmortem("canary_spike") {
                    Some(Ok(_)) => {
                        fbcnn_telemetry::counter_add(
                            "postmortem_dumps",
                            &[("trigger", "canary_spike")],
                            1,
                        );
                    }
                    Some(Err(_)) => {
                        fbcnn_telemetry::counter_add(
                            "postmortem_errors",
                            &[("trigger", "canary_spike")],
                            1,
                        );
                    }
                    None => {}
                }
            }
        }
        RegistryOutcome {
            shard: shard_idx,
            primary_shard: decision.primary,
            failed_over: decision.failed_over,
            probe: decision.probe,
            version: engine.version,
            canary,
            rolled_back,
            outcome,
        }
    }

    /// Serves a batch through [`ModelRegistry::handle`] and returns the
    /// outcomes together with the exact per-version accounting delta.
    pub fn run_batch(&self, requests: &[BatchRequest]) -> RegistryReport {
        let start = Instant::now();
        let before = self.version_counters();
        let outcomes: Vec<RegistryOutcome> = requests.iter().map(|r| self.handle(r)).collect();
        let mut version_delta = self.version_counters();
        for (version, counters) in version_delta.iter_mut() {
            if let Some(prev) = before.get(version) {
                counters.requests -= prev.requests;
                counters.ok -= prev.ok;
                counters.failed -= prev.failed;
                counters.canary -= prev.canary;
            }
        }
        version_delta.retain(|_, c| c.requests > 0);
        RegistryReport {
            outcomes,
            version_delta,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// Feeds one canary observation; returns whether it tripped the
    /// version breaker (and therefore rolled the rollout back).
    fn observe_canary(&self, version: u64, failed: bool, tripped: bool) -> bool {
        let mut slot = lock(&self.rollout);
        let Some(rollout) = slot.as_mut() else {
            return false; // rollout already resolved by a racing request
        };
        if rollout.version != version {
            return false; // observation for a superseded candidate
        }
        rollout.observed += 1;
        if failed {
            rollout.failures += 1;
        }
        if tripped {
            rollout.canary_trips += 1;
        }
        let bad = rollout.failures + rollout.canary_trips;
        let spike = rollout.observed >= self.cfg.canary_min_requests
            && bad as f64 / rollout.observed as f64 >= CANARY_TRIP_THRESHOLD;
        if !spike {
            return false;
        }
        if let Some(rolled) = slot.take() {
            drop(slot);
            self.note_rollback(rolled.version, "canary_spike");
        }
        true
    }

    fn note_rollback(&self, version: u64, reason: &str) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        let version = version.to_string();
        fbcnn_telemetry::counter_add(
            "rollback_total",
            &[("reason", reason), ("version", &version)],
            1,
        );
    }

    /// Jams `shard`'s circuit breaker persistently open — the chaos
    /// layer's breaker fault. Only a shard rebuild (which installs a
    /// fresh breaker) cures it.
    pub fn jam_shard_breaker(&self, shard: usize) {
        self.shards[shard].breaker().jam_open();
    }

    /// Whether `shard`'s breaker is currently open or jammed — the
    /// breaker-dwell signal [`Supervisor::tick`] folds.
    pub fn shard_breaker_open(&self, shard: usize) -> bool {
        let breaker = self.shards[shard].breaker();
        breaker.is_jammed() || breaker.state() == BreakerState::Open
    }

    /// Rebuilds `shard` from the retained artifact: re-validate through
    /// the full artifact ladder (a rebuild can never re-admit a poisoned
    /// engine), boot a fresh engine AND a fresh breaker, and swap both
    /// in atomically. In-flight requests finish on the engine they
    /// started with.
    ///
    /// # Errors
    ///
    /// Everything [`ModelArtifact::validate`] /
    /// [`ModelArtifact::into_engine`] report; the sick shard keeps its
    /// old slot on error.
    pub fn rebuild_shard(&self, shard: usize) -> Result<(), ArtifactError> {
        let artifact = self.retained_artifact();
        artifact.validate()?;
        let version = artifact.model_version;
        let engine = artifact.into_engine()?;
        let breaker = Arc::new(CircuitBreaker::new(self.cfg.resilience.breaker));
        let ve = build_versioned(&self.cfg, version, engine, &breaker);
        {
            let mut slot = self.shards[shard]
                .slot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *slot = ve;
        }
        {
            let mut b = self.shards[shard]
                .breaker
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *b = breaker;
        }
        Ok(())
    }

    /// One supervision step: fold per-shard breaker state into the
    /// supervisor's dwell signal, close aged windows, then rebuild every
    /// shard the supervisor reports Quarantined and open its probe gate.
    /// Returns the shards rebuilt this tick. No-op without supervision.
    pub fn supervise_tick(&self) -> Vec<usize> {
        let Some(sup) = &self.supervisor else {
            return Vec::new();
        };
        let breaker_open: Vec<bool> = (0..self.shards.len())
            .map(|s| self.shard_breaker_open(s))
            .collect();
        let mut rebuilt = Vec::new();
        for shard in sup.tick(&breaker_open) {
            sup.note_rebuild_attempt();
            if self.rebuild_shard(shard).is_ok() {
                sup.begin_probation(shard);
                rebuilt.push(shard);
            }
        }
        rebuilt
    }

    /// Spawns the background supervisor thread, ticking every `poll`.
    /// Returns `None` when supervision is off. The handle stops and
    /// joins the thread on drop.
    pub fn spawn_supervisor(self: &Arc<Self>, poll: Duration) -> Option<SupervisorHandle> {
        self.supervisor.as_ref()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::clone(self);
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                registry.supervise_tick();
                std::thread::sleep(poll);
            }
        });
        Some(SupervisorHandle {
            shutdown,
            thread: Some(thread),
        })
    }
}

/// Join handle of the background supervision thread
/// ([`ModelRegistry::spawn_supervisor`]); stops and joins on drop.
pub struct SupervisorHandle {
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SupervisorHandle {
    /// Stops the supervisor thread and waits for it to exit.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for SupervisorHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

fn build_versioned(
    cfg: &RegistryConfig,
    version: u64,
    engine: Engine,
    breaker: &Arc<CircuitBreaker>,
) -> Arc<VersionedEngine> {
    let batch = BatchEngine::new(engine, cfg.batch);
    let mut resilient =
        ResilientBatchEngine::with_breaker(batch, cfg.resilience.clone(), Arc::clone(breaker));
    if let Some(hook) = &cfg.sample_hook {
        resilient = resilient.with_request_sample_hook(Arc::clone(hook));
    }
    if let Some(jitter) = &cfg.jitter {
        resilient = resilient.with_jitter(Arc::clone(jitter));
    }
    Arc::new(VersionedEngine {
        version,
        engine: resilient,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::synth_input;
    use fbcnn_nn::models::ModelKind;

    fn tiny_engine(seed: u64) -> Engine {
        Engine::new(EngineConfig {
            samples: 3,
            calibration_samples: 2,
            seed,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    }

    fn tiny_registry_cfg() -> RegistryConfig {
        RegistryConfig {
            shards: 2,
            canary_percent: 50,
            canary_min_requests: 4,
            batch: BatchConfig {
                threads: 1,
                cache_capacity: 4,
                ..BatchConfig::default()
            },
            ..RegistryConfig::default()
        }
    }

    fn requests(engine: &Engine, n: u64) -> Vec<BatchRequest> {
        let shape = engine.network().input_shape();
        (0..n)
            .map(|i| BatchRequest::new(i, synth_input(shape, 7 + (i % 3))))
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_bounds() {
        let engine = tiny_engine(3);
        let artifact = ModelArtifact::from_engine(&engine, 1, "base");
        let registry = ModelRegistry::new(artifact, tiny_registry_cfg()).unwrap();
        for id in 0..200 {
            let s = registry.shard_of(id);
            assert!(s < 2);
            assert_eq!(s, registry.shard_of(id));
            assert_eq!(registry.is_canary_id(id), registry.is_canary_id(id));
        }
        // The canary split is a fraction, not all-or-nothing.
        let canaries = (0..200).filter(|&id| registry.is_canary_id(id)).count();
        assert!((20..180).contains(&canaries), "split {canaries}/200");
    }

    #[test]
    fn healthy_deploy_promotes_and_swaps_all_shards() {
        let engine = tiny_engine(3);
        let artifact = ModelArtifact::from_engine(&engine, 1, "v1");
        let registry = ModelRegistry::new(artifact, tiny_registry_cfg()).unwrap();
        assert_eq!(registry.active_version(), 1);

        registry
            .deploy(ModelArtifact::from_engine(&engine, 2, "v2"))
            .unwrap();
        let report = registry.run_batch(&requests(&engine, 24));
        report.reconcile().unwrap();
        // Both versions served traffic during the rollout.
        assert!(report.version_delta.contains_key(&1));
        assert!(report.version_delta.contains_key(&2));
        assert!(
            report
                .outcomes
                .iter()
                .all(|o| o.outcome.outcome.result.is_ok()),
            "healthy rollout must not fail requests"
        );
        assert!(registry.rollout_status().is_some(), "no spike, no rollback");

        assert_eq!(registry.promote(), Some(2));
        assert_eq!(registry.active_version(), 2);
        let after = registry.run_batch(&requests(&engine, 8));
        after.reconcile().unwrap();
        assert_eq!(after.version_delta.keys().copied().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn poisoned_canary_rolls_back_automatically() {
        let engine = tiny_engine(3);
        let artifact = ModelArtifact::from_engine(&engine, 1, "v1");

        // A deploy that passes every load-time screen but crashes on the
        // traffic it serves. While the rollout is in flight only the
        // candidate serves canary ids, so arming the hook on exactly
        // those ids models a version-correlated production fault.
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut cfg = tiny_registry_cfg();
        let (seed, percent) = (cfg.routing_seed, cfg.canary_percent);
        let hook_armed = Arc::clone(&armed);
        cfg.sample_hook = Some(Arc::new(move |id, _attempt, _sample| {
            if hook_armed.load(Ordering::Relaxed) && is_canary(seed, percent, id) {
                panic!("chaos: candidate crashes on every sample it serves");
            }
        }));
        let registry = ModelRegistry::new(artifact, cfg).unwrap();

        registry
            .deploy(ModelArtifact::from_engine(&engine, 2, "v2-crashy"))
            .unwrap();
        armed.store(true, Ordering::Relaxed);

        let shape = engine.network().input_shape();
        let mut outcomes = Vec::new();
        for id in 0..64u64 {
            let o = registry.handle(&BatchRequest::new(id, synth_input(shape, 7 + id % 3)));
            let rolled = o.rolled_back;
            outcomes.push(o);
            if rolled {
                armed.store(false, Ordering::Relaxed);
                break;
            }
        }
        assert!(
            outcomes.iter().any(|o| o.rolled_back),
            "canary spike must trip the version breaker"
        );
        assert!(registry.rollout_status().is_none(), "rollout still alive");
        assert_eq!(registry.rollbacks(), 1);
        assert_eq!(registry.active_version(), 1);
        assert_eq!(registry.promote(), None);
        // Every failure was a canary on the candidate; stable traffic
        // never lost a request.
        assert!(outcomes
            .iter()
            .filter(|o| o.outcome.outcome.result.is_err())
            .all(|o| o.canary && o.version == 2));
        assert!(outcomes.iter().filter(|o| o.version == 1).all(|o| o
            .outcome
            .outcome
            .result
            .is_ok()));

        // After the rollback the registry serves everything, including
        // former canary ids, healthily on the stable version.
        let after = registry.run_batch(&requests(&engine, 8));
        after.reconcile().unwrap();
        assert_eq!(after.version_delta.keys().copied().collect::<Vec<_>>(), [1]);
        assert!(after
            .outcomes
            .iter()
            .all(|o| o.outcome.outcome.result.is_ok()));
    }

    #[test]
    fn stale_and_damaged_deploys_are_refused() {
        let engine = tiny_engine(3);
        let artifact = ModelArtifact::from_engine(&engine, 3, "v3");
        let registry = ModelRegistry::new(artifact.clone(), tiny_registry_cfg()).unwrap();
        match registry.deploy(ModelArtifact::from_engine(&engine, 3, "same")) {
            Err(ArtifactError::StaleVersion {
                offered: 3,
                active: 3,
            }) => {}
            other => panic!("expected stale version, got {other:?}"),
        }
        let mut damaged = ModelArtifact::from_engine(&engine, 4, "bad");
        damaged.digest ^= 1;
        assert!(matches!(
            registry.deploy(damaged),
            Err(ArtifactError::Digest { .. })
        ));
        assert_eq!(registry.deploys(), 0);
    }

    #[test]
    fn supervised_registry_quarantines_rebuilds_and_readmits() {
        use crate::supervise::ShardHealth;
        use std::sync::OnceLock;
        let engine = tiny_engine(3);
        let artifact = ModelArtifact::from_engine(&engine, 1, "v1");

        let clock = Arc::new(fbcnn_telemetry::ManualClock::new());
        let mut cfg = tiny_registry_cfg();
        cfg.supervise = Some(SuperviseConfig {
            clock: Arc::clone(&clock) as Arc<dyn fbcnn_telemetry::Clock>,
            window_ns: 100,
            min_observations: 4,
            suspect_strikes: 2,
            probe_requests: 3,
            probe_max_failures: 0,
            ..SuperviseConfig::default()
        });
        let target = 0usize;
        let armed = Arc::new(AtomicBool::new(false));
        let gate: Arc<OnceLock<Arc<Supervisor>>> = Arc::new(OnceLock::new());
        // Poisons every request routed to `target` while the shard is
        // still in the ring, so failed-over and probe traffic runs clean.
        let (hook_armed, hook_gate) = (Arc::clone(&armed), Arc::clone(&gate));
        let (seed, shards) = (cfg.routing_seed, cfg.shards);
        cfg.sample_hook = Some(Arc::new(move |id, _attempt, _sample| {
            let live = hook_gate
                .get()
                .is_none_or(|sup| sup.health(target).is_live());
            if hook_armed.load(Ordering::Relaxed) && shard_route(seed, shards, id) == target && live
            {
                panic!("chaos: shard {target} poisoned");
            }
        }));
        let registry = ModelRegistry::new(artifact, cfg).unwrap();
        let sup = Arc::clone(registry.supervisor().expect("supervision on"));
        assert!(gate.set(Arc::clone(&sup)).is_ok());

        let shape = engine.network().input_shape();
        let on_target: Vec<u64> = (0..400)
            .filter(|&id| registry.shard_of(id) == target)
            .take(12)
            .collect();
        assert!(on_target.len() >= 10, "need traffic on the poisoned shard");

        // Two bad windows of poisoned traffic → Quarantined.
        armed.store(true, Ordering::Relaxed);
        for window in 0..2 {
            for &id in &on_target[..5] {
                let o = registry.handle(&BatchRequest::new(id, synth_input(shape, 7)));
                assert!(o.outcome.outcome.result.is_err(), "poison must bite");
                assert!(!o.failed_over, "shard still in the ring");
            }
            clock.advance(101);
            let _ = registry.handle(&BatchRequest::new(
                on_target[5 + window],
                synth_input(shape, 7),
            ));
        }
        assert_eq!(sup.health(target), ShardHealth::Quarantined);

        // Quarantined: traffic for shard 0 fails over to shard 1 and
        // succeeds even though the poison is still armed (the gate sees
        // the shard out of the ring).
        let o = registry.handle(&BatchRequest::new(on_target[0], synth_input(shape, 7)));
        assert!(o.failed_over);
        assert_eq!(o.primary_shard, target);
        assert_ne!(o.shard, target);
        assert!(o.outcome.outcome.result.is_ok());

        // One tick rebuilds the shard from the retained artifact and
        // opens probation.
        assert_eq!(registry.supervise_tick(), vec![target]);
        assert_eq!(sup.health(target), ShardHealth::Rebuilding);

        // Exactly probe_requests probes run (clean: the rebuilt shard is
        // not "live" to the gate until re-admission) and re-admit it.
        let mut probes = 0;
        for &id in on_target.iter().cycle() {
            let o = registry.handle(&BatchRequest::new(id, synth_input(shape, 7)));
            if o.probe {
                probes += 1;
                assert!(o.outcome.outcome.result.is_ok());
            }
            if probes == 3 {
                break;
            }
        }
        assert_eq!(sup.health(target), ShardHealth::Healthy);
        armed.store(false, Ordering::Relaxed);

        // Healed: primary routing is restored bit-for-bit and the shard
        // serves its own traffic again.
        let o = registry.handle(&BatchRequest::new(on_target[1], synth_input(shape, 7)));
        assert_eq!(o.shard, target);
        assert!(!o.failed_over);
        assert!(o.outcome.outcome.result.is_ok());

        let snap = sup.snapshot();
        assert!(snap.full_walk(target));
        snap.reconcile_failovers().unwrap();
        assert_eq!(snap.rebuild_attempts, 1);
        assert_eq!(snap.rebuild_successes, 1);
    }

    #[test]
    fn hot_swap_mid_traffic_loses_nothing() {
        let engine = tiny_engine(3);
        let artifact = ModelArtifact::from_engine(&engine, 1, "v1");
        let registry = Arc::new(ModelRegistry::new(artifact, tiny_registry_cfg()).unwrap());
        registry
            .deploy(ModelArtifact::from_engine(&engine, 2, "v2"))
            .unwrap();

        let shape = engine.network().input_shape();
        let served: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3u64)
                .map(|w| {
                    let registry = Arc::clone(&registry);
                    let input = synth_input(shape, 7 + w);
                    scope.spawn(move || {
                        (0..12u64)
                            .map(|i| {
                                registry.handle(&BatchRequest::new(w * 100 + i, input.clone()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // Promote while the workers are mid-traffic.
            registry.promote();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(served.len(), 36);
        assert!(served.iter().all(|o| o.outcome.outcome.result.is_ok()));
        // Accounting is exact even across the concurrent swap.
        let counters = registry.version_counters();
        let total: u64 = counters.values().map(|c| c.requests).sum();
        assert_eq!(total, 36);
        assert_eq!(registry.active_version(), 2);
    }
}
