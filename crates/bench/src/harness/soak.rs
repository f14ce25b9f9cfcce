//! The serve soak and the shard-supervision soak: a live TCP server over
//! a [`ModelRegistry`], driven by the [`super::loadgen`] load generator
//! (and, under supervision, by poisoned shards and the adversarial
//! battery), with every ledger — load generator, server wire accounting,
//! registry version counters, supervision — reconciled exactly.

use super::chaos::boot_registry_via_disk;
use super::faults::{lock_gate, FaultInjector, SupervisorGate};
use super::loadgen::{
    run_adversarial, run_loadgen, AdversarialConfig, AdversarialReport, LoadMode, LoadgenConfig,
    LoadgenReport,
};
use super::{record_into, soak_engine_config, SilencedChaosPanics};
use fast_bcnn::serve::{serve, ClassPolicy, ServeConfig, ServeTotals, WireError};
use fast_bcnn::supervise::{ShardHealth, ShardLedger, SuperviseConfig};
use fast_bcnn::telemetry::Registry;
use fast_bcnn::{
    synth_input, Engine, Ledger, ModelArtifact, ModelRegistry, NoJitter, RegistryConfig,
    RequestSampleHook, ResilienceConfig, Tensor, VersionCounters,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// SLO tiers of the serve soak: two healthy tiers, one deterministic
/// partial-sample tier and one always-shed tier, so every counter the
/// reconciliation checks is exercised on every run.
pub fn soak_classes(samples: usize) -> Vec<ClassPolicy> {
    vec![
        ClassPolicy {
            name: "interactive".to_string(),
            deadline: Some(Duration::from_secs(5)),
            sample_budget: None,
            max_inflight: usize::MAX,
        },
        ClassPolicy::unbounded("batch"),
        ClassPolicy {
            name: "degraded".to_string(),
            deadline: None,
            sample_budget: Some((samples / 2).max(1) as u64),
            max_inflight: usize::MAX,
        },
        ClassPolicy {
            name: "reject".to_string(),
            deadline: None,
            sample_budget: None,
            max_inflight: 0,
        },
    ]
}

/// Knobs of one serve soak campaign.
#[derive(Debug, Clone)]
pub struct ServeSoakConfig {
    /// Seed of the model, the inputs and the request mix.
    pub seed: u64,
    /// Monte-Carlo samples per request (T).
    pub samples: usize,
    /// Registry shards behind the server.
    pub shards: usize,
    /// Concurrent load-generator connections.
    pub connections: usize,
    /// Requests each connection offers.
    pub requests_per_connection: usize,
    /// Load-generator loop mode.
    pub mode: LoadMode,
    /// Wall-clock bound on the load phase (workers stop offering new
    /// requests past it).
    pub time_limit: Duration,
}

impl ServeSoakConfig {
    /// CI-speed campaign (a few seconds).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            samples: 4,
            shards: 2,
            connections: 2,
            requests_per_connection: 30,
            mode: LoadMode::Closed,
            time_limit: Duration::from_secs(45),
        }
    }

    /// Acceptance-floor campaign (bounded under a minute).
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            samples: 6,
            shards: 2,
            connections: 4,
            requests_per_connection: 150,
            mode: LoadMode::Closed,
            time_limit: Duration::from_secs(50),
        }
    }

    fn loadgen(&self) -> LoadgenConfig {
        LoadgenConfig {
            mode: self.mode,
            time_limit: Some(self.time_limit),
            ..soak_mix(
                self.seed,
                self.connections,
                self.requests_per_connection,
                false,
            )
        }
    }
}

/// The soaks' closed-loop request mix over [`soak_classes`]: the three
/// healthy tiers in turn, every 7th request on the always-shed tier,
/// every 11th expiring, every 13th frame malformed and every 5th
/// pristine response bit-checked. A `clean` mix drops the pressure and
/// bit-checks every response.
fn soak_mix(seed: u64, connections: usize, requests: usize, clean: bool) -> LoadgenConfig {
    let every = |n| if clean { 0 } else { n };
    LoadgenConfig {
        seed,
        mode: LoadMode::Closed,
        connections,
        requests_per_connection: requests,
        classes: vec![
            "interactive".to_string(),
            "batch".to_string(),
            "degraded".to_string(),
        ],
        shed_class: (!clean).then(|| "reject".to_string()),
        shed_every: every(7),
        expiring_every: every(11),
        malformed_every: every(13),
        bit_check_every: if clean { 1 } else { 5 },
        open_pipeline: 8,
        read_timeout: Duration::from_secs(20),
        time_limit: None,
    }
}

/// Builds the registry a soak serves from, plus the bit-identical
/// reference engine the load generator checks against.
///
/// # Errors
///
/// [`WireError::Io`] when the artifact or registry cannot be built.
pub fn build_soak_registry(
    cfg: &ServeSoakConfig,
) -> Result<(Arc<ModelRegistry>, Engine), WireError> {
    let engine_cfg = soak_engine_config(cfg.seed, cfg.samples);
    let reference = Engine::new(engine_cfg);
    let artifact = ModelArtifact::from_engine(&reference, 1, "serve-soak");
    let registry = ModelRegistry::new(
        artifact,
        RegistryConfig {
            shards: cfg.shards.max(1),
            resilience: ResilienceConfig {
                deadline_class: "net".to_string(),
                ..ResilienceConfig::default()
            },
            jitter: Some(Arc::new(NoJitter)),
            ..RegistryConfig::default()
        },
    )
    .map_err(|e| WireError::Io(e.to_string()))?;
    Ok((Arc::new(registry), reference))
}

/// What one serve soak observed, on both sides of the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSoakReport {
    /// Campaign seed.
    pub seed: u64,
    /// Load-generator mode name.
    pub mode: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Monte-Carlo samples per request.
    pub samples: usize,
    /// Registry shards.
    pub shards: usize,
    /// Client-side observations.
    pub loadgen: LoadgenReport,
    /// Server-side accounting.
    pub server: ServeTotals,
    /// Registry requests over the campaign (delta of version counters).
    pub registry_requests: u64,
    /// Registry `ok` outcomes over the campaign.
    pub registry_ok: u64,
    /// Registry `failed` outcomes over the campaign.
    pub registry_failed: u64,
    /// Wall clock of the load phase (serve, load, shutdown) in
    /// nanoseconds.
    pub elapsed_ns: u64,
    /// The reference engine's in-process robust predictions per second
    /// at the soak's concurrency, measured after the soak and outside
    /// its telemetry scope (see [`run_serve_soak`]); 0 when the load
    /// phase ran on its own ([`drive_serve_soak`]).
    pub reference_rps: f64,
}

impl ServeSoakReport {
    /// Exact three-way ledger: load generator ↔ server wire accounting ↔
    /// registry version counters. Any drift is a dropped or
    /// double-counted request.
    pub fn ledger(&self) -> Ledger {
        let registry = [
            self.registry_requests,
            self.registry_ok,
            self.registry_failed,
        ];
        wire_ledger(&self.loadgen, &self.server, 0, registry)
    }

    /// Checks [`ServeSoakReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger().check()
    }
}

/// The loadgen ↔ server ↔ registry rows both soaks reconcile; the
/// server also counts the `adversarial` wire errors a hostile-client
/// battery drew on top of the load generator's.
fn wire_ledger(
    loadgen: &LoadgenReport,
    sv: &ServeTotals,
    adversarial: u64,
    [requests, ok, failed]: [u64; 3],
) -> Ledger {
    let lg = &loadgen.totals;
    Ledger::from([
        (
            "offered vs server frames",
            lg.offered + adversarial,
            sv.frames_total(),
        ),
        ("ok", lg.ok, sv.frames_ok),
        ("failed", lg.failed, sv.frames_failed),
        ("shed", lg.shed, sv.frames_shed),
        (
            "wire errors",
            lg.wire_error_responses + adversarial,
            sv.frames_wire_error,
        ),
        ("unknown class", lg.unknown_class, sv.frames_unknown_class),
        ("expired", lg.expired, sv.expired),
        (
            "registry requests vs served frames",
            requests,
            sv.frames_ok + sv.frames_failed,
        ),
        ("registry ok", ok, sv.frames_ok),
        ("registry failed", failed, sv.frames_failed),
        ("aborted load-generator workers", loadgen.aborted_workers, 0),
        ("transport errors", lg.transport_errors, 0),
        ("bit-identity spot checks mismatched", lg.bit_mismatched, 0),
    ])
}

fn sum_delta(
    before: &BTreeMap<u64, VersionCounters>,
    after: &BTreeMap<u64, VersionCounters>,
) -> (u64, u64, u64) {
    let mut requests = 0;
    let mut ok = 0;
    let mut failed = 0;
    for (version, counters) in after {
        let base = before.get(version).copied().unwrap_or_default();
        requests += counters.requests - base.requests;
        ok += counters.ok - base.ok;
        failed += counters.failed - base.failed;
    }
    (requests, ok, failed)
}

/// The serve soak's load phase against an already booted `registry`:
/// serves it on `addr` under the soak's SLO tiers, drives the
/// [`ServeSoakConfig`] load mix through real TCP connections, shuts the
/// server down and folds the three-way accounting. `reference` must be
/// bit-identical to the registry's active engine; it anchors the
/// bit-identity spot checks. Records into whatever telemetry recorder
/// is installed; `reference_rps` is left 0.
///
/// # Errors
///
/// [`WireError`] when the server cannot bind `addr`.
pub fn drive_serve_soak(
    cfg: &ServeSoakConfig,
    registry: &Arc<ModelRegistry>,
    reference: &Engine,
    addr: &str,
) -> Result<ServeSoakReport, WireError> {
    let started = Instant::now();
    let before = registry.version_counters();
    let server = serve(
        Arc::clone(registry),
        ServeConfig {
            addr: addr.to_string(),
            classes: soak_classes(cfg.samples.max(2)),
            ..ServeConfig::default()
        },
    )?;
    let loadgen = run_loadgen(server.addr(), reference, &cfg.loadgen());
    let totals = server.shutdown();
    let after = registry.version_counters();
    let (registry_requests, registry_ok, registry_failed) = sum_delta(&before, &after);
    Ok(ServeSoakReport {
        seed: cfg.seed,
        mode: cfg.mode.name().to_string(),
        connections: cfg.connections,
        requests_per_connection: cfg.requests_per_connection,
        samples: cfg.samples,
        shards: cfg.shards,
        loadgen,
        server: totals,
        registry_requests,
        registry_ok,
        registry_failed,
        elapsed_ns: started.elapsed().as_nanos() as u64,
        reference_rps: 0.0,
    })
}

/// Runs a serve soak recording into `telemetry`: boots the soak registry
/// ([`build_soak_registry`]), runs [`drive_serve_soak`] on an ephemeral
/// local port, then measures the reference engine's in-process rate
/// once the soak's telemetry scope has closed.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built.
pub fn run_serve_soak(
    cfg: &ServeSoakConfig,
    telemetry: &Arc<Registry>,
) -> Result<ServeSoakReport, WireError> {
    let guard = record_into(telemetry);
    let (registry, reference) = build_soak_registry(cfg)?;
    let mut report = drive_serve_soak(cfg, &registry, &reference, "127.0.0.1:0")?;
    drop(guard);
    report.reference_rps = in_process_rps(&reference, cfg);
    Ok(report)
}

/// Robust predictions per second of `reference` in process, at the
/// soak's concurrency: one thread per load-generator connection, each
/// predicting the load generator's input pool back to back. Goodput
/// over this rate cancels the host's speed and core count.
fn in_process_rps(reference: &Engine, cfg: &ServeSoakConfig) -> f64 {
    let shape = reference.network().input_shape();
    let pool: Vec<Tensor> = (0..8)
        .map(|i| synth_input(shape, cfg.seed.wrapping_add(i)))
        .collect();
    let threads = cfg.connections.max(1);
    let predict_pool = || {
        for (i, input) in pool.iter().enumerate() {
            let _ =
                std::hint::black_box(reference.predict_robust_seeded(input, cfg.seed ^ i as u64));
        }
    };
    predict_pool(); // untimed warm-up
    let started = Instant::now();
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(predict_pool);
        }
    });
    (threads * pool.len()) as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

// ---------------------------------------------------------------------------
// Supervision soak
// ---------------------------------------------------------------------------

/// Shard poisoned with per-sample panics in a supervision soak.
pub const SUPERVISE_PANIC_SHARD: usize = 0;
/// Shard poisoned with watchdog-tripping stalls in a supervision soak.
pub const SUPERVISE_HANG_SHARD: usize = 1;
/// Shard whose circuit breaker is jammed open in a supervision soak.
pub const SUPERVISE_JAM_SHARD: usize = 2;

/// Knobs of one supervision soak campaign: a supervised multi-shard
/// registry behind a live TCP server, three simultaneously injected
/// shard-poisoning fault classes (per-sample panics on
/// [`SUPERVISE_PANIC_SHARD`], watchdog-abandoned stalls on
/// [`SUPERVISE_HANG_SHARD`], a jammed breaker on
/// [`SUPERVISE_JAM_SHARD`]), an adversarial client battery, and seeded
/// load driven in bursts until every poisoned shard has walked the full
/// Suspect → Quarantined → Rebuilding → Healthy cycle.
#[derive(Debug, Clone)]
pub struct SuperviseSoakConfig {
    /// Seed of the model, the inputs and the request mix.
    pub seed: u64,
    /// Monte-Carlo samples per request (T).
    pub samples: usize,
    /// Registry shards; must exceed the three poisoned indices so at
    /// least one shard is never poisoned (the failover sink).
    pub shards: usize,
    /// Concurrent load-generator connections per burst.
    pub connections: usize,
    /// Requests each connection offers per burst.
    pub requests_per_burst: usize,
    /// Upper bound on bursts across all phases.
    pub max_bursts: usize,
    /// Adversarial battery driven while the poisons are still armed.
    pub adversarial: AdversarialConfig,
    /// Stall of the hang poison; must be well past `watchdog`.
    pub stall: Duration,
    /// Resilience watchdog timeout while the soak runs.
    pub watchdog: Duration,
    /// Wall-clock bound of the whole campaign; on exhaustion the soak
    /// stops bursting and the final reconciliation reports what is
    /// missing.
    pub time_limit: Duration,
}

impl SuperviseSoakConfig {
    /// CI-speed campaign (a few seconds).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            samples: 4,
            shards: 4,
            connections: 2,
            requests_per_burst: 26,
            max_bursts: 60,
            adversarial: AdversarialConfig {
                slow_loris: 1,
                abrupt_close: 1,
                oversize: 1,
                churn: 1,
                dribble_delay: Duration::from_millis(2),
                read_timeout: Duration::from_secs(5),
            },
            stall: Duration::from_millis(60),
            watchdog: Duration::from_millis(30),
            time_limit: Duration::from_secs(45),
        }
    }

    /// Acceptance-floor campaign (bounded under two minutes).
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            samples: 6,
            shards: 4,
            connections: 4,
            requests_per_burst: 40,
            max_bursts: 120,
            adversarial: AdversarialConfig {
                slow_loris: 2,
                abrupt_close: 2,
                oversize: 2,
                churn: 3,
                dribble_delay: Duration::from_millis(3),
                read_timeout: Duration::from_secs(10),
            },
            stall: Duration::from_millis(60),
            watchdog: Duration::from_millis(30),
            time_limit: Duration::from_secs(120),
        }
    }

    /// The supervision thresholds the soak pins: windows wide enough to
    /// span a burst, at least four observations before a verdict binds
    /// (so the recurring pre-expired ids can never fill a window on
    /// their own), two strikes to quarantine, a three-probe re-admission
    /// gate.
    fn supervise(&self) -> SuperviseConfig {
        SuperviseConfig {
            window_ns: 700_000_000,
            min_observations: 4,
            failure_rate_threshold: 0.6,
            expiry_rate_threshold: 1.0,
            // Two abandonments per window: one spurious watchdog trip
            // (a legitimately slow attempt on a noisy scheduler) must
            // not strike a healthy shard; the hang poison abandons
            // every request it touches, so it clears two trivially.
            abandon_threshold: 2,
            breaker_open_dwell_ns: 150_000_000,
            suspect_strikes: 2,
            probe_requests: 3,
            probe_max_failures: 0,
            // Hold each quarantined shard out of the ring for a quarter
            // second so the closed-loop bursts actually exercise the
            // failover path before the rebuild probation begins.
            rebuild_backoff_ns: 250_000_000,
            ..SuperviseConfig::default()
        }
    }

    fn burst_loadgen(&self, salt: u64, clean: bool) -> LoadgenConfig {
        let seed = self.seed.wrapping_add(salt);
        soak_mix(seed, self.connections, self.requests_per_burst, clean)
    }
}

/// One supervision state transition, flattened for serialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitionRow {
    /// Shard that moved.
    pub shard: usize,
    /// State it left.
    pub from: String,
    /// State it entered.
    pub to: String,
}

/// What one supervision soak observed, on all three sides of the wire:
/// the load generator, the server's wire accounting, and the
/// supervisor's per-shard ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuperviseSoakReport {
    /// Campaign seed.
    pub seed: u64,
    /// Registry shards.
    pub shards: usize,
    /// Concurrent connections per burst.
    pub connections: usize,
    /// Bursts driven across all phases.
    pub bursts: u64,
    /// The poisoned shard indices, in panic/hang/jam order.
    pub poisoned: Vec<usize>,
    /// Client-side observations, merged across every burst.
    pub loadgen: LoadgenReport,
    /// What the adversarial battery observed.
    pub adversarial: AdversarialReport,
    /// Wire rejects the battery must have read back (slow-loris and
    /// oversize clients; abrupt-close clients cannot receive one).
    pub adversarial_expected_rejects: u64,
    /// Server-side wire accounting.
    pub server: ServeTotals,
    /// Registry requests over the campaign (delta of version counters).
    pub registry_requests: u64,
    /// Registry `ok` outcomes over the campaign.
    pub registry_ok: u64,
    /// Registry `failed` outcomes over the campaign.
    pub registry_failed: u64,
    /// Final health per shard, by name.
    pub health: Vec<String>,
    /// Final cumulative supervision ledger per shard.
    pub ledger: Vec<ShardLedger>,
    /// Every supervision transition, in order.
    pub transitions: Vec<TransitionRow>,
    /// Whether each poisoned shard (in `poisoned` order) completed the
    /// full Suspect → Quarantined → Rebuilding → Healthy walk.
    pub full_walks: Vec<bool>,
    /// Shard rebuilds attempted.
    pub rebuild_attempts: u64,
    /// Rebuilds whose probe gate re-admitted the shard.
    pub rebuild_successes: u64,
    /// Rebuilds whose probe gate sent the shard back to quarantine.
    pub rebuild_probe_rejects: u64,
    /// Wall clock until every poisoned shard had been quarantined.
    pub quarantine_elapsed_ns: u64,
    /// Wall clock of the whole campaign in nanoseconds.
    pub elapsed_ns: u64,
}

impl SuperviseSoakReport {
    /// Exact three-way ledger of the supervision soak: load generator ↔
    /// server wire accounting ↔ registry version counters ↔ per-shard
    /// supervision ledger, plus the self-healing walk itself — every
    /// poisoned shard quarantined, rebuilt and re-admitted, zero lost
    /// requests, and the healthy-shard responses bit-identical to the
    /// pristine reference engine.
    pub fn ledger(&self) -> Ledger {
        let (lg, sv, adv) = (&self.loadgen, &self.server, &self.adversarial);
        let registry = [
            self.registry_requests,
            self.registry_ok,
            self.registry_failed,
        ];
        let mut ledger = wire_ledger(lg, sv, adv.expected_wire_errors, registry);
        let fold = |f: fn(&ShardLedger) -> u64| -> u64 { self.ledger.iter().map(f).sum() };
        let shard = |i: usize| self.ledger.get(i).copied().unwrap_or_default();
        let poisoned = self.poisoned.len() as u64;
        let walked = self
            .full_walks
            .iter()
            .take(self.poisoned.len())
            .filter(|&&w| w)
            .count();
        let quarantined = self
            .poisoned
            .iter()
            .filter(|&&s| shard(s).quarantines > 0)
            .count();
        let healthy = self
            .health
            .iter()
            .filter(|h| h.as_str() == "healthy")
            .count();
        ledger.extend([
            (
                "supervision ledger served vs registry requests",
                fold(|s| s.served),
                self.registry_requests,
            ),
            (
                "supervision ledger ok vs registry ok",
                fold(|s| s.ok),
                self.registry_ok,
            ),
            (
                "supervision ledger failed vs registry failed",
                fold(|s| s.failed),
                self.registry_failed,
            ),
            (
                "supervision ledger expired vs server expired",
                fold(|s| s.expired),
                sv.expired,
            ),
            (
                "failover folds",
                fold(|s| s.failovers_out),
                fold(|s| s.failovers_in),
            ),
            (
                "connections",
                self.bursts * self.connections as u64 + adv.connections,
                sv.connections,
            ),
            (
                "adversarial rejects read back",
                adv.rejects_received,
                self.adversarial_expected_rejects,
            ),
            ("connections rejected", sv.connections_rejected, 0),
            ("adversarial transport errors", adv.transport_errors, 0),
            (
                "bit-identity spot checks ran",
                u64::from(lg.totals.bit_checked > 0),
                1,
            ),
            ("poisoned shards quarantined", quarantined as u64, poisoned),
            (
                "poisoned shards that completed the healing walk",
                walked as u64,
                poisoned,
            ),
            (
                "healthy shards at campaign end",
                healthy as u64,
                self.health.len() as u64,
            ),
            (
                "requests failed over",
                u64::from(fold(|s| s.failovers_out) > 0),
                1,
            ),
            (
                "the hang poison produced a watchdog abandonment",
                u64::from(shard(SUPERVISE_HANG_SHARD).abandoned > 0),
                1,
            ),
            (
                "the panic poison produced a typed failure",
                u64::from(shard(SUPERVISE_PANIC_SHARD).failed > 0),
                1,
            ),
            (
                "a rebuild attempted per poisoned shard",
                u64::from(self.rebuild_attempts >= poisoned),
                1,
            ),
            (
                "rebuilds attempted vs re-admitted + rejected",
                self.rebuild_attempts,
                self.rebuild_successes + self.rebuild_probe_rejects,
            ),
        ]);
        ledger
    }

    /// Checks [`SuperviseSoakReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger().check()
    }
}

/// Runs a supervision soak, recording into `telemetry`.
///
/// The campaign has three phases: (1) poisoned — panics, stalls and a
/// jammed breaker active on three distinct shards, bursts driven until
/// the supervisor has quarantined all three, with the adversarial
/// battery fired while the poisons are still armed; (2) healing —
/// poisons disarmed, bursts driven until every poisoned shard has been
/// rebuilt and re-admitted through its probe gate and the whole ring is
/// Healthy; (3) verification — one clean burst with every response
/// bit-checked against the pristine reference engine.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built (a
/// *failed* campaign instead surfaces through
/// [`SuperviseSoakReport::reconcile`]).
pub fn run_supervise_soak(
    cfg: &SuperviseSoakConfig,
    telemetry: &Arc<Registry>,
) -> Result<SuperviseSoakReport, WireError> {
    let started = Instant::now();
    let poisoned = [
        SUPERVISE_PANIC_SHARD,
        SUPERVISE_HANG_SHARD,
        SUPERVISE_JAM_SHARD,
    ];
    let max_poisoned = poisoned.iter().max().copied().unwrap_or(0);
    if cfg.shards <= max_poisoned + 1 {
        return Err(WireError::Io(format!(
            "supervise soak needs at least {} shards (got {})",
            max_poisoned + 2,
            cfg.shards
        )));
    }
    let _guard = record_into(telemetry);
    let _silencer = SilencedChaosPanics::install();

    let routing_seed = cfg.seed;
    let gate = SupervisorGate::default();
    let panic_armed = Arc::new(AtomicBool::new(true));
    let hang_armed = Arc::new(AtomicBool::new(true));
    let panic_hook = FaultInjector::shard_panic_hook(
        routing_seed,
        cfg.shards,
        SUPERVISE_PANIC_SHARD,
        Arc::clone(&panic_armed),
        Arc::clone(&gate),
    );
    let hang_hook = FaultInjector::shard_hang_hook(
        routing_seed,
        cfg.shards,
        SUPERVISE_HANG_SHARD,
        Arc::clone(&hang_armed),
        Arc::clone(&gate),
        cfg.stall,
    );
    let hook: RequestSampleHook = Arc::new(move |id, attempt, sample| {
        panic_hook(id, attempt, sample);
        hang_hook(id, attempt, sample);
    });

    let engine_cfg = soak_engine_config(cfg.seed, cfg.samples);
    let registry_cfg = RegistryConfig {
        shards: cfg.shards,
        routing_seed,
        resilience: ResilienceConfig {
            deadline_class: "net".to_string(),
            watchdog_timeout: Some(cfg.watchdog),
            max_requeues: 1,
            ..ResilienceConfig::default()
        },
        sample_hook: Some(hook),
        jitter: Some(Arc::new(NoJitter)),
        supervise: Some(cfg.supervise()),
        ..RegistryConfig::default()
    };
    let (registry, reference) =
        boot_registry_via_disk(engine_cfg, 1, "supervise_soak", registry_cfg)
            .map_err(|e| WireError::Io(e.to_string()))?;
    *lock_gate(&gate) = registry.supervisor().cloned();
    let sup = registry
        .supervisor()
        .cloned()
        .ok_or_else(|| WireError::Io("supervision missing from the registry".to_string()))?;
    registry.jam_shard_breaker(SUPERVISE_JAM_SHARD);
    let supervisor_thread = registry.spawn_supervisor(Duration::from_millis(5));
    let before = registry.version_counters();
    let server = serve(
        Arc::clone(&registry),
        ServeConfig {
            classes: soak_classes(cfg.samples.max(2)),
            read_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    )?;

    // One closed-loop load burst, salted by its index and merged into
    // the campaign's client-side observations; returns the bursts so far.
    let mut loadgen = LoadgenReport::default();
    let mut bursts = 0u64;
    let mut burst = |clean: bool| {
        let cfg = cfg.burst_loadgen(bursts, clean);
        loadgen.merge(&run_loadgen(server.addr(), &reference, &cfg));
        bursts += 1;
        bursts
    };

    // Phase 1: poisoned. Burst until the supervisor has quarantined all
    // three poisoned shards at least once (their rebuilds start
    // immediately, so current health is checked via the transition
    // ledger, not the live state).
    loop {
        let bursts = burst(false);
        let snap = sup.snapshot();
        let all_quarantined = poisoned.iter().all(|&s| {
            snap.transitions
                .iter()
                .any(|t| t.shard == s && t.to == ShardHealth::Quarantined)
        });
        if all_quarantined {
            break;
        }
        if bursts as usize >= cfg.max_bursts || started.elapsed() >= cfg.time_limit {
            break;
        }
    }
    let quarantine_elapsed_ns = started.elapsed().as_nanos() as u64;

    // The adversarial battery fires while the shard poisons are still
    // armed — hostile transports and sick shards at the same time.
    let adversarial = run_adversarial(server.addr(), &cfg.adversarial);

    // Phase 2: healing. Disarm the poisons (the jammed breaker is cured
    // by the rebuild itself, which installs a fresh breaker) and burst
    // until every poisoned shard has walked the full cycle and the whole
    // ring is Healthy again — with every breaker closed, so a lingering
    // open breaker cannot dwell-strike a healed shard back to Suspect
    // during the verification burst.
    panic_armed.store(false, Ordering::Relaxed);
    hang_armed.store(false, Ordering::Relaxed);
    // Let the supervisor's tick thread flush every window that still
    // carries armed-era observations (and any breaker dwell) before
    // judging the heal: a stale bad window closing mid-verification
    // would otherwise strike a healed shard after the last chance to
    // recover.
    std::thread::sleep(
        Duration::from_nanos(cfg.supervise().window_ns) + Duration::from_millis(100),
    );
    loop {
        let bursts = burst(false);
        let snap = sup.snapshot();
        let healed = poisoned.iter().all(|&s| snap.full_walk(s))
            && snap.health.iter().all(|h| *h == ShardHealth::Healthy)
            && (0..cfg.shards).all(|s| !registry.shard_breaker_open(s));
        if healed {
            break;
        }
        if bursts as usize >= cfg.max_bursts || started.elapsed() >= cfg.time_limit {
            break;
        }
    }

    // Phase 3: verification. One clean burst against the healed ring,
    // every response bit-checked against the pristine reference. The
    // tick thread keeps running — with every breaker closed and only
    // clean traffic flowing, it has nothing left to strike.
    let bursts = burst(true);

    drop(supervisor_thread); // stop ticking before the final snapshot
    let server_totals = server.shutdown();
    let after = registry.version_counters();
    let (registry_requests, registry_ok, registry_failed) = sum_delta(&before, &after);
    let snap = sup.snapshot();
    Ok(SuperviseSoakReport {
        seed: cfg.seed,
        shards: cfg.shards,
        connections: cfg.connections,
        bursts,
        poisoned: poisoned.to_vec(),
        loadgen,
        adversarial,
        adversarial_expected_rejects: (cfg.adversarial.slow_loris + cfg.adversarial.oversize)
            as u64,
        server: server_totals,
        registry_requests,
        registry_ok,
        registry_failed,
        health: snap.health.iter().map(|h| h.name().to_string()).collect(),
        ledger: snap.shards.clone(),
        transitions: snap
            .transitions
            .iter()
            .map(|t| TransitionRow {
                shard: t.shard,
                from: t.from.name().to_string(),
                to: t.to.name().to_string(),
            })
            .collect(),
        full_walks: poisoned.iter().map(|&s| snap.full_walk(s)).collect(),
        rebuild_attempts: snap.rebuild_attempts,
        rebuild_successes: snap.rebuild_successes,
        rebuild_probe_rejects: snap.rebuild_probe_rejects,
        quarantine_elapsed_ns,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bcnn::serve::{NET_CONNECTIONS_METRIC, NET_FRAMES_METRIC};
    use fast_bcnn::supervise::{
        FAILOVER_REQUESTS_METRIC, REBUILD_ATTEMPTS_METRIC, REBUILD_SUCCESSES_METRIC,
        SHARD_HEALTH_TRANSITIONS_METRIC,
    };

    #[test]
    fn adversarial_battery_reconciles_exactly() {
        let (registry, _reference) = build_soak_registry(&ServeSoakConfig::quick(3)).unwrap();
        let server = serve(
            Arc::clone(&registry),
            ServeConfig {
                read_timeout: Duration::from_millis(150),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let adv = AdversarialConfig::default();
        let report = run_adversarial(server.addr(), &adv);
        let totals = server.shutdown();
        assert_eq!(report.transport_errors, 0, "adversaries lost connections");
        assert_eq!(totals.connections, report.connections);
        assert_eq!(totals.frames_wire_error, report.expected_wire_errors);
        // The battery offers nothing else: every counted frame is one of
        // its provoked wire errors.
        assert_eq!(totals.frames_total(), report.expected_wire_errors);
        // Slow-loris and oversize clients keep reading, so their typed
        // verdicts must actually arrive; abrupt-close clients cannot.
        assert_eq!(
            report.rejects_received,
            (adv.slow_loris + adv.oversize) as u64,
            "typed verdicts were not delivered"
        );
        assert_eq!(totals.frames_ok, 0);
        assert_eq!(totals.write_deadline_drops, 0);
    }

    #[test]
    fn supervise_soak_quick_heals_and_reconciles() {
        let cfg = SuperviseSoakConfig::quick(11);
        let telemetry = Arc::new(Registry::new());
        let report = run_supervise_soak(&cfg, &telemetry).unwrap();
        report.reconcile().unwrap_or_else(|e| panic!("{e}"));
        assert!(report.bursts >= 3, "all three phases must burst");
        assert!(
            report.ledger[SUPERVISE_JAM_SHARD].quarantines >= 1,
            "breaker dwell never quarantined the jammed shard"
        );
        // The supervision counters made it into the installed sink.
        assert_eq!(
            telemetry.counter_total(REBUILD_ATTEMPTS_METRIC),
            report.rebuild_attempts
        );
        assert_eq!(
            telemetry.counter_total(REBUILD_SUCCESSES_METRIC),
            report.rebuild_successes
        );
        assert!(
            telemetry.counter_total(SHARD_HEALTH_TRANSITIONS_METRIC)
                >= report.transitions.len() as u64,
            "health transitions missing from telemetry"
        );
        let failovers: u64 = report.ledger.iter().map(|s| s.failovers_out).sum();
        assert_eq!(telemetry.counter_total(FAILOVER_REQUESTS_METRIC), failovers);
    }

    #[test]
    fn quick_soak_reconciles_exactly() {
        let cfg = ServeSoakConfig::quick(11);
        let telemetry = Arc::new(Registry::new());
        let report = run_serve_soak(&cfg, &telemetry).unwrap();
        report.reconcile().unwrap_or_else(|e| panic!("{e}"));
        let lg = &report.loadgen.totals;
        assert!(lg.ok > 0, "no ok responses");
        assert!(lg.shed > 0, "shed tier never exercised");
        assert!(lg.expired > 0, "expiry tier never exercised");
        assert!(
            lg.wire_error_responses > 0,
            "malformed frames never exercised"
        );
        assert!(lg.bit_checked > 0, "no bit-identity spot checks ran");
        assert_eq!(lg.bit_mismatched, 0);
        // Wire counters made it into telemetry.
        assert!(telemetry.counter_total(NET_FRAMES_METRIC) >= lg.offered);
        assert!(telemetry.counter_total(NET_CONNECTIONS_METRIC) >= cfg.connections as u64);
    }
}
