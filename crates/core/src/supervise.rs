//! Shard health supervision: detect sick registry shards, route around
//! them, rebuild them from the pinned artifact, and re-admit them
//! through a probe gate.
//!
//! Every shard walks a four-state machine
//!
//! ```text
//! Healthy ──bad window──▶ Suspect ──strikes──▶ Quarantined
//!    ▲                       │                      │
//!    │◀──────good window─────┘                 (rebuild from the
//!    │                                          retained artifact)
//!    └──probes pass── Rebuilding ◀──────────────────┘
//!            (probes fail ▶ back to Quarantined)
//! ```
//!
//! driven by windowed per-shard signals the resilience layer already
//! emits — typed-failure rate, deadline-expiry rate, watchdog
//! abandonment and breaker-open dwell — over an injectable
//! [`Clock`], so every transition sequence is deterministic under a
//! [`ManualClock`](fbcnn_telemetry::ManualClock) and golden-pinnable.
//!
//! Quarantined shards leave the routing ring: requests whose primary
//! shard is quarantined re-route via deterministic rendezvous hashing
//! ([`failover_route`]) to a live shard. The primary route stays the
//! plain mod-hash ([`shard_route`]), so restoring a shard restores the
//! original routing bit-for-bit — the property
//! `crates/core/tests/supervise_props.rs` pins. Re-admission mirrors the
//! circuit breaker's half-open phase: a rebuilt shard serves a bounded
//! number of probe requests and only rejoins the ring when enough of
//! them succeed.
//!
//! The supervision soak (`fbcnn_bench::harness::soak::run_supervise_soak`)
//! drives this machinery from outside: a TCP serve campaign with three
//! injected shard-poisoning fault classes and adversarial clients,
//! reconciled exactly across the loadgen, server and supervision
//! ledgers. See `docs/REGISTRY.md` for thresholds and semantics.

use crate::error::EngineError;
use crate::ledger::Ledger;
use fbcnn_telemetry::Clock;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counter metric: supervision state transitions, labelled `from`/`to`.
pub const SHARD_HEALTH_TRANSITIONS_METRIC: &str = "shard_health_transitions";
/// Counter metric: requests re-routed off their primary shard, labelled
/// `shard` (the sick primary).
pub const FAILOVER_REQUESTS_METRIC: &str = "failover_requests";
/// Counter metric: shard rebuilds attempted.
pub const REBUILD_ATTEMPTS_METRIC: &str = "rebuild_attempts";
/// Counter metric: rebuilt shards that passed the probe gate.
pub const REBUILD_SUCCESSES_METRIC: &str = "rebuild_successes";
/// Counter metric: rebuilt shards sent back to quarantine by the probe
/// gate.
pub const REBUILD_PROBE_REJECTS_METRIC: &str = "rebuild_probe_rejects";

const FAILOVER_SALT: u64 = 0xFA_17_0E_55;

/// A late-bound handle to a [`Supervisor`], for fault injectors built
/// before the registry (and thus the supervisor) exists. The chaos
/// harness fills the slot after boot; a hook holding the gate consults
/// the supervisor's live health on every fire, so a shard poison dies
/// with its shard's quarantine instead of chasing failed-over requests
/// onto healthy shards.
pub type SupervisorGate = Arc<Mutex<Option<Arc<Supervisor>>>>;

/// Poison-tolerant lock on a [`SupervisorGate`].
pub fn lock_gate(gate: &SupervisorGate) -> MutexGuard<'_, Option<Arc<Supervisor>>> {
    gate.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `splitmix64` finalizer — the deterministic mixer behind the shard
/// route, the canary split and the rendezvous failover weights.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The primary id → shard route (seeded mod-hash), shared by
/// [`crate::ModelRegistry::shard_of`], the failover router and the
/// shard-scoped fault injectors.
pub fn shard_route(routing_seed: u64, shards: usize, id: u64) -> usize {
    (mix64(id ^ routing_seed) % shards.max(1) as u64) as usize
}

/// Deterministic rendezvous failover: returns the primary shard when it
/// is live, else the highest-weight live shard under rendezvous (HRW)
/// hashing. Pure in all its inputs, so for a fixed quarantine set the
/// mapping is stable (same id → same target) and restoring a shard
/// restores the original mod-hash routing bit-for-bit.
///
/// With no live shard at all the primary is returned unchanged — the
/// supervisor never quarantines the last live shard, so that case only
/// arises from a caller handing in an all-false mask.
pub fn failover_route(routing_seed: u64, shards: usize, live: &[bool], id: u64) -> usize {
    let primary = shard_route(routing_seed, shards, id);
    if live.get(primary).copied().unwrap_or(false) {
        return primary;
    }
    let mut best: Option<(u64, usize)> = None;
    for (shard, alive) in live.iter().enumerate().take(shards.max(1)) {
        if !*alive {
            continue;
        }
        let weight = mix64(id ^ routing_seed ^ FAILOVER_SALT.wrapping_mul(shard as u64 + 1));
        if best.is_none_or(|(w, _)| weight > w) {
            best = Some((weight, shard));
        }
    }
    best.map_or(primary, |(_, shard)| shard)
}

/// One shard's position in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally; in the routing ring.
    Healthy,
    /// One or more bad signal windows; still in the ring, accumulating
    /// strikes toward quarantine.
    Suspect,
    /// Out of the ring; traffic fails over while the supervisor rebuilds
    /// the shard from the retained artifact.
    Quarantined,
    /// Rebuilt and serving a bounded number of probe requests; the probe
    /// verdict either re-admits the shard or sends it back to
    /// quarantine.
    Rebuilding,
}

impl ShardHealth {
    /// Stable lowercase name (telemetry labels, reports, CLI tables).
    pub fn name(&self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Quarantined => "quarantined",
            ShardHealth::Rebuilding => "rebuilding",
        }
    }

    /// Whether the shard is in the routing ring (primary-eligible).
    pub fn is_live(&self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Suspect)
    }
}

/// Knobs of the per-shard supervision state machine.
#[derive(Clone)]
pub struct SuperviseConfig {
    /// Time source of the signal windows and breaker dwell. Tests pin
    /// [`fbcnn_telemetry::ManualClock`]; production uses
    /// [`fbcnn_telemetry::MonotonicClock`].
    pub clock: Arc<dyn Clock>,
    /// Signal-window width in nanoseconds; each shard's counters fold
    /// into one good/bad verdict per window.
    pub window_ns: u64,
    /// Observations required in a window before its verdict binds;
    /// thinner windows are discarded without a verdict.
    pub min_observations: u64,
    /// Typed-failure rate at or above which a window is bad, in (0, 1].
    pub failure_rate_threshold: f64,
    /// Fatal deadline-expiry rate at or above which a window is bad, in
    /// (0, 1]. Only expiries that killed the request count; a served
    /// partial whose price class expired its budget is normal degraded
    /// operation.
    pub expiry_rate_threshold: f64,
    /// Watchdog abandonments in a window at or above which the window is
    /// bad regardless of rates.
    pub abandon_threshold: u64,
    /// Continuous breaker-open dwell (nanoseconds) that counts as one
    /// bad signal; re-arms after firing, so a jammed breaker keeps
    /// striking.
    pub breaker_open_dwell_ns: u64,
    /// Consecutive bad signals (the first of which moves the shard to
    /// Suspect) required to quarantine.
    pub suspect_strikes: u32,
    /// Probe requests a Rebuilding shard serves before its verdict.
    pub probe_requests: u64,
    /// Probe failures tolerated while still re-admitting the shard.
    pub probe_max_failures: u64,
    /// Minimum dwell in Quarantined (nanoseconds) before
    /// [`Supervisor::tick`] offers the shard for rebuild. The cooling-off
    /// period keeps a flapping shard out of the ring long enough for the
    /// failover path to drain its in-flight damage; `0` rebuilds at the
    /// next tick.
    pub rebuild_backoff_ns: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self {
            clock: Arc::new(fbcnn_telemetry::MonotonicClock::new()),
            window_ns: 50_000_000,
            min_observations: 8,
            failure_rate_threshold: 0.5,
            expiry_rate_threshold: 0.5,
            abandon_threshold: 1,
            breaker_open_dwell_ns: 100_000_000,
            suspect_strikes: 2,
            probe_requests: 4,
            probe_max_failures: 0,
            rebuild_backoff_ns: 0,
        }
    }
}

impl fmt::Debug for SuperviseConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuperviseConfig")
            .field("window_ns", &self.window_ns)
            .field("min_observations", &self.min_observations)
            .field("failure_rate_threshold", &self.failure_rate_threshold)
            .field("expiry_rate_threshold", &self.expiry_rate_threshold)
            .field("abandon_threshold", &self.abandon_threshold)
            .field("breaker_open_dwell_ns", &self.breaker_open_dwell_ns)
            .field("suspect_strikes", &self.suspect_strikes)
            .field("probe_requests", &self.probe_requests)
            .field("probe_max_failures", &self.probe_max_failures)
            .field("rebuild_backoff_ns", &self.rebuild_backoff_ns)
            .finish()
    }
}

impl SuperviseConfig {
    /// Checks every field against its legal range.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), EngineError> {
        let fail = |reason: String| Err(EngineError::InvalidConfig { reason });
        if self.window_ns == 0 {
            return fail("supervise window_ns must be > 0".into());
        }
        if self.min_observations == 0 {
            return fail("supervise min_observations must be > 0".into());
        }
        for (name, rate) in [
            ("failure_rate_threshold", self.failure_rate_threshold),
            ("expiry_rate_threshold", self.expiry_rate_threshold),
        ] {
            if !(rate > 0.0 && rate <= 1.0) {
                return fail(format!("supervise {name} {rate} out of (0, 1]"));
            }
        }
        if self.breaker_open_dwell_ns == 0 {
            return fail("supervise breaker_open_dwell_ns must be > 0".into());
        }
        if self.suspect_strikes == 0 {
            return fail("supervise suspect_strikes must be > 0".into());
        }
        if self.probe_requests == 0 {
            return fail("supervise probe_requests must be > 0".into());
        }
        if self.probe_max_failures >= self.probe_requests {
            return fail(format!(
                "supervise probe_max_failures {} must be < probe_requests {}",
                self.probe_max_failures, self.probe_requests
            ));
        }
        Ok(())
    }
}

/// One recorded supervision state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Shard that moved.
    pub shard: usize,
    /// State it left.
    pub from: ShardHealth,
    /// State it entered.
    pub to: ShardHealth,
    /// Clock timestamp of the transition, nanoseconds.
    pub at_ns: u64,
}

/// Where the supervisor routed one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The mod-hash primary shard of the request id.
    pub primary: usize,
    /// The shard that actually serves it.
    pub serve: usize,
    /// Whether the request left its primary (`serve != primary`).
    pub failed_over: bool,
    /// Whether the request was admitted as a probe of a Rebuilding
    /// primary.
    pub probe: bool,
}

/// The supervisor-relevant facts of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeSignal {
    /// The request produced a prediction.
    pub ok: bool,
    /// A deadline or sample budget expired it.
    pub expired: bool,
    /// The watchdog abandoned it (typed `worker_hung`).
    pub abandoned: bool,
    /// It was admitted as a probe of a Rebuilding shard.
    pub probe: bool,
}

/// Cumulative per-shard supervision ledger — the third side of the
/// soak's three-way reconciliation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardLedger {
    /// Requests this shard served (primaries plus failed-over arrivals
    /// plus probes).
    pub served: u64,
    /// Served requests that produced a prediction.
    pub ok: u64,
    /// Served requests that ended in a typed error.
    pub failed: u64,
    /// Served requests a deadline/budget expired.
    pub expired: u64,
    /// Served requests the watchdog abandoned.
    pub abandoned: u64,
    /// Probe requests served while Rebuilding.
    pub probes_served: u64,
    /// Requests whose primary was this shard but which served elsewhere.
    pub failovers_out: u64,
    /// Requests served here on behalf of a sick primary.
    pub failovers_in: u64,
    /// Times this shard entered Quarantined.
    pub quarantines: u64,
    /// Times this shard entered Rebuilding.
    pub rebuilds: u64,
}

/// A point-in-time snapshot of the whole supervision layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseSnapshot {
    /// Current health per shard.
    pub health: Vec<ShardHealth>,
    /// Cumulative ledger per shard.
    pub shards: Vec<ShardLedger>,
    /// Every transition since boot, in order.
    pub transitions: Vec<HealthTransition>,
    /// Rebuilds attempted.
    pub rebuild_attempts: u64,
    /// Rebuilds whose probe gate re-admitted the shard.
    pub rebuild_successes: u64,
    /// Rebuilds whose probe gate sent the shard back to quarantine.
    pub rebuild_probe_rejects: u64,
}

impl SuperviseSnapshot {
    /// Whether `shard` has walked the full self-healing cycle
    /// Healthy → Suspect → Quarantined → Rebuilding → Healthy (in order,
    /// possibly with other transitions interleaved).
    pub fn full_walk(&self, shard: usize) -> bool {
        let want = [
            ShardHealth::Suspect,
            ShardHealth::Quarantined,
            ShardHealth::Rebuilding,
            ShardHealth::Healthy,
        ];
        let mut next = 0;
        for t in self.transitions.iter().filter(|t| t.shard == shard) {
            if next < want.len() && t.to == want[next] {
                next += 1;
            }
        }
        next == want.len()
    }

    /// Internal consistency of the failover accounting: the fold of
    /// per-shard `failovers_out` must equal the fold of `failovers_in`.
    ///
    /// # Errors
    ///
    /// A description of the drifted fold.
    pub fn reconcile_failovers(&self) -> Result<(), String> {
        let fold = |f: fn(&ShardLedger) -> u64| self.shards.iter().map(f).sum();
        let (out, absorbed) = (fold(|s| s.failovers_out), fold(|s| s.failovers_in));
        Ledger::from([("failovers routed out vs absorbed", out, absorbed)]).check()
    }
}

struct ShardState {
    health: ShardHealth,
    strikes: u32,
    window_start_ns: u64,
    observed: u64,
    failed: u64,
    expired: u64,
    abandoned: u64,
    breaker_open_since: Option<u64>,
    quarantined_at_ns: u64,
    probe_issued: u64,
    probe_ok: u64,
    probe_failed: u64,
    totals: ShardLedger,
}

impl ShardState {
    fn new(now: u64) -> Self {
        Self {
            health: ShardHealth::Healthy,
            strikes: 0,
            window_start_ns: now,
            observed: 0,
            failed: 0,
            expired: 0,
            abandoned: 0,
            breaker_open_since: None,
            quarantined_at_ns: 0,
            probe_issued: 0,
            probe_ok: 0,
            probe_failed: 0,
            totals: ShardLedger::default(),
        }
    }

    fn reset_window(&mut self, now: u64) {
        self.window_start_ns = now;
        self.observed = 0;
        self.failed = 0;
        self.expired = 0;
        self.abandoned = 0;
    }
}

/// The per-shard health supervisor a [`crate::ModelRegistry`] drives;
/// see the module docs for the state machine.
pub struct Supervisor {
    cfg: SuperviseConfig,
    routing_seed: u64,
    states: Vec<Mutex<ShardState>>,
    /// Lock-free mirror of each shard's ring membership, so routing and
    /// the never-quarantine-the-last-shard guard read health without
    /// taking every shard lock.
    live: Vec<AtomicBool>,
    /// Serializes quarantine decisions so two shards cannot each see the
    /// other live and quarantine simultaneously.
    quarantine_gate: Mutex<()>,
    ledger: Mutex<Vec<HealthTransition>>,
    rebuild_attempts: AtomicU64,
    rebuild_successes: AtomicU64,
    rebuild_probe_rejects: AtomicU64,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("shards", &self.states.len())
            .field("health", &self.health_snapshot())
            .finish()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Supervisor {
    /// A supervisor over `shards` shards, all Healthy.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for an invalid configuration or a
    /// zero shard count.
    pub fn new(
        shards: usize,
        routing_seed: u64,
        cfg: SuperviseConfig,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        if shards == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "supervisor needs at least one shard".into(),
            });
        }
        let now = cfg.clock.now_ns();
        Ok(Self {
            cfg,
            routing_seed,
            states: (0..shards)
                .map(|_| Mutex::new(ShardState::new(now)))
                .collect(),
            live: (0..shards).map(|_| AtomicBool::new(true)).collect(),
            quarantine_gate: Mutex::new(()),
            ledger: Mutex::new(Vec::new()),
            rebuild_attempts: AtomicU64::new(0),
            rebuild_successes: AtomicU64::new(0),
            rebuild_probe_rejects: AtomicU64::new(0),
        })
    }

    /// The supervision configuration.
    pub fn config(&self) -> &SuperviseConfig {
        &self.cfg
    }

    /// Shards supervised.
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    /// Current health of one shard.
    pub fn health(&self, shard: usize) -> ShardHealth {
        lock(&self.states[shard]).health
    }

    /// Current health of every shard.
    pub fn health_snapshot(&self) -> Vec<ShardHealth> {
        self.states.iter().map(|s| lock(s).health).collect()
    }

    /// The routing-ring membership mask (Healthy | Suspect).
    pub fn live_mask(&self) -> Vec<bool> {
        self.live
            .iter()
            .map(|l| l.load(Ordering::Acquire))
            .collect()
    }

    /// Routes one request id: primary when live, probe admission when the
    /// primary is Rebuilding with probe budget left, rendezvous failover
    /// otherwise.
    pub fn route(&self, id: u64) -> RouteDecision {
        let shards = self.states.len();
        let primary = shard_route(self.routing_seed, shards, id);
        {
            let mut st = lock(&self.states[primary]);
            match st.health {
                ShardHealth::Healthy | ShardHealth::Suspect => {
                    return RouteDecision {
                        primary,
                        serve: primary,
                        failed_over: false,
                        probe: false,
                    };
                }
                ShardHealth::Rebuilding if st.probe_issued < self.cfg.probe_requests => {
                    st.probe_issued += 1;
                    return RouteDecision {
                        primary,
                        serve: primary,
                        failed_over: false,
                        probe: true,
                    };
                }
                ShardHealth::Rebuilding | ShardHealth::Quarantined => {}
            }
        }
        let live = self.live_mask();
        let serve = failover_route(self.routing_seed, shards, &live, id);
        let failed_over = serve != primary;
        if failed_over {
            lock(&self.states[primary]).totals.failovers_out += 1;
            lock(&self.states[serve]).totals.failovers_in += 1;
            let shard_label = primary.to_string();
            fbcnn_telemetry::counter_add(FAILOVER_REQUESTS_METRIC, &[("shard", &shard_label)], 1);
        }
        RouteDecision {
            primary,
            serve,
            failed_over,
            probe: false,
        }
    }

    /// Feeds one served request's outcome back to the shard that served
    /// it. Probe outcomes feed the probe gate; everything else feeds the
    /// current signal window (closing it first when it has aged out).
    pub fn observe(&self, serve: usize, signal: OutcomeSignal) {
        let now = self.cfg.clock.now_ns();
        let mut st = lock(&self.states[serve]);
        st.totals.served += 1;
        if signal.ok {
            st.totals.ok += 1;
        } else {
            st.totals.failed += 1;
        }
        if signal.expired {
            st.totals.expired += 1;
        }
        if signal.abandoned {
            st.totals.abandoned += 1;
        }
        if signal.probe {
            st.totals.probes_served += 1;
        }
        if signal.probe && st.health == ShardHealth::Rebuilding {
            if signal.ok {
                // A prediction came back — even a budget-expired
                // partial: the shard computed; the expiry priced the
                // request.
                st.probe_ok += 1;
            } else if signal.abandoned || !signal.expired {
                st.probe_failed += 1;
            } else {
                // A probe the request's *own* deadline killed (dead on
                // arrival or mid-run) is neutral evidence about the
                // rebuilt shard. Return its admission slot so a later
                // request re-probes instead of wedging the gate.
                st.probe_issued = st.probe_issued.saturating_sub(1);
            }
            if st.probe_ok + st.probe_failed >= self.cfg.probe_requests {
                if st.probe_failed <= self.cfg.probe_max_failures {
                    self.transition(&mut st, serve, ShardHealth::Healthy, now);
                    st.strikes = 0;
                    st.reset_window(now);
                    st.breaker_open_since = None;
                    self.rebuild_successes.fetch_add(1, Ordering::Relaxed);
                    fbcnn_telemetry::counter_add(REBUILD_SUCCESSES_METRIC, &[], 1);
                } else {
                    self.transition(&mut st, serve, ShardHealth::Quarantined, now);
                    st.quarantined_at_ns = now;
                    st.totals.quarantines += 1;
                    self.rebuild_probe_rejects.fetch_add(1, Ordering::Relaxed);
                    fbcnn_telemetry::counter_add(REBUILD_PROBE_REJECTS_METRIC, &[], 1);
                }
            }
            return;
        }
        st.observed += 1;
        if !signal.ok {
            st.failed += 1;
            // Only *fatal* expiries feed the expiry-rate verdict: a
            // served prediction whose price class expired its sample
            // budget is normal degraded operation, not shard sickness.
            // The cumulative ledger above still counts every expiry.
            if signal.expired {
                st.expired += 1;
            }
        }
        if signal.abandoned {
            st.abandoned += 1;
        }
        self.maybe_close_window(&mut st, serve, now);
    }

    /// One supervision tick: fold breaker dwell per shard, close aged
    /// windows, and return the shards currently Quarantined (the caller
    /// rebuilds them and reports back via
    /// [`Supervisor::note_rebuild_attempt`] /
    /// [`Supervisor::begin_probation`]).
    pub fn tick(&self, breaker_open: &[bool]) -> Vec<usize> {
        let now = self.cfg.clock.now_ns();
        let mut quarantined = Vec::new();
        for (shard, state) in self.states.iter().enumerate() {
            let mut st = lock(state);
            if st.health.is_live() {
                if breaker_open.get(shard).copied().unwrap_or(false) {
                    match st.breaker_open_since {
                        None => st.breaker_open_since = Some(now),
                        Some(since)
                            if now.saturating_sub(since) >= self.cfg.breaker_open_dwell_ns =>
                        {
                            self.bad_signal(&mut st, shard, now);
                            // Re-arm: a breaker that stays open keeps
                            // striking, one strike per dwell period.
                            st.breaker_open_since = Some(now);
                        }
                        Some(_) => {}
                    }
                } else {
                    st.breaker_open_since = None;
                }
                self.maybe_close_window(&mut st, shard, now);
            }
            if st.health == ShardHealth::Quarantined
                && now.saturating_sub(st.quarantined_at_ns) >= self.cfg.rebuild_backoff_ns
            {
                quarantined.push(shard);
            }
        }
        quarantined
    }

    /// Records one rebuild attempt (call before rebuilding a quarantined
    /// shard).
    pub fn note_rebuild_attempt(&self) {
        self.rebuild_attempts.fetch_add(1, Ordering::Relaxed);
        fbcnn_telemetry::counter_add(REBUILD_ATTEMPTS_METRIC, &[], 1);
    }

    /// Moves a freshly rebuilt shard from Quarantined to Rebuilding and
    /// opens its probe gate.
    pub fn begin_probation(&self, shard: usize) {
        let now = self.cfg.clock.now_ns();
        let mut st = lock(&self.states[shard]);
        if st.health != ShardHealth::Quarantined {
            return;
        }
        self.transition(&mut st, shard, ShardHealth::Rebuilding, now);
        st.probe_issued = 0;
        st.probe_ok = 0;
        st.probe_failed = 0;
        st.totals.rebuilds += 1;
        st.reset_window(now);
        st.breaker_open_since = None;
    }

    /// Rebuilds attempted so far.
    pub fn rebuild_attempts(&self) -> u64 {
        self.rebuild_attempts.load(Ordering::Relaxed)
    }

    /// A full snapshot of health, ledgers and the transition history.
    pub fn snapshot(&self) -> SuperviseSnapshot {
        let mut health = Vec::with_capacity(self.states.len());
        let mut shards = Vec::with_capacity(self.states.len());
        for state in &self.states {
            let st = lock(state);
            health.push(st.health);
            shards.push(st.totals);
        }
        SuperviseSnapshot {
            health,
            shards,
            transitions: lock(&self.ledger).clone(),
            rebuild_attempts: self.rebuild_attempts.load(Ordering::Relaxed),
            rebuild_successes: self.rebuild_successes.load(Ordering::Relaxed),
            rebuild_probe_rejects: self.rebuild_probe_rejects.load(Ordering::Relaxed),
        }
    }

    fn transition(&self, st: &mut ShardState, shard: usize, to: ShardHealth, now: u64) {
        let from = st.health;
        st.health = to;
        self.live[shard].store(to.is_live(), Ordering::Release);
        lock(&self.ledger).push(HealthTransition {
            shard,
            from,
            to,
            at_ns: now,
        });
        fbcnn_telemetry::counter_add(
            SHARD_HEALTH_TRANSITIONS_METRIC,
            &[("from", from.name()), ("to", to.name())],
            1,
        );
    }

    fn bad_signal(&self, st: &mut ShardState, shard: usize, now: u64) {
        match st.health {
            ShardHealth::Healthy => {
                st.strikes = 1;
                self.transition(st, shard, ShardHealth::Suspect, now);
            }
            ShardHealth::Suspect => {
                st.strikes += 1;
                if st.strikes >= self.cfg.suspect_strikes {
                    // Never quarantine the last live shard: with nowhere
                    // to fail over, a degraded shard beats no shard. The
                    // gate serializes the check so two sick shards cannot
                    // each see the other live and both leave the ring.
                    let _gate = lock(&self.quarantine_gate);
                    let others_live = self
                        .live
                        .iter()
                        .enumerate()
                        .any(|(i, l)| i != shard && l.load(Ordering::Acquire));
                    if others_live {
                        self.transition(st, shard, ShardHealth::Quarantined, now);
                        st.quarantined_at_ns = now;
                        st.totals.quarantines += 1;
                    }
                }
            }
            ShardHealth::Quarantined | ShardHealth::Rebuilding => {}
        }
    }

    fn maybe_close_window(&self, st: &mut ShardState, shard: usize, now: u64) {
        if now.saturating_sub(st.window_start_ns) < self.cfg.window_ns {
            return;
        }
        if st.observed >= self.cfg.min_observations {
            let observed = st.observed as f64;
            let bad = st.failed as f64 / observed >= self.cfg.failure_rate_threshold
                || st.expired as f64 / observed >= self.cfg.expiry_rate_threshold
                || st.abandoned >= self.cfg.abandon_threshold;
            if bad {
                self.bad_signal(st, shard, now);
            } else if st.health == ShardHealth::Suspect {
                st.strikes = 0;
                self.transition(st, shard, ShardHealth::Healthy, now);
            } else {
                st.strikes = 0;
            }
        }
        st.reset_window(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_telemetry::ManualClock;

    fn manual_cfg(clock: &Arc<ManualClock>) -> SuperviseConfig {
        SuperviseConfig {
            clock: Arc::clone(clock) as Arc<dyn Clock>,
            window_ns: 100,
            min_observations: 4,
            failure_rate_threshold: 0.5,
            expiry_rate_threshold: 0.5,
            abandon_threshold: 2,
            breaker_open_dwell_ns: 250,
            suspect_strikes: 2,
            probe_requests: 3,
            probe_max_failures: 0,
            ..SuperviseConfig::default()
        }
    }

    fn signal(ok: bool) -> OutcomeSignal {
        OutcomeSignal {
            ok,
            expired: false,
            abandoned: false,
            probe: false,
        }
    }

    fn feed_window(sup: &Supervisor, clock: &ManualClock, shard_target: usize, ok: bool, n: u64) {
        // Ids are irrelevant here; observe() attributes by shard index.
        for _ in 0..n {
            sup.observe(shard_target, signal(ok));
        }
        clock.advance(101);
        sup.observe(shard_target, signal(true)); // closes the aged window
    }

    /// The golden transition walk under a ManualClock: a shard fed two
    /// consecutive bad windows walks Healthy → Suspect → Quarantined at
    /// exactly the pinned timestamps, rebuilds, passes its probes and
    /// returns to Healthy — while its sibling never moves.
    #[test]
    fn golden_manual_clock_walk_is_pinned() {
        let clock = Arc::new(ManualClock::new());
        clock.set(1_000);
        let sup = Supervisor::new(2, 0x5EED, manual_cfg(&clock)).unwrap();

        // Window 1: 6 typed failures → bad → Suspect at t=1101.
        for _ in 0..6 {
            sup.observe(0, signal(false));
        }
        clock.set(1_101);
        sup.observe(0, signal(false));
        assert_eq!(sup.health(0), ShardHealth::Suspect);

        // Window 2: more failures → second strike → Quarantined at
        // t=1202.
        for _ in 0..6 {
            sup.observe(0, signal(false));
        }
        clock.set(1_202);
        sup.observe(0, signal(false));
        assert_eq!(sup.health(0), ShardHealth::Quarantined);

        // The tick reports the quarantined shard; the registry rebuilds
        // it and opens probation at t=1300.
        assert_eq!(sup.tick(&[false, false]), vec![0]);
        sup.note_rebuild_attempt();
        clock.set(1_300);
        sup.begin_probation(0);
        assert_eq!(sup.health(0), ShardHealth::Rebuilding);

        // Exactly probe_requests probes are admitted, the rest fail over.
        let mut probes = 0;
        let mut failovers = 0;
        for id in 0..64u64 {
            let d = sup.route(id);
            if d.primary != 0 {
                assert_eq!(d.serve, d.primary, "healthy primary must not move");
                continue;
            }
            if d.probe {
                probes += 1;
                assert_eq!(d.serve, 0);
            } else {
                assert!(d.failed_over);
                assert_eq!(d.serve, 1);
                failovers += 1;
            }
        }
        assert_eq!(probes, 3);
        assert!(failovers > 0);

        // Probes pass → re-admitted at t=1400.
        clock.set(1_400);
        for _ in 0..3 {
            sup.observe(
                0,
                OutcomeSignal {
                    ok: true,
                    expired: false,
                    abandoned: false,
                    probe: true,
                },
            );
        }
        assert_eq!(sup.health(0), ShardHealth::Healthy);

        let snap = sup.snapshot();
        assert!(snap.full_walk(0));
        assert!(!snap.full_walk(1));
        snap.reconcile_failovers().unwrap();
        assert_eq!(snap.rebuild_attempts, 1);
        assert_eq!(snap.rebuild_successes, 1);
        assert_eq!(snap.rebuild_probe_rejects, 0);
        let pinned: Vec<(usize, ShardHealth, ShardHealth, u64)> = snap
            .transitions
            .iter()
            .map(|t| (t.shard, t.from, t.to, t.at_ns))
            .collect();
        assert_eq!(
            pinned,
            vec![
                (0, ShardHealth::Healthy, ShardHealth::Suspect, 1_101),
                (0, ShardHealth::Suspect, ShardHealth::Quarantined, 1_202),
                (0, ShardHealth::Quarantined, ShardHealth::Rebuilding, 1_300),
                (0, ShardHealth::Rebuilding, ShardHealth::Healthy, 1_400),
            ]
        );
    }

    #[test]
    fn failed_probes_send_the_shard_back_to_quarantine() {
        let clock = Arc::new(ManualClock::new());
        clock.set(0);
        let sup = Supervisor::new(2, 1, manual_cfg(&clock)).unwrap();
        feed_window(&sup, &clock, 0, false, 5);
        feed_window(&sup, &clock, 0, false, 5);
        assert_eq!(sup.health(0), ShardHealth::Quarantined);
        sup.note_rebuild_attempt();
        sup.begin_probation(0);
        for _ in 0..3 {
            sup.observe(
                0,
                OutcomeSignal {
                    ok: false,
                    expired: false,
                    abandoned: false,
                    probe: true,
                },
            );
        }
        assert_eq!(sup.health(0), ShardHealth::Quarantined);
        let snap = sup.snapshot();
        assert_eq!(snap.rebuild_probe_rejects, 1);
        assert_eq!(snap.rebuild_successes, 0);
        // And the tick offers it up for another rebuild.
        assert_eq!(sup.tick(&[false, false]), vec![0]);
    }

    #[test]
    fn a_good_window_clears_suspicion() {
        let clock = Arc::new(ManualClock::new());
        clock.set(0);
        let sup = Supervisor::new(2, 1, manual_cfg(&clock)).unwrap();
        feed_window(&sup, &clock, 0, false, 5);
        assert_eq!(sup.health(0), ShardHealth::Suspect);
        feed_window(&sup, &clock, 0, true, 8);
        assert_eq!(sup.health(0), ShardHealth::Healthy);
        assert_eq!(sup.snapshot().transitions.len(), 2);
    }

    #[test]
    fn a_quarantined_shard_dwells_for_the_rebuild_backoff() {
        let clock = Arc::new(ManualClock::new());
        clock.set(0);
        let cfg = SuperviseConfig {
            rebuild_backoff_ns: 1_000,
            ..manual_cfg(&clock)
        };
        let sup = Supervisor::new(2, 1, cfg).unwrap();
        feed_window(&sup, &clock, 0, false, 5);
        feed_window(&sup, &clock, 0, false, 5);
        assert_eq!(sup.health(0), ShardHealth::Quarantined);
        // Inside the backoff the tick withholds the shard, so its traffic
        // keeps failing over instead of racing straight back into probation.
        assert!(sup.tick(&[false, false]).is_empty());
        clock.advance(500);
        assert!(sup.tick(&[false, false]).is_empty());
        // Once the dwell elapses the shard is offered for rebuild.
        clock.advance(1_000);
        assert_eq!(sup.tick(&[false, false]), vec![0]);
    }

    #[test]
    fn breaker_dwell_strikes_without_any_traffic() {
        let clock = Arc::new(ManualClock::new());
        clock.set(0);
        let sup = Supervisor::new(2, 1, manual_cfg(&clock)).unwrap();
        // Open breaker noticed at t=0; dwell threshold is 250 ns.
        assert!(sup.tick(&[true, false]).is_empty());
        clock.set(100);
        assert!(sup.tick(&[true, false]).is_empty());
        assert_eq!(sup.health(0), ShardHealth::Healthy, "dwell not reached");
        clock.set(250);
        sup.tick(&[true, false]);
        assert_eq!(sup.health(0), ShardHealth::Suspect);
        // Still open one dwell period later: second strike → quarantine.
        clock.set(500);
        assert_eq!(sup.tick(&[true, false]), vec![0]);
        assert_eq!(sup.health(0), ShardHealth::Quarantined);
        // A breaker that closes in time clears the dwell arming on the
        // sibling, which never moved.
        clock.set(600);
        sup.tick(&[false, false]);
        assert_eq!(sup.health(1), ShardHealth::Healthy);
    }

    #[test]
    fn the_last_live_shard_is_never_quarantined() {
        let clock = Arc::new(ManualClock::new());
        clock.set(0);
        let sup = Supervisor::new(2, 1, manual_cfg(&clock)).unwrap();
        for shard in 0..2 {
            feed_window(&sup, &clock, shard, false, 5);
            feed_window(&sup, &clock, shard, false, 5);
        }
        let health = sup.health_snapshot();
        assert_eq!(health[0], ShardHealth::Quarantined);
        assert_eq!(health[1], ShardHealth::Suspect, "last live shard stays");
        // Every id still routes to the one live shard.
        for id in 0..50 {
            let d = sup.route(id);
            assert_eq!(d.serve, 1);
        }
    }

    #[test]
    fn failover_is_deterministic_and_restores_bit_for_bit() {
        let seed = 0xABCD;
        let shards = 5;
        let live_all = vec![true; shards];
        let mut live = live_all.clone();
        live[2] = false;
        live[4] = false;
        for id in 0..500u64 {
            let primary = shard_route(seed, shards, id);
            let a = failover_route(seed, shards, &live, id);
            let b = failover_route(seed, shards, &live, id);
            assert_eq!(a, b, "mapping must be stable");
            assert!(live[a], "failover landed on a dead shard");
            if live[primary] {
                assert_eq!(a, primary);
            }
            // Restoring every shard restores the original routing.
            assert_eq!(failover_route(seed, shards, &live_all, id), primary);
        }
    }

    #[test]
    fn thin_windows_carry_no_verdict() {
        let clock = Arc::new(ManualClock::new());
        clock.set(0);
        let sup = Supervisor::new(2, 1, manual_cfg(&clock)).unwrap();
        // 2 failures + the closing ok = 3 observations, under
        // min_observations=4 → the window is discarded silently.
        for _ in 0..2 {
            sup.observe(0, signal(false));
        }
        clock.set(101);
        sup.observe(0, signal(true));
        assert_eq!(sup.health(0), ShardHealth::Healthy);
        assert!(sup.snapshot().transitions.is_empty());
    }

    #[test]
    fn config_validation_names_the_violation() {
        let bad = SuperviseConfig {
            probe_requests: 0,
            ..SuperviseConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SuperviseConfig {
            probe_max_failures: 4,
            probe_requests: 4,
            ..SuperviseConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SuperviseConfig {
            failure_rate_threshold: 0.0,
            ..SuperviseConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(SuperviseConfig::default().validate().is_ok());
        assert!(Supervisor::new(0, 1, SuperviseConfig::default()).is_err());
    }
}
