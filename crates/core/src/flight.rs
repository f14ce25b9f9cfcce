//! Per-request flight recorder: a bounded ring of [`FlightRecord`]s —
//! every runtime decision the serving stack made about one request —
//! with exemplar retention and a postmortem dump.
//!
//! The ring answers "what happened to the last N requests"; exemplar
//! retention answers the two questions operators actually ask after the
//! fact — "show me the failures" and "show me the worst one" — by
//! pinning every failed record (up to a generous cap) and the
//! worst-latency record past ring eviction. A [`FlightLog`] snapshot
//! serializes through the versioned `core::io` envelope and is emitted
//! automatically when serving health degrades to Critical or a canary
//! rollback fires.
//!
//! The recorder is strictly opt-in: engines hold an
//! `Option<Arc<FlightRecorder>>`, and the hot path pays nothing when it
//! is `None`.

use crate::io::{self, IoError};
use crate::resilience::{error_reason_name, ResilientOutcome};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Default cap on failed exemplars retained past ring eviction. Beyond
/// it the *oldest* retained failure is dropped (and counted in
/// [`FlightLog::dropped_failed`]) — a bound this generous only binds in
/// a sustained total outage.
pub const DEFAULT_FAILED_CAPACITY: usize = 65_536;

/// Everything the serving stack decided about one request, flattened
/// for serialization. Registry-served requests carry version/shard
/// routing fields; standalone engines leave them zero/false.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Request id.
    pub id: u64,
    /// The per-request RNG seed the engine resolved.
    pub seed: u64,
    /// Deadline class of the serving engine's resilience config.
    pub class: String,
    /// Model version that served the request (0 outside a registry).
    pub version: u64,
    /// Shard the request routed to (0 outside a registry).
    pub shard: u64,
    /// Whether a canary engine served it.
    pub canary: bool,
    /// Whether this request's canary verdict triggered a rollback.
    pub rolled_back: bool,
    /// The mod-hash primary shard of the id (equals `shard` unless
    /// supervision failed the request over; 0 outside a registry).
    pub primary_shard: u64,
    /// Whether supervision served the request off its sick primary.
    pub failed_over: bool,
    /// Whether the request probed a Rebuilding shard's re-admission
    /// gate.
    pub rebuild_probe: bool,
    /// End-to-end latency of the attempt chain, nanoseconds (0 for
    /// requests that never executed: shed or abandoned).
    pub latency_ns: u64,
    /// Queue wait inside the batch engine, nanoseconds.
    pub queue_wait_ns: u64,
    /// Total deterministic retry backoff slept, nanoseconds.
    pub backoff_ns: u64,
    /// Execution attempts (0 for shed/abandoned requests).
    pub attempts: u32,
    /// Watchdog requeues.
    pub requeues: u32,
    /// Breaker forced the exact path on some attempt.
    pub forced_exact: bool,
    /// Some attempt was a half-open probe.
    pub probe: bool,
    /// Admission control shed the request.
    pub shed: bool,
    /// A retryable failure survived every allowed attempt.
    pub retry_exhausted: bool,
    /// Deadline/budget expiry hit the request.
    pub expired: bool,
    /// Degraded sample cap, when admission applied one.
    pub degraded_to: Option<u64>,
    /// The batch engine served the prepared input from cache.
    pub cache_hit: bool,
    /// Whether the request produced a prediction.
    pub ok: bool,
    /// Typed failure reason (`"ok"` for successes) — the
    /// [`error_reason_name`] vocabulary.
    pub reason: String,
    /// Degraded-mode name of the robust report (`"none"` on failure).
    pub mode: String,
    /// MC samples requested / actually used / served by exact fallback
    /// / lost to isolation.
    pub requested_samples: u64,
    /// See `requested_samples`.
    pub used_samples: u64,
    /// See `requested_samples`.
    pub fallback_samples: u64,
    /// See `requested_samples`.
    pub lost_samples: u64,
    /// Neurons considered by the skip machinery across used samples.
    pub skip_total: u64,
    /// Neurons skipped.
    pub skip_skipped: u64,
}

impl FlightRecord {
    /// Flattens a resilience outcome into a base record (no registry
    /// routing fields — [`crate::ModelRegistry`] enriches those).
    pub fn from_outcome(outcome: &ResilientOutcome, class: &str) -> Self {
        let o = &outcome.outcome;
        let (ok, reason) = match &o.result {
            Ok(_) => (true, "ok".to_string()),
            Err(e) => (false, error_reason_name(e).to_string()),
        };
        let report = o.result.as_ref().ok().map(|(_, r)| r);
        Self {
            id: o.id,
            seed: o.seed,
            class: class.to_string(),
            version: 0,
            shard: 0,
            canary: false,
            rolled_back: false,
            primary_shard: 0,
            failed_over: false,
            rebuild_probe: false,
            latency_ns: outcome.elapsed_ns,
            queue_wait_ns: o.queue_wait_ns,
            backoff_ns: outcome.backoff_total.as_nanos().min(u128::from(u64::MAX)) as u64,
            attempts: outcome.attempts,
            requeues: outcome.requeues,
            forced_exact: outcome.forced_exact,
            probe: outcome.probe,
            shed: outcome.shed,
            retry_exhausted: outcome.retry_exhausted,
            expired: outcome.expired,
            degraded_to: outcome.degraded_to.map(|d| d as u64),
            cache_hit: o.cache_hit,
            ok,
            reason,
            mode: report.map_or("none", |r| r.mode.name()).to_string(),
            requested_samples: report.map_or(0, |r| r.requested_samples as u64),
            used_samples: report.map_or(0, |r| r.used_samples as u64),
            fallback_samples: report.map_or(0, |r| r.fallback_samples as u64),
            lost_samples: report.map_or(0, |r| r.lost_samples as u64),
            skip_total: report.map_or(0, |r| r.skip.total as u64),
            skip_skipped: report.map_or(0, |r| r.skip.skipped as u64),
        }
    }
}

/// A serializable snapshot of the recorder: the live ring plus the
/// pinned exemplars, wrapped by [`io::save_flight_log`] in the
/// versioned artifact envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightLog {
    /// Why the dump was emitted (`"manual"`, `"slo_critical"`,
    /// `"canary_spike"`, …).
    pub trigger: String,
    /// Records ever offered to the recorder.
    pub recorded: u64,
    /// Successful records evicted from the ring (the only kind that is
    /// ever lost).
    pub evicted_ok: u64,
    /// Failed exemplars dropped because the failure queue was full.
    pub dropped_failed: u64,
    /// Ring capacity at snapshot time.
    pub capacity: u64,
    /// The live ring, oldest first.
    pub records: Vec<FlightRecord>,
    /// Failed records evicted from the ring but pinned, oldest first.
    pub failed_exemplars: Vec<FlightRecord>,
    /// The worst-latency record seen so far (kept even after its ring
    /// slot was evicted).
    pub worst_latency: Option<FlightRecord>,
}

impl FlightLog {
    /// Every failed record in the log — pinned exemplars first, then
    /// ring-resident failures — in recording order.
    pub fn failed(&self) -> Vec<&FlightRecord> {
        self.failed_exemplars
            .iter()
            .chain(self.records.iter().filter(|r| !r.ok))
            .collect()
    }

    /// Every record whose serving was degraded in any way (failed,
    /// degraded mode, shed, expired, forced exact, retried, requeued).
    pub fn degraded(&self) -> Vec<&FlightRecord> {
        self.failed_exemplars
            .iter()
            .chain(self.records.iter())
            .filter(|r| {
                !r.ok
                    || r.mode != "healthy"
                    || r.shed
                    || r.expired
                    || r.forced_exact
                    || r.retry_exhausted
                    || r.attempts > 1
                    || r.requeues > 0
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    ring: VecDeque<FlightRecord>,
    failed: VecDeque<FlightRecord>,
    worst: Option<FlightRecord>,
    recorded: u64,
    evicted_ok: u64,
    dropped_failed: u64,
    armed: Option<PathBuf>,
}

/// The bounded flight-record ring. One mutex, short critical sections —
/// cheap enough to sit on the serving path, and entirely absent from it
/// when no recorder is attached.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    failed_capacity: usize,
    inner: Mutex<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder whose ring holds `capacity` records (min 1) and whose
    /// failure queue holds [`DEFAULT_FAILED_CAPACITY`] exemplars.
    pub fn new(capacity: usize) -> Self {
        Self::with_failed_capacity(capacity, DEFAULT_FAILED_CAPACITY)
    }

    /// Full control over both bounds (each min 1).
    pub fn with_failed_capacity(capacity: usize, failed_capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            failed_capacity: failed_capacity.max(1),
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one record, evicting per the exemplar-retention rules:
    /// an evicted failure moves to the failure queue, the worst-latency
    /// record is cloned into its pin slot, and only successful evictees
    /// are actually forgotten.
    pub fn record(&self, record: FlightRecord) {
        let mut inner = self.lock();
        inner.recorded += 1;
        let is_worst = inner
            .worst
            .as_ref()
            .is_none_or(|w| record.latency_ns > w.latency_ns);
        if is_worst {
            inner.worst = Some(record.clone());
        }
        inner.ring.push_back(record);
        while inner.ring.len() > self.capacity {
            let Some(evicted) = inner.ring.pop_front() else {
                break;
            };
            if evicted.ok {
                inner.evicted_ok += 1;
            } else {
                inner.failed.push_back(evicted);
                while inner.failed.len() > self.failed_capacity {
                    inner.failed.pop_front();
                    inner.dropped_failed += 1;
                }
            }
        }
    }

    /// Records ever offered.
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Snapshots the recorder into a serializable log.
    pub fn snapshot(&self, trigger: &str) -> FlightLog {
        let inner = self.lock();
        FlightLog {
            trigger: trigger.to_string(),
            recorded: inner.recorded,
            evicted_ok: inner.evicted_ok,
            dropped_failed: inner.dropped_failed,
            capacity: self.capacity as u64,
            records: inner.ring.iter().cloned().collect(),
            failed_exemplars: inner.failed.iter().cloned().collect(),
            worst_latency: inner.worst.clone(),
        }
    }

    /// Arms the one-shot postmortem dump: the next
    /// [`FlightRecorder::trigger_postmortem`] writes a [`FlightLog`] to
    /// `path`. Re-arming replaces the pending path.
    pub fn arm_postmortem(&self, path: impl AsRef<Path>) {
        self.lock().armed = Some(path.as_ref().to_path_buf());
    }

    /// Fires the armed postmortem dump (disarming it), writing the
    /// current snapshot with `trigger` as the recorded reason. Returns
    /// `None` when nothing was armed (including: already fired).
    ///
    /// # Errors
    ///
    /// The inner result is the envelope write outcome.
    pub fn trigger_postmortem(&self, trigger: &str) -> Option<Result<PathBuf, IoError>> {
        let path = self.lock().armed.take()?;
        let log = self.snapshot(trigger);
        Some(io::save_flight_log(&path, &log).map(|()| path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, ok: bool, latency_ns: u64) -> FlightRecord {
        FlightRecord {
            id,
            seed: id ^ 7,
            class: "default".into(),
            version: 0,
            shard: 0,
            canary: false,
            rolled_back: false,
            primary_shard: 0,
            failed_over: false,
            rebuild_probe: false,
            latency_ns,
            queue_wait_ns: 0,
            backoff_ns: 0,
            attempts: 1,
            requeues: 0,
            forced_exact: false,
            probe: false,
            shed: false,
            retry_exhausted: false,
            expired: false,
            degraded_to: None,
            cache_hit: false,
            ok,
            reason: if ok { "ok".into() } else { "numeric".into() },
            mode: if ok { "healthy".into() } else { "none".into() },
            requested_samples: 4,
            used_samples: 4,
            fallback_samples: 0,
            lost_samples: 0,
            skip_total: 100,
            skip_skipped: 60,
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_pins_failures() {
        let rec = FlightRecorder::new(2);
        rec.record(record(1, false, 10));
        rec.record(record(2, true, 20));
        rec.record(record(3, true, 30));
        rec.record(record(4, true, 5));
        let log = rec.snapshot("manual");
        assert_eq!(
            log.records.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The evicted failure is pinned; the evicted success is not.
        assert_eq!(
            log.failed_exemplars
                .iter()
                .map(|r| r.id)
                .collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(log.evicted_ok, 1);
        assert_eq!(log.recorded, 4);
        // Worst latency survives eviction too.
        assert_eq!(log.worst_latency.as_ref().map(|r| r.id), Some(3));
        assert_eq!(log.failed().iter().map(|r| r.id).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn failed_queue_is_bounded() {
        let rec = FlightRecorder::with_failed_capacity(1, 2);
        for id in 0..5 {
            rec.record(record(id, false, id));
        }
        let log = rec.snapshot("manual");
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.failed_exemplars.len(), 2);
        assert_eq!(log.dropped_failed, 2);
    }

    #[test]
    fn postmortem_fires_once_per_arm() {
        let path = std::env::temp_dir().join(format!("fbcnn_flight_{}.json", std::process::id()));
        let rec = FlightRecorder::new(4);
        rec.record(record(1, false, 10));
        assert!(rec.trigger_postmortem("slo_critical").is_none());
        rec.arm_postmortem(&path);
        let written = rec.trigger_postmortem("slo_critical").unwrap().unwrap();
        assert_eq!(written, path);
        // Disarmed: the second trigger is a no-op.
        assert!(rec.trigger_postmortem("slo_critical").is_none());
        let log = io::read_flight_log(&path).unwrap();
        assert_eq!(log.trigger, "slo_critical");
        assert_eq!(log.records.len(), 1);
        assert!(!log.records[0].ok);
        let _ = std::fs::remove_file(path);
    }
}
