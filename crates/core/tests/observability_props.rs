//! Property-based tests for the observability layer: quantile
//! estimates stay inside the documented bucket error bound, and the
//! flight recorder's exemplar retention never loses a failure.

use fast_bcnn::telemetry::{
    histogram_quantile, Recorder, Registry, QUANTILE_WIDTH_RATIO, STANDARD_QUANTILES,
};
use fast_bcnn::{FlightRecord, FlightRecorder};
use proptest::prelude::*;

/// The exact same-rank quantile rule the bucket estimate approximates:
/// rank = ceil(q·total) clamped to [1, total], 1-based into the sorted
/// population.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let total = sorted.len() as f64;
    let rank = (q * total).ceil().clamp(1.0, total) as usize;
    sorted[rank - 1]
}

/// A baseline successful record; each property mutates the fields it
/// exercises.
fn base_record(id: u64) -> FlightRecord {
    FlightRecord {
        id,
        seed: 0,
        class: "prop".to_string(),
        version: 0,
        shard: 0,
        canary: false,
        rolled_back: false,
        primary_shard: 0,
        failed_over: false,
        rebuild_probe: false,
        latency_ns: 0,
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
        ok: true,
        reason: "ok".to_string(),
        mode: "healthy".to_string(),
        requested_samples: 1,
        used_samples: 1,
        fallback_samples: 0,
        lost_samples: 0,
        skip_total: 0,
        skip_skipped: 0,
    }
}

proptest! {
    /// For any latency population, every standard quantile's
    /// bucket-edge estimate is within the documented error bound of the
    /// exact sorted quantile: never below it, and at most one bucket
    /// width (×`QUANTILE_WIDTH_RATIO`) above — clamping to the
    /// histogram's edge bounds for populations outside them.
    #[test]
    fn quantile_estimates_stay_inside_the_bucket_bound(
        values in proptest::collection::vec(1u64..8_000_000_000, 1..120),
    ) {
        let registry = Registry::new();
        for &v in &values {
            registry.histogram_record("lat", &[], v as f64);
        }
        let h = registry
            .histograms()
            .into_iter()
            .find(|h| h.name == "lat")
            .expect("recorded histogram");
        prop_assert_eq!(h.count, values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_unstable();
        let min_bound = h.bounds.first().copied().expect("bucketed histogram");
        let max_bound = h.bounds.last().copied().expect("bucketed histogram");
        for &(name, q) in STANDARD_QUANTILES {
            let estimate =
                histogram_quantile(&h.bounds, &h.counts, q).expect("non-empty histogram");
            let exact = exact_quantile(&sorted, q) as f64;
            if exact > max_bound {
                // Overflow rank: the estimate clamps to the top bound.
                prop_assert_eq!(estimate, max_bound, "{} overflow clamp", name);
            } else {
                prop_assert!(
                    estimate >= exact,
                    "{}: estimate {} below exact {}",
                    name, estimate, exact
                );
                prop_assert!(
                    estimate <= (exact * QUANTILE_WIDTH_RATIO).max(min_bound),
                    "{}: estimate {} beyond x{} of exact {}",
                    name, estimate, QUANTILE_WIDTH_RATIO, exact
                );
            }
        }
    }

    /// Whatever the traffic mix and however small the ring, eviction
    /// only ever forgets *successful* records: every failure stays
    /// replayable (ring or pinned exemplar), the worst-latency record
    /// survives, and the first of equal-latency maxima keeps the pin.
    #[test]
    fn ring_eviction_never_drops_a_failure_or_the_worst(
        outcomes in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 1..200),
        capacity in 1usize..8,
    ) {
        let recorder = FlightRecorder::new(capacity);
        let mut failed_ids = Vec::new();
        let mut worst: Option<(u64, u64)> = None;
        for (i, &(ok, latency_ns)) in outcomes.iter().enumerate() {
            let id = i as u64;
            let mut record = base_record(id);
            record.ok = ok;
            record.latency_ns = latency_ns;
            record.reason = if ok { "ok" } else { "numeric" }.to_string();
            if !ok {
                failed_ids.push(id);
            }
            // Strictly-greater comparison keeps the first of equal maxima.
            if worst.is_none_or(|(_, w)| latency_ns > w) {
                worst = Some((id, latency_ns));
            }
            recorder.record(record);
        }
        let log = recorder.snapshot("prop");
        prop_assert_eq!(log.recorded, outcomes.len() as u64);
        prop_assert_eq!(log.dropped_failed, 0);
        prop_assert!(log.records.len() <= capacity, "ring exceeded its bound");

        // failed() = evicted exemplars (older) then in-ring failures:
        // chronological, and exactly the failures we fed in.
        let replayed: Vec<u64> = log.failed().iter().map(|r| r.id).collect();
        prop_assert_eq!(replayed, failed_ids.clone());

        prop_assert_eq!(
            log.worst_latency.as_ref().map(|r| (r.id, r.latency_ns)),
            worst
        );

        // Eviction accounting: everything not in the ring is either a
        // retained failure or a counted evicted success.
        let ring_ok = log.records.iter().filter(|r| r.ok).count() as u64;
        let total_ok = (outcomes.len() - failed_ids.len()) as u64;
        prop_assert_eq!(log.evicted_ok, total_ok - ring_ok);
    }
}
