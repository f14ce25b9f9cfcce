//! Serve-tier soak acceptance suite (non-ignored, bounded under a
//! minute): a closed-loop load generator drives the TCP server over real
//! sockets with a seeded mix of healthy requests, deliberate admission
//! sheds, expiring deadlines and malformed frames, and every ledger —
//! load generator, server wire accounting, registry version counters —
//! must reconcile exactly, with zero worker abandonment and zero
//! transport loss. The same run must pass the `serve-v2` record's
//! validation — the floors `loadgen` and `bench_check` apply — so the
//! test and the benchmark harness cannot drift apart.

mod common;

use common::{is_typed_reason, is_wire_reason};
use fast_bcnn::telemetry::Registry;
use fbcnn_bench::harness::soak::{run_serve_soak, ServeSoakConfig};
use fbcnn_bench::BenchRecord;
use std::sync::Arc;

#[test]
fn full_serve_soak_reconciles_exactly_and_meets_the_floors() {
    let cfg = ServeSoakConfig::full(7);
    let report =
        run_serve_soak(&cfg, &Arc::new(Registry::new())).expect("soak registry and server boot");
    let lg = &report.loadgen.totals;
    let sv = &report.server;

    // Totality: every offered frame came back as exactly one of the five
    // result labels — anything else is a hang or a double count.
    assert_eq!(
        lg.ok + lg.failed + lg.shed + lg.wire_error_responses + lg.unknown_class,
        lg.offered,
        "a frame was neither answered nor rejected — that is a hang"
    );

    // The three-way ledger: client observations, server wire accounting
    // and registry version counters agree row for row.
    report
        .reconcile()
        .unwrap_or_else(|e| panic!("ledgers did not reconcile: {e}"));

    // Nothing was abandoned on either side of the wire.
    assert_eq!(
        report.loadgen.aborted_workers, 0,
        "a load-generator worker died mid-plan"
    );
    assert_eq!(lg.transport_errors, 0, "responses were lost in transit");
    assert_eq!(sv.connections_rejected, 0, "the accept loop shed a worker");

    // Every deliberate-pressure tier of the mix actually engaged.
    assert!(lg.shed > 0, "the always-shed class never shed");
    assert!(lg.expired > 0, "deadline pressure never expired a request");
    assert!(
        lg.wire_error_responses > 0,
        "the malformed-frame stream never drew a typed wire error"
    );
    assert!(lg.bit_checked > 0, "no pristine response was bit-checked");
    assert_eq!(
        lg.bit_mismatched, 0,
        "a served response drifted from the reference engine bit pattern"
    );

    // Latency observations cover the full class mix, including the
    // malformed stream, and every class actually recorded samples.
    for class in ["interactive", "batch", "degraded", "malformed"] {
        let samples = report
            .loadgen
            .latencies_ns
            .get(class)
            .map(Vec::len)
            .unwrap_or(0);
        assert!(samples > 0, "class `{class}` recorded no latencies");
    }

    // The vocabulary sanity the reasons rely on: engine reasons and wire
    // reasons are disjoint, so a response can never be double-counted.
    assert!(is_typed_reason("expired") && !is_wire_reason("expired"));
    assert!(is_wire_reason("wire_stale_version") && !is_typed_reason("wire_stale_version"));

    // Volume, class coverage and wall-clock floors, and every other
    // acceptance rule, exactly as `loadgen --json` + `bench_check` apply
    // them.
    BenchRecord::serve(&report, false, cpus())
        .validate()
        .unwrap_or_else(|e| panic!("serve-v2 acceptance failed: {e}"));
}

fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The quick (CI smoke) configuration must hold the identical contract —
/// a smaller campaign is not allowed to be a weaker one.
#[test]
fn quick_serve_soak_holds_the_same_contract() {
    let report = run_serve_soak(&ServeSoakConfig::quick(11), &Arc::new(Registry::new()))
        .expect("soak boots");
    report
        .reconcile()
        .unwrap_or_else(|e| panic!("quick ledgers did not reconcile: {e}"));
    let lg = &report.loadgen.totals;
    assert_eq!(
        lg.ok + lg.failed + lg.shed + lg.wire_error_responses + lg.unknown_class,
        lg.offered
    );
    assert_eq!(report.loadgen.aborted_workers, 0);
    assert_eq!(lg.bit_mismatched, 0);
    BenchRecord::serve(&report, true, cpus())
        .validate()
        .unwrap_or_else(|e| panic!("quick serve-v2 acceptance failed: {e}"));
}
