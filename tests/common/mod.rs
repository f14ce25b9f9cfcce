//! Helpers shared by the soak/acceptance test suites (chaos, slo,
//! serve). Each integration-test binary compiles this module
//! separately, so any one binary uses only a subset of it. The soaks'
//! volume, coverage and wall-clock floors are not here: they live once,
//! in `fbcnn_bench::record::SCHEMAS`, and the suites apply them by
//! validating the same bench record the harness binaries write.
#![allow(dead_code)]

use fbcnn_bench::harness::chaos::ChaosReport;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The committed golden-fixture directory (`tests/golden/`).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The typed loss vocabulary — every failed request's reason must be one
/// of these (`fast_bcnn::error_reason_name` can emit nothing else, and
/// no soak may see an unexpected class).
pub const TYPED_REASONS: [&str; 8] = [
    "input",
    "thresholds",
    "numeric",
    "bayes",
    "all_samples_failed",
    "expired",
    "overloaded",
    "worker_hung",
];

/// The wire-level reason vocabulary the serve tier adds on top of
/// [`TYPED_REASONS`]: one tag per [`fast_bcnn::serve::WireError`]
/// variant, plus the admission-time `unknown_class` rejection.
pub const WIRE_REASONS: [&str; 10] = [
    "wire_truncated",
    "wire_oversized",
    "wire_envelope",
    "wire_stale_version",
    "wire_foreign_kind",
    "wire_payload",
    "wire_deadline",
    "wire_write_deadline",
    "wire_io",
    "unknown_class",
];

/// Returns whether `reason` belongs to the typed engine-loss vocabulary.
pub fn is_typed_reason(reason: &str) -> bool {
    TYPED_REASONS.contains(&reason)
}

/// Returns whether `reason` belongs to the serve tier's wire vocabulary.
pub fn is_wire_reason(reason: &str) -> bool {
    WIRE_REASONS.contains(&reason)
}

/// The chaos-soak robustness contract: per-round and total accounting
/// reconcile exactly, every request is answered or failed (never hung),
/// every loss reason is typed, and nothing is abandoned.
pub fn assert_chaos_contract(report: &ChaosReport, tag: &str) {
    assert!(
        report.round_reconcile_errors.is_empty(),
        "{tag}: per-round accounting drifted: {:?}",
        report.round_reconcile_errors
    );
    report
        .reconcile()
        .unwrap_or_else(|e| panic!("{tag}: counters did not reconcile: {e}"));
    assert_eq!(
        report.ok_total + report.failed_total,
        report.requests_total,
        "{tag}: a request was neither answered nor failed — that is a hang"
    );
    let known: BTreeSet<&str> = TYPED_REASONS.iter().copied().collect();
    for reason in report.loss_reasons.keys() {
        assert!(
            known.contains(reason.as_str()),
            "{tag}: untyped loss reason `{reason}`"
        );
    }
    assert_eq!(
        report.totals.abandoned, 0,
        "{tag}: a work unit was abandoned"
    );
}
