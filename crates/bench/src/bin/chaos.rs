//! Chaos soak harness: hammers the resilient serving layer
//! ([`fast_bcnn::ResilientBatchEngine`]) with seeded fault rounds and
//! proves the robustness contract — zero hangs, zero aborts, every loss
//! typed, and the breaker/shed/retry/deadline accounting reconciled
//! exactly against the telemetry counters.
//!
//! Emits `BENCH_chaos.json` (override the path with `--json`); `--seed`
//! sets the campaign seed and `--quick` the CI smoke configuration
//! (deterministic fault classes only). The campaign records into its own
//! private telemetry registry, so `--trace-out` / `--metrics-out` are
//! exported from that registry after the run rather than through the
//! global recorder slot.

use fast_bcnn::telemetry::Registry;
use fbcnn_bench::harness::chaos::{run_chaos, ChaosConfig};
use fbcnn_bench::BenchRecord;
use std::sync::Arc;

fn main() {
    let args = fbcnn_bench::parse_args();
    let quick = args.cfg.t <= 4;
    let cfg = if quick {
        ChaosConfig::quick(args.cfg.seed)
    } else {
        ChaosConfig::full(args.cfg.seed)
    };

    let registry = Arc::new(Registry::new());
    let report = run_chaos(&cfg, &registry);
    let t = &report.totals;

    println!(
        "== chaos soak (seed {}, {} rounds, {} requests, {} fault classes) ==",
        report.seed,
        report.rounds.len(),
        report.requests_total,
        report.classes.len()
    );
    for r in &report.rounds {
        println!(
            "round {:<18} offered {:>3} | ok {:>3} | failed {:>3} | expired {:>3} | \
             shed {:>3} | retries {:>3}",
            r.class, r.offered, r.ok, r.failed, r.expired, r.shed, r.retries
        );
    }
    println!(
        "totals: ok {} / failed {} | shed {} | degraded {} | expired {} | \
         retries {} (healed {}, exhausted {}) | forced exact {} | probes {}",
        report.ok_total,
        report.failed_total,
        t.shed,
        t.degraded,
        t.expired,
        t.retries,
        t.retry_successes,
        t.retry_exhausted,
        t.forced_exact,
        t.probes,
    );
    let path_of = |(from, to): &(String, String)| format!("{from}->{to}");
    println!(
        "breaker: {} (transitions: {})",
        report.final_breaker_state,
        if report.transitions.is_empty() {
            "none".to_string()
        } else {
            report
                .transitions
                .iter()
                .map(path_of)
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    for (reason, n) in &report.loss_reasons {
        println!("loss[{reason}] = {n}");
    }

    fbcnn_bench::export_registry(
        &registry,
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    );
    let path = args.json.as_deref().unwrap_or("BENCH_chaos.json");
    fbcnn_bench::write_record("chaos", &BenchRecord::chaos(&report, quick), path);
    println!("chaos: ok — every loss typed, accounting reconciled exactly");
}
