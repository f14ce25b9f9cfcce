//! Hot-swap-under-fire harness: runs the chaos soak's traffic pattern
//! against a [`fast_bcnn::ModelRegistry`] that deploys a new model
//! version every round — healthy versions promoted mid-traffic,
//! crashing versions auto-rolled back by the canary verdict — and
//! proves zero lost requests, bit-identical intact responses and exact
//! `version_requests{version}` counter reconciliation.
//!
//! Emits `BENCH_swap.json` (override the path with `--json`); `--seed`
//! sets the campaign seed and `--quick` the CI smoke configuration. The
//! campaign records into its own telemetry registry, so `--trace-out` /
//! `--metrics-out` export from that registry after the run.

use fbcnn_bench::harness::chaos::{run_swap_chaos, SwapChaosConfig};
use fbcnn_bench::BenchRecord;
use std::sync::Arc;

fn main() {
    let args = fbcnn_bench::parse_args();
    let quick = args.cfg.t <= 4;
    let cfg = if quick {
        SwapChaosConfig::quick(args.cfg.seed)
    } else {
        SwapChaosConfig::full(args.cfg.seed)
    };

    let registry = Arc::new(fast_bcnn::telemetry::Registry::new());
    let report = match run_swap_chaos(&cfg, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("swap: campaign failed to run: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "== swap under fire (seed {}, {} rounds, {} requests, {} shards) ==",
        report.seed,
        report.rounds.len(),
        report.requests_total,
        cfg.shards
    );
    for r in &report.rounds {
        println!(
            "round {:>2} {:<12} v{:<3} offered {:>3} | ok {:>3} | failed {:>3} | {}",
            r.round,
            r.action,
            r.deployed_version,
            r.offered,
            r.ok,
            r.failed,
            if r.promoted {
                "promoted"
            } else if r.rolled_back {
                "rolled back"
            } else {
                "abandoned"
            }
        );
    }
    println!(
        "totals: ok {} / failed {} | deploys {} | promotions {} | rollbacks {} | \
         active v{} | {} responses bit-checked ({} diverged)",
        report.ok_total,
        report.failed_total,
        report.deploys,
        report.promotions,
        report.rollbacks,
        report.final_version,
        report.compared_outputs,
        report.mismatched_outputs,
    );
    for (version, cell) in &report.version_requests {
        println!(
            "version_requests[v{version}] = {} (ok {}, failed {}, canary {})",
            cell.requests, cell.ok, cell.failed, cell.canary
        );
    }

    fbcnn_bench::export_registry(
        &registry,
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    );
    let path = args.json.as_deref().unwrap_or("BENCH_swap.json");
    fbcnn_bench::write_record("swap", &BenchRecord::swap(&report, quick), path);
    println!("swap: ok — zero lost requests, version counters reconciled exactly");
}
