//! Closed/open-loop load generator for the network serving tier.
//!
//! Boots a `fast_bcnn::serve` server over a fresh registry, drives the
//! seeded request mix (healthy tiers, deterministic sheds, expiring
//! deadlines, malformed frames) through real TCP connections, and emits
//! `BENCH_serve.json` (override with `--json`): the three-way
//! loadgen ↔ server ↔ registry ledger, per-class latency quantiles and
//! goodput, validated by `bench_check`.
//!
//! Flags: `--quick` (CI smoke mix), `--seed <N>`, `--connections <N>`,
//! `--requests <N>` (per connection), `--mode closed|open`,
//! `--json <path>`, `--trace-out <path>`, `--metrics-out <path>`.
//! Unknown flags are hard errors (exit 2).

use fast_bcnn::telemetry::Registry;
use fbcnn_bench::harness::loadgen::LoadMode;
use fbcnn_bench::harness::soak::{run_serve_soak, ServeSoakConfig};
use fbcnn_bench::{usage_error, BenchRecord};
use std::sync::Arc;

const USAGE: &str = "loadgen [--quick] [--seed <N>] [--connections <N>] [--requests <N>] \
     [--mode closed|open] [--json <path>] [--trace-out <path>] [--metrics-out <path>]";

fn main() {
    let args = fbcnn_bench::parse_soak_args(USAGE, &["--connections", "--requests", "--mode"]);
    let mut cfg = if args.quick {
        ServeSoakConfig::quick(args.seed)
    } else {
        ServeSoakConfig::full(args.seed)
    };
    for (flag, raw) in &args.extra {
        let number = || match raw.parse::<u64>() {
            Ok(n) => n.max(1) as usize,
            Err(_) => usage_error(&format!("{flag} needs a number, got `{raw}`"), USAGE),
        };
        match flag.as_str() {
            "--connections" => cfg.connections = number(),
            "--requests" => cfg.requests_per_connection = number(),
            _ => {
                cfg.mode = LoadMode::parse(raw).unwrap_or_else(|| {
                    usage_error(
                        &format!("--mode must be `closed` or `open`, got `{raw}`"),
                        USAGE,
                    )
                })
            }
        }
    }

    let registry = Arc::new(Registry::new());
    let report = match run_serve_soak(&cfg, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: failed to boot the serve soak: {e}");
            std::process::exit(1);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = BenchRecord::serve(&report, args.quick, cpus);
    let lg = &report.loadgen.totals;

    println!(
        "== serve soak (seed {}, {} mode, {} connections x {} requests, {} CPUs) ==",
        report.seed, report.mode, report.connections, report.requests_per_connection, cpus
    );
    println!(
        "offered {} | ok {} | failed {} | shed {} | expired {} | wire errors {} | \
         unknown class {}",
        lg.offered,
        lg.ok,
        lg.failed,
        lg.shed,
        lg.expired,
        lg.wire_error_responses,
        lg.unknown_class,
    );
    println!(
        "registry: {} requests ({} ok / {} failed) | connections {} (+{} rejected)",
        report.registry_requests,
        report.registry_ok,
        report.registry_failed,
        report.server.connections,
        report.server.connections_rejected,
    );
    println!(
        "goodput {:.2}x the in-process rate | bit checks {} ({} mismatched) | \
         aborted workers {}",
        record.headline["speedup"],
        lg.bit_checked,
        lg.bit_mismatched,
        report.loadgen.aborted_workers,
    );
    for (key, exact) in &record.counts {
        if let Some(cell) = key.strip_prefix("exact_ns[") {
            println!(
                "  {:<18} estimate {:>12} ns | exact {:>12} ns",
                cell.trim_end_matches(']'),
                record.count(&format!("estimate_ns[{cell}")),
                exact
            );
        }
    }

    fbcnn_bench::export_registry(
        &registry,
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    );
    let path = args.json.as_deref().unwrap_or("BENCH_serve.json");
    fbcnn_bench::write_record("loadgen", &record, path);
    println!("loadgen: ok — ledger reconciled exactly, zero aborts, bit identity held");
}
