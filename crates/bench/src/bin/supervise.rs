//! Self-healing supervision soak harness.
//!
//! Boots a supervised multi-shard registry behind a live TCP server,
//! poisons three shards simultaneously (per-sample panics, watchdog
//! stalls, a jammed breaker), drives seeded closed-loop bursts plus an
//! adversarial client battery, and bursts until every poisoned shard
//! has walked Suspect → Quarantined → Rebuilding → Healthy. Emits
//! `BENCH_supervise.json` (override with `--json`): the three-way
//! ledger, per-shard supervision accounting, the ordered transition
//! log and the reconciliation verdict, validated by `bench_check`.
//!
//! Flags: `--quick` (CI smoke campaign), `--seed <N>`, `--json <path>`,
//! `--trace-out <path>`, `--metrics-out <path>`. Unknown flags are hard
//! errors (exit 2).

use fast_bcnn::telemetry::Registry;
use fbcnn_bench::harness::soak::{run_supervise_soak, SuperviseSoakConfig};
use fbcnn_bench::BenchRecord;
use std::sync::Arc;

fn main() {
    let args = fbcnn_bench::parse_soak_args(
        "supervise [--quick] [--seed <N>] [--json <path>] [--trace-out <path>] [--metrics-out <path>]",
        &[],
    );
    let cfg = if args.quick {
        SuperviseSoakConfig::quick(args.seed)
    } else {
        SuperviseSoakConfig::full(args.seed)
    };

    let registry = Arc::new(Registry::new());
    let report = match run_supervise_soak(&cfg, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("supervise: failed to boot the soak: {e}");
            std::process::exit(1);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = BenchRecord::supervise(&report, args.quick, cpus);
    let lg = &report.loadgen.totals;

    println!(
        "== supervision soak (seed {}, {} shards, {} connections/burst, {} bursts, {} CPUs) ==",
        report.seed, report.shards, report.connections, report.bursts, cpus
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
        "registry: {} requests ({} ok / {} failed) | adversarial {} connections \
         ({} rejects read back)",
        report.registry_requests,
        report.registry_ok,
        report.registry_failed,
        report.adversarial.connections,
        report.adversarial.rejects_received,
    );
    println!(
        "healing: {} rebuilds ({} re-admitted / {} probe-rejected) | {} failovers | \
         all quarantined in {:.0} ms, campaign {:.0} ms",
        report.rebuild_attempts,
        report.rebuild_successes,
        report.rebuild_probe_rejects,
        record.count("failovers"),
        report.quarantine_elapsed_ns as f64 / 1e6,
        report.elapsed_ns as f64 / 1e6,
    );
    println!("shard  poison  health    walk  served   ok   failed abandoned  out   in  quar");
    for (shard, l) in report.ledger.iter().enumerate() {
        let poisoned = report.poisoned.iter().position(|&p| p == shard);
        println!(
            "{:>5}  {:<6}  {:<8}  {:<4}  {:>6} {:>5} {:>6} {:>9} {:>5} {:>4} {:>5}",
            shard,
            poisoned.map_or("-", |i| ["panic", "hang", "jam"]
                .get(i)
                .copied()
                .unwrap_or("?")),
            report.health.get(shard).map_or("?", String::as_str),
            if poisoned.is_some_and(|i| report.full_walks.get(i) == Some(&true)) {
                "yes"
            } else {
                "-"
            },
            l.served,
            l.ok,
            l.failed,
            l.abandoned,
            l.failovers_out,
            l.failovers_in,
            l.quarantines,
        );
    }
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(&registry).render()
    );

    fbcnn_bench::export_registry(
        &registry,
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    );
    let path = args.json.as_deref().unwrap_or("BENCH_supervise.json");
    fbcnn_bench::write_record("supervise", &record, path);
    println!(
        "supervise: ok — every poisoned shard quarantined, rebuilt and re-admitted; \
         ledger reconciled exactly, bit identity held"
    );
}
