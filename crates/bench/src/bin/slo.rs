//! SLO soak harness: drives the versioned registry through calm →
//! fault burst → recovery under a windowed SLO monitor
//! ([`fbcnn_bench::harness::slo::run_slo_soak`]) and proves the observability
//! contract — the health walk pages on the burst and recovers, the
//! windowed accounting reconciles *exactly* against the registry fold
//! and the embedded chaos campaign, every latency quantile estimate
//! honors the documented bucket error bound, and the auto-emitted
//! flight-recorder postmortem replays exactly the failed requests.
//!
//! Emits `BENCH_slo.json` (override the path with `--json`); `--seed`
//! sets the soak seed and `--quick` the CI smoke configuration. The
//! soak installs its own windowed recorder globally for the duration,
//! so `--trace-out` / `--metrics-out` are exported from its total
//! registry after the run.

use fbcnn_bench::harness::slo::{run_slo_soak, SloSoakConfig};
use fbcnn_bench::BenchRecord;

fn main() {
    let args = fbcnn_bench::parse_args();
    let quick = args.cfg.t <= 4;
    let cfg = if quick {
        SloSoakConfig::quick(args.cfg.seed)
    } else {
        SloSoakConfig::full(args.cfg.seed)
    };

    let (report, windowed) = match run_slo_soak(&cfg) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("slo: FAIL — soak could not start: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "== slo soak (seed {}, {} windows of {} ns, fast span {}, slow span {}, budget {:.0}%) ==",
        report.seed,
        report.windows,
        report.window_width_ns,
        report.fast_windows,
        report.slow_windows,
        report.error_budget * 100.0
    );
    for v in &report.verdicts {
        println!(
            "window {:>2} {:<9} {:>8} | {:>3} requests{}",
            v.window,
            v.phase,
            v.status.name().to_uppercase(),
            v.requests,
            if v.violations.is_empty() {
                String::new()
            } else {
                format!(" | {}", v.violations.join("; "))
            }
        );
    }
    println!(
        "registry: {} requests, {} ok / {} failed | windowed view agrees cell by cell",
        report.registry_requests, report.registry_ok, report.registry_failed
    );
    if let Some(chaos) = &report.chaos {
        println!(
            "chaos (class `default`): {} requests, {} ok / {} failed | windowed view agrees",
            chaos.requests, chaos.ok, chaos.failed
        );
    }
    for q in &report.quantiles {
        println!(
            "quantile {:>4}: estimate {:>12.0} ns vs exact {:>12} ns [{}]",
            q.name,
            q.estimate_ns,
            q.exact_ns,
            if q.within_bound {
                "in bound"
            } else {
                "OUT OF BOUND"
            }
        );
    }
    println!(
        "postmortem: trigger `{}`, {} records ({} degraded), replays failed ids {:?}",
        report.postmortem_trigger,
        report.postmortem_records,
        report.postmortem_degraded,
        report.postmortem_failed_ids
    );

    fbcnn_bench::export_registry(
        windowed.total(),
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    );
    let path = args.json.as_deref().unwrap_or("BENCH_slo.json");
    fbcnn_bench::write_record("slo", &BenchRecord::slo(&report, quick), path);
    // The acceptance dump was read back and verified; don't leave it in
    // the temp directory.
    if let Some(p) = &report.postmortem_path {
        let _ = std::fs::remove_file(p);
    }
    println!("slo: ok — health walk paged and recovered, accounting reconciled exactly");
}
