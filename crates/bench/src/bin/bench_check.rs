//! CI validator for bench records.
//!
//! `bench_check <BENCH_*.json>` reads the record's `schema` tag, refuses
//! an unknown or retired one by name, and runs the one validator,
//! [`fbcnn_bench::BenchRecord::validate`]: every ledger row must agree
//! exactly, every row the schema requires must be present, and every
//! floor of the schema's entry in [`fbcnn_bench::record::SCHEMAS`] that
//! binds must hold (full-run floors skip `--quick` records; throughput
//! floors also skip hosts below 4-way parallelism).
//!
//! `bench_check --baseline <file> <BENCH_*.json>` instead diffs the
//! record's headline ratios (see [`fbcnn_bench::baseline`]) against a
//! committed baseline and fails on a > 15 % regression or on a ratio
//! the baseline floors but the record no longer reports. This mode
//! accepts any record carrying ratios, including the schema-less
//! `BENCH_hotpath.json`, so no schema validation runs.
//!
//! Exits non-zero on missing, malformed or failing records.

use fbcnn_bench::{baseline, record};

fn fail(msg: String) -> ! {
    eprintln!("bench_check: {msg}");
    std::process::exit(1);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn parse_value(path: &str, text: &str) -> serde::Value {
    serde_json::from_str(text).unwrap_or_else(|e| fail(format!("{path}: malformed JSON: {e}")))
}

fn check_baseline(path: &str, baseline_path: &str) {
    let current = parse_value(path, &read(path));
    let base = parse_value(baseline_path, &read(baseline_path));
    let compared = baseline::diff_ratios(&current, &base, baseline::DEFAULT_TOLERANCE)
        .unwrap_or_else(|reason| fail(format!("{path} vs {baseline_path}: {reason}")));
    for d in &compared {
        println!(
            "  {:<40} baseline {:>7.3}x  current {:>7.3}x  ({:+.1}%)",
            d.key,
            d.baseline,
            d.current,
            d.relative_change() * 100.0
        );
    }
    println!(
        "bench_check: ok — {} headline ratio(s) within {:.0}% of {baseline_path}",
        compared.len(),
        baseline::DEFAULT_TOLERANCE * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, baseline_path) = match args.as_slice() {
        [path] => (path, None),
        [flag, base, path] | [path, flag, base] if flag == "--baseline" => (path, Some(base)),
        _ => fail(format!(
            "usage: bench_check <BENCH_*.json> [--baseline <file>] (got {} args)",
            args.len()
        )),
    };
    if let Some(baseline_path) = baseline_path {
        check_baseline(path, baseline_path);
        return;
    }
    let record = record::parse(&read(path)).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    if let Err(reason) = record.validate() {
        fail(format!("{path}: {} record: {reason}", record.schema));
    }
    println!(
        "bench_check: ok — {} seed {}: {} ledger rows reconciled exactly, {} floors checked{}",
        record.schema,
        record.seed,
        record.ledger.len(),
        record::schema(&record.schema).map_or(0, |s| s.floors.len()),
        if record.quick { " [quick smoke]" } else { "" },
    );
}
