//! Regenerates Fig. 11: FB-64 vs Cnvlutin vs ideal vs FB-64-d / FB-64-u.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::comparison;
use fbcnn_bench::{pct, speedup};

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let results = comparison::run(&args.cfg);
    for model in &results {
        println!("== {} (T = {}) ==", model.model, args.cfg.t);
        let rows: Vec<Vec<String>> = model
            .points
            .iter()
            .map(|p| {
                vec![
                    p.design.clone(),
                    format!("{:.3}", p.normalized_cycles),
                    format!("{:.3}", p.normalized_energy),
                    pct(p.cycle_reduction),
                    pct(p.energy_reduction),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "design",
                    "norm cycles",
                    "norm energy",
                    "cycle red.",
                    "energy red."
                ],
                &rows
            )
        );
        println!(
            "FB-64 vs Cnvlutin: {} speedup, {} energy reduction; gap to ideal: {}\n",
            speedup(model.fb_vs_cnvlutin_speedup),
            pct(model.fb_vs_cnvlutin_energy_reduction),
            pct(model.gap_to_ideal)
        );
    }
    fbcnn_bench::maybe_dump(&args, &results);
}
