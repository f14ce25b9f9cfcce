//! Regenerates the §VI-B1 per-layer cycle breakdown discussion
//! (first-layer boost, depth profile).

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::breakdown;
use fbcnn_bench::{pct, speedup};

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let results = breakdown::run(&args.cfg);
    for model in &results {
        println!(
            "== {} on {} (T = {}) ==",
            model.model, model.design, args.cfg.t
        );
        let rows: Vec<Vec<String>> = model
            .layers
            .iter()
            .map(|l| {
                vec![
                    l.layer.clone(),
                    l.baseline_cycles.to_string(),
                    l.fast_cycles.to_string(),
                    speedup(l.speedup),
                    pct(l.baseline_share),
                    l.stall_cycles.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "layer",
                    "baseline cycles",
                    "FB cycles",
                    "speedup",
                    "baseline share",
                    "stall"
                ],
                &rows
            )
        );
    }
    fbcnn_bench::maybe_dump(&args, &results);
}
