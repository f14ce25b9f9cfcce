//! Regenerates Fig. 10: cycles, energy and accuracy across the FB-8…FB-64
//! design space for the three networks.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::design_space;
use fbcnn_bench::{pct, speedup};

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let results = design_space::run(&args.cfg);
    for model in &results {
        println!(
            "== {} (T = {}, skip rate {}) ==",
            model.model,
            args.cfg.t,
            pct(model.skip_rate)
        );
        let rows: Vec<Vec<String>> = model
            .points
            .iter()
            .map(|p| {
                vec![
                    p.design.clone(),
                    format!("{:.3}", p.normalized_cycles),
                    format!("{:.3}", p.normalized_energy),
                    speedup(p.speedup),
                    pct(p.cycle_reduction),
                    pct(p.energy_reduction),
                    pct(p.prediction_energy_share),
                    pct(p.central_energy_share),
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
                    "speedup",
                    "cycle red.",
                    "energy red.",
                    "pred. E share",
                    "central E share"
                ],
                &rows
            )
        );
        println!(
            "accuracy loss (class disagreement): {}   mean prob shift: {:.4}\n",
            pct(model.accuracy_loss),
            model.mean_prob_shift
        );
    }
    fbcnn_bench::maybe_dump(&args, &results);
}
