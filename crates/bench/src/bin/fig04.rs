//! Regenerates Fig. 3 / Fig. 4: zero / unaffected / affected neuron
//! characterization per BCNN layer.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::characterization;
use fbcnn_bench::pct;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let results = characterization::run(&args.cfg);
    for model in &results {
        println!("== {} (T = {}) ==", model.model, args.cfg.t);
        let rows: Vec<Vec<String>> = model
            .layers
            .iter()
            .map(|l| {
                vec![
                    l.layer.clone(),
                    pct(l.zero_ratio),
                    pct(l.unaffected_ratio),
                    pct(l.affected_ratio),
                    pct(l.unaffected_share_of_zeros),
                    pct(l.unaffected_share_tolerant),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "layer",
                    "zero",
                    "unaffected",
                    "affected",
                    "unaffected/zero",
                    "tolerant share"
                ],
                &rows
            )
        );
        println!(
            "mean unaffected ratio: {}   mean share of zeros staying zero: {}\n",
            pct(model.mean_unaffected_ratio),
            pct(model.mean_unaffected_share_of_zeros)
        );
    }
    fbcnn_bench::maybe_dump(&args, &results);
}
