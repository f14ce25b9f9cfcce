//! Regenerates the §III motivation numbers: the cost of a complete BCNN
//! inference relative to one CNN inference on skip-oblivious hardware.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::motivation;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let results = motivation::run(&args.cfg);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.t.to_string(),
                r.cnn_cycles.to_string(),
                r.bcnn_cycles.to_string(),
                format!("{:.1}x", r.slowdown),
                format!("{:.1}x", r.energy_ratio),
            ]
        })
        .collect();
    println!("== BCNN vs CNN cost on the baseline accelerator ==");
    println!(
        "{}",
        format_table(
            &[
                "model",
                "T",
                "CNN cycles",
                "BCNN cycles",
                "slowdown",
                "energy"
            ],
            &rows
        )
    );
    fbcnn_bench::maybe_dump(&args, &results);
}
