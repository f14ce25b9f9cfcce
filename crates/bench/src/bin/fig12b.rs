//! Regenerates Fig. 12(b): FB-64 speedup over the baseline as a function
//! of the drop rate, per network.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::sensitivity;
use fbcnn_bench::speedup;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let rates = [0.2, 0.3, 0.5];
    let points = sensitivity::drop_rate_sweep(&rates, &args.cfg);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.clone(),
                format!("{:.1}", p.drop_rate),
                speedup(p.speedup),
            ]
        })
        .collect();
    println!("== FB-64 speedup vs drop rate (T = {}) ==", args.cfg.t);
    println!(
        "{}",
        format_table(&["model", "drop rate", "speedup"], &rows)
    );
    fbcnn_bench::maybe_dump(&args, &points);
}
