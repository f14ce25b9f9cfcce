//! Regenerates Table III: empirical drop rates of the LFSR BRNG vs the
//! software Bernoulli generator.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::tables;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let rows_data = tables::table3(args.cfg.seed);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                format!("p = {}", r.nominal),
                format!("{:.4}", r.lfsr_2000),
                format!("{:.4}", r.lfsr_4000),
                format!("{:.4}", r.software_2000),
                format!("{:.4}", r.software_4000),
            ]
        })
        .collect();
    println!("== Table III: measured drop rates ==");
    println!(
        "{}",
        format_table(
            &[
                "drop rate",
                "LFSR 2000",
                "LFSR 4000",
                "software 2000",
                "software 4000"
            ],
            &rows
        )
    );
    fbcnn_bench::maybe_dump(&args, &rows_data);
}
