//! Regenerates Table I: the hardware design space.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::tables;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let rows_data = tables::table1();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.design.clone(),
                r.total_macs.to_string(),
                r.tm.to_string(),
                r.tn.to_string(),
                r.counting_lanes.to_string(),
            ]
        })
        .collect();
    println!("== Table I: hardware parameters for Fast-BCNN designs ==");
    println!(
        "{}",
        format_table(&["type", "total MACs", "Tm", "Tn", "counting lanes"], &rows)
    );

    // The §IV-B analysis that selects feature-map parallelism (Eq. 6/7).
    use fbcnn_accel::parallelism;
    let overhead_rows: Vec<Vec<String>> = rows_data
        .iter()
        .skip(1) // baseline row has no skipping
        .map(|r| {
            vec![
                format!("<Tm={}, Tn={}>", r.tm, r.tn),
                format!(
                    "{}x",
                    parallelism::neuron_parallelism_buffer_overhead(r.tm, r.tn)
                ),
                format!(
                    "{}x",
                    parallelism::feature_map_parallelism_buffer_overhead(r.tm)
                ),
                format!("{:.1}x", parallelism::overhead_ratio(r.tm, r.tn)),
            ]
        })
        .collect();
    println!("== Eq. 6/7: buffer duplication required for skipping ==");
    println!(
        "{}",
        format_table(
            &[
                "config",
                "neuron par. (Eq.6)",
                "feature-map par. (Eq.7)",
                "ratio"
            ],
            &overhead_rows
        )
    );
    fbcnn_bench::maybe_dump(&args, &rows_data);
}
