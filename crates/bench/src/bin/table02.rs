//! Regenerates Table II: FPGA resource usage of the FB-64 design.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::tables;
use fbcnn_bench::pct;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let t = tables::table2();
    let r = &t.report;
    let rows = vec![
        vec![
            "LUT".to_string(),
            format!(
                "{} ({})",
                r.convolution_units.luts,
                pct(t.conv_utilization.0)
            ),
            format!(
                "{} ({})",
                r.prediction_units.luts,
                pct(t.prediction_utilization.0)
            ),
            format!(
                "{} ({})",
                r.central_predictor.luts,
                pct(t.central_utilization.0)
            ),
        ],
        vec![
            "FF".to_string(),
            format!(
                "{} ({})",
                r.convolution_units.ffs,
                pct(t.conv_utilization.1)
            ),
            format!(
                "{} ({})",
                r.prediction_units.ffs,
                pct(t.prediction_utilization.1)
            ),
            format!(
                "{} ({})",
                r.central_predictor.ffs,
                pct(t.central_utilization.1)
            ),
        ],
        vec![
            "BRAM".to_string(),
            format!(
                "{} ({})",
                r.convolution_units.brams,
                pct(t.conv_utilization.2)
            ),
            format!(
                "{} ({})",
                r.prediction_units.brams,
                pct(t.prediction_utilization.2)
            ),
            format!(
                "{} ({})",
                r.central_predictor.brams,
                pct(t.central_utilization.2)
            ),
        ],
    ];
    println!("== Table II: resource usage (FB-64, Virtex-7 VC709) ==");
    println!(
        "{}",
        format_table(
            &[
                "resource",
                "convolution units",
                "prediction units",
                "central predictor"
            ],
            &rows
        )
    );
    fbcnn_bench::maybe_dump(&args, &t);
}
