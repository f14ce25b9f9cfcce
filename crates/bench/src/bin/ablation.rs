//! Design-choice ablations: counting-lane provisioning (Eq. 9's δ) and
//! the calibration tolerance.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::ablation;
use fbcnn_bench::pct;
use fbcnn_nn::models::ModelKind;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();

    for kind in [ModelKind::LeNet5, ModelKind::Vgg16] {
        let sweep = ablation::lane_sweep(kind, 64, &[1, 2, 4, 8], &args.cfg);
        println!(
            "== counting-lane sweep: {} on FB-{} ==",
            sweep.model, sweep.tm
        );
        let rows: Vec<Vec<String>> = sweep
            .points
            .iter()
            .map(|p| {
                vec![
                    p.delta.to_string(),
                    p.lanes.to_string(),
                    pct(p.cycle_reduction),
                    p.stall_cycles.to_string(),
                    pct(p.prediction_energy_share),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "delta",
                    "lanes/PE",
                    "cycle red.",
                    "stall cycles",
                    "pred E share"
                ],
                &rows
            )
        );
    }

    let q = ablation::quantization(ModelKind::LeNet5, &args.cfg);
    println!("== int8 quantization ablation: {} ==", q.model);
    println!(
        "polarity stability {} | skip rate fp32 {} -> int8 {} | FB-64 cycle red. fp32 {} -> int8 {}\n",
        pct(q.polarity_stability),
        pct(q.skip_rate_fp32),
        pct(q.skip_rate_int8),
        pct(q.cycle_reduction_fp32),
        pct(q.cycle_reduction_int8)
    );

    let tols = [0.0f32, 0.1, 0.25, 0.5];
    let pts = ablation::tolerance_sweep(ModelKind::Vgg16, &tols, &args.cfg);
    println!("== calibration-tolerance sweep: B-VGG16 ==");
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.tolerance),
                pct(p.skip_rate),
                pct(p.cycle_reduction),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["tolerance", "skip rate", "cycle red."], &rows)
    );
    fbcnn_bench::maybe_dump(&args, &pts);
}
