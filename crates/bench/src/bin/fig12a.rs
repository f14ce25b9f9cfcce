//! Regenerates Fig. 12(a): accuracy loss and cycle reduction as a
//! function of the confidence level `p_cf` (B-VGG16, FB-64).

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::sensitivity;
use fbcnn_bench::pct;
use fbcnn_nn::models::ModelKind;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    // The paper sweeps 60-90 %; our synthetic-weight substitution moves
    // the knee toward higher confidence (see DESIGN.md §3b), so the sweep
    // extends to 99 %.
    let confidences = [0.60, 0.68, 0.80, 0.90, 0.95, 0.97, 0.99];
    let points = sensitivity::confidence_sweep(ModelKind::Vgg16, &confidences, &args.cfg);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                pct(p.confidence),
                pct(p.accuracy_loss),
                format!("{:.4}", p.mean_prob_shift),
                pct(p.cycle_reduction),
                pct(p.skip_rate),
            ]
        })
        .collect();
    println!(
        "== B-VGG16 / FB-64 confidence sweep (T = {}) ==",
        args.cfg.t
    );
    println!(
        "{}",
        format_table(
            &[
                "p_cf",
                "accuracy loss",
                "prob shift",
                "cycle red.",
                "skip rate"
            ],
            &rows
        )
    );
    fbcnn_bench::maybe_dump(&args, &points);
}
