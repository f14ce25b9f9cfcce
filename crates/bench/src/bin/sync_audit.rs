//! Regenerates the Eq. 8/9 synchronization analysis: required lane
//! factor δ per layer transition and whether the provisioned `4·Tn`
//! counting lanes keep the prediction unit ahead of the convolution
//! unit.

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::sync_audit;
use fbcnn_bench::pct;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let results = sync_audit::run(&args.cfg);
    for model in &results {
        println!(
            "== {} on {} (skip rate {}) ==",
            model.model,
            model.design,
            pct(model.skip_rate)
        );
        let rows: Vec<Vec<String>> = model
            .transitions
            .iter()
            .map(|t| {
                vec![
                    format!("{} -> {}", t.current, t.next),
                    format!("{:.2}", t.delta_required),
                    if t.eq8_holds { "yes" } else { "no" }.into(),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(&["transition", "delta required", "Eq.8 holds"], &rows)
        );
        println!(
            "Eq.8 per-transition pass rate: {} (the cumulative pipeline absorbs the rest)\n",
            pct(model.eq8_pass_rate)
        );
    }
    fbcnn_bench::maybe_dump(&args, &results);
}
