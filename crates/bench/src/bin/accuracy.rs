//! Trained-LeNet accuracy experiment: exact vs skipping BCNN accuracy on
//! SynthDigits at several confidence levels (the substitution for the
//! paper's MNIST accuracy numbers).

use fast_bcnn::report::format_table;
use fbcnn_bench::experiments::accuracy::{self, TrainedAccuracyConfig};
use fbcnn_bench::pct;

fn main() {
    let args = fbcnn_bench::parse_args();
    let _telemetry = args.telemetry();
    let cfg = if args.cfg.t <= 8 {
        TrainedAccuracyConfig {
            train_size: 150,
            test_size: 40,
            epochs: 3,
            samples: 6,
            threads: args.cfg.threads,
            ..Default::default()
        }
    } else {
        TrainedAccuracyConfig {
            threads: args.cfg.threads,
            ..Default::default()
        }
    };
    let results = accuracy::run(&[0.60, 0.68, 0.80, 0.90], &cfg);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                pct(r.confidence),
                pct(r.deterministic_accuracy),
                pct(r.exact_bcnn_accuracy),
                pct(r.skipping_bcnn_accuracy),
                pct(r.accuracy_loss),
            ]
        })
        .collect();
    println!(
        "== Trained B-LeNet-5 on SynthDigits ({} test images, T = {}) ==",
        cfg.test_size, cfg.samples
    );
    println!(
        "{}",
        format_table(
            &[
                "p_cf",
                "deterministic",
                "exact BCNN",
                "skipping BCNN",
                "accuracy loss"
            ],
            &rows
        )
    );
    fbcnn_bench::maybe_dump(&args, &results);
}
