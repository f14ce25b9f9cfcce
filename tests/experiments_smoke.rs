//! Smoke tests for every experiment driver at quick scale — each paper
//! artifact must regenerate and keep its qualitative shape.

use fbcnn_bench::experiments::{
    accuracy, characterization, comparison, design_space, motivation, sensitivity, tables,
    ExpConfig,
};
use fbcnn_nn::models::ModelKind;

#[test]
fn fig04_characterization_shape() {
    let cfg = ExpConfig::quick();
    let results = characterization::run(&cfg);
    assert_eq!(results.len(), 3);
    for model in &results {
        assert!(!model.layers.is_empty());
        // The paper's two headline statistics: substantial unaffected
        // ratios and a dominant unaffected share of zero neurons.
        assert!(
            model.mean_unaffected_ratio > 0.25,
            "{}: unaffected ratio {}",
            model.model,
            model.mean_unaffected_ratio
        );
        // At full scale the share exceeds 0.85 (EXPERIMENTS.md); the
        // TINY test scale is noisier.
        assert!(
            model.mean_unaffected_share_of_zeros > 0.6,
            "{}: share {}",
            model.model,
            model.mean_unaffected_share_of_zeros
        );
    }
}

#[test]
fn fig10_design_space_shape() {
    let cfg = ExpConfig::quick();
    let r = design_space::run_model(ModelKind::LeNet5, &cfg);
    assert_eq!(r.points.len(), 4);
    for p in &r.points {
        assert!(p.speedup > 1.0, "{} speedup {}", p.design, p.speedup);
        assert!(p.energy_reduction > 0.0);
        // Prediction machinery stays a minor consumer.
        assert!(p.prediction_energy_share + p.central_energy_share < 0.5);
    }
}

#[test]
fn fig11_comparison_shape() {
    let cfg = ExpConfig::quick();
    let r = comparison::run_model(ModelKind::LeNet5, &cfg);
    let nc: Vec<(&str, f64)> = r
        .points
        .iter()
        .map(|p| (p.design.as_str(), p.normalized_cycles))
        .collect();
    let get = |n: &str| nc.iter().find(|(d, _)| *d == n).unwrap().1;
    // Fig. 11 ordering: ideal <= FB-64 < cnvlutin <= baseline.
    assert!(get("ideal") <= get("FB-64") + 1e-9);
    assert!(get("FB-64") < get("cnvlutin"));
    assert!(get("cnvlutin") <= 1.0 + 1e-9);
    assert!(r.fb_vs_cnvlutin_speedup > 1.0);
}

#[test]
fn fig12a_confidence_monotonicity() {
    let cfg = ExpConfig::quick();
    let pts = sensitivity::confidence_sweep(ModelKind::LeNet5, &[0.6, 0.9], &cfg);
    assert!(pts[0].skip_rate >= pts[1].skip_rate - 1e-9);
}

#[test]
fn fig12b_drop_rate_trend() {
    let cfg = ExpConfig::quick();
    let pts = sensitivity::drop_rate_sweep(&[0.2, 0.5], &cfg);
    assert_eq!(pts.len(), 6); // 3 models x 2 rates
    for chunk in pts.chunks(2) {
        assert!(
            chunk[1].speedup >= chunk[0].speedup - 0.1,
            "{}: speedup should not fall with drop rate ({:.2} -> {:.2})",
            chunk[0].model,
            chunk[0].speedup,
            chunk[1].speedup
        );
    }
}

#[test]
fn tables_regenerate() {
    assert_eq!(tables::table1().len(), 5);
    let t2 = tables::table2();
    assert!(t2.report.fits(&fbcnn_accel::resources::VIRTEX7_VC709));
    let t3 = tables::table3(1);
    assert_eq!(t3.len(), 3);
    for row in t3 {
        assert!((row.lfsr_4000 - row.nominal).abs() < 0.03);
    }
}

#[test]
fn motivation_slowdown_is_t() {
    let mut cfg = ExpConfig::quick();
    cfg.t = 7;
    let r = motivation::run_model(ModelKind::LeNet5, &cfg);
    assert!((r.slowdown - 7.0).abs() < 1e-9);
}

#[test]
fn trained_accuracy_pipeline_runs() {
    let cfg = accuracy::TrainedAccuracyConfig {
        train_size: 100,
        test_size: 20,
        epochs: 2,
        samples: 4,
        ..Default::default()
    };
    let results = accuracy::run(&[0.68], &cfg);
    assert_eq!(results.len(), 1);
    assert!(results[0].deterministic_accuracy > 0.2);
}
