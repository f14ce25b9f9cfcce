//! Cross-crate integration tests: the full Fast-BCNN pipeline from model
//! construction through skipping inference to the accelerator models.

use fast_bcnn::{
    synth_input, BaselineSim, CnvlutinSim, Engine, EngineConfig, FastBcnnSim, HwConfig, IdealSim,
    McDropout, PredictiveInference, SkipMode, ThresholdOptimizer, ThresholdSet, Workload,
};
use fbcnn_bayes::BayesianNetwork;
use fbcnn_nn::models::{ModelKind, ModelScale};

fn quick_engine(kind: ModelKind) -> Engine {
    Engine::new(EngineConfig {
        model: kind,
        scale: ModelScale::TINY,
        drop_rate: 0.3,
        samples: 4,
        confidence: 0.68,
        calibration_samples: 3,
        seed: 99,
        threads: 1,
        ..EngineConfig::for_model(kind)
    })
}

#[test]
fn pipeline_runs_for_all_three_models() {
    for kind in ModelKind::ALL {
        let engine = quick_engine(kind);
        let input = synth_input(engine.network().input_shape(), 5);
        let (pred, stats) = engine.predict_fast(&input);
        assert_eq!(pred.mean.len(), engine.network().output_shape().len());
        assert!(
            stats.skip_rate() > 0.2,
            "{kind:?} skip rate {} too low",
            stats.skip_rate()
        );
        let w = engine.workload(&input);
        let base = engine.simulate_baseline(&w);
        let fast = engine.simulate_fast(&w, 64);
        assert!(
            fast.total_cycles < base.total_cycles,
            "{kind:?}: FB-64 not faster than baseline"
        );
    }
}

#[test]
fn simulator_orderings_hold_across_models_and_configs() {
    for kind in [ModelKind::LeNet5, ModelKind::Vgg16] {
        let engine = quick_engine(kind);
        let input = synth_input(engine.network().input_shape(), 1);
        let w = engine.workload(&input);
        let base = BaselineSim::new(HwConfig::baseline()).run(&w);
        let cnv = CnvlutinSim::new().run(&w);
        for tm in [8, 16, 32, 64] {
            let hw = HwConfig::fast_bcnn(tm);
            let fb = FastBcnnSim::new(hw, SkipMode::Both).run(&w);
            let ideal = IdealSim::new(hw).run(&w);
            assert!(
                ideal.total_cycles <= fb.total_cycles,
                "{kind:?} FB-{tm}: ideal must lower-bound"
            );
            assert!(fb.total_cycles < base.total_cycles);
            assert!(ideal.energy.total() <= fb.energy.total());
        }
        assert!(cnv.normalized_cycles() <= base.normalized_cycles() + 1e-9);
    }
}

#[test]
fn skipping_matches_exact_when_prediction_disabled() {
    // End-to-end functional exactness: dropped-only skipping changes
    // nothing about the MC-dropout outcome.
    let engine = quick_engine(ModelKind::Vgg16);
    let bnet = engine.bayesian_network();
    let input = synth_input(engine.network().input_shape(), 2);
    let none = ThresholdSet::never_predict(engine.network().len());
    let pe = PredictiveInference::new(bnet, &input, none);
    for t in 0..3 {
        let masks = bnet.generate_masks(77, t);
        let exact = bnet.forward_sample(&input, &masks);
        let skipped = pe.run_sample(&masks);
        assert_eq!(exact.logits(), skipped.logits(), "sample {t} diverged");
    }
}

#[test]
fn mc_prediction_is_a_distribution_with_bounded_uncertainty() {
    let engine = quick_engine(ModelKind::GoogLeNet);
    let input = synth_input(engine.network().input_shape(), 9);
    let pred = engine.predict_exact(&input);
    assert!((pred.mean.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    assert!(pred.predictive_entropy >= 0.0);
    assert!(pred.mutual_information <= pred.predictive_entropy + 1e-5);
    assert!(pred.class < pred.mean.len());
}

#[test]
fn threshold_confidence_controls_the_speed_accuracy_knob() {
    let bnet = BayesianNetwork::new(ModelKind::Vgg16.build_scaled(4, ModelScale::TINY), 0.3);
    let input = synth_input(bnet.network().input_shape(), 4);
    let loose = ThresholdOptimizer::with_confidence(0.55).optimize(&bnet, &input, 8);
    let strict = ThresholdOptimizer::with_confidence(0.95).optimize(&bnet, &input, 8);
    let w_loose = Workload::build(&bnet, &input, &loose, 3, 8);
    let w_strict = Workload::build(&bnet, &input, &strict, 3, 8);
    let sim = FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both);
    assert!(
        sim.run(&w_loose).total_cycles <= sim.run(&w_strict).total_cycles,
        "looser confidence must not be slower"
    );
}

#[test]
fn higher_drop_rate_skips_more() {
    let input_shape_seed = 6;
    let mut rates = Vec::new();
    for p in [0.1, 0.3, 0.5] {
        let net = ModelKind::LeNet5.build(11);
        let bnet = BayesianNetwork::new(net, p);
        let input = synth_input(bnet.network().input_shape(), input_shape_seed);
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 1);
        let w = Workload::build(&bnet, &input, &thresholds, 3, 1);
        rates.push(w.total_skip_stats().skip_rate());
    }
    assert!(
        rates[0] < rates[2],
        "skip rate should grow with drop rate: {rates:?}"
    );
}

#[test]
fn deterministic_reproducibility_across_engine_instances() {
    let a = quick_engine(ModelKind::LeNet5);
    let b = quick_engine(ModelKind::LeNet5);
    let input = synth_input(a.network().input_shape(), 12);
    assert_eq!(a.predict_exact(&input), b.predict_exact(&input));
    let (pa, sa) = a.predict_fast(&input);
    let (pb, sb) = b.predict_fast(&input);
    assert_eq!(pa, pb);
    assert_eq!(sa, sb);
}

#[test]
fn summarize_rejects_inconsistent_rows() {
    let r = std::panic::catch_unwind(|| {
        McDropout::summarize(vec![vec![0.5, 0.5], vec![1.0]]);
    });
    assert!(r.is_err());
}
