//! Integration tests for the extension features: quantization,
//! persistence, timelines, the AlexNet model and the parallel MC runner.

use fast_bcnn::{
    synth_input, Engine, EngineConfig, FastBcnnSim, HwConfig, McDropout, McRequest, ModelArtifact,
    SkipMode,
};
use fbcnn_bayes::BayesianNetwork;
use fbcnn_nn::models::{ModelKind, ModelScale};
use fbcnn_nn::quant;

#[test]
fn quantized_alexnet_pipeline_end_to_end() {
    // Build the extension model, quantize it, and run the full skipping
    // pipeline on the int8 weights.
    let original = ModelKind::AlexNet.build_scaled(3, ModelScale::TINY);
    let quantized = quant::quantize_network(&original);
    assert!(quant::polarity_stability(&original, &quantized) > 0.99);

    let engine = Engine::with_network(
        quantized,
        EngineConfig {
            model: ModelKind::AlexNet,
            scale: ModelScale::TINY,
            drop_rate: 0.3,
            samples: 3,
            confidence: 0.68,
            calibration_samples: 2,
            seed: 3,
            threads: 1,
            ..EngineConfig::for_model(ModelKind::AlexNet)
        },
    );
    let input = synth_input(engine.network().input_shape(), 5);
    let (pred, stats) = engine.predict_fast(&input);
    assert_eq!(pred.mean.len(), 100);
    assert!(stats.skip_rate() > 0.2);
    let w = engine.workload(&input);
    assert!(engine.simulate_fast(&w, 64).total_cycles < engine.simulate_baseline(&w).total_cycles);
}

#[test]
fn persisted_artifacts_reproduce_the_run() {
    let engine = Engine::new(EngineConfig {
        samples: 3,
        calibration_samples: 2,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    });
    let path = std::env::temp_dir().join(format!("fbcnn_ext_{}.json", std::process::id()));
    ModelArtifact::from_engine(&engine, 1, "ext")
        .save(&path)
        .unwrap();

    // A second session reloads the artifact and reproduces predictions
    // exactly, on the MC runner and on the calibrated skipping path.
    let reloaded = ModelArtifact::load(&path).unwrap().into_engine().unwrap();
    let _ = std::fs::remove_file(path);
    assert_eq!(reloaded.network(), engine.network());
    assert_eq!(reloaded.thresholds(), engine.thresholds());
    let input = synth_input(engine.network().input_shape(), 8);
    let mc = McDropout::new(3, engine.config().seed);
    assert_eq!(
        mc.run(engine.bayesian_network(), &input),
        mc.run(reloaded.bayesian_network(), &input)
    );
    assert_eq!(engine.predict_fast(&input), reloaded.predict_fast(&input));
}

#[test]
fn timeline_respects_prediction_dependencies_across_models() {
    for kind in [ModelKind::LeNet5, ModelKind::Vgg16] {
        let engine = Engine::new(EngineConfig {
            model: kind,
            scale: ModelScale::TINY,
            samples: 2,
            calibration_samples: 2,
            ..EngineConfig::for_model(kind)
        });
        let input = synth_input(engine.network().input_shape(), 1);
        let w = engine.workload(&input);
        let sim = FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both);
        let tl = sim.timeline(&w);
        assert_eq!(tl.total_cycles, sim.run(&w).total_cycles, "{kind:?}");
        for p in &tl.prediction {
            let consumer = tl
                .conv
                .iter()
                .find(|c| c.sample == p.sample && c.layer == p.layer)
                .expect("consumer exists");
            assert!(consumer.start >= p.end, "{kind:?}: dependency violated");
        }
    }
}

#[test]
fn parallel_mc_matches_sequential_on_alexnet() {
    let bnet = BayesianNetwork::new(ModelKind::AlexNet.build_scaled(9, ModelScale::TINY), 0.3);
    let input = synth_input(bnet.network().input_shape(), 2);
    let runner = McDropout::new(5, 77);
    let request = [McRequest {
        input: &input,
        seed: 77,
    }];
    assert_eq!(
        runner.run(&bnet, &input),
        McDropout::expect_complete(runner.run_batch(&bnet, &request, 4))
    );
}
