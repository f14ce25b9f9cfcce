//! Integration tests for the extension features: quantization,
//! persistence, timelines, the AlexNet model and the parallel MC runner.

use fast_bcnn::{
    io, synth_input, Engine, EngineConfig, FastBcnnSim, HwConfig, McDropout, McRequest, SkipMode,
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
    let dir = std::env::temp_dir().join(format!("fbcnn_ext_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let net_path = dir.join("net.json");
    let thr_path = dir.join("thresholds.json");
    io::save_network(&net_path, engine.network()).unwrap();
    io::save_thresholds(&thr_path, engine.thresholds()).unwrap();

    // A second session reloads both and reproduces predictions exactly.
    let net = io::load_network(&net_path).unwrap();
    let _thresholds = io::load_thresholds(&thr_path).unwrap();
    let bnet = BayesianNetwork::new(net, engine.bayesian_network().drop_rate());
    let input = synth_input(engine.network().input_shape(), 8);
    let original = McDropout::new(3, engine.config().seed).run(engine.bayesian_network(), &input);
    let reloaded = McDropout::new(3, engine.config().seed).run(&bnet, &input);
    assert_eq!(original, reloaded);
    let _ = std::fs::remove_dir_all(dir);
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
