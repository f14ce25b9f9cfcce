//! Golden-vector regression suite: pinned bit patterns for the exact
//! path, the skipping path, the robust pipeline and the batch engine.
//!
//! The fixtures under `tests/golden/` hold f32 probability rows as u32
//! bit patterns plus per-layer skip counts; any bit of drift in the
//! numerics — a reordered reduction, a changed mask stream, a cache that
//! leaks state between requests — fails these tests. Regenerate the
//! fixtures after an *intentional* numerics change with
//!
//! ```text
//! cargo test --test golden_vectors -- --ignored regenerate
//! ```
//!
//! and commit the diff (see README "Serving / batching").

use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchRequest, Engine, EngineConfig, Prediction,
};
use fbcnn_bayes::derive_request_seed;
use fbcnn_nn::models::ModelKind;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The pinned engine configuration. Kept in the fixture so a config
/// drift shows up as a fixture mismatch, not silent regeneration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenConfig {
    samples: usize,
    calibration_samples: usize,
    seed: u64,
}

impl GoldenConfig {
    fn pinned() -> Self {
        Self {
            samples: 6,
            calibration_samples: 4,
            seed: 0xFB_C0DE,
        }
    }

    fn engine(&self) -> Engine {
        Engine::new(EngineConfig {
            samples: self.samples,
            calibration_samples: self.calibration_samples,
            seed: self.seed,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    }
}

/// Per-layer skip accounting for one `predict_fast` run, from the
/// `skip_neurons_*` telemetry counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenLayerSkips {
    layer: String,
    considered: u64,
    dropped: u64,
    predicted: u64,
    skipped: u64,
}

/// One input's pinned expectations across the three inference paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenCase {
    input_seed: u64,
    exact_class: usize,
    /// `predict_exact` mean probabilities, f32 bit patterns.
    exact_mean_bits: Vec<u32>,
    fast_class: usize,
    /// `predict_fast` mean probabilities, f32 bit patterns.
    fast_mean_bits: Vec<u32>,
    /// Per-layer skip counts of the fast run, label order.
    layer_skips: Vec<GoldenLayerSkips>,
    /// `predict_robust_seeded` mean probabilities, f32 bit patterns.
    robust_mean_bits: Vec<u32>,
    robust_used_samples: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenFixture {
    config: GoldenConfig,
    cases: Vec<GoldenCase>,
}

/// One batched request's pinned expectations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenBatchRequest {
    id: u64,
    input_seed: u64,
    /// The seed `derive_request_seed(config.seed, id)` must resolve to.
    derived_seed: u64,
    /// Batched robust mean probabilities, f32 bit patterns.
    mean_bits: Vec<u32>,
    class: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenBatchFixture {
    config: GoldenConfig,
    requests: Vec<GoldenBatchRequest>,
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Runs `predict_fast` with a private registry installed and returns the
/// prediction plus the per-layer skip rows it recorded. The install
/// guard also serializes golden tests against each other, so no test's
/// counters bleed into another's registry.
fn fast_with_layer_skips(
    engine: &Engine,
    input: &fbcnn_tensor::Tensor,
) -> (Prediction, Vec<GoldenLayerSkips>) {
    let registry = Arc::new(fast_bcnn::telemetry::Registry::new());
    let guard = fast_bcnn::telemetry::install(registry.clone());
    let (pred, _stats) = engine.predict_fast(input);
    drop(guard);
    let layers = fast_bcnn::TelemetryReport::from_registry(&registry)
        .layers
        .into_iter()
        .map(|r| GoldenLayerSkips {
            layer: r.layer,
            considered: r.considered,
            dropped: r.dropped,
            predicted: r.predicted,
            skipped: r.skipped,
        })
        .collect();
    (pred, layers)
}

const CASE_INPUT_SEEDS: [u64; 3] = [7, 21, 1013];
const BATCH_INPUT_SEEDS: [u64; 4] = [21, 22, 21, 23];

fn compute_case(engine: &Engine, cfg: &GoldenConfig, input_seed: u64) -> GoldenCase {
    let input = synth_input(engine.network().input_shape(), input_seed);
    let exact = engine.predict_exact(&input);
    let (fast, layer_skips) = fast_with_layer_skips(engine, &input);
    let (robust, report) = engine
        .predict_robust_seeded(&input, cfg.seed)
        .expect("robust path failed on a healthy engine");
    GoldenCase {
        input_seed,
        exact_class: exact.class,
        exact_mean_bits: bits(&exact.mean),
        fast_class: fast.class,
        fast_mean_bits: bits(&fast.mean),
        layer_skips,
        robust_mean_bits: bits(&robust.mean),
        robust_used_samples: report.used_samples,
    }
}

fn batch_requests(engine: &Engine) -> Vec<BatchRequest> {
    BATCH_INPUT_SEEDS
        .iter()
        .enumerate()
        .map(|(i, &s)| BatchRequest::new(i as u64, synth_input(engine.network().input_shape(), s)))
        .collect()
}

fn compute_batch_fixture(cfg: &GoldenConfig) -> GoldenBatchFixture {
    let engine = cfg.engine();
    let requests = batch_requests(&engine);
    let batch = BatchEngine::new(engine, BatchConfig::default());
    let report = batch.run_batch(&requests);
    let out = report
        .outcomes
        .iter()
        .zip(BATCH_INPUT_SEEDS)
        .map(|(o, input_seed)| {
            let (pred, _) = o.result.as_ref().expect("batched request failed");
            GoldenBatchRequest {
                id: o.id,
                input_seed,
                derived_seed: o.seed,
                mean_bits: bits(&pred.mean),
                class: pred.class,
            }
        })
        .collect();
    GoldenBatchFixture {
        config: cfg.clone(),
        requests: out,
    }
}

fn load<T: serde::de::DeserializeOwned>(name: &str) -> T {
    let path = golden_dir().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} — run the ignored `regenerate` test to create it: {e}",
            path.display()
        )
    });
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("malformed golden fixture {}: {e}", path.display()))
}

#[test]
fn golden_single_request_paths_are_bit_stable() {
    let fixture: GoldenFixture = load("lenet_t6.json");
    assert_eq!(
        fixture.config,
        GoldenConfig::pinned(),
        "fixture was generated under a different pinned config — regenerate"
    );
    let engine = fixture.config.engine();
    assert_eq!(fixture.cases.len(), CASE_INPUT_SEEDS.len());
    for expected in &fixture.cases {
        let actual = compute_case(&engine, &fixture.config, expected.input_seed);
        let tag = format!("input {}", expected.input_seed);
        assert_eq!(
            expected.exact_class, actual.exact_class,
            "{tag}: exact class"
        );
        assert_eq!(
            expected.exact_mean_bits, actual.exact_mean_bits,
            "{tag}: exact mean bit drift"
        );
        assert_eq!(expected.fast_class, actual.fast_class, "{tag}: fast class");
        assert_eq!(
            expected.fast_mean_bits, actual.fast_mean_bits,
            "{tag}: fast mean bit drift"
        );
        assert_eq!(
            expected.layer_skips, actual.layer_skips,
            "{tag}: per-layer skip counts drifted"
        );
        assert_eq!(
            expected.robust_mean_bits, actual.robust_mean_bits,
            "{tag}: robust mean bit drift"
        );
        assert_eq!(
            expected.robust_used_samples, actual.robust_used_samples,
            "{tag}: robust sample accounting drifted"
        );
    }
}

#[test]
fn golden_batch_results_are_bit_stable_and_match_sequential() {
    // Hold a private registry for the whole test: the install lock then
    // serializes it against the single-request test, whose per-layer
    // skip counts would otherwise pick up this test's batch traffic.
    let _guard = fast_bcnn::telemetry::install(Arc::new(fast_bcnn::telemetry::Registry::new()));
    let fixture: GoldenBatchFixture = load("batch_lenet_t6.json");
    assert_eq!(fixture.config, GoldenConfig::pinned(), "regenerate");
    let actual = compute_batch_fixture(&fixture.config);
    assert_eq!(fixture.requests.len(), actual.requests.len());
    let engine = fixture.config.engine();
    for (expected, got) in fixture.requests.iter().zip(&actual.requests) {
        let tag = format!("request {}", expected.id);
        assert_eq!(
            expected.derived_seed,
            derive_request_seed(fixture.config.seed, expected.id),
            "{tag}: seed derivation drifted"
        );
        assert_eq!(expected.derived_seed, got.derived_seed, "{tag}: seed");
        assert_eq!(expected.class, got.class, "{tag}: class");
        assert_eq!(
            expected.mean_bits, got.mean_bits,
            "{tag}: batch mean bit drift"
        );
        // The headline invariant, pinned from the fixture side too: the
        // batched bits equal a fresh sequential robust call's bits.
        let input = synth_input(engine.network().input_shape(), expected.input_seed);
        let (seq, _) = engine
            .predict_robust_seeded(&input, expected.derived_seed)
            .expect("sequential robust failed");
        assert_eq!(
            expected.mean_bits,
            bits(&seq.mean),
            "{tag}: batch fixture diverged from sequential predict_robust_seeded"
        );
    }
}

/// Rewrites both fixtures from current behavior. Ignored: run it only
/// after an intentional numerics change, then review and commit the
/// diff.
#[test]
#[ignore = "regenerates the golden fixtures; run explicitly after intentional numerics changes"]
fn regenerate() {
    let cfg = GoldenConfig::pinned();
    let engine = cfg.engine();
    let fixture = GoldenFixture {
        config: cfg.clone(),
        cases: CASE_INPUT_SEEDS
            .iter()
            .map(|&s| compute_case(&engine, &cfg, s))
            .collect(),
    };
    let batch = compute_batch_fixture(&cfg);
    std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    for (name, json) in [
        (
            "lenet_t6.json",
            serde_json::to_string_pretty(&fixture).expect("serialize"),
        ),
        (
            "batch_lenet_t6.json",
            serde_json::to_string_pretty(&batch).expect("serialize"),
        ),
    ] {
        let path = golden_dir().join(name);
        std::fs::write(&path, json + "\n").expect("write fixture");
        eprintln!("wrote {}", path.display());
    }
}
