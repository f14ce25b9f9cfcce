//! Artifact round-trip and fault-rejection suite.
//!
//! Three contracts, end to end through the public API:
//!
//! 1. **Round trip** — exporting an engine to a versioned artifact file
//!    and loading it back is bit-lossless: weights, thresholds and
//!    indicator maps compare equal, and the reloaded engine's
//!    `predict_robust_seeded` output is bit-identical to the original's.
//! 2. **Fault rejection** — every artifact fault class (payload bit
//!    flips, truncation, format-version skew, resealed shape-mismatched
//!    thresholds, grafted foreign weights) is refused with a typed
//!    [`ArtifactError`]; none may panic or yield a loadable-but-wrong
//!    model.
//! 3. **Format stability** — a fixture artifact committed under
//!    `tests/golden/` keeps loading, keeps its pinned digest, and its
//!    engine keeps producing the pinned probability bits. Regenerate
//!    after an intentional format or numerics change with
//!
//!    ```text
//!    cargo test --test artifact_roundtrip -- --ignored regenerate
//!    ```

use fast_bcnn::models::{ModelKind, ModelScale};
use fast_bcnn::{
    synth_input, ArtifactError, BatchRequest, Engine, EngineConfig, ModelArtifact, ModelRegistry,
    RegistryConfig,
};
use fbcnn_bench::harness::faults::{ArtifactFault, FaultInjector};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// A scratch path that cleans up after itself even on panic.
struct TempArtifact(PathBuf);

impl TempArtifact {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!("fbcnn_artifact_{tag}_{}.json", std::process::id())))
    }
}

impl Drop for TempArtifact {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn small_engine(seed: u64, samples: usize) -> Engine {
    Engine::new(EngineConfig {
        samples,
        calibration_samples: 2,
        seed,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    })
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

// ------------------------------------------------------------ round trip

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn export_load_round_trip_is_bit_lossless(
        seed in 0u64..1_000_000,
        samples in 2usize..5,
        input_seed in 0u64..1000,
    ) {
        let engine = small_engine(seed, samples);
        let artifact = ModelArtifact::from_engine(&engine, 3, format!("prop-{seed}"));
        let tmp = TempArtifact::new(&format!("prop_{seed}_{samples}"));
        artifact.save(&tmp.0).expect("save artifact");
        let loaded = ModelArtifact::load(&tmp.0).expect("reload artifact");

        // Field-for-field bit identity: Network/ThresholdSet/indicator
        // PartialEq compare every weight, threshold and bitmap word.
        prop_assert_eq!(&loaded.network, engine.network(), "weights drifted");
        prop_assert_eq!(&loaded.thresholds, engine.thresholds(), "thresholds drifted");
        prop_assert_eq!(&loaded, &artifact, "artifact drifted through the file");

        // Behavioral bit identity on the robust path.
        let input = synth_input(engine.network().input_shape(), input_seed);
        let (expect, expect_report) = engine
            .predict_robust_seeded(&input, seed ^ 0xF00D)
            .expect("original robust inference");
        let reloaded = loaded.into_engine().expect("loaded artifact builds an engine");
        let (got, got_report) = reloaded
            .predict_robust_seeded(&input, seed ^ 0xF00D)
            .expect("reloaded robust inference");
        prop_assert_eq!(bits(&expect.mean), bits(&got.mean), "mean bits diverged");
        prop_assert_eq!(expect.class, got.class);
        prop_assert_eq!(expect_report.used_samples, got_report.used_samples);
    }
}

#[test]
fn registry_boots_from_a_reloaded_artifact_and_serves_identically() {
    let engine = small_engine(0xA11CE, 3);
    let tmp = TempArtifact::new("registry_boot");
    ModelArtifact::from_engine(&engine, 1, "registry-boot")
        .save(&tmp.0)
        .expect("save artifact");
    let artifact = ModelArtifact::load(&tmp.0).expect("reload artifact");
    let shape = artifact.network.input_shape();
    let registry = ModelRegistry::new(
        artifact,
        RegistryConfig {
            shards: 2,
            ..RegistryConfig::default()
        },
    )
    .expect("boot registry");

    let requests: Vec<BatchRequest> = (0..10)
        .map(|i| BatchRequest::new(i, synth_input(shape, 100 + i)))
        .collect();
    let report = registry.run_batch(&requests);
    report.reconcile().expect("accounting reconciles");
    for o in &report.outcomes {
        let (pred, _) = o.outcome.outcome.result.as_ref().expect("request served");
        let input = synth_input(shape, 100 + o.outcome.outcome.id);
        let (expect, _) = engine
            .predict_robust_seeded(&input, o.outcome.outcome.seed)
            .expect("reference inference");
        assert_eq!(
            bits(&expect.mean),
            bits(&pred.mean),
            "request {}: registry served different bits than the exporter",
            o.outcome.outcome.id
        );
    }
}

// -------------------------------------------------------- fault campaign

#[test]
fn every_byte_level_fault_class_is_rejected_typed_across_seeds() {
    let engine = small_engine(0xBAD5EED, 2);
    let artifact = ModelArtifact::from_engine(&engine, 1, "fault-campaign");
    for seed in 0..16u64 {
        for fault in [
            ArtifactFault::PayloadBitFlip,
            ArtifactFault::Truncate,
            ArtifactFault::VersionSkew,
        ] {
            let tmp = TempArtifact::new(&format!("fault_{seed}_{fault:?}"));
            artifact.save(&tmp.0).expect("save pristine artifact");
            FaultInjector::new(seed)
                .corrupt_artifact_file(&tmp.0, fault)
                .expect("damage the file");
            // The whole point: a damaged file is a typed refusal, never a
            // panic and never a silently-wrong model.
            match ModelArtifact::load(&tmp.0) {
                Err(ArtifactError::Io(_))
                | Err(ArtifactError::Digest { .. })
                | Err(ArtifactError::Config(_))
                | Err(ArtifactError::Thresholds(_))
                | Err(ArtifactError::IndicatorMismatch { .. })
                | Err(ArtifactError::Numeric(_)) => {}
                Err(ArtifactError::StaleVersion { .. }) => {
                    panic!("seed {seed} {fault:?}: stale-version is a deploy-time error")
                }
                Ok(_) => panic!("seed {seed} {fault:?}: damaged artifact loaded cleanly"),
            }
        }
    }
}

#[test]
fn resealed_shape_mismatched_thresholds_are_refused() {
    // An honest digest over dishonest thresholds: only the structural
    // screen can catch this one.
    let engine = small_engine(0x7001, 2);
    for seed in 0..8u64 {
        let mut artifact = ModelArtifact::from_engine(&engine, 1, "resealed");
        FaultInjector::new(seed).mismatch_artifact_thresholds(&mut artifact);
        match artifact.validate() {
            Err(ArtifactError::Thresholds(_)) => {}
            other => panic!("seed {seed}: want a typed threshold refusal, got {other:?}"),
        }
        // And the file path refuses it too.
        let tmp = TempArtifact::new(&format!("resealed_{seed}"));
        artifact.save(&tmp.0).expect("save mismatched artifact");
        assert!(
            matches!(
                ModelArtifact::load(&tmp.0),
                Err(ArtifactError::Thresholds(_))
            ),
            "seed {seed}: mismatched thresholds loaded from disk"
        );
    }
}

#[test]
fn grafted_foreign_weights_are_refused() {
    // Weights from a different topology with the original thresholds: the
    // thresholds no longer address the kernels they claim to gate.
    let engine = small_engine(0x9AF7, 2);
    let donor = ModelKind::AlexNet.build_scaled(0x9AF7, ModelScale::BENCH);
    let mut artifact = ModelArtifact::from_engine(&engine, 1, "grafted");
    FaultInjector::new(1).graft_artifact_network(&mut artifact, &donor);
    match artifact.validate() {
        Err(
            ArtifactError::Thresholds(_)
            | ArtifactError::IndicatorMismatch { .. }
            | ArtifactError::Config(_),
        ) => {}
        other => panic!("want a typed mixed-model refusal, got {other:?}"),
    }
}

#[test]
fn stale_versions_are_refused_at_deploy_time() {
    let engine = small_engine(0x57A1E, 2);
    let registry = ModelRegistry::new(
        ModelArtifact::from_engine(&engine, 5, "active-v5"),
        RegistryConfig::default(),
    )
    .expect("boot registry");
    let stale = ModelArtifact::from_engine(&engine, 5, "stale-v5");
    match registry.deploy(stale) {
        Err(ArtifactError::StaleVersion { offered, active }) => {
            assert_eq!((offered, active), (5, 5));
        }
        other => panic!("want StaleVersion, got {other:?}"),
    }
}

// ------------------------------------------------------ format stability

/// Pinned expectations for the committed fixture artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenArtifactExpect {
    model_version: u64,
    label: String,
    /// Content digest, hex (readable in fixture diffs).
    digest_hex: String,
    input_seed: u64,
    robust_seed: u64,
    class: usize,
    /// `predict_robust_seeded` mean probabilities, f32 bit patterns.
    robust_mean_bits: Vec<u32>,
    used_samples: usize,
}

const GOLDEN_ARTIFACT: &str = "artifact_lenet_t4.json";
const GOLDEN_EXPECT: &str = "artifact_lenet_t4_expect.json";

fn golden_engine() -> Engine {
    Engine::new(EngineConfig {
        samples: 4,
        calibration_samples: 3,
        seed: 0xFB_A7,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    })
}

#[test]
fn golden_artifact_still_loads_and_reproduces_pinned_bits() {
    let expect_path = golden_dir().join(GOLDEN_EXPECT);
    let expect: GoldenArtifactExpect =
        serde_json::from_str(&std::fs::read_to_string(&expect_path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} — run the ignored `regenerate` test: {e}",
                expect_path.display()
            )
        }))
        .expect("malformed expectation fixture");

    let artifact = ModelArtifact::load(golden_dir().join(GOLDEN_ARTIFACT)).unwrap_or_else(|e| {
        panic!("committed artifact no longer loads — format compatibility broke: {e}")
    });
    assert_eq!(artifact.model_version, expect.model_version);
    assert_eq!(artifact.label, expect.label);
    assert_eq!(
        format!("{:016x}", artifact.digest),
        expect.digest_hex,
        "artifact content digest drifted"
    );

    let engine = artifact.into_engine().expect("fixture builds an engine");
    let input = synth_input(engine.network().input_shape(), expect.input_seed);
    let (pred, report) = engine
        .predict_robust_seeded(&input, expect.robust_seed)
        .expect("fixture engine serves");
    assert_eq!(pred.class, expect.class, "pinned class drifted");
    assert_eq!(
        bits(&pred.mean),
        expect.robust_mean_bits,
        "pinned probability bits drifted"
    );
    assert_eq!(report.used_samples, expect.used_samples);
}

/// Rewrites the fixture artifact and its expectations from current
/// behavior. Ignored: run only after an intentional format or numerics
/// change, then review and commit the diff.
#[test]
#[ignore = "regenerates the golden artifact fixture; run explicitly after intentional changes"]
fn regenerate() {
    let engine = golden_engine();
    let artifact = ModelArtifact::from_engine(&engine, 7, "golden-lenet-t4");
    let input_seed = 42u64;
    let robust_seed = 0xFB_C0DE ^ 7;
    let input = synth_input(engine.network().input_shape(), input_seed);
    let (pred, report) = engine
        .predict_robust_seeded(&input, robust_seed)
        .expect("golden engine serves");
    let expect = GoldenArtifactExpect {
        model_version: artifact.model_version,
        label: artifact.label.clone(),
        digest_hex: format!("{:016x}", artifact.digest),
        input_seed,
        robust_seed,
        class: pred.class,
        robust_mean_bits: bits(&pred.mean),
        used_samples: report.used_samples,
    };
    std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    artifact
        .save(golden_dir().join(GOLDEN_ARTIFACT))
        .expect("write fixture artifact");
    std::fs::write(
        golden_dir().join(GOLDEN_EXPECT),
        serde_json::to_string_pretty(&expect).expect("serialize") + "\n",
    )
    .expect("write expectation fixture");
    eprintln!("wrote {GOLDEN_ARTIFACT} and {GOLDEN_EXPECT}");
}
