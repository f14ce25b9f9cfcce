#![warn(missing_docs)]
// Robustness contract: library code must degrade or report, never abort.
// CI denies these in the lib target; unit tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Fast-BCNN — massive neuron skipping in Bayesian convolutional neural
//! networks.
//!
//! This crate is the facade of the reproduction workspace: it ties the
//! CNN substrate (`fbcnn-nn`), the Bayesian machinery (`fbcnn-bayes`),
//! the unaffected-neuron predictor (`fbcnn-predictor`) and the
//! accelerator models (`fbcnn-accel`) into a single [`Engine`] API, and
//! hosts the [`experiments`] drivers that regenerate every table and
//! figure of the paper's evaluation (see `EXPERIMENTS.md`).
//!
//! # Quickstart
//!
//! ```
//! use fast_bcnn::{Engine, EngineConfig};
//! use fbcnn_nn::models::ModelKind;
//!
//! let engine = Engine::new(EngineConfig {
//!     samples: 8,
//!     ..EngineConfig::for_model(ModelKind::LeNet5)
//! });
//! let input = fast_bcnn::synth_input(engine.network().input_shape(), 1);
//! let (prediction, stats) = engine.predict_fast(&input);
//! assert_eq!(prediction.mean.len(), 10);
//! assert!(stats.skip_rate() > 0.0);
//! ```

mod artifact;
mod batch;
mod engine;
mod error;
pub mod experiments;
mod flight;
pub mod io;
pub mod ledger;
mod registry;
pub mod report;
mod resilience;
pub mod serve;
pub mod supervise;
mod telemetry_report;

pub use artifact::{ArtifactError, ModelArtifact};
pub use batch::{BatchConfig, BatchEngine, BatchOutcome, BatchReport, BatchRequest};
pub use engine::{synth_input, DegradedMode, Engine, EngineConfig, RobustConfig, RobustReport};
pub use error::{EngineError, InferenceError};
pub use flight::{
    FlightLog, FlightRecord, FlightRecorder, DEFAULT_FAILED_CAPACITY, DEFAULT_RING_CAPACITY,
};
pub use ledger::{Ledger, LedgerRow};
pub use registry::{
    ModelRegistry, RegistryConfig, RegistryOutcome, RegistryReport, RolloutStatus,
    SupervisorHandle, VersionCounters,
};
pub use resilience::{
    error_reason_name, retry_class, BreakerConfig, BreakerState, CircuitBreaker, Jitter, NoJitter,
    PathDecision, RequestClass, RequestSampleHook, ResilienceConfig, ResilienceTotals,
    ResilientBatchEngine, ResilientBatchReport, ResilientOutcome, RetryClass, RetryPolicy,
    RunControl, SampleHook, SeededJitter, ShedPolicy,
};
pub use supervise::{
    failover_route, shard_route, HealthTransition, OutcomeSignal, RouteDecision, ShardHealth,
    ShardLedger, SuperviseConfig, SuperviseSnapshot, Supervisor, SupervisorGate,
};
pub use telemetry_report::{LayerSkipRow, SpanQuantileRow, TelemetryReport};

/// The workspace telemetry layer (spans, counters, histograms, exporters)
/// re-exported under the facade, so binaries and tests need only one
/// dependency to install a recorder.
pub use fbcnn_telemetry as telemetry;

// Re-export the workspace's main types so downstream users need only one
// dependency.
pub use fbcnn_accel::{
    BaselineSim, CnvlutinSim, EnergyBreakdown, EnergyModel, FastBcnnSim, HwConfig, IdealSim,
    RunReport, SkipMode, Workload,
};
pub use fbcnn_bayes::{
    BayesError, BayesianNetwork, Brng, CancelToken, IsolatedRun, Lfsr32, McDropout, McRequest,
    Prediction, SoftwareBernoulli,
};
pub use fbcnn_nn::{models, ActivationGuard, GuardPolicy, Network, NumericFault};
pub use fbcnn_predictor::{
    evaluate_predictions, EvalReport, PolarityIndicators, PredictiveInference, PredictorError,
    SkipStats, ThresholdError, ThresholdOptimizer, ThresholdSet,
};
pub use fbcnn_tensor::{BitMask, Shape, Tensor};
