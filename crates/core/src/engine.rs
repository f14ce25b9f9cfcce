use crate::error::{EngineError, InferenceError};
use crate::resilience::RunControl;
use fbcnn_accel::{RunReport, Workload};
use fbcnn_bayes::{BayesianNetwork, DropoutMasks, McDropout, McRequest, Prediction};
use fbcnn_nn::models::{ModelKind, ModelScale};
use fbcnn_nn::{ActivationGuard, GuardPolicy, Network, Workspace};
use fbcnn_predictor::{
    PredictiveInference, PredictorShared, PreparedInput, SkipStats, ThresholdOptimizer,
    ThresholdSet,
};
use fbcnn_tensor::{hash::mix64, stats, Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Configuration of a Fast-BCNN [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Which network topology to build.
    pub model: ModelKind,
    /// Width/resolution scaling (see `fbcnn_nn::models::ModelScale`).
    pub scale: ModelScale,
    /// Bernoulli drop rate `p` (paper default 0.3).
    pub drop_rate: f64,
    /// MC-dropout sample count `T` (paper: 50).
    pub samples: usize,
    /// Confidence level `p_cf` for Algorithm 1 (paper operating point:
    /// 0.68).
    pub confidence: f64,
    /// Sample budget of the offline threshold calibration.
    pub calibration_samples: usize,
    /// Master seed for weights, masks and calibration.
    pub seed: u64,
    /// Worker threads for exact MC-dropout passes (1 = sequential;
    /// results are identical either way).
    pub threads: usize,
    /// Per-request wall-clock deadline in milliseconds for resilient
    /// serving (`None` = no deadline). An expired request returns its
    /// partial-T mean flagged [`DegradedMode::PartialSamples`]; see
    /// `docs/RESILIENCE.md`.
    pub deadline_ms: Option<u64>,
    /// Maximum retry attempts (beyond the first) for typed-transient
    /// failures in resilient serving.
    pub retry_max: u32,
    /// Fast-path circuit-breaker trip threshold: the sliding-window
    /// error rate above which the breaker opens, in (0, 1].
    pub breaker_threshold: f64,
}

impl EngineConfig {
    /// The paper's defaults for a model, at [`ModelScale::BENCH`] scale
    /// (LeNet-5 always runs full size).
    pub fn for_model(model: ModelKind) -> Self {
        Self {
            model,
            scale: ModelScale::BENCH,
            drop_rate: 0.3,
            samples: 50,
            confidence: 0.68,
            calibration_samples: 8,
            seed: 0xFB_C0DE,
            threads: 1,
            deadline_ms: None,
            retry_max: 2,
            breaker_threshold: 0.5,
        }
    }
}

impl EngineConfig {
    /// Checks every field against its legal range.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), EngineError> {
        let fail = |reason: String| Err(EngineError::InvalidConfig { reason });
        if self.samples == 0 {
            return fail("samples must be > 0".into());
        }
        if self.calibration_samples == 0 {
            return fail("calibration_samples must be > 0".into());
        }
        if self.threads == 0 {
            return fail("threads must be > 0".into());
        }
        if !(0.0..1.0).contains(&self.drop_rate) {
            return fail(format!("drop_rate {} out of [0, 1)", self.drop_rate));
        }
        if !(self.confidence > 0.0 && self.confidence <= 1.0) {
            return fail(format!("confidence {} out of (0, 1]", self.confidence));
        }
        if self.deadline_ms == Some(0) {
            return fail("deadline_ms must be > 0 when set".into());
        }
        if !(self.breaker_threshold > 0.0 && self.breaker_threshold <= 1.0) {
            return fail(format!(
                "breaker_threshold {} out of (0, 1]",
                self.breaker_threshold
            ));
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::for_model(ModelKind::LeNet5)
    }
}

/// Knobs of [`Engine::predict_robust_controlled`]'s anomaly detection
/// and graceful degradation; the defaults suit the workspace models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// Activation health check applied to the pre-inference and to exact
    /// fallback passes. The policy decides what a numeric fault does:
    /// [`GuardPolicy::Fail`] turns it into a typed error,
    /// [`GuardPolicy::Saturate`] repairs it in place, and the default
    /// [`GuardPolicy::FallbackExact`] abandons the sample's fast path.
    pub guard: ActivationGuard,
    /// Largest tolerated L1 distance between the canary sample's fast
    /// and exact probability rows. Beyond it the calibrated thresholds
    /// are considered untrustworthy (value-level poisoning slips past
    /// structural validation) and the whole run degrades to exact.
    pub canary_tolerance: f32,
    /// Per-sample skip-rate ceiling. A skipping pass above it is
    /// anomalous — saturated thresholds skip essentially everything —
    /// and falls back to exact for that sample.
    pub max_skip_rate: f64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        Self {
            guard: ActivationGuard::default(),
            canary_tolerance: 0.5,
            max_skip_rate: 0.98,
        }
    }
}

/// Samples always taken before the early-exit test may trigger.
const EARLY_EXIT_MIN_SAMPLES: usize = 8;
/// L∞ movement of the running predictive mean below which a sample
/// counts as converged.
const EARLY_EXIT_MEAN_TOLERANCE: f32 = 5e-4;
/// Consecutive converged samples required to exit early.
const EARLY_EXIT_PATIENCE: usize = 3;

/// How much of a [`Engine::predict_robust_controlled`] run ran degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Every sample came from the fast skipping path.
    Healthy,
    /// Some samples fell back to the exact path (or were lost).
    PartialFallback,
    /// The canary tripped: the entire run used the exact path.
    FullFallback,
    /// The sample budget was cut short by a deadline/cancellation or an
    /// admission-control sample cap: the prediction is a valid partial-T
    /// mean over fewer samples than configured (never silently — this
    /// flag and [`RobustReport::used_samples`] say exactly how many).
    PartialSamples,
}

impl DegradedMode {
    /// Stable lowercase mode name — the `mode` telemetry label.
    pub fn name(&self) -> &'static str {
        match self {
            DegradedMode::Healthy => "healthy",
            DegradedMode::PartialFallback => "partial_fallback",
            DegradedMode::FullFallback => "full_fallback",
            DegradedMode::PartialSamples => "partial_samples",
        }
    }
}

/// What [`Engine::predict_robust_controlled`] did to produce its prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReport {
    /// Samples the configuration asked for.
    pub requested_samples: usize,
    /// Samples that contributed to the prediction.
    pub used_samples: usize,
    /// Samples recomputed on the exact path.
    pub fallback_samples: usize,
    /// Samples lost entirely (both paths failed).
    pub lost_samples: usize,
    /// Values repaired in place by a [`GuardPolicy::Saturate`] guard.
    pub repaired_values: usize,
    /// Whether the sample budget was cut short by mean convergence.
    pub early_exit: bool,
    /// Whether a deadline/cancellation expired the run before its full
    /// sample budget (the prediction is then a partial-T mean).
    pub expired: bool,
    /// The overall degradation verdict.
    pub mode: DegradedMode,
    /// Aggregate skip statistics over the fast-path samples.
    pub skip: SkipStats,
}

/// The end-to-end Fast-BCNN engine: a Bayesian network plus offline
/// threshold calibration, exposing exact and skipping MC-dropout
/// inference and workload extraction for the accelerator models.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: EngineConfig,
    bnet: BayesianNetwork,
    thresholds: ThresholdSet,
    /// The skipping predictor's input-invariant state, built on first
    /// use and dropped by every `&mut` accessor that could stale it.
    shared: OnceLock<Arc<PredictorShared>>,
}

impl Engine {
    /// Builds the model and calibrates thresholds on a synthetic
    /// optimization input (Algorithm 1's offline stage).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; [`Engine::try_new`] is the
    /// non-panicking form.
    pub fn new(cfg: EngineConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(engine) => engine,
            Err(e) => panic!("engine construction failed: {e}"),
        }
    }

    /// Fallible counterpart of [`Engine::new`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when a configuration field
    /// is outside its legal range.
    pub fn try_new(cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        let net = cfg.model.build_scaled(cfg.seed, cfg.scale);
        let calibration_input = synth_input(net.input_shape(), cfg.seed ^ 0xCA11B);
        Self::with_network_and_dataset(net, cfg, &[calibration_input])
    }

    /// Wraps a caller-provided network (e.g. a trained LeNet-5) and
    /// calibrates thresholds on a synthetic optimization input.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn with_network(net: Network, cfg: EngineConfig) -> Self {
        let calibration_input = synth_input(net.input_shape(), cfg.seed ^ 0xCA11B);
        match Self::with_network_and_dataset(net, cfg, &[calibration_input]) {
            Ok(engine) => engine,
            Err(e) => panic!("engine construction failed: {e}"),
        }
    }

    /// Wraps a caller-provided network and calibrates thresholds on an
    /// explicit optimization dataset (Algorithm 1's `D`) — e.g. a slice
    /// of held-out training images.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyDataset`] when `dataset` is empty and
    /// [`EngineError::InvalidConfig`] when the configuration is out of
    /// range.
    pub fn with_network_and_dataset(
        net: Network,
        cfg: EngineConfig,
        dataset: &[Tensor],
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        if dataset.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let bnet = BayesianNetwork::new(net, cfg.drop_rate);
        let optimizer = ThresholdOptimizer {
            samples: cfg.calibration_samples,
            confidence: cfg.confidence,
            ..ThresholdOptimizer::default()
        };
        let thresholds = optimizer.optimize_batch(&bnet, dataset, cfg.seed ^ 0x7E57);
        Ok(Self {
            cfg,
            bnet,
            thresholds,
            shared: OnceLock::new(),
        })
    }

    /// Wraps a caller-provided network together with an already
    /// calibrated threshold set — the deserialization path for model
    /// artifacts ([`crate::ModelArtifact`]), which must not re-run
    /// Algorithm 1: recalibrating would silently change the thresholds
    /// the artifact pinned, breaking bit-identity with the exporter.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when the configuration is
    /// out of range or the thresholds do not fit the network's graph.
    pub fn from_calibrated(
        cfg: EngineConfig,
        net: Network,
        thresholds: ThresholdSet,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        let bnet = BayesianNetwork::new(net, cfg.drop_rate);
        if let Err(e) = thresholds.validate(bnet.network()) {
            return Err(EngineError::InvalidConfig {
                reason: format!("thresholds do not fit the network: {e}"),
            });
        }
        Ok(Self {
            cfg,
            bnet,
            thresholds,
            shared: OnceLock::new(),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The wrapped Bayesian network.
    pub fn bayesian_network(&self) -> &BayesianNetwork {
        &self.bnet
    }

    /// The underlying network graph.
    pub fn network(&self) -> &Network {
        self.bnet.network()
    }

    /// The calibrated per-kernel thresholds.
    pub fn thresholds(&self) -> &ThresholdSet {
        &self.thresholds
    }

    /// Mutable access to the calibrated thresholds — the injection point
    /// for fault campaigns (`fbcnn_bench::harness::faults`) and manual
    /// overrides. A structurally damaged set surfaces as a typed
    /// [`InferenceError::Thresholds`] from
    /// [`Engine::predict_robust_controlled`]. Drops the cached predictor
    /// state; the next skipping request rebuilds it.
    pub fn thresholds_mut(&mut self) -> &mut ThresholdSet {
        self.shared = OnceLock::new();
        &mut self.thresholds
    }

    /// Mutable access to the wrapped Bayesian network (weight fault
    /// injection; graph structure must not change). Drops the cached
    /// predictor state, whose indicators were profiled from the weights.
    pub fn bayesian_network_mut(&mut self) -> &mut BayesianNetwork {
        self.shared = OnceLock::new();
        &mut self.bnet
    }

    /// Exact MC-dropout inference (`T` dense stochastic passes): one
    /// request of [`McDropout::run_batch`] over `EngineConfig::threads`
    /// workers (one thread runs on the caller's thread).
    ///
    /// # Panics
    ///
    /// Panics if `input` does not fit the network or a sample is lost
    /// (see [`McDropout::expect_complete`]).
    pub fn predict_exact(&self, input: &Tensor) -> Prediction {
        let _span = fbcnn_telemetry::span("predict_exact");
        let request = McRequest {
            input,
            seed: self.cfg.seed,
        };
        McDropout::expect_complete(McDropout::new(self.cfg.samples, self.cfg.seed).run_batch(
            &self.bnet,
            &[request],
            self.cfg.threads,
        ))
    }

    /// Skipping MC-dropout inference: one pre-inference plus `T` skipping
    /// passes, using the calibrated thresholds. Returns the prediction
    /// and the aggregate skip statistics.
    pub fn predict_fast(&self, input: &Tensor) -> (Prediction, SkipStats) {
        let _span = fbcnn_telemetry::span("predict_fast");
        let (probs, skip) = self
            .predictor(input)
            .run_mc(self.cfg.seed, self.cfg.samples);
        (McDropout::summarize(probs), skip)
    }

    /// [`Engine::predict_robust_controlled`] with the default
    /// [`RobustConfig`] and no run control.
    ///
    /// # Errors
    ///
    /// See [`Engine::predict_robust_controlled`].
    pub fn predict_robust_seeded(
        &self,
        input: &Tensor,
        seed: u64,
    ) -> Result<(Prediction, RobustReport), InferenceError> {
        self.predict_robust_controlled(input, seed, &RobustConfig::default(), &RunControl::none())
    }

    /// Guarded, gracefully-degrading inference: runs the fast skipping
    /// path wherever it is healthy and falls back — per sample or, when
    /// the thresholds themselves are suspect, wholesale — to the exact
    /// path, so that a fault degrades throughput instead of correctness.
    /// `seed` is the request's mask seed (sample `t` draws
    /// `generate_masks(seed, t)`), `rc` the robustness knobs, and `ctl`
    /// the resilience layer's run control: a deadline/cancellation token,
    /// a sample cap, a forced exact path or a per-sample hook.
    /// [`RunControl::none`] leaves the run uncontrolled.
    ///
    /// The run proceeds in stages:
    ///
    /// 1. **Structural validation** — input shape and
    ///    [`ThresholdSet::validate`]; violations are typed errors.
    /// 2. **Pre-inference screening** — the dropout-free pass is checked
    ///    by the guard. A fault here means the *weights* are corrupt;
    ///    no healthy path exists, so it is always a typed error. The
    ///    predictor's input-invariant state is the engine's cached one
    ///    ([`Engine::predictor_shared`]), not rebuilt per request.
    /// 3. **Canary** — sample 0 runs through both paths; a large
    ///    probability divergence (value-poisoned thresholds) degrades
    ///    the whole run to exact ([`DegradedMode::FullFallback`]).
    ///    Otherwise the canary's skipping run *is* sample 0's fast
    ///    attempt: it is not run again.
    /// 4. **Per-sample guards** — each fast sample is panic-isolated and
    ///    its skip rate and probability row sanity-checked; anomalous
    ///    samples are recomputed exactly under the guard.
    /// 5. **Early exit** — once at least 8 rows are in and the running
    ///    predictive mean has moved less than 5·10⁻⁴ (L∞) for 3 rows in
    ///    a row, the remaining sample budget is skipped.
    ///
    /// # Errors
    ///
    /// [`InferenceError::Input`] / [`InferenceError::Thresholds`] on
    /// structural violations, [`InferenceError::Numeric`] on corrupt
    /// weights (or any fault under [`GuardPolicy::Fail`]),
    /// [`InferenceError::AllSamplesFailed`] when no sample survives on
    /// either path, and [`InferenceError::Expired`] when the token
    /// expires before even one sample completes.
    pub fn predict_robust_controlled(
        &self,
        input: &Tensor,
        seed: u64,
        rc: &RobustConfig,
        ctl: &RunControl,
    ) -> Result<(Prediction, RobustReport), InferenceError> {
        let _span = fbcnn_telemetry::span("predict_robust");
        self.check_request(input)?;
        let mut ws = Workspace::new();
        self.robust_core(&self.predictor(input), input, seed, rc, &mut ws, ctl)
    }

    /// Stage 1 of the robust pipeline, and the one validation point of
    /// every robust route: the input must fit the network and the
    /// thresholds must fit its graph.
    pub(crate) fn check_request(&self, input: &Tensor) -> Result<(), InferenceError> {
        let net = self.network();
        net.check_input(input)?;
        self.thresholds.validate(net)?;
        Ok(())
    }

    /// The cached input-invariant half of the skipping predictor
    /// (thresholds, indicator maps, structural flags), built on first
    /// use and dropped by [`Engine::thresholds_mut`] and
    /// [`Engine::bayesian_network_mut`].
    pub(crate) fn shared(&self) -> Arc<PredictorShared> {
        let build = || Arc::new(PredictorShared::new(&self.bnet, self.thresholds.clone()));
        Arc::clone(self.shared.get_or_init(build))
    }

    /// A copy of the cached predictor state (see
    /// [`Engine::predict_robust_controlled`]'s stage 2).
    pub fn predictor_shared(&self) -> PredictorShared {
        PredictorShared::clone(&self.shared())
    }

    /// The skipping predictor for `input` over the cached shared state.
    pub(crate) fn predictor(&self, input: &Tensor) -> PredictiveInference<'_> {
        let prepared = Arc::new(PreparedInput::new(&self.bnet, input));
        PredictiveInference::from_parts(&self.bnet, self.shared(), prepared)
    }

    /// The staged robust pipeline (pre-inference screening → canary →
    /// guarded per-sample loop → early exit), operating on an already
    /// validated input and a skipping predictor over
    /// [`Engine::shared`].
    ///
    /// This is the single implementation behind both the one-shot
    /// [`Engine::predict_robust_controlled`] and the batched
    /// [`crate::BatchEngine`]: because both routes execute this exact
    /// code with the same `(input, seed, rc)` and the engine's one cached
    /// predictor state, a batched request is bit-identical to its
    /// sequential counterpart by construction.
    /// `ws` is caller-provided scratch (a serving layer pools it);
    /// workspace reuse does not change results. `ctl`'s token is checked
    /// at every sample boundary, its sample cap implements
    /// admission-control degradation, its forced exact path an open
    /// circuit breaker and its hook latency-fault injection.
    pub(crate) fn robust_core(
        &self,
        fast: &PredictiveInference<'_>,
        input: &Tensor,
        seed: u64,
        rc: &RobustConfig,
        ws: &mut Workspace,
        ctl: &RunControl,
    ) -> Result<(Prediction, RobustReport), InferenceError> {
        if ctl.cancel.expired() {
            // Already expired on arrival: refuse before spending any work.
            fbcnn_telemetry::counter_add("deadline_expired", &[("outcome", "empty")], 1);
            return Err(InferenceError::Expired {
                samples_completed: 0,
            });
        }
        for (node, act) in fast.pre_inference().activations.iter().enumerate() {
            if let Some(fault) = rc.guard.find_fault(node, act) {
                // Both paths share these weights: nothing to fall back to.
                fbcnn_telemetry::counter_add(
                    "engine_preinference_faults",
                    &[("kind", fault.kind())],
                    1,
                );
                return Err(InferenceError::Numeric(fault));
            }
        }

        let configured = self.cfg.samples;
        // An admission-control cap (DegradeToFewerSamples) shrinks the
        // sample budget but never below one; the report still carries the
        // configured ask so the degradation is visible.
        let requested = ctl
            .max_samples
            .map_or(configured, |cap| cap.clamp(1, configured));
        let capped = requested < configured;

        // One fast attempt at sample `s`: the hook fires once per
        // attempt, inside the same panic isolation as the skipping pass.
        let fast_attempt = |s: usize, masks: &DropoutMasks| {
            catch_unwind(AssertUnwindSafe(|| {
                ctl.fire_sample_hook(s);
                fast.run_sample(masks)
            }))
            .ok()
        };

        // Canary: run sample 0 through both paths. The exact row is the
        // reference; a fast row that diverges beyond tolerance (or a fast
        // attempt that panics) means the thresholds are structurally fine
        // but semantically poisoned. The fast run is sample 0's attempt,
        // handed to the loop below. An open circuit breaker
        // (`force_exact`) skips the canary — the verdict is already in.
        let mut full_fallback = ctl.force_exact;
        let masks = self.bnet.generate_masks(seed, 0);
        let mut canary_run = None;
        if !ctl.force_exact {
            let exact_probs = stats::softmax(self.bnet.forward_sample(input, &masks).logits());
            canary_run = fast_attempt(0, &masks);
            if ActivationGuard::probs_are_sane(&exact_probs) {
                full_fallback = canary_run.as_ref().is_none_or(|run| {
                    let fast_probs = stats::softmax(run.logits());
                    let l1: f32 = exact_probs
                        .iter()
                        .zip(&fast_probs)
                        .map(|(a, b)| (a - b).abs())
                        .sum();
                    !ActivationGuard::probs_are_sane(&fast_probs) || l1 > rc.canary_tolerance
                });
            }
            if full_fallback {
                fbcnn_telemetry::counter_add("engine_canary_trips", &[], 1);
                canary_run = None;
            }
        }
        let mut sample0 = Some((masks, canary_run));

        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(requested);
        let mut running_sum: Vec<f32> = Vec::new();
        let mut fallback_samples = 0usize;
        let mut lost_samples = 0usize;
        let mut repaired_values = 0usize;
        let mut skip = SkipStats::default();
        let mut early_exit = false;
        let mut expired = false;
        let mut stable = 0usize;

        for s in 0..requested {
            if ctl.cancel.checkpoint() {
                // Deadline/cancellation at a sample boundary: the rows
                // already collected form a valid partial-T mean.
                expired = true;
                break;
            }
            let (masks, run) = sample0.take().unwrap_or_else(|| {
                let masks = self.bnet.generate_masks(seed, s);
                let run = (!full_fallback).then(|| fast_attempt(s, &masks)).flatten();
                (masks, run)
            });
            let mut row: Option<Vec<f32>> = None;

            if let Some(run) = run {
                let sample_stats = run.stats();
                let probs = stats::softmax(run.logits());
                if ActivationGuard::probs_are_sane(&probs)
                    && sample_stats.skip_rate() <= rc.max_skip_rate
                {
                    skip.absorb(sample_stats);
                    row = Some(probs);
                }
            }

            if row.is_none() {
                fallback_samples += 1;
                fbcnn_telemetry::counter_add("engine_fallback_samples", &[], 1);
                // The exact fallback runs under the same panic isolation
                // as the fast attempt: a hook or library panic here is a
                // contained lost sample, never an aborted request.
                let fallback = catch_unwind(AssertUnwindSafe(|| {
                    // The hook fires once per execution attempt (fast and
                    // fallback alike): a panicking hook therefore kills
                    // both paths and the sample is a contained loss.
                    ctl.fire_sample_hook(s);
                    self.bnet
                        .forward_sample_checked(input, &masks, &mut *ws, &rc.guard)
                }));
                match fallback {
                    Ok(Ok((run, repaired))) => {
                        repaired_values += repaired;
                        if repaired > 0 {
                            fbcnn_telemetry::counter_add(
                                "engine_repaired_values",
                                &[],
                                repaired as u64,
                            );
                        }
                        let probs = stats::softmax(run.logits());
                        if ActivationGuard::probs_are_sane(&probs) {
                            row = Some(probs);
                        } else {
                            lost_samples += 1;
                            fbcnn_telemetry::counter_add("engine_lost_samples", &[], 1);
                        }
                    }
                    Ok(Err(e)) => {
                        if rc.guard.policy == GuardPolicy::Fail {
                            return Err(e.into());
                        }
                        lost_samples += 1;
                        fbcnn_telemetry::counter_add("engine_lost_samples", &[], 1);
                    }
                    Err(_) => {
                        // The panic may have torn the scratch buffers;
                        // start the next sample clean.
                        *ws = Workspace::new();
                        lost_samples += 1;
                        fbcnn_telemetry::counter_add("engine_lost_samples", &[], 1);
                    }
                }
            }

            if let Some(probs) = row {
                if running_sum.is_empty() {
                    running_sum = vec![0.0; probs.len()];
                }
                // L∞ movement the new row causes in the running mean.
                let n = rows.len() as f32;
                let mut shift = f32::INFINITY;
                if !rows.is_empty() && running_sum.len() == probs.len() {
                    shift = 0.0;
                    for (i, &p) in probs.iter().enumerate() {
                        let old = running_sum[i] / n;
                        let new = (running_sum[i] + p) / (n + 1.0);
                        shift = shift.max((new - old).abs());
                    }
                }
                for (acc, &p) in running_sum.iter_mut().zip(&probs) {
                    *acc += p;
                }
                rows.push(probs);
                stable = if shift < EARLY_EXIT_MEAN_TOLERANCE {
                    stable + 1
                } else {
                    0
                };
                if rows.len() >= EARLY_EXIT_MIN_SAMPLES
                    && stable >= EARLY_EXIT_PATIENCE
                    && s + 1 < requested
                {
                    early_exit = true;
                    fbcnn_telemetry::counter_add("engine_early_exits", &[], 1);
                    break;
                }
            }
        }

        if expired {
            fbcnn_telemetry::counter_add(
                "deadline_expired",
                &[("outcome", if rows.is_empty() { "empty" } else { "partial" })],
                1,
            );
            fbcnn_telemetry::histogram_record("deadline_samples_completed", &[], rows.len() as f64);
        }
        if rows.is_empty() {
            if expired {
                return Err(InferenceError::Expired {
                    samples_completed: 0,
                });
            }
            return Err(InferenceError::AllSamplesFailed { requested });
        }
        let used_samples = rows.len();
        let prediction = McDropout::try_summarize(rows)?;
        // Mode precedence: a shortened sample budget (deadline or
        // admission cap) outranks the fallback verdicts — it is the one
        // degradation a caller must never mistake for a full-T result.
        let mode = if expired || capped {
            DegradedMode::PartialSamples
        } else if full_fallback {
            DegradedMode::FullFallback
        } else if fallback_samples > 0 {
            DegradedMode::PartialFallback
        } else {
            DegradedMode::Healthy
        };
        fbcnn_telemetry::counter_add("engine_degraded_runs", &[("mode", mode.name())], 1);
        Ok((
            prediction,
            RobustReport {
                requested_samples: configured,
                used_samples,
                fallback_samples,
                lost_samples,
                repaired_values,
                early_exit,
                expired,
                mode,
                skip,
            },
        ))
    }

    /// Extracts the accelerator workload for an input (one pre-inference
    /// plus the skip maps of `T` samples; no dropout pass runs), reusable
    /// across hardware configurations.
    pub fn workload(&self, input: &Tensor) -> Workload {
        Workload::build(
            &self.bnet,
            input,
            &self.thresholds,
            self.cfg.samples,
            self.cfg.seed,
        )
    }

    /// Convenience: simulate the baseline accelerator on a workload.
    pub fn simulate_baseline(&self, w: &Workload) -> RunReport {
        fbcnn_accel::BaselineSim::new(fbcnn_accel::HwConfig::baseline()).run(w)
    }

    /// Convenience: simulate Fast-BCNN with `tm` PEs on a workload.
    pub fn simulate_fast(&self, w: &Workload, tm: usize) -> RunReport {
        fbcnn_accel::FastBcnnSim::new(
            fbcnn_accel::HwConfig::fast_bcnn(tm),
            fbcnn_accel::SkipMode::Both,
        )
        .run(w)
    }
}

/// A deterministic, *spatially smooth* synthetic input in `[0, 1]` — the
/// stand-in for dataset images where none are needed (calibration,
/// workload probes).
///
/// Natural images are dominated by low spatial frequencies; white-noise
/// inputs would exaggerate max-pooling gaps (`max − 2nd max`) and with
/// them the number of affected neurons, distorting the characterization.
/// The field below bilinearly interpolates a coarse hashed grid plus a
/// gentle gradient and a little high-frequency texture.
pub fn synth_input(shape: Shape, seed: u64) -> Tensor {
    let grid = 4usize; // coarse cells per axis
    let hash = |a: u64, b: u64, c: u64| -> f32 {
        let key = seed
            .wrapping_add(a << 40)
            .wrapping_add(b << 20)
            .wrapping_add(c);
        (mix64(key) % 1000) as f32 / 1000.0
    };
    let cell_h = (shape.height() as f32 / grid as f32).max(1.0);
    let cell_w = (shape.width() as f32 / grid as f32).max(1.0);
    Tensor::from_fn(shape, |c, r, col| {
        let fy = r as f32 / cell_h;
        let fx = col as f32 / cell_w;
        let (y0, x0) = (fy.floor(), fx.floor());
        let (ty, tx) = (fy - y0, fx - x0);
        let corner = |dy: u64, dx: u64| hash(c as u64, y0 as u64 + dy, x0 as u64 + dx);
        let smooth = corner(0, 0) * (1.0 - ty) * (1.0 - tx)
            + corner(0, 1) * (1.0 - ty) * tx
            + corner(1, 0) * ty * (1.0 - tx)
            + corner(1, 1) * ty * tx;
        let gradient = ((r + col) % 17) as f32 / 17.0;
        let texture = hash(c as u64 ^ 0xF00D, r as u64, col as u64);
        (0.7 * smooth + 0.2 * gradient + 0.1 * texture).clamp(0.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> Engine {
        engine_with_threads(1)
    }

    fn engine_with_threads(threads: usize) -> Engine {
        Engine::new(EngineConfig {
            samples: 4,
            calibration_samples: 3,
            threads,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    }

    #[test]
    fn engine_builds_and_calibrates() {
        let e = small_engine();
        assert_eq!(e.network().name(), "lenet5");
        assert!(e.thresholds().nodes().count() >= 2);
    }

    #[test]
    fn fast_prediction_tracks_exact() {
        let e = small_engine();
        let input = synth_input(e.network().input_shape(), 11);
        let exact = e.predict_exact(&input);
        let (fast, stats) = e.predict_fast(&input);
        assert_eq!(exact.mean.len(), fast.mean.len());
        assert!(stats.skip_rate() > 0.2, "skip rate {}", stats.skip_rate());
        let diff: f32 = exact
            .mean
            .iter()
            .zip(&fast.mean)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff < 0.5, "probability mass moved too much: {diff}");
    }

    #[test]
    fn workload_and_sims_compose() {
        let e = small_engine();
        let input = synth_input(e.network().input_shape(), 3);
        let w = e.workload(&input);
        let base = e.simulate_baseline(&w);
        let fast = e.simulate_fast(&w, 64);
        assert!(fast.total_cycles < base.total_cycles);
    }

    #[test]
    fn batch_calibration_accepts_multiple_inputs() {
        let cfg = EngineConfig {
            samples: 3,
            calibration_samples: 2,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        };
        let net = cfg.model.build_scaled(cfg.seed, cfg.scale);
        let dataset: Vec<Tensor> = (0..3)
            .map(|i| synth_input(net.input_shape(), 100 + i))
            .collect();
        let engine = Engine::with_network_and_dataset(net, cfg, &dataset).unwrap();
        assert!(engine.thresholds().nodes().count() >= 2);
        // Batch calibration sees more evidence; it may move thresholds
        // relative to single-input calibration but must stay usable.
        let input = synth_input(engine.network().input_shape(), 200);
        let (_, stats) = engine.predict_fast(&input);
        assert!(stats.skip_rate() > 0.2);
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let cfg = EngineConfig::for_model(ModelKind::LeNet5);
        let net = cfg.model.build_scaled(cfg.seed, cfg.scale);
        assert_eq!(
            Engine::with_network_and_dataset(net, cfg, &[]).err(),
            Some(EngineError::EmptyDataset)
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        for cfg in [
            EngineConfig {
                samples: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                calibration_samples: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                threads: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                drop_rate: 1.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                confidence: 0.0,
                ..EngineConfig::default()
            },
        ] {
            assert!(
                matches!(Engine::try_new(cfg), Err(EngineError::InvalidConfig { .. })),
                "config {cfg:?} should be rejected"
            );
        }
        assert!(Engine::try_new(EngineConfig {
            samples: 4,
            calibration_samples: 3,
            ..EngineConfig::default()
        })
        .is_ok());
    }

    #[test]
    fn robust_prediction_is_healthy_on_a_clean_engine() {
        let e = small_engine();
        let input = synth_input(e.network().input_shape(), 11);
        let (fast, _) = e.predict_fast(&input);
        let (robust, report) = e.predict_robust_seeded(&input, e.config().seed).unwrap();
        assert_eq!(report.mode, DegradedMode::Healthy);
        assert_eq!(report.fallback_samples, 0);
        assert_eq!(report.used_samples, e.config().samples);
        assert!(
            !report.early_exit,
            "4 samples cannot reach the 8-sample early-exit floor"
        );
        assert_eq!(robust.mean, fast.mean, "healthy robust path == fast path");
    }

    #[test]
    fn robust_prediction_rejects_bad_input_shape() {
        let e = small_engine();
        let bad = Tensor::zeros(Shape::new(1, 2, 2));
        assert!(matches!(
            e.predict_robust_seeded(&bad, e.config().seed),
            Err(InferenceError::Input(_))
        ));
    }

    #[test]
    #[should_panic(expected = "MC-dropout run failed")]
    fn predict_exact_panics_on_a_wrong_shaped_input_at_one_thread() {
        let _ = engine_with_threads(1).predict_exact(&Tensor::zeros(Shape::new(1, 2, 2)));
    }

    #[test]
    #[should_panic(expected = "MC-dropout run failed")]
    fn predict_exact_panics_on_a_wrong_shaped_input_at_two_threads() {
        let _ = engine_with_threads(2).predict_exact(&Tensor::zeros(Shape::new(1, 2, 2)));
    }

    #[test]
    fn robust_prediction_exits_early_once_the_mean_converges() {
        // The paper's T = 50 on LeNet-5: the mean settles well before the
        // budget runs out (on this input after 40 rows).
        let e = Engine::new(EngineConfig::for_model(ModelKind::LeNet5));
        let input = synth_input(e.network().input_shape(), 11);
        let (pred, report) = e.predict_robust_seeded(&input, e.config().seed).unwrap();
        assert!(report.early_exit, "report: {report:?}");
        assert_eq!(report.mode, DegradedMode::Healthy);
        assert_eq!(report.requested_samples, 50);
        assert_eq!(report.used_samples, 40);
        assert_eq!(pred.mean.len(), 10);
    }

    #[test]
    fn synth_input_is_deterministic_and_bounded() {
        let s = Shape::new(3, 8, 8);
        let a = synth_input(s, 5);
        let b = synth_input(s, 5);
        let c = synth_input(s, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
