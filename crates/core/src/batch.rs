//! Batched multi-request inference — the serving layer over [`Engine`].
//!
//! A [`BatchEngine`] accepts a queue of [`BatchRequest`]s and serves them
//! through one shared pipeline instead of `N` isolated calls:
//!
//! * the input-invariant predictor state
//!   ([`fbcnn_predictor::PredictorShared`]: thresholds, indicator maps,
//!   structural flags) lives on the wrapped [`Engine`], which builds it
//!   once and `Arc`-shares it with every request, batched or not;
//! * per-input pre-inference products ([`PreparedInput`]) are cached by
//!   input fingerprint, so a repeated input skips the dropout-free pass
//!   and goes straight to mask generation;
//! * conv scratch buffers come from a [`Workspace`] pool, one checkout
//!   per request;
//! * requests are drained by `threads` workers of the one worker pool,
//!   [`fbcnn_bayes::pool::drain`], and the exact-path companion
//!   ([`BatchEngine::predict_exact_batch`]) interleaves the individual
//!   `(request, sample)` units across workers via
//!   [`McDropout::run_batch`].
//!
//! **Headline invariant:** serving `N` requests through
//! [`BatchEngine::run_batch`] is *bit-identical* to `N` sequential
//! [`Engine::predict_robust_seeded`] calls with the same per-request
//! seeds — the batch only amortizes work whose results are deterministic
//! in the input (pre-inference, indicator profiling) and threads the
//! identical [`Engine::robust_core`] underneath. The golden-vector and
//! determinism suites under `tests/` pin this.
//!
//! Per-request seeds default to
//! [`fbcnn_bayes::derive_request_seed`]`(engine_seed, request.id)`, which
//! guarantees two requests in one batch never replay the same LFSR
//! streams (see `fbcnn_bayes::seed`).

use crate::engine::{Engine, RobustConfig, RobustReport};
use crate::error::InferenceError;
use crate::resilience::RunControl;
use fbcnn_bayes::{derive_request_seed, McDropout, McRequest, Prediction};
use fbcnn_nn::Workspace;
use fbcnn_predictor::{PredictiveInference, PreparedInput};
use fbcnn_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One inference request in a batch.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Caller-chosen request id; feeds the default seed derivation, so
    /// ids should be unique within a batch (duplicate ids legally yield
    /// identical streams).
    pub id: u64,
    /// The input image.
    pub input: Tensor,
    /// Explicit mask-seed override. `None` (the default) derives the
    /// seed as `derive_request_seed(engine_seed, id)`.
    pub seed: Option<u64>,
}

impl BatchRequest {
    /// A request with the default (derived) seed.
    pub fn new(id: u64, input: Tensor) -> Self {
        Self {
            id,
            input,
            seed: None,
        }
    }

    /// The mask seed this request resolves to under `engine_seed`.
    pub fn resolved_seed(&self, engine_seed: u64) -> u64 {
        self.seed
            .unwrap_or_else(|| derive_request_seed(engine_seed, self.id))
    }
}

/// Knobs of a [`BatchEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Worker threads draining the request queue (and serving the
    /// exact-path sample units). 1 = sequential; results are identical
    /// either way.
    pub threads: usize,
    /// Capacity of the pre-inference cache in distinct inputs; 0
    /// disables caching. Eviction is FIFO by first insertion.
    pub cache_capacity: usize,
    /// Robustness knobs applied to every request's staged pipeline.
    pub robust: RobustConfig,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            cache_capacity: 64,
            robust: RobustConfig::default(),
        }
    }
}

/// What one request produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The request's id, copied through.
    pub id: u64,
    /// The seed the request actually ran with.
    pub seed: u64,
    /// Nanoseconds between batch submission and a worker picking the
    /// request up.
    pub queue_wait_ns: u64,
    /// Whether the pre-inference came from the cache.
    pub cache_hit: bool,
    /// The prediction (or the request's private failure — one bad
    /// request never fails its batch-mates).
    pub result: Result<(Prediction, RobustReport), InferenceError>,
}

impl BatchOutcome {
    /// An outcome for `req` that never reached the pipeline.
    pub(crate) fn failed(req: &BatchRequest, engine_seed: u64, error: InferenceError) -> Self {
        Self {
            id: req.id,
            seed: req.resolved_seed(engine_seed),
            queue_wait_ns: 0,
            cache_hit: false,
            result: Err(error),
        }
    }
}

/// The outcome of one [`BatchEngine::run_batch`] call.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<BatchOutcome>,
    /// How many requests the batch held.
    pub depth: usize,
    /// Pre-inference cache hits within this batch.
    pub cache_hits: usize,
    /// Pre-inference cache misses within this batch.
    pub cache_misses: usize,
    /// Wall-clock of the whole batch, nanoseconds.
    pub elapsed_ns: u64,
}

impl BatchReport {
    /// Whether every request produced a prediction.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// Requests served per second (successful or not).
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.depth as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

/// FIFO-evicting fingerprint → prepared-input cache.
#[derive(Debug, Default)]
struct PreCache {
    map: HashMap<u64, Arc<PreparedInput>>,
    order: VecDeque<u64>,
}

impl PreCache {
    fn get(&self, key: u64, input: &Tensor) -> Option<Arc<PreparedInput>> {
        // `matches` is the fingerprint-collision backstop: a hit is only
        // a hit when the cached entry was prepared for this exact input,
        // preserving bit-identity unconditionally.
        self.map
            .get(&key)
            .filter(|p| p.matches(input))
            .map(Arc::clone)
    }

    fn insert(&mut self, key: u64, value: Arc<PreparedInput>, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            while self.order.len() > capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

/// The batched inference engine; see the module docs.
#[derive(Debug)]
pub struct BatchEngine {
    engine: Engine,
    cfg: BatchConfig,
    cache: Mutex<PreCache>,
    workspaces: Mutex<Vec<Workspace>>,
}

impl BatchEngine {
    /// Wraps an engine for batched serving.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.threads == 0`.
    pub fn new(engine: Engine, cfg: BatchConfig) -> Self {
        assert!(cfg.threads > 0, "need at least one worker thread");
        Self {
            engine,
            cfg,
            cache: Mutex::new(PreCache::default()),
            workspaces: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The batch configuration.
    pub fn batch_config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Distinct inputs currently held by the pre-inference cache.
    pub fn cached_inputs(&self) -> usize {
        self.cache.lock().map(|c| c.map.len()).unwrap_or(0)
    }

    /// Serves a batch of requests through the shared pipeline. Requests
    /// are drained by `threads` workers; each outcome lands at its
    /// request's position. Per-request failures are reported in the
    /// outcome, never propagated across requests.
    pub fn run_batch(&self, requests: &[BatchRequest]) -> BatchReport {
        let _span = fbcnn_telemetry::span_with("batch_run", || {
            vec![("depth".into(), requests.len().to_string())]
        });
        fbcnn_telemetry::counter_add("batch_requests", &[], requests.len() as u64);
        fbcnn_telemetry::histogram_record("batch_depth", &[], requests.len() as f64);
        let submitted = Instant::now();
        let slots = fbcnn_bayes::pool::drain(
            requests.len(),
            self.cfg.threads,
            || (),
            |_, i| {
                let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
                fbcnn_telemetry::histogram_record("batch_queue_wait_ns", &[], queue_wait_ns as f64);
                self.serve_one(&requests[i], queue_wait_ns, &RunControl::none())
            },
        );
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        let outcomes: Vec<BatchOutcome> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                // A unit lost to a panic past the per-request isolation
                // surfaces as a typed per-request failure, not a poisoned
                // batch.
                let Some(outcome) = slot else {
                    let config = self.engine.config();
                    let lost = InferenceError::AllSamplesFailed {
                        requested: config.samples,
                    };
                    return BatchOutcome::failed(&requests[i], config.seed, lost);
                };
                if outcome.cache_hit {
                    cache_hits += 1;
                } else {
                    cache_misses += 1;
                }
                outcome
            })
            .collect();
        fbcnn_telemetry::counter_add("batch_cache_hits", &[], cache_hits as u64);
        fbcnn_telemetry::counter_add("batch_cache_misses", &[], cache_misses as u64);
        BatchReport {
            depth: requests.len(),
            cache_hits,
            cache_misses,
            elapsed_ns: submitted.elapsed().as_nanos() as u64,
            outcomes,
        }
    }

    /// Batched *exact* MC-dropout (no skipping, no robust staging):
    /// every request's `T` sample units are interleaved across the
    /// worker threads via [`McDropout::run_batch`]. Bit-identical to
    /// per-request [`Engine::predict_exact`] with the same seeds.
    ///
    /// # Errors
    ///
    /// [`InferenceError::Bayes`] when an input does not fit the network
    /// or a request loses every sample.
    pub fn predict_exact_batch(
        &self,
        requests: &[BatchRequest],
    ) -> Result<Vec<Prediction>, InferenceError> {
        let engine_seed = self.engine.config().seed;
        let mc_requests: Vec<McRequest<'_>> = requests
            .iter()
            .map(|r| McRequest {
                input: &r.input,
                seed: r.resolved_seed(engine_seed),
            })
            .collect();
        let runs = McDropout::new(self.engine.config().samples, engine_seed)
            .run_batch(
                self.engine.bayesian_network(),
                &mc_requests,
                self.cfg.threads,
            )
            .map_err(InferenceError::Bayes)?;
        Ok(runs.into_iter().map(|r| r.prediction).collect())
    }

    /// Serves one request under explicit run control (deadline token,
    /// forced path, sample cap, fault hook) through the shared
    /// pre-inference cache and workspace pool — the resilience layer's
    /// entry point. With [`RunControl::none`] this is exactly one
    /// [`BatchEngine::run_batch`] slot.
    pub fn run_request(&self, req: &BatchRequest, ctl: &RunControl) -> BatchOutcome {
        self.serve_one(req, 0, ctl)
    }

    /// Serves one request: validation, cached pre-inference, then the
    /// exact staged pipeline of [`Engine::predict_robust_controlled`] on
    /// a workspace checked out of the pool.
    fn serve_one(&self, req: &BatchRequest, queue_wait_ns: u64, ctl: &RunControl) -> BatchOutcome {
        let _span = fbcnn_telemetry::span("batch_request");
        let engine_seed = self.engine.config().seed;
        if let Err(e) = self.engine.check_request(&req.input) {
            return BatchOutcome {
                queue_wait_ns,
                ..BatchOutcome::failed(req, engine_seed, e)
            };
        }
        let seed = req.resolved_seed(engine_seed);
        let (prepared, cache_hit) = self.prepare(&req.input);
        let bnet = self.engine.bayesian_network();
        let fast = PredictiveInference::from_parts(bnet, self.engine.shared(), prepared);
        let mut ws = self.checkout_workspace();
        let result =
            self.engine
                .robust_core(&fast, &req.input, seed, &self.cfg.robust, &mut ws, ctl);
        self.return_workspace(ws);
        BatchOutcome {
            id: req.id,
            seed,
            queue_wait_ns,
            cache_hit,
            result,
        }
    }

    /// Looks the input's pre-inference up by fingerprint, computing and
    /// caching it on a miss. Returns `(prepared, was_hit)`.
    fn prepare(&self, input: &Tensor) -> (Arc<PreparedInput>, bool) {
        let key = PreparedInput::fingerprint(input);
        if let Ok(cache) = self.cache.lock() {
            if let Some(hit) = cache.get(key, input) {
                fbcnn_telemetry::counter_add("predictor_preinference_cache", &[("hit", "yes")], 1);
                return (hit, true);
            }
        }
        // Prepare outside the lock: concurrent misses on the same input
        // duplicate work once instead of serializing the whole batch.
        let prepared = Arc::new(PreparedInput::new(self.engine.bayesian_network(), input));
        fbcnn_telemetry::counter_add("predictor_preinference_cache", &[("hit", "no")], 1);
        if let Ok(mut cache) = self.cache.lock() {
            cache.insert(key, Arc::clone(&prepared), self.cfg.cache_capacity);
        }
        (prepared, false)
    }

    fn checkout_workspace(&self) -> Workspace {
        self.workspaces
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    fn return_workspace(&self, ws: Workspace) {
        if let Ok(mut pool) = self.workspaces.lock() {
            pool.push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{synth_input, EngineConfig};
    use fbcnn_nn::models::ModelKind;

    fn small_engine() -> Engine {
        Engine::new(EngineConfig {
            samples: 4,
            calibration_samples: 3,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        })
    }

    fn requests(engine: &Engine, n: usize) -> Vec<BatchRequest> {
        (0..n)
            .map(|i| {
                BatchRequest::new(
                    i as u64,
                    synth_input(engine.network().input_shape(), 100 + (i % 3) as u64),
                )
            })
            .collect()
    }

    #[test]
    fn repeated_inputs_hit_the_cache_without_changing_results() {
        let engine = small_engine();
        // 6 requests over 3 distinct inputs: second occurrence hits.
        let reqs = requests(&engine, 6);
        let batch = BatchEngine::new(engine, BatchConfig::default());
        let report = batch.run_batch(&reqs);
        assert!(report.all_ok());
        assert_eq!(report.cache_hits + report.cache_misses, 6);
        assert_eq!(report.cache_misses, 3, "three distinct inputs");
        assert_eq!(report.cache_hits, 3);
        assert_eq!(batch.cached_inputs(), 3);
        // A second batch over the same inputs is all hits.
        let again = batch.run_batch(&reqs);
        assert_eq!(again.cache_hits, 6);
        // Hit results equal miss results (same request, same seed).
        for (a, b) in report.outcomes.iter().zip(&again.outcomes) {
            assert_eq!(a.result.as_ref().unwrap().0, b.result.as_ref().unwrap().0);
        }
    }

    #[test]
    fn a_bad_request_fails_alone() {
        let engine = small_engine();
        let mut reqs = requests(&engine, 3);
        reqs[1].input = Tensor::zeros(fbcnn_tensor::Shape::new(1, 2, 2));
        let batch = BatchEngine::new(engine, BatchConfig::default());
        let report = batch.run_batch(&reqs);
        assert!(!report.all_ok());
        assert!(report.outcomes[0].result.is_ok());
        assert!(matches!(
            report.outcomes[1].result,
            Err(InferenceError::Input(_))
        ));
        assert!(report.outcomes[2].result.is_ok());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let engine = small_engine();
        let reqs = requests(&engine, 4);
        let batch = BatchEngine::new(
            engine,
            BatchConfig {
                cache_capacity: 0,
                ..BatchConfig::default()
            },
        );
        let report = batch.run_batch(&reqs);
        assert!(report.all_ok());
        assert_eq!(report.cache_hits, 0);
        assert_eq!(batch.cached_inputs(), 0);
    }

    #[test]
    fn empty_batch_reports_empty() {
        let batch = BatchEngine::new(small_engine(), BatchConfig::default());
        let report = batch.run_batch(&[]);
        assert_eq!(report.depth, 0);
        assert!(report.outcomes.is_empty());
        assert!(report.all_ok());
    }
}
