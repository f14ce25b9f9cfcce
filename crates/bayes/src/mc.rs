use crate::cancel::CancelToken;
use crate::mask::DropoutMasks;
use crate::{metrics, BayesError, BayesianNetwork};
use fbcnn_nn::Workspace;
use fbcnn_tensor::{stats, Tensor};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The Monte-Carlo-dropout runner: `T` stochastic forward passes over the
/// same input (paper §II-B).
///
/// # Examples
///
/// ```
/// use fbcnn_bayes::{BayesianNetwork, McDropout};
/// use fbcnn_nn::models;
/// use fbcnn_tensor::Tensor;
///
/// let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
/// let pred = McDropout::new(4, 0).run(&bnet, &Tensor::zeros(bnet.network().input_shape()));
/// assert_eq!(pred.sample_probs.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct McDropout {
    t: usize,
    seed: u64,
}

/// The outcome of a complete MC-dropout inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Per-sample softmax probabilities (`T` rows).
    pub sample_probs: Vec<Vec<f32>>,
    /// The predictive mean `ȳ = (1/T) Σ yₜ` (paper Eq. 4), over softmax
    /// outputs.
    pub mean: Vec<f32>,
    /// The predicted class (argmax of the mean).
    pub class: usize,
    /// Predictive entropy of the mean distribution (total uncertainty).
    pub predictive_entropy: f32,
    /// Mutual information between prediction and posterior (epistemic
    /// uncertainty, a.k.a. BALD).
    pub mutual_information: f32,
}

/// The outcome of a fault-isolated MC-dropout run
/// ([`McDropout::run_parallel_isolated`]): the summary over surviving
/// samples plus the indices of samples lost to worker panics.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolatedRun {
    /// Summary over the surviving samples.
    pub prediction: Prediction,
    /// Indices of samples whose inference panicked (empty on a clean
    /// run).
    pub failed: Vec<usize>,
}

/// The outcome of a deadline-capped MC-dropout run
/// ([`McDropout::run_cancellable`]): the summary over the samples that
/// completed before the token expired.
///
/// Because samples are i.i.d. and sample `t` always uses
/// `generate_masks(seed, t)`, a run that completed `k < T` samples is
/// *bit-identical* to a `McDropout::new(k, seed).run(..)` — a partial
/// result is a smaller-T result, never a corrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRun {
    /// Summary over the completed samples.
    pub prediction: Prediction,
    /// Samples that completed before expiry.
    pub completed: usize,
    /// Whether the token expired before all `T` samples ran.
    pub expired: bool,
}

/// One request of a batched exact MC-dropout run
/// ([`McDropout::run_batch`]): an input plus its private mask seed.
///
/// In a serving layer the seed comes from
/// [`crate::derive_request_seed`], which guarantees two requests in one
/// batch never share an LFSR stream.
#[derive(Debug, Clone, Copy)]
pub struct McRequest<'a> {
    /// The input image.
    pub input: &'a Tensor,
    /// The request's mask seed; sample `t` uses
    /// `generate_masks(seed, t)` exactly as a standalone run would.
    pub seed: u64,
}

impl McDropout {
    /// Creates a runner performing `t` sample inferences.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn new(t: usize, seed: u64) -> Self {
        assert!(t > 0, "MC dropout needs at least one sample");
        Self { t, seed }
    }

    /// Number of sample inferences `T`.
    pub fn samples(&self) -> usize {
        self.t
    }

    /// The mask seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs `T` stochastic passes and summarizes them.
    ///
    /// All `T` passes share one [`Workspace`], so the im2col scratch
    /// buffer is allocated once and reused for every sample.
    pub fn run(&self, bnet: &BayesianNetwork, input: &Tensor) -> Prediction {
        let _span =
            fbcnn_telemetry::span_with("mc_run", || vec![("mode".into(), "sequential".into())]);
        fbcnn_telemetry::counter_add("mc_samples", &[("path", "exact")], self.t as u64);
        let mut ws = Workspace::new();
        let sample_probs: Vec<Vec<f32>> = (0..self.t)
            .map(|t| {
                let _sample = fbcnn_telemetry::span_with("mc_sample", || {
                    vec![("sample".into(), t.to_string())]
                });
                let masks = bnet.generate_masks(self.seed, t);
                let run = bnet.forward_sample_ws(input, &masks, &mut ws);
                stats::softmax(run.logits())
            })
            .collect();
        Self::summarize(sample_probs)
    }

    /// Like [`McDropout::run`], but checks `cancel` before every sample:
    /// when the token expires mid-run the completed rows are summarized
    /// and returned as a [`PartialRun`] instead of being discarded.
    ///
    /// Rows are produced in the same order with the same masks as
    /// [`McDropout::run`], so a run that completed `k` samples returns a
    /// prediction bit-identical to `McDropout::new(k, seed).run(..)` —
    /// the partial-T proptests pin this.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Graph`] when the input does not fit the
    /// network and [`BayesError::Expired`] when the token expired before
    /// even one sample completed (there is no partial result to return).
    pub fn run_cancellable(
        &self,
        bnet: &BayesianNetwork,
        input: &Tensor,
        cancel: &CancelToken,
    ) -> Result<PartialRun, BayesError> {
        bnet.network().check_input(input)?;
        let _span =
            fbcnn_telemetry::span_with("mc_run", || vec![("mode".into(), "cancellable".into())]);
        let mut ws = Workspace::new();
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(self.t);
        let mut expired = false;
        for t in 0..self.t {
            if cancel.checkpoint() {
                expired = true;
                break;
            }
            let _sample =
                fbcnn_telemetry::span_with("mc_sample", || vec![("sample".into(), t.to_string())]);
            fbcnn_telemetry::counter_add("mc_samples", &[("path", "cancellable")], 1);
            let masks = bnet.generate_masks(self.seed, t);
            let run = bnet.forward_sample_ws(input, &masks, &mut ws);
            rows.push(stats::softmax(run.logits()));
        }
        if rows.is_empty() {
            return Err(BayesError::Expired);
        }
        let completed = rows.len();
        Ok(PartialRun {
            prediction: Self::try_summarize(rows)?,
            completed,
            expired,
        })
    }

    /// Like [`McDropout::run`], but distributes the `T` independent
    /// sample inferences over `threads` worker threads (crossbeam scoped
    /// threads; the samples share nothing but the read-only network, and
    /// each worker reuses its own [`Workspace`] across its samples).
    ///
    /// The result is bit-identical to the sequential [`McDropout::run`]:
    /// sample `t` always uses the masks `generate_masks(seed, t)` and the
    /// rows are reassembled in order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel(
        &self,
        bnet: &BayesianNetwork,
        input: &Tensor,
        threads: usize,
    ) -> Prediction {
        assert!(threads > 0, "need at least one worker thread");
        // The workers run under catch_unwind isolation; a lost sample
        // surfaces as a clean panic here instead of an aborted scope.
        match self.run_parallel_isolated(bnet, input, threads) {
            Ok(run) if run.failed.is_empty() => run.prediction,
            Ok(run) => panic!(
                "{} of {} MC samples panicked (indices {:?})",
                run.failed.len(),
                self.t,
                run.failed
            ),
            Err(e) => panic!("MC-dropout run failed: {e}"),
        }
    }

    /// Dispatches to [`McDropout::run`] (when `threads <= 1`) or
    /// [`McDropout::run_parallel`] — the convenience form call sites use
    /// when the thread count comes from configuration. The result does
    /// not depend on `threads`.
    pub fn run_with_threads(
        &self,
        bnet: &BayesianNetwork,
        input: &Tensor,
        threads: usize,
    ) -> Prediction {
        if threads > 1 {
            self.run_parallel(bnet, input, threads)
        } else {
            self.run(bnet, input)
        }
    }

    /// Fault-isolated parallel run: like [`McDropout::run_parallel`], but
    /// every sample inference executes inside `catch_unwind`, so one
    /// poisoned sample (corrupted mask, malformed tensor, any library
    /// panic) is dropped from the summary instead of aborting the whole
    /// batch — soft-error containment for the T-sample loop.
    ///
    /// Surviving samples are bit-identical to the sequential
    /// [`McDropout::run`]; the indices of lost samples are reported in
    /// [`IsolatedRun::failed`].
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Graph`] if `input` does not match the
    /// network (nothing could ever succeed) and
    /// [`BayesError::AllSamplesFailed`] when no sample survives.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel_isolated(
        &self,
        bnet: &BayesianNetwork,
        input: &Tensor,
        threads: usize,
    ) -> Result<IsolatedRun, BayesError> {
        self.run_isolated_with_masks(bnet, input, threads, |t| bnet.generate_masks(self.seed, t))
    }

    /// The general form of [`McDropout::run_parallel_isolated`]: sample
    /// `t` uses the masks `masks_for(t)` instead of the built-in
    /// generator. This is the entry point the fault-injection harness
    /// uses to poison individual samples and prove they are contained.
    ///
    /// # Errors
    ///
    /// See [`McDropout::run_parallel_isolated`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_isolated_with_masks(
        &self,
        bnet: &BayesianNetwork,
        input: &Tensor,
        threads: usize,
        masks_for: impl Fn(usize) -> DropoutMasks + Sync,
    ) -> Result<IsolatedRun, BayesError> {
        assert!(threads > 0, "need at least one worker thread");
        bnet.network().check_input(input)?;
        let _span =
            fbcnn_telemetry::span_with("mc_run", || vec![("mode".into(), "isolated".into())]);
        fbcnn_telemetry::counter_add("mc_samples", &[("path", "isolated")], self.t as u64);
        let threads = threads.min(self.t);
        let masks_for = &masks_for;
        let mut rows: Vec<Option<Vec<f32>>> = vec![None; self.t];
        let scope_result = crossbeam::thread::scope(|scope| {
            for (worker, chunk) in rows.chunks_mut(self.t.div_ceil(threads)).enumerate() {
                let base = worker * self.t.div_ceil(threads);
                scope.spawn(move |_| {
                    let mut ws = Workspace::new();
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        let t = base + offset;
                        let _sample = fbcnn_telemetry::span_with("mc_sample", || {
                            vec![("sample".into(), t.to_string())]
                        });
                        *slot = catch_unwind(AssertUnwindSafe(|| {
                            let masks = masks_for(t);
                            let run = bnet.forward_sample_ws(input, &masks, &mut ws);
                            stats::softmax(run.logits())
                        }))
                        .ok();
                        if slot.is_none() {
                            // The panic may have left the scratch buffers
                            // in a torn state; start the next sample clean.
                            ws = Workspace::new();
                        }
                    }
                });
            }
        });
        // Workers never unwind past catch_unwind, so the scope itself
        // cannot fail; keep a typed path anyway instead of unwrapping.
        if scope_result.is_err() {
            return Err(BayesError::AllSamplesFailed { requested: self.t });
        }
        let failed: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        if !failed.is_empty() {
            fbcnn_telemetry::counter_add("mc_samples_failed", &[], failed.len() as u64);
        }
        let surviving: Vec<Vec<f32>> = rows.into_iter().flatten().collect();
        if surviving.is_empty() {
            return Err(BayesError::AllSamplesFailed { requested: self.t });
        }
        Ok(IsolatedRun {
            prediction: Self::try_summarize(surviving)?,
            failed,
        })
    }

    /// Batched exact MC-dropout: serves every request's `T` samples from
    /// one flattened work list, interleaving the `(request, sample)`
    /// units across `threads` crossbeam-scoped workers — one worker may
    /// finish request A's tail while another starts request B, so the
    /// batch drains without per-request barriers. Each worker reuses its
    /// own [`Workspace`] across all units it executes.
    ///
    /// **Composition invariance:** request `r`'s result depends only on
    /// `(input_r, seed_r, T)` — sample `t` always uses the masks
    /// `generate_masks(seed_r, t)` and rows are reassembled in order —
    /// so the outcome is bit-identical to a standalone
    /// `McDropout::new(T, seed_r).run(bnet, input_r)` regardless of
    /// batch size, ordering, thread count, or which other requests share
    /// the batch. The runner's own seed is not consulted; each request
    /// carries its own (see [`crate::derive_request_seed`]).
    ///
    /// Every unit executes under `catch_unwind`, so a poisoned request
    /// cannot take its batch-mates down: lost samples are reported per
    /// request in [`IsolatedRun::failed`].
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Graph`] if any request's input does not fit
    /// the network (checked up front, before any work runs) and
    /// [`BayesError::AllSamplesFailed`] when some request loses every
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_batch(
        &self,
        bnet: &BayesianNetwork,
        requests: &[McRequest<'_>],
        threads: usize,
    ) -> Result<Vec<IsolatedRun>, BayesError> {
        assert!(threads > 0, "need at least one worker thread");
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        for req in requests {
            bnet.network().check_input(req.input)?;
        }
        let _span = fbcnn_telemetry::span_with("mc_run", || {
            vec![
                ("mode".into(), "batch".into()),
                ("requests".into(), requests.len().to_string()),
            ]
        });
        let units = requests.len() * self.t;
        fbcnn_telemetry::counter_add("mc_samples", &[("path", "batch")], units as u64);
        let threads = threads.min(units);
        let mut rows: Vec<Option<Vec<f32>>> = vec![None; units];
        let chunk_len = units.div_ceil(threads);
        let scope_result = crossbeam::thread::scope(|scope| {
            for (worker, chunk) in rows.chunks_mut(chunk_len).enumerate() {
                let base = worker * chunk_len;
                scope.spawn(move |_| {
                    let mut ws = Workspace::new();
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        let unit = base + offset;
                        let (r, s) = (unit / self.t, unit % self.t);
                        let req = &requests[r];
                        let _sample = fbcnn_telemetry::span_with("mc_sample", || {
                            vec![
                                ("request".into(), r.to_string()),
                                ("sample".into(), s.to_string()),
                            ]
                        });
                        *slot = catch_unwind(AssertUnwindSafe(|| {
                            let masks = bnet.generate_masks(req.seed, s);
                            let run = bnet.forward_sample_ws(req.input, &masks, &mut ws);
                            stats::softmax(run.logits())
                        }))
                        .ok();
                        if slot.is_none() {
                            // The panic may have torn the scratch buffers;
                            // start the next unit clean.
                            ws = Workspace::new();
                        }
                    }
                });
            }
        });
        if scope_result.is_err() {
            return Err(BayesError::AllSamplesFailed { requested: units });
        }
        let mut out = Vec::with_capacity(requests.len());
        for request_rows in rows.chunks(self.t) {
            let failed: Vec<usize> = request_rows
                .iter()
                .enumerate()
                .filter_map(|(i, row)| row.is_none().then_some(i))
                .collect();
            if !failed.is_empty() {
                fbcnn_telemetry::counter_add("mc_samples_failed", &[], failed.len() as u64);
            }
            let surviving: Vec<Vec<f32>> = request_rows.iter().flatten().cloned().collect();
            if surviving.is_empty() {
                return Err(BayesError::AllSamplesFailed { requested: self.t });
            }
            out.push(IsolatedRun {
                prediction: Self::try_summarize(surviving)?,
                failed,
            });
        }
        Ok(out)
    }

    /// Builds a [`Prediction`] from per-sample probability rows,
    /// reporting malformed inputs as typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::NoSamples`] for an empty row set and
    /// [`BayesError::InconsistentClasses`] when rows disagree on length.
    pub fn try_summarize(sample_probs: Vec<Vec<f32>>) -> Result<Prediction, BayesError> {
        if sample_probs.is_empty() {
            return Err(BayesError::NoSamples);
        }
        let classes = sample_probs[0].len();
        if !sample_probs.iter().all(|p| p.len() == classes) {
            return Err(BayesError::InconsistentClasses);
        }
        Ok(Self::summarize(sample_probs))
    }

    /// Builds a [`Prediction`] from per-sample probability rows.
    ///
    /// # Panics
    ///
    /// Panics if `sample_probs` is empty or rows have differing lengths.
    pub fn summarize(sample_probs: Vec<Vec<f32>>) -> Prediction {
        assert!(!sample_probs.is_empty(), "no samples to summarize");
        let classes = sample_probs[0].len();
        assert!(
            sample_probs.iter().all(|p| p.len() == classes),
            "inconsistent class counts across samples"
        );
        let mut mean = vec![0.0f32; classes];
        for probs in &sample_probs {
            for (m, p) in mean.iter_mut().zip(probs) {
                *m += p;
            }
        }
        for m in &mut mean {
            *m /= sample_probs.len() as f32;
        }
        let class = stats::argmax(&mean);
        let predictive_entropy = stats::entropy(&mean);
        let mutual_information = metrics::mutual_information(&sample_probs);
        Prediction {
            sample_probs,
            mean,
            class,
            predictive_entropy,
            mutual_information,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_nn::models;
    use fbcnn_tensor::Shape;

    fn setup() -> (BayesianNetwork, Tensor) {
        let bnet = BayesianNetwork::new(models::lenet5(3), 0.3);
        let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
            ((r * 5 + c) % 7) as f32 / 7.0
        });
        (bnet, input)
    }

    #[test]
    fn mean_is_average_of_samples() {
        let (bnet, input) = setup();
        let pred = McDropout::new(6, 1).run(&bnet, &input);
        let classes = pred.mean.len();
        for k in 0..classes {
            let avg: f32 = pred.sample_probs.iter().map(|p| p[k]).sum::<f32>()
                / pred.sample_probs.len() as f32;
            assert!((pred.mean[k] - avg).abs() < 1e-6);
        }
        assert!((pred.mean.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let (bnet, input) = setup();
        let a = McDropout::new(3, 9).run(&bnet, &input);
        let b = McDropout::new(3, 9).run(&bnet, &input);
        assert_eq!(a, b);
        let c = McDropout::new(3, 10).run(&bnet, &input);
        assert_ne!(a.sample_probs, c.sample_probs);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let (bnet, input) = setup();
        let runner = McDropout::new(7, 13);
        let seq = runner.run(&bnet, &input);
        for threads in [1, 2, 3, 16] {
            let par = runner.run_parallel(&bnet, &input, threads);
            assert_eq!(seq, par, "divergence at {threads} threads");
        }
    }

    #[test]
    fn uncertainty_is_nonnegative_and_bounded() {
        let (bnet, input) = setup();
        let pred = McDropout::new(8, 3).run(&bnet, &input);
        assert!(pred.predictive_entropy >= 0.0);
        assert!(pred.mutual_information >= -1e-5);
        assert!(pred.mutual_information <= pred.predictive_entropy + 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = McDropout::new(0, 0);
    }

    #[test]
    fn isolated_run_matches_sequential_when_healthy() {
        let (bnet, input) = setup();
        let runner = McDropout::new(5, 21);
        let seq = runner.run(&bnet, &input);
        for threads in [1, 3] {
            let iso = runner
                .run_parallel_isolated(&bnet, &input, threads)
                .unwrap();
            assert!(iso.failed.is_empty());
            assert_eq!(iso.prediction, seq, "divergence at {threads} threads");
        }
    }

    #[test]
    fn isolated_run_contains_poisoned_samples() {
        let (bnet, input) = setup();
        let runner = McDropout::new(6, 21);
        let clean = runner.run(&bnet, &input);
        // Sample 2 gets a mask set with a wrong-shaped mask: its forward
        // pass panics inside the worker, the other five survive.
        let iso = runner
            .run_isolated_with_masks(&bnet, &input, 2, |t| {
                let mut masks = bnet.generate_masks(21, t);
                if t == 2 {
                    let node = bnet.dropout_nodes()[0];
                    masks.insert(node, fbcnn_tensor::BitMask::ones(Shape::new(1, 2, 2)));
                }
                masks
            })
            .expect("five samples survive");
        assert_eq!(iso.failed, vec![2]);
        assert_eq!(iso.prediction.sample_probs.len(), 5);
        // Surviving rows are bit-identical to the clean run's rows.
        for (i, t) in [0usize, 1, 3, 4, 5].into_iter().enumerate() {
            assert_eq!(iso.prediction.sample_probs[i], clean.sample_probs[t]);
        }
    }

    #[test]
    fn isolated_run_reports_total_loss() {
        let (bnet, input) = setup();
        let runner = McDropout::new(3, 21);
        let err = runner
            .run_isolated_with_masks(&bnet, &input, 2, |_| {
                // Every sample carries a wrong-shaped mask: the in-worker
                // apply_drop_mask panic kills all of them.
                let mut masks = DropoutMasks::empty(bnet.network().len());
                masks.insert(
                    bnet.dropout_nodes()[0],
                    fbcnn_tensor::BitMask::ones(Shape::new(1, 2, 2)),
                );
                masks
            })
            .unwrap_err();
        assert_eq!(err, BayesError::AllSamplesFailed { requested: 3 });
    }

    #[test]
    fn isolated_run_rejects_bad_input_shape_as_typed_error() {
        let (bnet, _) = setup();
        let runner = McDropout::new(3, 21);
        let bad = Tensor::zeros(Shape::new(3, 3, 3));
        assert!(matches!(
            runner.run_parallel_isolated(&bnet, &bad, 2),
            Err(BayesError::Graph(_))
        ));
    }

    #[test]
    fn batch_requests_match_standalone_runs_bit_for_bit() {
        let (bnet, input) = setup();
        let mut shifted = input.clone();
        shifted.set(0, 0.9);
        let runner = McDropout::new(5, 0); // runner seed is not consulted
        let requests = [
            McRequest {
                input: &input,
                seed: crate::derive_request_seed(77, 0),
            },
            McRequest {
                input: &shifted,
                seed: crate::derive_request_seed(77, 1),
            },
            McRequest {
                input: &input,
                seed: crate::derive_request_seed(77, 2),
            },
        ];
        for threads in [1, 2, 4] {
            let batch = runner.run_batch(&bnet, &requests, threads).unwrap();
            assert_eq!(batch.len(), 3);
            for (req, run) in requests.iter().zip(&batch) {
                assert!(run.failed.is_empty());
                let standalone = McDropout::new(5, req.seed).run(&bnet, req.input);
                assert_eq!(
                    run.prediction, standalone,
                    "batch diverged from standalone at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batch_results_are_invariant_under_composition() {
        let (bnet, input) = setup();
        let runner = McDropout::new(3, 0);
        let reqs: Vec<McRequest> = (0..4)
            .map(|id| McRequest {
                input: &input,
                seed: crate::derive_request_seed(9, id),
            })
            .collect();
        let full = runner.run_batch(&bnet, &reqs, 2).unwrap();
        // Reversed ordering: request r's result only moves position.
        let reversed: Vec<McRequest> = reqs.iter().rev().copied().collect();
        let rev = runner.run_batch(&bnet, &reversed, 2).unwrap();
        for (i, run) in full.iter().enumerate() {
            assert_eq!(
                run.prediction,
                rev[3 - i].prediction,
                "order changed result"
            );
        }
        // A sub-batch: different batch-mates, same per-request result.
        let sub = runner.run_batch(&bnet, &reqs[1..3], 2).unwrap();
        assert_eq!(sub[0].prediction, full[1].prediction);
        assert_eq!(sub[1].prediction, full[2].prediction);
    }

    #[test]
    fn derived_request_seeds_yield_distinct_masks() {
        // Regression for the batched-serving seed audit: with one user
        // seed, every request id must draw its own LFSR streams — no two
        // requests' masks may coincide for any (t, t') sample pair.
        let (bnet, _) = setup();
        let user_seed = 0xFB_C0DE;
        let t = 4;
        let mut seen = std::collections::HashSet::new();
        for id in 0..8u64 {
            let seed = crate::derive_request_seed(user_seed, id);
            for s in 0..t {
                let masks = bnet.generate_masks(seed, s);
                let bits: Vec<(usize, Vec<usize>)> = masks
                    .iter()
                    .map(|(node, m)| (node.0, m.iter_set().collect()))
                    .collect();
                assert!(
                    seen.insert(bits),
                    "request {id} sample {s} replayed another request's mask stream"
                );
            }
        }
    }

    #[test]
    fn batch_rejects_bad_input_before_running() {
        let (bnet, input) = setup();
        let bad = Tensor::zeros(Shape::new(3, 3, 3));
        let runner = McDropout::new(3, 0);
        let err = runner
            .run_batch(
                &bnet,
                &[
                    McRequest {
                        input: &input,
                        seed: 1,
                    },
                    McRequest {
                        input: &bad,
                        seed: 2,
                    },
                ],
                2,
            )
            .unwrap_err();
        assert!(matches!(err, BayesError::Graph(_)));
    }

    #[test]
    fn empty_batch_is_ok_and_empty() {
        let (bnet, _) = setup();
        assert!(McDropout::new(3, 0)
            .run_batch(&bnet, &[], 2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cancellable_run_without_limits_matches_run() {
        let (bnet, input) = setup();
        let runner = McDropout::new(5, 17);
        let full = runner.run(&bnet, &input);
        let partial = runner
            .run_cancellable(&bnet, &input, &CancelToken::never())
            .unwrap();
        assert!(!partial.expired);
        assert_eq!(partial.completed, 5);
        assert_eq!(partial.prediction, full);
    }

    #[test]
    fn budgeted_run_equals_smaller_t_run_bitwise() {
        let (bnet, input) = setup();
        let t = 6;
        for k in 1..t {
            let partial = McDropout::new(t, 31)
                .run_cancellable(&bnet, &input, &CancelToken::with_sample_budget(k as u64))
                .unwrap();
            assert!(partial.expired, "budget {k} must expire a {t}-sample run");
            assert_eq!(partial.completed, k);
            let reference = McDropout::new(k, 31).run(&bnet, &input);
            assert_eq!(partial.prediction, reference, "k = {k} diverged");
        }
    }

    #[test]
    fn zero_budget_is_a_typed_expiry() {
        let (bnet, input) = setup();
        let err = McDropout::new(4, 2)
            .run_cancellable(&bnet, &input, &CancelToken::with_sample_budget(0))
            .unwrap_err();
        assert_eq!(err, BayesError::Expired);
    }

    #[test]
    fn cancellable_run_rejects_bad_input_shape() {
        let (bnet, _) = setup();
        let bad = Tensor::zeros(Shape::new(3, 3, 3));
        assert!(matches!(
            McDropout::new(4, 2).run_cancellable(&bnet, &bad, &CancelToken::never()),
            Err(BayesError::Graph(_))
        ));
    }

    #[test]
    fn try_summarize_reports_malformed_rows() {
        assert_eq!(
            McDropout::try_summarize(Vec::new()).unwrap_err(),
            BayesError::NoSamples
        );
        assert_eq!(
            McDropout::try_summarize(vec![vec![0.5, 0.5], vec![1.0]]).unwrap_err(),
            BayesError::InconsistentClasses
        );
        let ok = McDropout::try_summarize(vec![vec![0.25, 0.75]]).unwrap();
        assert_eq!(ok.class, 1);
    }
}
