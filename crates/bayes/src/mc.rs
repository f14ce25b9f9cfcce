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

/// The outcome of one request of a fault-isolated MC-dropout run
/// ([`McDropout::run_batch`], [`McDropout::run_with_masks`]): the summary
/// over surviving samples plus the indices of samples lost to panics.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolatedRun {
    /// Summary over the surviving samples.
    pub prediction: Prediction,
    /// Indices of samples whose inference panicked (empty on a clean
    /// run).
    pub failed: Vec<usize>,
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

    /// Runs `T` stochastic passes over one input with the runner's seed
    /// and summarizes them: one request of [`McDropout::run_batch`] on
    /// the caller's thread, so all `T` passes share one [`Workspace`].
    ///
    /// # Panics
    ///
    /// Panics if `input` does not fit the network or any sample is lost
    /// (see [`McDropout::expect_complete`]).
    pub fn run(&self, bnet: &BayesianNetwork, input: &Tensor) -> Prediction {
        let request = McRequest {
            input,
            seed: self.seed,
        };
        Self::expect_complete(self.run_batch(bnet, &[request], 1))
    }

    /// Batched exact MC-dropout: [`McDropout::run_with_masks`] with
    /// sample `t` of request `r` drawing `generate_masks(seed_r, t)`.
    ///
    /// **Composition invariance:** request `r`'s result depends only on
    /// `(input_r, seed_r, T)`, so the outcome is bit-identical to a
    /// standalone `McDropout::new(T, seed_r).run(bnet, input_r)`
    /// regardless of batch size, ordering, thread count, or which other
    /// requests share the batch. The runner's own seed is not consulted;
    /// each request carries its own (see [`crate::derive_request_seed`]).
    ///
    /// # Errors
    ///
    /// See [`McDropout::run_with_masks`].
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
        self.run_with_masks(bnet, requests, threads, |r, t| {
            bnet.generate_masks(requests[r].seed, t)
        })
    }

    /// The MC-dropout runner. Every request's `T` samples form one
    /// flattened list of `(request, sample)` units, split into contiguous
    /// chunks across `threads` workers — one worker may finish request
    /// A's tail while another starts request B, so the batch drains
    /// without per-request barriers. Each worker reuses one [`Workspace`]
    /// across its units; with one worker the run stays on the caller's
    /// thread. Unit `(r, t)` runs under the masks `masks_for(r, t)` and
    /// rows are reassembled in order, so the result does not depend on
    /// `threads`.
    ///
    /// Every unit executes inside `catch_unwind`: one poisoned sample
    /// (corrupted mask, malformed tensor, any library panic) is dropped
    /// from its request's summary and named in [`IsolatedRun::failed`]
    /// instead of aborting the batch. Surviving rows are bit-identical to
    /// a clean run's. A custom `masks_for` is how the fault-injection
    /// harness poisons individual samples.
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
    pub fn run_with_masks(
        &self,
        bnet: &BayesianNetwork,
        requests: &[McRequest<'_>],
        threads: usize,
        masks_for: impl Fn(usize, usize) -> DropoutMasks + Sync,
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
                ("mode".into(), "exact".into()),
                ("requests".into(), requests.len().to_string()),
            ]
        });
        let units = requests.len() * self.t;
        fbcnn_telemetry::counter_add("mc_samples", &[("path", "exact")], units as u64);
        let run_units = |base: usize, slots: &mut [Option<Vec<f32>>]| {
            let mut ws = Workspace::new();
            for (offset, slot) in slots.iter_mut().enumerate() {
                let (r, t) = ((base + offset) / self.t, (base + offset) % self.t);
                let _sample = fbcnn_telemetry::span_with("mc_sample", || {
                    vec![
                        ("request".into(), r.to_string()),
                        ("sample".into(), t.to_string()),
                    ]
                });
                *slot = catch_unwind(AssertUnwindSafe(|| {
                    let masks = masks_for(r, t);
                    let run = bnet.forward_sample_ws(requests[r].input, &masks, &mut ws);
                    stats::softmax(run.logits())
                }))
                .ok();
                if slot.is_none() {
                    // The panic may have torn the scratch buffers; start
                    // the next unit clean.
                    ws = Workspace::new();
                }
            }
        };
        let mut rows: Vec<Option<Vec<f32>>> = vec![None; units];
        let threads = threads.min(units);
        if threads == 1 {
            run_units(0, &mut rows);
        } else {
            let chunk_len = units.div_ceil(threads);
            let run_units = &run_units;
            let scope_result = crossbeam::thread::scope(|scope| {
                for (worker, chunk) in rows.chunks_mut(chunk_len).enumerate() {
                    scope.spawn(move |_| run_units(worker * chunk_len, chunk));
                }
            });
            // Units never unwind past catch_unwind, so the scope itself
            // cannot fail; keep a typed path anyway instead of unwrapping.
            if scope_result.is_err() {
                return Err(BayesError::AllSamplesFailed { requested: units });
            }
        }
        let mut rows = rows.into_iter();
        let mut out = Vec::with_capacity(requests.len());
        for _ in requests {
            let request_rows: Vec<Option<Vec<f32>>> = rows.by_ref().take(self.t).collect();
            let failed: Vec<usize> = request_rows
                .iter()
                .enumerate()
                .filter_map(|(i, row)| row.is_none().then_some(i))
                .collect();
            if !failed.is_empty() {
                fbcnn_telemetry::counter_add("mc_samples_failed", &[], failed.len() as u64);
            }
            let surviving: Vec<Vec<f32>> = request_rows.into_iter().flatten().collect();
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

    /// Unwraps a one-request run into its prediction — the contract of
    /// [`McDropout::run`] and of callers that pick a thread count for
    /// [`McDropout::run_batch`]: an exact run never summarizes fewer than
    /// `T` samples.
    ///
    /// # Panics
    ///
    /// Panics on an error (such as an input that does not fit the
    /// network), when `result` does not hold exactly one request, or when
    /// any sample was lost.
    pub fn expect_complete(result: Result<Vec<IsolatedRun>, BayesError>) -> Prediction {
        let runs = result.unwrap_or_else(|e| panic!("MC-dropout run failed: {e}"));
        let [run]: [IsolatedRun; 1] = runs
            .try_into()
            .unwrap_or_else(|runs: Vec<_>| panic!("expected one request, got {}", runs.len()));
        assert!(
            run.failed.is_empty(),
            "{} MC samples panicked (indices {:?})",
            run.failed.len(),
            run.failed
        );
        run.prediction
    }

    /// Builds a [`Prediction`] from per-sample probability rows,
    /// reporting malformed inputs as typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::NoSamples`] for an empty row set and
    /// [`BayesError::InconsistentClasses`] when rows disagree on length.
    pub fn try_summarize(sample_probs: Vec<Vec<f32>>) -> Result<Prediction, BayesError> {
        let Some(first) = sample_probs.first() else {
            return Err(BayesError::NoSamples);
        };
        let classes = first.len();
        if !sample_probs.iter().all(|p| p.len() == classes) {
            return Err(BayesError::InconsistentClasses);
        }
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
        Ok(Prediction {
            sample_probs,
            mean,
            class,
            predictive_entropy,
            mutual_information,
        })
    }

    /// Builds a [`Prediction`] from per-sample probability rows.
    ///
    /// # Panics
    ///
    /// Panics if `sample_probs` is empty or rows have differing lengths.
    pub fn summarize(sample_probs: Vec<Vec<f32>>) -> Prediction {
        Self::try_summarize(sample_probs).unwrap_or_else(|e| panic!("{e}"))
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

    /// Thread counts every runner test sweeps: one (caller's thread),
    /// even and odd splits, and more workers than units.
    const THREADS: [usize; 4] = [1, 2, 3, 16];

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let (bnet, input) = setup();
        let runner = McDropout::new(7, 13);
        let seq = runner.run(&bnet, &input);
        let request = [McRequest {
            input: &input,
            seed: 13,
        }];
        for threads in THREADS {
            let mut runs = runner.run_batch(&bnet, &request, threads).unwrap();
            let run = runs.pop().unwrap();
            assert!(run.failed.is_empty());
            assert_eq!(seq, run.prediction, "divergence at {threads} threads");
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

    /// Sample 2 of every request gets a wrong-shaped mask: its forward
    /// pass panics inside the unit, the other samples survive.
    fn poison_sample_two(
        bnet: &BayesianNetwork,
        seed: u64,
    ) -> impl Fn(usize, usize) -> DropoutMasks + Sync + '_ {
        move |_, t| {
            let mut masks = bnet.generate_masks(seed, t);
            if t == 2 {
                let node = bnet.dropout_nodes()[0];
                masks.insert(node, fbcnn_tensor::BitMask::ones(Shape::new(1, 2, 2)));
            }
            masks
        }
    }

    #[test]
    fn isolated_run_contains_poisoned_samples() {
        let (bnet, input) = setup();
        let runner = McDropout::new(6, 21);
        let clean = runner.run(&bnet, &input);
        let request = [McRequest {
            input: &input,
            seed: 21,
        }];
        for threads in THREADS {
            let iso = runner
                .run_with_masks(&bnet, &request, threads, poison_sample_two(&bnet, 21))
                .expect("five samples survive")
                .pop()
                .unwrap();
            assert_eq!(iso.failed, vec![2], "at {threads} threads");
            assert_eq!(iso.prediction.sample_probs.len(), 5);
            // Surviving rows are bit-identical to the clean run's rows.
            for (i, t) in [0usize, 1, 3, 4, 5].into_iter().enumerate() {
                assert_eq!(iso.prediction.sample_probs[i], clean.sample_probs[t]);
            }
        }
    }

    #[test]
    fn isolated_run_reports_total_loss() {
        let (bnet, input) = setup();
        let runner = McDropout::new(3, 21);
        let request = [McRequest {
            input: &input,
            seed: 21,
        }];
        for threads in THREADS {
            let err = runner
                .run_with_masks(&bnet, &request, threads, |_, _| {
                    // Every sample carries a wrong-shaped mask: the
                    // in-unit apply_drop_mask panic kills all of them.
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
    }

    #[test]
    #[should_panic(expected = "MC-dropout run failed")]
    fn run_panics_on_a_wrong_shaped_input() {
        let (bnet, _) = setup();
        let _ = McDropout::new(3, 21).run(&bnet, &Tensor::zeros(Shape::new(3, 3, 3)));
    }

    #[test]
    #[should_panic(expected = "1 MC samples panicked (indices [2])")]
    fn a_lost_sample_panics_run_instead_of_being_summarized() {
        // `run` is `expect_complete` over a one-request, one-thread run;
        // here the same run loses sample 2 through the mask seam.
        let (bnet, input) = setup();
        let request = [McRequest {
            input: &input,
            seed: 21,
        }];
        let runner = McDropout::new(4, 21);
        let _ = McDropout::expect_complete(runner.run_with_masks(
            &bnet,
            &request,
            1,
            poison_sample_two(&bnet, 21),
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
        for threads in THREADS {
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
        let requests = [
            McRequest {
                input: &input,
                seed: 1,
            },
            McRequest {
                input: &bad,
                seed: 2,
            },
        ];
        for threads in THREADS {
            let err = runner.run_batch(&bnet, &requests, threads).unwrap_err();
            assert!(matches!(err, BayesError::Graph(_)));
        }
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
