use crate::skipmap::{build_skip_maps, total_stats, SkipMap, SkipStats};
use crate::{PolarityIndicators, ThresholdError, ThresholdSet};
use fbcnn_bayes::mask::DropoutMasks;
use fbcnn_bayes::{BayesianNetwork, SampleRun};
use fbcnn_nn::NnError;
use fbcnn_tensor::{BitMask, Tensor};
use std::fmt;
use std::sync::Arc;

/// Why a [`PredictiveInference`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorError {
    /// The optimization input does not fit the network.
    Input(NnError),
    /// The threshold set is structurally inconsistent with the network.
    Thresholds(ThresholdError),
}

impl fmt::Display for PredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorError::Input(e) => write!(f, "bad input: {e}"),
            PredictorError::Thresholds(e) => write!(f, "bad thresholds: {e}"),
        }
    }
}

impl std::error::Error for PredictorError {}

impl From<NnError> for PredictorError {
    fn from(e: NnError) -> Self {
        PredictorError::Input(e)
    }
}

impl From<ThresholdError> for PredictorError {
    fn from(e: ThresholdError) -> Self {
        PredictorError::Thresholds(e)
    }
}

/// The *input-invariant* half of a skipping inference: thresholds,
/// weight-polarity indicator maps and the structural upstream-dropout
/// flags. None of these depend on the input image, so one instance can
/// be built per engine and shared (behind an [`Arc`]) across every
/// request a serving layer handles — the cross-request amortization the
/// batched engine exploits.
#[derive(Debug, Clone)]
pub struct PredictorShared {
    thresholds: ThresholdSet,
    indicators: PolarityIndicators,
    /// Per node: whether its inputs carry dropout (structural, so it is
    /// resolved once with probe masks instead of per sample).
    upstream_dropout: Vec<bool>,
}

impl PredictorShared {
    /// Profiles the network's kernels and resolves the structural
    /// upstream-dropout flags — work that is identical for every input.
    pub fn new(bnet: &BayesianNetwork, thresholds: ThresholdSet) -> Self {
        let indicators = PolarityIndicators::from_network(bnet.network());
        let probe = bnet.generate_masks(0, 0);
        let upstream_dropout = bnet
            .network()
            .nodes()
            .iter()
            .map(|n| crate::counting::input_drop_mask(bnet.network(), &probe, n.id()).is_some())
            .collect();
        Self {
            thresholds,
            indicators,
            upstream_dropout,
        }
    }

    /// Fallible constructor: validates the threshold set first.
    ///
    /// # Errors
    ///
    /// [`PredictorError::Thresholds`] when the set fails
    /// [`ThresholdSet::validate`].
    pub fn try_new(
        bnet: &BayesianNetwork,
        thresholds: ThresholdSet,
    ) -> Result<Self, PredictorError> {
        thresholds.validate(bnet.network())?;
        Ok(Self::new(bnet, thresholds))
    }

    /// The thresholds this state was built from.
    pub fn thresholds(&self) -> &ThresholdSet {
        &self.thresholds
    }
}

/// The *per-input* half of a skipping inference: the input itself, its
/// dropout-free pre-inference and the derived zero-neuron indexes.
///
/// Deterministic in the input, so a serving layer may cache instances by
/// [`PreparedInput::fingerprint`] and reuse them across requests that
/// repeat an input — the cached pre-inference is bit-identical to a
/// freshly computed one.
#[derive(Debug, Clone)]
pub struct PreparedInput {
    input: Tensor,
    pre: SampleRun,
    zero_masks: Vec<Option<BitMask>>,
}

impl PreparedInput {
    /// Runs the pre-inference and records the zero-neuron indexes.
    pub fn new(bnet: &BayesianNetwork, input: &Tensor) -> Self {
        let _phase =
            fbcnn_telemetry::span_with("phase", || vec![("stage".into(), "pre_inference".into())]);
        let pre = bnet.forward_deterministic(input);
        let zero_masks = bnet
            .network()
            .nodes()
            .iter()
            .map(|n| {
                n.layer()
                    .filter(|l| l.is_conv())
                    .map(|_| pre.activations[n.id().0].zero_mask())
            })
            .collect();
        Self {
            input: input.clone(),
            pre,
            zero_masks,
        }
    }

    /// The input this state was prepared for.
    pub fn input(&self) -> &Tensor {
        &self.input
    }

    /// The recorded pre-inference.
    pub fn pre_inference(&self) -> &SampleRun {
        &self.pre
    }

    /// 64-bit FNV-1a over the input's shape and exact f32 bit patterns —
    /// the cache key of a pre-inference cache. Two bit-identical inputs
    /// always collide (that is the point); two different inputs collide
    /// with probability ~2⁻⁶⁴, and a careful cache confirms with
    /// [`PreparedInput::matches`] before reuse.
    pub fn fingerprint(input: &Tensor) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let shape = input.shape();
        eat(shape.channels() as u64);
        eat(shape.height() as u64);
        eat(shape.width() as u64);
        for &v in input.as_slice() {
            eat(u64::from(v.to_bits()));
        }
        h
    }

    /// Whether this prepared state was built for exactly `input`
    /// (bit-level comparison — the fingerprint-collision backstop).
    pub fn matches(&self, input: &Tensor) -> bool {
        self.input == *input
    }
}

/// The functional skipping inference — the paper's `PredictInference`.
///
/// Construction runs the dropout-free *pre-inference* once and records
/// every convolution layer's zero-neuron index; each subsequent
/// [`PredictiveInference::run_sample`] then:
///
/// * reuses the pre-inference outputs for layers without upstream dropout
///   (the first-layer shortcut — the dotted path in Fig. 7), applying the
///   dropout mask directly;
/// * for every other convolution layer, computes skip decisions from the
///   resolved input dropout mask, the indicator bits and the thresholds,
///   writes zero for skipped neurons and computes kept neurons with
///   arithmetic identical to the dense pass.
///
/// On neurons it computes, the result is bit-for-bit equal to
/// [`BayesianNetwork::forward_sample`]; the only deviations are
/// mispredicted unaffected neurons forced to zero — the source of the
/// (small) accuracy loss the paper measures.
///
/// Internally the state is split into the input-invariant
/// [`PredictorShared`] and the per-input [`PreparedInput`], both behind
/// [`Arc`]s: [`PredictiveInference::new`] builds both on the spot, while
/// a serving layer reuses one shared state and a cache of prepared
/// inputs via [`PredictiveInference::from_parts`]. The two construction
/// routes yield bit-identical inferences.
#[derive(Debug, Clone)]
pub struct PredictiveInference<'a> {
    bnet: &'a BayesianNetwork,
    shared: Arc<PredictorShared>,
    prepared: Arc<PreparedInput>,
}

/// The outcome of one skipping sample inference.
#[derive(Debug, Clone)]
pub struct SkippingRun {
    /// Per-node outputs (post-dropout), indexed by node id.
    pub activations: Vec<Tensor>,
    /// Per-node skip maps (conv nodes only).
    pub skip_maps: Vec<Option<SkipMap>>,
}

impl SkippingRun {
    /// The final logits.
    pub fn logits(&self) -> &[f32] {
        self.activations
            .last()
            .expect("a built network has nodes")
            .as_slice()
    }

    /// Aggregate skip statistics over all conv layers.
    pub fn stats(&self) -> SkipStats {
        total_stats(&self.skip_maps)
    }
}

impl<'a> PredictiveInference<'a> {
    /// Prepares the engine: runs the pre-inference and profiles kernels.
    pub fn new(bnet: &'a BayesianNetwork, input: &Tensor, thresholds: ThresholdSet) -> Self {
        Self::from_parts(
            bnet,
            Arc::new(PredictorShared::new(bnet, thresholds)),
            Arc::new(PreparedInput::new(bnet, input)),
        )
    }

    /// Assembles an inference from pre-built halves — the serving-layer
    /// entry point that shares one [`PredictorShared`] across requests
    /// and reuses cached [`PreparedInput`]s for repeated inputs.
    pub fn from_parts(
        bnet: &'a BayesianNetwork,
        shared: Arc<PredictorShared>,
        prepared: Arc<PreparedInput>,
    ) -> Self {
        Self {
            bnet,
            shared,
            prepared,
        }
    }

    /// Fallible constructor: validates the input shape and the threshold
    /// set before running the pre-inference.
    ///
    /// [`PredictiveInference::new`] trusts its arguments (the calibrated
    /// path constructs thresholds itself); use `try_new` when the
    /// thresholds or input come from outside — a deserialized artifact, a
    /// fault-injection harness — and an index panic inside the skip-map
    /// builder must become a typed error instead.
    ///
    /// # Errors
    ///
    /// [`PredictorError::Input`] when the input shape disagrees with the
    /// network, [`PredictorError::Thresholds`] when the set fails
    /// [`ThresholdSet::validate`].
    pub fn try_new(
        bnet: &'a BayesianNetwork,
        input: &Tensor,
        thresholds: ThresholdSet,
    ) -> Result<Self, PredictorError> {
        bnet.network().check_input(input)?;
        thresholds.validate(bnet.network())?;
        Ok(Self::new(bnet, input, thresholds))
    }

    /// The recorded pre-inference.
    pub fn pre_inference(&self) -> &SampleRun {
        &self.prepared.pre
    }

    /// Per-node zero-neuron indexes from the pre-inference.
    pub fn zero_masks(&self) -> &[Option<BitMask>] {
        &self.prepared.zero_masks
    }

    /// The thresholds in use.
    pub fn thresholds(&self) -> &ThresholdSet {
        &self.shared.thresholds
    }

    /// The input-invariant half (thresholds, indicators, structure).
    pub fn shared(&self) -> &Arc<PredictorShared> {
        &self.shared
    }

    /// The per-input half (input, pre-inference, zero masks).
    pub fn prepared(&self) -> &Arc<PreparedInput> {
        &self.prepared
    }

    /// Runs a complete skipping MC-dropout inference: `t` sample passes
    /// with the masks `generate_masks(seed, 0..t)`, returning the
    /// per-sample softmax rows plus aggregate skip statistics.
    ///
    /// This is the skipping counterpart of
    /// [`fbcnn_bayes::McDropout::run`]; summarize the rows with
    /// [`fbcnn_bayes::McDropout::summarize`].
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn run_mc(&self, seed: u64, t: usize) -> (Vec<Vec<f32>>, SkipStats) {
        assert!(t > 0, "need at least one sample");
        let _span =
            fbcnn_telemetry::span_with("mc_run", || vec![("mode".into(), "skipping".into())]);
        fbcnn_telemetry::counter_add("mc_samples", &[("path", "skipping")], t as u64);
        let mut probs = Vec::with_capacity(t);
        let mut stats = SkipStats::default();
        for s in 0..t {
            let masks = {
                let _phase = fbcnn_telemetry::span_with("phase", || {
                    vec![("stage".into(), "mask_gen".into())]
                });
                self.bnet.generate_masks(seed, s)
            };
            let run = self.run_sample(&masks);
            stats.absorb(run.stats());
            probs.push(fbcnn_tensor::stats::softmax(run.logits()));
        }
        (probs, stats)
    }

    /// Runs one skipping sample inference under the given dropout masks.
    ///
    /// When a telemetry recorder is installed, each call emits the
    /// `prediction` and `conv` phase spans plus one set of per-layer
    /// `skip_neurons_*` counters derived from the very same [`SkipMap`]s
    /// that [`SkippingRun::stats`] aggregates — the two views reconcile
    /// exactly.
    pub fn run_sample(&self, masks: &DropoutMasks) -> SkippingRun {
        let net = self.bnet.network();
        let skip_maps = {
            let _phase =
                fbcnn_telemetry::span_with("phase", || vec![("stage".into(), "prediction".into())]);
            build_skip_maps(
                net,
                masks,
                &self.prepared.zero_masks,
                &self.shared.indicators,
                &self.shared.thresholds,
            )
        };
        if fbcnn_telemetry::enabled() {
            for &node in &net.conv_nodes() {
                if let Some(map) = skip_maps[node.0].as_ref() {
                    let s = map.stats();
                    let labels = [("layer", net.node(node).label())];
                    fbcnn_telemetry::counter_add(
                        "skip_neurons_considered",
                        &labels,
                        s.total as u64,
                    );
                    fbcnn_telemetry::counter_add("skip_neurons_dropped", &labels, s.dropped as u64);
                    fbcnn_telemetry::counter_add(
                        "skip_neurons_predicted",
                        &labels,
                        s.predicted as u64,
                    );
                    fbcnn_telemetry::counter_add("skip_neurons_skipped", &labels, s.skipped as u64);
                }
            }
        }
        let _conv_phase =
            fbcnn_telemetry::span_with("phase", || vec![("stage".into(), "conv".into())]);
        let activations = net
            .try_forward_with(&self.prepared.input, |net, node, ins| {
                let id = node.id();
                let Some(conv) = node.layer().and_then(|l| l.as_conv()) else {
                    return Ok::<_, NnError>(net.eval_node(node, ins));
                };
                let map = skip_maps[id.0].as_ref().expect("conv nodes have skip maps");
                if !self.shared.upstream_dropout[id.0] {
                    // First-layer shortcut: inputs are identical to the
                    // pre-inference, so reuse its outputs and just apply the
                    // dropout bits.
                    let mut out = self.prepared.pre.activations[id.0].clone();
                    out.apply_drop_mask(&map.dropped);
                    return Ok(out);
                }
                let out_shape = net.shape(id);
                let mut out = Tensor::zeros(out_shape);
                let (out_h, out_w) = (out_shape.height(), out_shape.width());
                let plane = out_shape.plane();
                let input = ins[0];
                for m in 0..conv.out_channels() {
                    let base = m * plane;
                    let skipped = (base..base + plane).filter(|&i| map.is_skipped(i)).count();
                    // Both strategies accumulate in the same (bias, n, i, j)
                    // order, so they are bit-identical on kept neurons; pick
                    // whichever does less work. The dense path's better
                    // constants win only on lightly-skipped channels.
                    if skipped * 4 < plane {
                        // Mostly kept: compute the dense channel, then force
                        // the skipped neurons to zero.
                        conv.forward_channel_into(input, m, out.channel_mut(m));
                        for i in base..base + plane {
                            if map.is_skipped(i) {
                                out.set(i, 0.0);
                            }
                        }
                    } else {
                        for r in 0..out_h {
                            for c in 0..out_w {
                                let i = base + r * out_w + c;
                                if map.is_skipped(i) {
                                    continue; // stays zero
                                }
                                let v = conv.forward_neuron(input, m, r, c);
                                out.set(i, v);
                            }
                        }
                    }
                }
                Ok(out)
            })
            .unwrap_or_else(|e| panic!("skipping pass failed: {e}"));
        SkippingRun {
            activations,
            skip_maps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdOptimizer;
    use fbcnn_nn::models;

    fn setup() -> (BayesianNetwork, Tensor) {
        let bnet = BayesianNetwork::new(models::lenet5(5), 0.3);
        let input = Tensor::from_fn(bnet.network().input_shape(), |_, r, c| {
            ((r * 7 + c * 3) % 13) as f32 / 13.0
        });
        (bnet, input)
    }

    #[test]
    fn never_predict_reproduces_exact_inference() {
        // With prediction disabled, skipping covers exactly the dropped
        // neurons, which are zero in the exact pass too — so the runs must
        // agree bit-for-bit.
        let (bnet, input) = setup();
        let thresholds = ThresholdSet::never_predict(bnet.network().len());
        let engine = PredictiveInference::new(&bnet, &input, thresholds);
        for t in 0..3 {
            let masks = bnet.generate_masks(21, t);
            let exact = bnet.forward_sample(&input, &masks);
            let skipped = engine.run_sample(&masks);
            for (a, b) in exact.activations.iter().zip(&skipped.activations) {
                assert_eq!(a, b, "sample {t} diverged with prediction off");
            }
        }
    }

    #[test]
    fn computed_neurons_are_bit_identical_while_inputs_agree() {
        // Bit-identity holds layer by layer as long as the layer's inputs
        // are untouched by mispredictions. Layer 1 uses the shortcut
        // (exact by construction) and therefore layer 2's inputs agree
        // with the exact run; from layer 3 onward forced zeros upstream
        // may legitimately change computed values.
        let (bnet, input) = setup();
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        let engine = PredictiveInference::new(&bnet, &input, thresholds);
        let masks = bnet.generate_masks(8, 0);
        let exact = bnet.forward_sample(&input, &masks);
        let skipped = engine.run_sample(&masks);
        for &node in bnet.network().conv_nodes().iter().take(2) {
            let map = skipped.skip_maps[node.0].as_ref().unwrap();
            let (a, b) = (&exact.activations[node.0], &skipped.activations[node.0]);
            for i in 0..a.len() {
                if !map.is_skipped(i) {
                    assert_eq!(a.at(i), b.at(i), "non-skipped neuron {i} differs");
                }
            }
        }
    }

    #[test]
    fn skipped_neurons_are_zero() {
        let (bnet, input) = setup();
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        let engine = PredictiveInference::new(&bnet, &input, thresholds);
        let masks = bnet.generate_masks(8, 1);
        let run = engine.run_sample(&masks);
        for &node in &bnet.network().conv_nodes() {
            let map = run.skip_maps[node.0].as_ref().unwrap();
            let act = &run.activations[node.0];
            for i in map.skip.iter_set() {
                assert_eq!(act.at(i), 0.0);
            }
        }
    }

    #[test]
    fn skip_rate_is_substantial_at_default_confidence() {
        let (bnet, input) = setup();
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        let engine = PredictiveInference::new(&bnet, &input, thresholds);
        let masks = bnet.generate_masks(8, 2);
        let stats = engine.run_sample(&masks).stats();
        // The paper estimates 60-75% overall; allow a broad band here.
        assert!(
            stats.skip_rate() > 0.35,
            "skip rate {} unexpectedly low",
            stats.skip_rate()
        );
    }

    #[test]
    fn try_new_screens_inputs_and_thresholds() {
        let (bnet, input) = setup();
        let net_len = bnet.network().len();
        let good = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        assert!(PredictiveInference::try_new(&bnet, &input, good.clone()).is_ok());

        let bad_input = Tensor::zeros(fbcnn_tensor::Shape::new(1, 2, 2));
        assert!(matches!(
            PredictiveInference::try_new(&bnet, &bad_input, good.clone()),
            Err(PredictorError::Input(_))
        ));

        let mut truncated = good;
        let node = bnet.network().conv_nodes()[1];
        truncated.insert(node, vec![7; 3]);
        assert!(matches!(
            PredictiveInference::try_new(&bnet, &input, truncated),
            Err(PredictorError::Thresholds(
                crate::ThresholdError::KernelCountMismatch { .. }
            ))
        ));

        let mut misplaced = ThresholdSet::never_predict(net_len);
        misplaced.insert(fbcnn_nn::NodeId(0), vec![1; 4]);
        assert!(matches!(
            PredictiveInference::try_new(&bnet, &input, misplaced),
            Err(PredictorError::Thresholds(
                crate::ThresholdError::NotAConvNode { node: 0 }
            ))
        ));
    }

    #[test]
    fn from_parts_is_bit_identical_to_new() {
        // The serving layer builds inferences from one shared state and a
        // cached prepared input; that route must reproduce `new` exactly.
        let (bnet, input) = setup();
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        let direct = PredictiveInference::new(&bnet, &input, thresholds.clone());
        let shared = std::sync::Arc::new(PredictorShared::new(&bnet, thresholds));
        let prepared = std::sync::Arc::new(PreparedInput::new(&bnet, &input));
        let assembled = PredictiveInference::from_parts(&bnet, shared.clone(), prepared.clone());
        for t in 0..3 {
            let masks = bnet.generate_masks(31, t);
            let a = direct.run_sample(&masks);
            let b = assembled.run_sample(&masks);
            assert_eq!(a.activations, b.activations, "sample {t} diverged");
            assert_eq!(a.skip_maps, b.skip_maps, "sample {t} skip maps diverged");
        }
        // The same Arcs serve a second request without re-preparation.
        let again = PredictiveInference::from_parts(&bnet, shared, prepared);
        let masks = bnet.generate_masks(31, 0);
        assert_eq!(
            again.run_sample(&masks).activations,
            direct.run_sample(&masks).activations
        );
    }

    #[test]
    fn fingerprint_separates_inputs_and_matches_confirms() {
        let (bnet, input) = setup();
        let a = PreparedInput::fingerprint(&input);
        assert_eq!(a, PreparedInput::fingerprint(&input), "not deterministic");
        let mut other = input.clone();
        other.set(0, other.at(0) + 0.25);
        assert_ne!(a, PreparedInput::fingerprint(&other));
        let prepared = PreparedInput::new(&bnet, &input);
        assert!(prepared.matches(&input));
        assert!(!prepared.matches(&other));
        assert_eq!(prepared.input(), &input);
        assert_eq!(
            prepared.pre_inference().activations.len(),
            bnet.network().len()
        );
    }

    #[test]
    fn shared_state_validates_thresholds() {
        let (bnet, input) = setup();
        let good = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        assert!(PredictorShared::try_new(&bnet, good.clone()).is_ok());
        let mut truncated = good;
        truncated.insert(bnet.network().conv_nodes()[1], vec![7; 3]);
        assert!(matches!(
            PredictorShared::try_new(&bnet, truncated),
            Err(PredictorError::Thresholds(_))
        ));
    }

    #[test]
    fn output_quality_is_close_to_exact() {
        let (bnet, input) = setup();
        let thresholds = ThresholdOptimizer::default().optimize(&bnet, &input, 3);
        let engine = PredictiveInference::new(&bnet, &input, thresholds);
        let mut max_diff = 0.0f32;
        for t in 0..4 {
            let masks = bnet.generate_masks(8, t);
            let exact = bnet.forward_sample(&input, &masks);
            let skipped = engine.run_sample(&masks);
            let e = fbcnn_tensor::stats::softmax(exact.logits());
            let s = fbcnn_tensor::stats::softmax(skipped.logits());
            for (a, b) in e.iter().zip(&s) {
                max_diff = max_diff.max((a - b).abs());
            }
        }
        assert!(
            max_diff < 0.25,
            "probability divergence {max_diff} too large"
        );
    }
}
