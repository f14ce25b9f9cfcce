use crate::skipmap::{build_skip_maps, total_stats, SkipMap, SkipStats};
use crate::{PolarityIndicators, ThresholdSet};
use fbcnn_bayes::mask::DropoutMasks;
use fbcnn_bayes::{BayesianNetwork, SampleRun};
use fbcnn_nn::{NnError, NodeId, Workspace};
use fbcnn_tensor::{hash::Fnv1a, BitMask, Tensor};
use std::sync::Arc;

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

    /// Whether `node`'s inputs carry dropout. `false` means the node sees
    /// identical inputs in every sample (the first-layer shortcut).
    pub fn upstream_dropout(&self, node: NodeId) -> bool {
        self.upstream_dropout[node.0]
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
        let mut h = Fnv1a::new();
        let shape = input.shape();
        h.write_u64(shape.channels() as u64);
        h.write_u64(shape.height() as u64);
        h.write_u64(shape.width() as u64);
        for &v in input.as_slice() {
            h.write_u64(u64::from(v.to_bits()));
        }
        h.finish()
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
///   computes the layer with the blocked kernel
///   ([`fbcnn_nn::Conv2d::forward_ws`], one [`Workspace`] per sample) and
///   then writes zero for every neuron the skip map names.
///
/// On the CPU this saves no multiply-accumulates: skipped neurons are
/// computed and then discarded. On B-VGG16 dense-plus-mask measured
/// faster than a kernel that gathers only kept columns; a skip-aware
/// kernel replaces it only by beating it. The MAC savings of skipping
/// are modelled by the cycle simulators in `fbcnn-accel`.
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

    /// The recorded pre-inference.
    pub fn pre_inference(&self) -> &SampleRun {
        &self.prepared.pre
    }

    /// Per-node zero-neuron indexes from the pre-inference.
    pub fn zero_masks(&self) -> &[Option<BitMask>] {
        &self.prepared.zero_masks
    }

    /// The input-invariant half (thresholds, indicators, structure).
    pub fn shared(&self) -> &Arc<PredictorShared> {
        &self.shared
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

    /// The per-node skip maps of one sample under `masks` (conv nodes
    /// only): the decisions [`PredictiveInference::run_sample`] acts on.
    pub fn skip_maps(&self, masks: &DropoutMasks) -> Vec<Option<SkipMap>> {
        build_skip_maps(
            self.bnet.network(),
            masks,
            &self.prepared.zero_masks,
            &self.shared.indicators,
            &self.shared.thresholds,
        )
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
            self.skip_maps(masks)
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
        let mut ws = Workspace::new();
        let activations = net
            .try_forward_with(&self.prepared.input, |net, node, ins| {
                let id = node.id();
                let Some(conv) = node.layer().and_then(|l| l.as_conv()) else {
                    return Ok::<_, NnError>(net.eval_node(node, ins));
                };
                let map = skip_maps[id.0].as_ref().expect("conv nodes have skip maps");
                if !self.shared.upstream_dropout(id) {
                    // First-layer shortcut: inputs are identical to the
                    // pre-inference, so reuse its outputs and just apply the
                    // dropout bits.
                    let mut out = self.prepared.pre.activations[id.0].clone();
                    out.apply_drop_mask(&map.dropped);
                    return Ok(out);
                }
                // The software skip engine: kept neurons come from the
                // dense blocked kernel, which accumulates in the exact
                // pass's order; skipped neurons are then written as zero.
                let mut out = conv.forward_ws(ins[0], &mut ws);
                out.apply_drop_mask(&map.skip);
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
