//! Seeded, deterministic fault injection for robustness testing.
//!
//! The harness perturbs a Fast-BCNN pipeline at its four attack surfaces
//! — convolution weights, activations, dropout masks and calibrated
//! thresholds — and can fabricate masks that kill individual MC workers.
//! Every choice derives from the injector's own splitmix64 stream, so a
//! fault campaign is exactly reproducible from its seed (the same
//! discipline the mask generator uses; nothing here touches global
//! randomness).
//!
//! The injector only *creates* faults. Detection and recovery live in
//! [`fbcnn_nn::ActivationGuard`], [`fbcnn_predictor::ThresholdSet::validate`]
//! and [`fast_bcnn::Engine::predict_robust_controlled`];
//! `tests/fault_injection.rs` closes the loop.

use fast_bcnn::supervise::shard_route;
use fast_bcnn::{ModelArtifact, RequestSampleHook, Supervisor};
use fbcnn_bayes::mask::DropoutMasks;
use fbcnn_bayes::BayesianNetwork;
use fbcnn_nn::{Network, NodeId};
use fbcnn_predictor::{PolarityIndicators, ThresholdSet};
use fbcnn_tensor::hash::{mix64, GOLDEN_GAMMA};
use fbcnn_tensor::{BitMask, Shape, Tensor};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A late-bound handle to a [`Supervisor`], for fault injectors built
/// before the registry (and thus the supervisor) exists. The chaos
/// harness fills the slot after boot; a hook holding the gate consults
/// the supervisor's live health on every fire, so a shard poison dies
/// with its shard's quarantine instead of chasing failed-over requests
/// onto healthy shards.
pub type SupervisorGate = Arc<Mutex<Option<Arc<Supervisor>>>>;

/// Poison-tolerant lock on a [`SupervisorGate`].
pub fn lock_gate(gate: &SupervisorGate) -> MutexGuard<'_, Option<Arc<Supervisor>>> {
    gate.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether the gate's supervisor (if the gate is filled yet) still
/// reports `shard` in the routing ring. An unfilled gate reports live —
/// a poison armed before boot must actually bite.
fn gate_reports_live(gate: &SupervisorGate, shard: usize) -> bool {
    match lock_gate(gate).as_ref() {
        Some(sup) => sup.health(shard).is_live(),
        None => true,
    }
}

/// A seeded per-sample latency schedule: some samples stall for a
/// deterministic delay, the rest run untouched. Latency faults perturb
/// *time only* — the regression suite asserts the numerics are
/// bit-identical with and without the schedule installed.
#[derive(Debug, Clone)]
pub struct LatencySchedule {
    /// `delays[s % delays.len()]` is sample `s`'s stall (possibly zero).
    delays: Vec<Duration>,
}

impl LatencySchedule {
    /// The period of the precomputed delay table.
    const PERIOD: usize = 64;

    /// Builds the schedule from precomputed injector draws: each of the
    /// 64 table slots stalls with probability `rate`, for a uniform
    /// duration in `(0, max_delay]`.
    fn from_injector(inj: &mut FaultInjector, rate: f64, max_delay: Duration) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let delays = (0..Self::PERIOD)
            .map(|_| {
                let roll = (inj.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                if roll < rate && !max_delay.is_zero() {
                    let frac = (inj.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    Duration::from_nanos(((max_delay.as_nanos() as f64) * frac).max(1.0) as u64)
                } else {
                    Duration::ZERO
                }
            })
            .collect();
        Self { delays }
    }

    /// The stall scheduled for sample index `s` (zero for most).
    pub fn delay_for(&self, sample: usize) -> Duration {
        self.delays[sample % self.delays.len()]
    }

    /// Samples with a nonzero stall in one table period.
    pub fn stalled_slots(&self) -> usize {
        self.delays.iter().filter(|d| !d.is_zero()).count()
    }

    /// Wraps the schedule as a sample hook that sleeps the scheduled
    /// stall — pluggable into `RunControl::sample_hook`.
    pub fn into_hook(self) -> Arc<dyn Fn(usize) + Send + Sync> {
        Arc::new(move |s| {
            let d = self.delay_for(s);
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        })
    }
}

/// A record of one injected bit flip (for logs and assertions).
#[derive(Debug, Clone, PartialEq)]
pub struct BitFlip {
    /// Label of the layer hit (weight flips) or `"activation"`.
    pub site: String,
    /// Linear index of the perturbed value.
    pub index: usize,
    /// Which of the 32 bits was flipped.
    pub bit: u32,
    /// Value before the flip.
    pub before: f32,
    /// Value after the flip.
    pub after: f32,
}

/// How [`FaultInjector::poison_thresholds`] corrupts a threshold set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdFault {
    /// Every threshold becomes `u16::MAX`: every zero neuron is predicted
    /// unaffected and skipped. Structurally valid — slips past
    /// [`fbcnn_predictor::ThresholdSet::validate`] and must be caught
    /// behaviorally (canary / skip-rate checks).
    Saturate,
    /// Each vector loses its last entry: a kernel-count mismatch that
    /// [`fbcnn_predictor::ThresholdSet::validate`] reports as a typed
    /// error (and that would index-panic inside the skip-map builder).
    Truncate,
    /// A threshold vector is reattached to a non-conv node — the
    /// misaddressed-artifact shape of poisoning, also caught structurally.
    Misaddress,
}

/// How [`FaultInjector::corrupt_artifact_file`] damages a saved model
/// artifact on disk. Every class must surface as a typed
/// [`fast_bcnn::ArtifactError`] at load time — never a panic, never a
/// silently different model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFault {
    /// One high bit of one payload byte flips (storage rot, a bad NIC).
    /// The flip lands in the payload's back half — the weight/threshold
    /// bulk covered by the content digest — so it is caught either as a
    /// parse failure or as a digest mismatch.
    PayloadBitFlip,
    /// The file is cut at a random byte (interrupted download / partial
    /// write): the strict envelope parser or the payload decoder refuses
    /// the remainder.
    Truncate,
    /// The envelope's format version is rewritten to a future number — a
    /// file from a build this one does not understand.
    VersionSkew,
}

/// Deterministic fault source; see the module docs.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// An injector whose whole fault sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// splitmix64 — small, seedable, and plenty for picking fault sites.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Flips one random bit in one random convolution weight.
    ///
    /// High exponent bits produce huge or non-finite values (detected by
    /// the activation guard); mantissa bits produce silent small drift
    /// (the canary's territory). The bit index is drawn uniformly, so a
    /// campaign over many seeds covers both regimes.
    ///
    /// Returns `None` when the network has no convolution weights.
    pub fn flip_conv_weight_bit(&mut self, net: &mut Network) -> Option<BitFlip> {
        let mut convs: Vec<(String, &mut [f32])> = net
            .layers_mut()
            .filter_map(|(label, layer)| {
                layer
                    .as_conv_mut()
                    .map(|c| (label.to_string(), c.weights_mut()))
            })
            .collect();
        if convs.is_empty() {
            return None;
        }
        let (site, weights) = convs.swap_remove(self.below(convs.len()));
        let index = self.below(weights.len());
        let bit = self.next_u64() as u32 % 32;
        let before = weights[index];
        let after = f32::from_bits(before.to_bits() ^ (1 << bit));
        weights[index] = after;
        Some(BitFlip {
            site,
            index,
            bit,
            before,
            after,
        })
    }

    /// Overwrites one random convolution weight with `NaN` — the
    /// worst-case weight fault (a bit flip that lands in the quiet-NaN
    /// encoding), guaranteed non-finite for detection tests.
    pub fn poison_conv_weight_nan(&mut self, net: &mut Network) -> Option<BitFlip> {
        let mut convs: Vec<(String, &mut [f32])> = net
            .layers_mut()
            .filter_map(|(label, layer)| {
                layer
                    .as_conv_mut()
                    .map(|c| (label.to_string(), c.weights_mut()))
            })
            .collect();
        if convs.is_empty() {
            return None;
        }
        let (site, weights) = convs.swap_remove(self.below(convs.len()));
        let index = self.below(weights.len());
        let before = weights[index];
        weights[index] = f32::NAN;
        Some(BitFlip {
            site,
            index,
            bit: 22, // the quiet bit, nominally
            before,
            after: f32::NAN,
        })
    }

    /// Flips one random bit of one random element of a tensor
    /// (activation corruption between layers).
    pub fn flip_tensor_bit(&mut self, t: &mut Tensor) -> BitFlip {
        let slice = t.as_mut_slice();
        let index = self.below(slice.len());
        let bit = self.next_u64() as u32 % 32;
        let before = slice[index];
        let after = f32::from_bits(before.to_bits() ^ (1 << bit));
        slice[index] = after;
        BitFlip {
            site: "activation".into(),
            index,
            bit,
            before,
            after,
        }
    }

    /// Flips `flips` random bits across a sample's dropout masks
    /// (mask-buffer corruption). Shapes stay intact, so the result is a
    /// *valid but wrong* mask set — the fault class that cannot be caught
    /// structurally and must instead be absorbed statistically (a few
    /// flipped dropout bits are within MC-dropout's own noise).
    ///
    /// Returns the number of bits actually flipped (0 when the set is
    /// empty).
    pub fn corrupt_masks(&mut self, masks: &mut DropoutMasks, flips: usize) -> usize {
        let nodes: Vec<NodeId> = masks.iter().map(|(node, _)| node).collect();
        if nodes.is_empty() {
            return 0;
        }
        for _ in 0..flips {
            let node = nodes[self.below(nodes.len())];
            let mut mask = masks.get(node).cloned().unwrap_or_else(|| {
                // Unreachable: `node` came from the iterator above.
                BitMask::zeros(Shape::new(1, 1, 1))
            });
            let i = self.below(mask.len());
            let flipped = !mask.get(i);
            mask.set(i, flipped);
            masks.insert(node, mask);
        }
        flips
    }

    /// Corrupts a calibrated threshold set in place (see
    /// [`ThresholdFault`] for the three poisoning shapes).
    pub fn poison_thresholds(
        &mut self,
        set: &mut ThresholdSet,
        net: &Network,
        mode: ThresholdFault,
    ) {
        let nodes: Vec<NodeId> = set.nodes().collect();
        match mode {
            ThresholdFault::Saturate => {
                for node in nodes {
                    let saturated = set
                        .get(node)
                        .map(|t| vec![u16::MAX; t.len()])
                        .unwrap_or_default();
                    set.insert(node, saturated);
                }
            }
            ThresholdFault::Truncate => {
                for node in nodes {
                    let truncated = set
                        .get(node)
                        .map(|t| t[..t.len().saturating_sub(1)].to_vec())
                        .unwrap_or_default();
                    set.insert(node, truncated);
                }
            }
            ThresholdFault::Misaddress => {
                // Reattach one carried vector to a random node that is
                // not a convolution (node 0, the input, always qualifies).
                if let Some(&node) = nodes.first() {
                    let vector = set.get(node).map(<[u16]>::to_vec).unwrap_or_default();
                    let non_conv: Vec<NodeId> = (0..net.len())
                        .map(NodeId)
                        .filter(|&id| {
                            net.node(id)
                                .layer()
                                .and_then(fbcnn_nn::Layer::as_conv)
                                .is_none()
                        })
                        .collect();
                    if let Some(&target) = non_conv.get(self.below(non_conv.len().max(1))) {
                        set.insert(target, vector);
                    }
                }
            }
        }
    }

    /// Damages a saved [`ModelArtifact`] file in place (see
    /// [`ArtifactFault`] for the three byte-level classes).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures reading or rewriting the file.
    pub fn corrupt_artifact_file(
        &mut self,
        path: impl AsRef<Path>,
        fault: ArtifactFault,
    ) -> std::io::Result<()> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let damaged = match fault {
            ArtifactFault::PayloadBitFlip => {
                let mut b = bytes;
                if !b.is_empty() {
                    // The back half of a model artifact is the
                    // weight/threshold/indicator bulk, all inside the
                    // digested payload; the front holds the (undigested)
                    // label and version fields. Only the top two bits
                    // qualify: a low-bit flip in the decimal tail of a
                    // printed float can round back to the same f32 — no
                    // damage at the model's own precision — while a flip
                    // of bit 6/7 always breaks UTF-8, the JSON grammar or
                    // a digested value.
                    let lo = b.len() / 2;
                    let i = lo + self.below(b.len() - lo);
                    b[i] ^= 1 << (6 + self.next_u64() % 2);
                }
                b
            }
            ArtifactFault::Truncate => {
                let keep = self.below(bytes.len().max(1));
                bytes[..keep].to_vec()
            }
            ArtifactFault::VersionSkew => {
                let text = String::from_utf8_lossy(&bytes).into_owned();
                // The envelope's own version field precedes the payload's
                // `model_version`, so the first match is the right one.
                let needle = format!("\"version\":{}", fast_bcnn::io::FORMAT_VERSION);
                text.replacen(&needle, "\"version\":99", 1).into_bytes()
            }
        };
        std::fs::write(path, damaged)
    }

    /// Truncates the artifact's threshold vectors and reseals the digest
    /// — a buggy exporter that shipped shape-mismatched thresholds with
    /// an honest checksum. Only the structural screen
    /// (`ThresholdSet::validate`) can refuse this one.
    pub fn mismatch_artifact_thresholds(&mut self, artifact: &mut ModelArtifact) {
        let net = artifact.network.clone();
        self.poison_thresholds(&mut artifact.thresholds, &net, ThresholdFault::Truncate);
        artifact.digest = artifact.content_digest();
    }

    /// Grafts a foreign network's weights into the artifact (indicators
    /// recomputed, digest resealed) while keeping the original
    /// thresholds — the mixed-model artifact whose thresholds no longer
    /// fit the weights they ship with. `donor` must differ in topology
    /// from the artifact's own network for the mismatch to exist.
    pub fn graft_artifact_network(&mut self, artifact: &mut ModelArtifact, donor: &Network) {
        artifact.network = donor.clone();
        artifact.indicators = PolarityIndicators::from_network(donor);
        artifact.digest = artifact.content_digest();
    }

    /// Draws a seeded per-sample [`LatencySchedule`]: each slot of the
    /// 64-entry table stalls with probability `rate` for a uniform
    /// duration up to `max_delay`. Consumes injector draws, so schedules
    /// drawn from one injector differ (but replay exactly per seed).
    pub fn latency_schedule(&mut self, rate: f64, max_delay: Duration) -> LatencySchedule {
        LatencySchedule::from_injector(self, rate, max_delay)
    }

    /// A per-shard panic poison: while `armed`, every sample of every
    /// request whose *primary* route is `target` panics (a `"chaos:"`
    /// payload, silenced while a soak runs).
    ///
    /// The hook only sees request ids, so after supervision quarantines
    /// the shard the same ids keep arriving — served by a *healthy*
    /// failover shard. The `gate` makes the poison die with its shard: a
    /// hook fires only while the supervisor (once the gate is filled)
    /// still reports `target` in the routing ring. Probes of the rebuilt
    /// shard and failed-over traffic run clean.
    pub fn shard_panic_hook(
        routing_seed: u64,
        shards: usize,
        target: usize,
        armed: Arc<AtomicBool>,
        gate: SupervisorGate,
    ) -> RequestSampleHook {
        Arc::new(move |id: u64, _attempt: u32, _sample: usize| {
            if armed.load(Ordering::Relaxed)
                && shard_route(routing_seed, shards, id) == target
                && gate_reports_live(&gate, target)
            {
                panic!("chaos: shard {target} poisoned — crashes every sample");
            }
        })
    }

    /// A per-shard hang poison: like
    /// [`FaultInjector::shard_panic_hook`], but the worker stalls for
    /// `stall` instead of panicking — long enough (relative to the
    /// resilience watchdog) to trigger requeues and typed `worker_hung`
    /// abandonment.
    pub fn shard_hang_hook(
        routing_seed: u64,
        shards: usize,
        target: usize,
        armed: Arc<AtomicBool>,
        gate: SupervisorGate,
        stall: Duration,
    ) -> RequestSampleHook {
        Arc::new(move |id: u64, _attempt: u32, _sample: usize| {
            if armed.load(Ordering::Relaxed)
                && shard_route(routing_seed, shards, id) == target
                && gate_reports_live(&gate, target)
            {
                std::thread::sleep(stall);
            }
        })
    }

    /// Masks that kill the worker of any sample they are applied to: the
    /// first dropout node receives a mask of the wrong shape, which the
    /// mask-application path rejects by panicking. Used to exercise the
    /// per-sample `catch_unwind` isolation in the MC runner.
    pub fn sample_killing_masks(bnet: &BayesianNetwork) -> DropoutMasks {
        let net = bnet.network();
        let mut masks = DropoutMasks::empty(net.len());
        if let Some(&node) = bnet.dropout_nodes().first() {
            let shape = net.shape(node);
            let wrong = Shape::new(shape.channels() + 1, shape.height(), shape.width());
            masks.insert(node, BitMask::ones(wrong));
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbcnn_nn::models;

    fn net() -> Network {
        models::lenet5(3)
    }

    #[test]
    fn injector_is_deterministic() {
        let mut a = FaultInjector::new(9);
        let mut b = FaultInjector::new(9);
        let (mut na, mut nb) = (net(), net());
        let (fa, fb) = (
            a.flip_conv_weight_bit(&mut na).unwrap(),
            b.flip_conv_weight_bit(&mut nb).unwrap(),
        );
        // Compare bit patterns: a flip may legitimately produce NaN.
        assert_eq!(
            (fa.site, fa.index, fa.bit, fa.after.to_bits()),
            (fb.site, fb.index, fb.bit, fb.after.to_bits())
        );
        let mut ta = Tensor::full(Shape::new(1, 4, 4), 0.5);
        let mut tb = Tensor::full(Shape::new(1, 4, 4), 0.5);
        let (ga, gb) = (a.flip_tensor_bit(&mut ta), b.flip_tensor_bit(&mut tb));
        assert_eq!(
            (ga.index, ga.bit, ga.after.to_bits()),
            (gb.index, gb.bit, gb.after.to_bits())
        );
    }

    #[test]
    fn weight_flip_changes_exactly_one_bit() {
        let mut n = net();
        let flip = FaultInjector::new(4).flip_conv_weight_bit(&mut n).unwrap();
        assert_eq!(
            (flip.before.to_bits() ^ flip.after.to_bits()).count_ones(),
            1
        );
    }

    #[test]
    fn nan_poisoning_lands_a_nan() {
        let mut n = net();
        let flip = FaultInjector::new(4)
            .poison_conv_weight_nan(&mut n)
            .unwrap();
        assert!(flip.after.is_nan());
        let poisoned = n
            .layers_mut()
            .filter_map(|(_, l)| l.as_conv_mut())
            .any(|c| c.weights_mut().iter().any(|w| w.is_nan()));
        assert!(poisoned);
    }

    #[test]
    fn mask_corruption_flips_requested_bits() {
        let bnet = BayesianNetwork::new(net(), 0.3);
        let clean = bnet.generate_masks(5, 0);
        let mut dirty = clean.clone();
        let flipped = FaultInjector::new(6).corrupt_masks(&mut dirty, 7);
        assert_eq!(flipped, 7);
        let diff: usize = clean
            .iter()
            .map(|(node, mask)| {
                let d = dirty.get(node).unwrap();
                (0..mask.len()).filter(|&i| mask.get(i) != d.get(i)).count()
            })
            .sum();
        // Flips can collide on the same bit; parity of the count survives.
        assert!((1..=7).contains(&diff), "diff {diff}");
    }

    #[test]
    fn threshold_poisoning_shapes() {
        let bnet = BayesianNetwork::new(net(), 0.3);
        let input = Tensor::full(bnet.network().input_shape(), 0.4);
        let clean = fbcnn_predictor::ThresholdOptimizer::default().optimize(&bnet, &input, 2);
        let mut inj = FaultInjector::new(11);

        let mut saturated = clean.clone();
        inj.poison_thresholds(&mut saturated, bnet.network(), ThresholdFault::Saturate);
        assert_eq!(saturated.validate(bnet.network()), Ok(()));
        assert!(saturated.mean() > clean.mean());

        let mut truncated = clean.clone();
        inj.poison_thresholds(&mut truncated, bnet.network(), ThresholdFault::Truncate);
        assert!(truncated.validate(bnet.network()).is_err());

        let mut misaddressed = clean.clone();
        inj.poison_thresholds(
            &mut misaddressed,
            bnet.network(),
            ThresholdFault::Misaddress,
        );
        assert!(misaddressed.validate(bnet.network()).is_err());
    }

    #[test]
    fn latency_schedule_is_seeded_and_bounded() {
        let cap = Duration::from_millis(3);
        let a = FaultInjector::new(77).latency_schedule(0.25, cap);
        let b = FaultInjector::new(77).latency_schedule(0.25, cap);
        for s in 0..200 {
            assert_eq!(a.delay_for(s), b.delay_for(s));
            assert!(a.delay_for(s) <= cap);
        }
        assert!(a.stalled_slots() > 0, "rate 0.25 over 64 slots");
        let none = FaultInjector::new(77).latency_schedule(0.0, cap);
        assert_eq!(none.stalled_slots(), 0);
    }

    #[test]
    fn killing_masks_have_a_wrong_shape() {
        let bnet = BayesianNetwork::new(net(), 0.3);
        let masks = FaultInjector::sample_killing_masks(&bnet);
        let node = bnet.dropout_nodes()[0];
        assert_ne!(masks.get(node).unwrap().shape(), bnet.network().shape(node));
    }

    #[test]
    fn shard_poison_dies_with_its_shards_quarantine() {
        use fast_bcnn::supervise::{OutcomeSignal, ShardHealth, SuperviseConfig, Supervisor};
        let _quiet = crate::harness::SilencedChaosPanics::install();
        let (seed, shards, target) = (0x5EED, 2usize, 0usize);
        let armed = Arc::new(AtomicBool::new(true));
        let gate: SupervisorGate = Arc::new(Mutex::new(None));
        let hook = FaultInjector::shard_panic_hook(
            seed,
            shards,
            target,
            Arc::clone(&armed),
            Arc::clone(&gate),
        );
        let id_on_target = (0..)
            .find(|&id| shard_route(seed, shards, id) == target)
            .unwrap();

        // Unfilled gate: the poison bites.
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (*hook)(id_on_target, 0, 0)))
                .is_err()
        );
        // Disarmed: quiet.
        armed.store(false, Ordering::Relaxed);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (*hook)(id_on_target, 0, 0)))
                .is_ok()
        );
        armed.store(true, Ordering::Relaxed);

        // Filled gate, shard live: bites. Shard quarantined: the same id
        // (now failing over to a healthy shard) runs clean.
        let clock = Arc::new(fbcnn_telemetry::ManualClock::new());
        let sup = Arc::new(
            Supervisor::new(
                shards,
                seed,
                SuperviseConfig {
                    clock: clock.clone() as Arc<dyn fbcnn_telemetry::Clock>,
                    window_ns: 100,
                    min_observations: 2,
                    suspect_strikes: 1,
                    ..SuperviseConfig::default()
                },
            )
            .unwrap(),
        );
        *lock_gate(&gate) = Some(Arc::clone(&sup));
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (*hook)(id_on_target, 0, 0)))
                .is_err()
        );
        // Two bad windows: Healthy → Suspect → Quarantined.
        for _ in 0..2 {
            for _ in 0..4 {
                sup.observe(
                    target,
                    OutcomeSignal {
                        ok: false,
                        expired: false,
                        abandoned: false,
                        probe: false,
                    },
                );
            }
            clock.advance(101);
            sup.observe(
                target,
                OutcomeSignal {
                    ok: false,
                    expired: false,
                    abandoned: false,
                    probe: false,
                },
            );
        }
        assert_eq!(sup.health(target), ShardHealth::Quarantined);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (*hook)(id_on_target, 0, 0)))
                .is_ok()
        );
    }
}
