//! A small SGD trainer for sequential networks.
//!
//! The paper retrains its models during the offline threshold-optimization
//! stage; more importantly, the accuracy experiments need a model whose
//! predictions *mean* something. This module provides enough machinery to
//! train LeNet-5 on [`crate::data::SynthDigits`] from scratch:
//! cross-entropy loss, exact backward passes for convolution, max/avg
//! pooling and dense layers (with fused ReLU), and momentum SGD.
//!
//! Only *sequential* networks are supported (each layer feeds the next);
//! LeNet-5 qualifies. The big Inception/VGG models use the calibrated
//! initialization instead (see [`crate::init`]).

use crate::data::SynthSample;
use crate::{Layer, Network, Op, PoolKind};
use fbcnn_tensor::{hash::mix64, stats, Tensor};

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Bernoulli dropout rate applied to every convolution output during
    /// training — the Bayesian training procedure (Gal & Ghahramani): a
    /// network destined for MC-dropout inference must be trained under
    /// the same stochastic regularization, with the same unscaled-mask
    /// semantics the inference path uses.
    pub dropout: f64,
    /// Seed for the training dropout masks.
    pub dropout_seed: u64,
    /// Per-epoch learning-rate multiplier (1.0 = constant LR). Dropout
    /// training is noisy; a gentle decay keeps late epochs from undoing
    /// early progress.
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            momentum: 0.9,
            epochs: 4,
            batch_size: 16,
            dropout: 0.3,
            dropout_seed: 0x7121,
            lr_decay: 0.7,
        }
    }
}

/// Summary returned by [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub final_train_accuracy: f32,
}

/// Cross-entropy loss of `logits` against an integer label.
///
/// # Panics
///
/// Panics if `label` is out of range or `logits` is empty.
pub fn cross_entropy(logits: &[f32], label: usize) -> f32 {
    assert!(label < logits.len(), "label {label} out of range");
    let p = stats::softmax(logits);
    -(p[label].max(1e-12)).ln()
}

/// Classification accuracy of `net` over `data`.
pub fn accuracy(net: &Network, data: &[SynthSample]) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = data
        .iter()
        .filter(|s| stats::argmax(&net.forward(&s.image)) == s.label)
        .count();
    correct as f32 / data.len() as f32
}

/// Checks that every layer node consumes the immediately preceding node.
fn assert_sequential(net: &Network) {
    for node in net.nodes().iter().skip(1) {
        assert!(
            matches!(node.op(), Op::Layer(_)),
            "trainer supports sequential layer chains only (node {} is {:?})",
            node.label(),
            node.op()
        );
        assert_eq!(
            node.inputs(),
            &[crate::NodeId(node.id().0 - 1)],
            "trainer supports sequential layer chains only"
        );
    }
}

/// Per-node gradient buffers.
struct Grads {
    w: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl Grads {
    fn zeros_like(net: &Network) -> Self {
        let mut w = Vec::new();
        let mut b = Vec::new();
        for node in net.nodes() {
            match node.op() {
                Op::Layer(Layer::Conv(c)) => {
                    w.push(vec![0.0; c.weights().len()]);
                    b.push(vec![0.0; c.bias().len()]);
                }
                Op::Layer(Layer::Dense(d)) => {
                    w.push(vec![0.0; d.weights().len()]);
                    b.push(vec![0.0; d.bias().len()]);
                }
                _ => {
                    w.push(Vec::new());
                    b.push(Vec::new());
                }
            }
        }
        Self { w, b }
    }

    fn clear(&mut self) {
        for v in self.w.iter_mut().chain(self.b.iter_mut()) {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
    }
}

/// One forward pass keeping everything backward needs.
struct ForwardCache {
    /// Output tensor per node (index = node id).
    outputs: Vec<Tensor>,
    /// Max-pool argmax per node (empty for others).
    argmax: Vec<Vec<usize>>,
}

/// Cheap deterministic Bernoulli bit for training dropout.
#[inline]
fn drop_bit(seed: u64, node: usize, i: usize, rate: f64) -> bool {
    let key = seed
        .wrapping_add((node as u64) << 32)
        .wrapping_add(i as u64);
    ((mix64(key) & 0xFFFF) as f64 / 65536.0) < rate
}

fn forward_cached(net: &Network, input: &Tensor, dropout: Option<(f64, u64)>) -> ForwardCache {
    let mut outputs: Vec<Tensor> = Vec::with_capacity(net.len());
    let mut argmax: Vec<Vec<usize>> = Vec::with_capacity(net.len());
    for node in net.nodes() {
        let (mut out, arg) = match node.op() {
            Op::Input => (input.clone(), Vec::new()),
            Op::Layer(Layer::Pool(p)) if p.kind() == PoolKind::Max => {
                let (o, a) = p.forward_with_argmax(&outputs[node.id().0 - 1]);
                (o, a)
            }
            Op::Layer(l) => (l.forward(&outputs[node.id().0 - 1]), Vec::new()),
            Op::Concat => unreachable!("sequential nets have no concat"),
        };
        // Training dropout on conv outputs, with the same unscaled-mask
        // semantics as BCNN inference. Dropped (zeroed) neurons have zero
        // gradient automatically: the backward pass gates on `out == 0`
        // exactly as it does for ReLU.
        if let (Some((rate, seed)), Op::Layer(Layer::Conv(_))) = (dropout, node.op()) {
            let id = node.id().0;
            for i in 0..out.len() {
                if drop_bit(seed, id, i, rate) {
                    out.set(i, 0.0);
                }
            }
        }
        outputs.push(out);
        argmax.push(arg);
    }
    ForwardCache { outputs, argmax }
}

/// Backward pass for one sample; accumulates into `grads`, returns loss.
#[allow(clippy::needless_range_loop)]
fn backward(net: &Network, cache: &ForwardCache, label: usize, grads: &mut Grads) -> f32 {
    let logits = cache.outputs.last().expect("non-empty network").as_slice();
    let loss = cross_entropy(logits, label);
    let mut p = stats::softmax(logits);
    p[label] -= 1.0;
    // `dout` flows backwards; it always matches the *output* of the node
    // currently being processed.
    let mut dout: Vec<f32> = p;

    for node in net.nodes().iter().rev() {
        let id = node.id().0;
        if id == 0 {
            break;
        }
        let x = &cache.outputs[id - 1];
        let out = &cache.outputs[id];
        let layer = node.layer().expect("sequential nets contain only layers");
        let mut dx = vec![0.0f32; x.len()];
        match layer {
            Layer::Dense(d) => {
                let relu = d.has_relu();
                let (wg, bg) = (&mut grads.w[id], &mut grads.b[id]);
                let xin = x.as_slice();
                for o in 0..d.out_features() {
                    let mut g = dout[o];
                    if relu && out.at(o) == 0.0 {
                        g = 0.0;
                    }
                    if g == 0.0 {
                        continue;
                    }
                    bg[o] += g;
                    let row = o * d.in_features();
                    let wrow = &d.weights()[row..row + d.in_features()];
                    for i in 0..d.in_features() {
                        wg[row + i] += g * xin[i];
                        dx[i] += wrow[i] * g;
                    }
                }
            }
            Layer::Conv(conv) => {
                let relu = conv.has_relu();
                let in_shape = x.shape();
                let out_shape = out.shape();
                let (in_h, in_w) = (in_shape.height(), in_shape.width());
                let (out_h, out_w) = (out_shape.height(), out_shape.width());
                let k = conv.kernel_size();
                let stride = conv.stride();
                let pad = conv.pad() as isize;
                let (wg, bg) = (&mut grads.w[id], &mut grads.b[id]);
                for m in 0..conv.out_channels() {
                    let out_plane_base = m * out_shape.plane();
                    for r in 0..out_h {
                        for c in 0..out_w {
                            let oidx = out_plane_base + r * out_w + c;
                            let mut g = dout[oidx];
                            if relu && out.at(oidx) == 0.0 {
                                g = 0.0;
                            }
                            if g == 0.0 {
                                continue;
                            }
                            bg[m] += g;
                            for n in 0..conv.in_channels() {
                                let in_plane_base = n * in_shape.plane();
                                for i in 0..k {
                                    let ri = (r * stride + i) as isize - pad;
                                    if ri < 0 || ri as usize >= in_h {
                                        continue;
                                    }
                                    for j in 0..k {
                                        let ci = (c * stride + j) as isize - pad;
                                        if ci < 0 || ci as usize >= in_w {
                                            continue;
                                        }
                                        let xi = in_plane_base + ri as usize * in_w + ci as usize;
                                        let widx = ((m * conv.in_channels() + n) * k + i) * k + j;
                                        wg[widx] += g * x.at(xi);
                                        dx[xi] += conv.weights()[widx] * g;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Layer::Pool(p) => match p.kind() {
                PoolKind::Max => {
                    for (oidx, &src) in cache.argmax[id].iter().enumerate() {
                        dx[src] += dout[oidx];
                    }
                }
                PoolKind::Avg => {
                    let out_shape = out.shape();
                    let in_shape = x.shape();
                    let kk = (p.window() * p.window()) as f32;
                    let (out_h, out_w) = (out_shape.height(), out_shape.width());
                    let in_w = in_shape.width();
                    for ch in 0..out_shape.channels() {
                        for r in 0..out_h {
                            for c in 0..out_w {
                                let g = dout[out_shape.index(ch, r, c)] / kk;
                                for i in 0..p.window() {
                                    for j in 0..p.window() {
                                        let xi = ch * in_shape.plane()
                                            + (r * p.stride() + i) * in_w
                                            + c * p.stride()
                                            + j;
                                        dx[xi] += g;
                                    }
                                }
                            }
                        }
                    }
                }
            },
        }
        dout = dx;
    }
    loss
}

fn apply_update(net: &mut Network, grads: &Grads, vel: &mut Grads, cfg: &TrainConfig, scale: f32) {
    for idx in 0..net.len() {
        if grads.w[idx].is_empty() {
            continue;
        }
        let node = net.node_mut(crate::NodeId(idx));
        let Op::Layer(layer) = node.op_mut() else {
            continue;
        };
        let (weights, bias) = match layer {
            Layer::Conv(c) => c.params_mut(),
            Layer::Dense(d) => d.params_mut(),
            Layer::Pool(_) => continue,
        };
        for ((w, g), v) in weights
            .iter_mut()
            .zip(&grads.w[idx])
            .zip(vel.w[idx].iter_mut())
        {
            *v = cfg.momentum * *v - cfg.lr * g * scale;
            *w += *v;
        }
        for ((b, g), v) in bias
            .iter_mut()
            .zip(&grads.b[idx])
            .zip(vel.b[idx].iter_mut())
        {
            *v = cfg.momentum * *v - cfg.lr * g * scale;
            *b += *v;
        }
    }
}

/// Trains `net` in place on `data` and reports per-epoch losses.
///
/// # Panics
///
/// Panics if the network is not a sequential layer chain or `data` is
/// empty.
pub fn train(net: &mut Network, data: &[SynthSample], cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert_sequential(net);
    let mut grads = Grads::zeros_like(net);
    let mut vel = Grads::zeros_like(net);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut step = 0u64;
    let mut epoch_cfg = *cfg;
    for epoch in 0..cfg.epochs {
        epoch_cfg.lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        let mut total_loss = 0.0f32;
        for batch in data.chunks(cfg.batch_size) {
            grads.clear();
            for sample in batch {
                let dropout =
                    (cfg.dropout > 0.0).then(|| (cfg.dropout, cfg.dropout_seed.wrapping_add(step)));
                step += 1;
                let cache = forward_cached(net, &sample.image, dropout);
                total_loss += backward(net, &cache, sample.label, &mut grads);
            }
            apply_update(net, &grads, &mut vel, &epoch_cfg, 1.0 / batch.len() as f32);
        }
        epoch_losses.push(total_loss / data.len() as f32);
    }
    let final_train_accuracy = accuracy(net, data);
    TrainReport {
        epoch_losses,
        final_train_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SynthDigits;
    use crate::{init, Conv2d, Dense, NetworkBuilder, Pool2d};
    use fbcnn_tensor::Shape;

    fn small_digit_net(seed: u64) -> Network {
        let mut b = NetworkBuilder::new(Shape::new(1, 28, 28));
        let x = b.input();
        let c1 = b.layer(x, Conv2d::new(1, 4, 5, 1, 0, true), "c1").unwrap();
        let p1 = b.layer(c1, Pool2d::new(PoolKind::Max, 2, 2), "p1").unwrap();
        let c2 = b.layer(p1, Conv2d::new(4, 8, 5, 1, 0, true), "c2").unwrap();
        let p2 = b.layer(c2, Pool2d::new(PoolKind::Max, 2, 2), "p2").unwrap();
        let f = b.layer(p2, Dense::new(8 * 4 * 4, 10, false), "fc").unwrap();
        let _ = f;
        let mut net = b.build().unwrap();
        init::he_uniform(&mut net, seed);
        net
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut net = small_digit_net(1);
        let data = SynthDigits::new(1).batch(0, 80);
        let report = train(
            &mut net,
            &data,
            &TrainConfig {
                epochs: 3,
                dropout: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "loss did not decrease: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn training_beats_chance() {
        let mut net = small_digit_net(2);
        let data = SynthDigits::new(2).batch(0, 120);
        // The toy 4/8-channel net is too small for heavy dropout; this
        // test exercises the optimizer itself.
        let report = train(
            &mut net,
            &data,
            &TrainConfig {
                dropout: 0.0,
                ..TrainConfig::default()
            },
        );
        assert!(
            report.final_train_accuracy > 0.5,
            "accuracy {} not above chance",
            report.final_train_accuracy
        );
        // Generalization to a held-out split.
        let test = SynthDigits::new(99).batch(0, 60);
        assert!(accuracy(&net, &test) > 0.3);
    }

    #[test]
    fn cross_entropy_of_confident_correct_is_small() {
        assert!(cross_entropy(&[10.0, 0.0, 0.0], 0) < 0.01);
        assert!(cross_entropy(&[10.0, 0.0, 0.0], 1) > 5.0);
    }

    #[test]
    fn numeric_gradient_check_dense() {
        // Finite-difference check on a tiny dense-only net.
        let mut b = NetworkBuilder::new(Shape::flat(4));
        let x = b.input();
        b.layer(x, Dense::new(4, 3, true), "h").unwrap();
        let mut net = b.build().unwrap();
        init::he_uniform(&mut net, 5);
        // One fake sample.
        let img = Tensor::from_vec(Shape::flat(4), vec![0.3, -0.1, 0.7, 0.2]);
        let label = 2usize;

        let mut grads = Grads::zeros_like(&net);
        let cache = forward_cached(&net, &img, None);
        backward(&net, &cache, label, &mut grads);

        let eps = 1e-3f32;
        for wi in 0..6 {
            let orig = net
                .node(crate::NodeId(1))
                .layer()
                .unwrap()
                .as_dense()
                .unwrap()
                .weights()[wi];
            set_dense_weight(&mut net, wi, orig + eps);
            let lp = cross_entropy(&net.forward(&img), label);
            set_dense_weight(&mut net, wi, orig - eps);
            let lm = cross_entropy(&net.forward(&img), label);
            set_dense_weight(&mut net, wi, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.w[1][wi];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "grad mismatch at {wi}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    fn set_dense_weight(net: &mut Network, i: usize, v: f32) {
        if let Op::Layer(Layer::Dense(d)) = net.node_mut(crate::NodeId(1)).op_mut() {
            d.weights_mut()[i] = v;
        }
    }

    #[test]
    fn numeric_gradient_check_conv() {
        let mut b = NetworkBuilder::new(Shape::new(1, 4, 4));
        let x = b.input();
        let c = b.layer(x, Conv2d::new(1, 2, 3, 1, 1, true), "c").unwrap();
        b.layer(c, Dense::new(32, 3, false), "fc").unwrap();
        let mut net = b.build().unwrap();
        init::he_uniform(&mut net, 11);
        let img = Tensor::from_fn(Shape::new(1, 4, 4), |_, r, c| ((r * 4 + c) as f32) / 16.0);
        let label = 1usize;

        let mut grads = Grads::zeros_like(&net);
        let cache = forward_cached(&net, &img, None);
        backward(&net, &cache, label, &mut grads);

        let eps = 1e-3f32;
        for wi in [0usize, 4, 9, 17] {
            let orig = net
                .node(crate::NodeId(1))
                .layer()
                .unwrap()
                .as_conv()
                .unwrap()
                .weights()[wi];
            set_conv_weight(&mut net, wi, orig + eps);
            let lp = cross_entropy(&net.forward(&img), label);
            set_conv_weight(&mut net, wi, orig - eps);
            let lm = cross_entropy(&net.forward(&img), label);
            set_conv_weight(&mut net, wi, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.w[1][wi];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "conv grad mismatch at {wi}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    fn set_conv_weight(net: &mut Network, i: usize, v: f32) {
        if let Op::Layer(Layer::Conv(c)) = net.node_mut(crate::NodeId(1)).op_mut() {
            c.weights_mut()[i] = v;
        }
    }
}
