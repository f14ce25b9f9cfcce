use fbcnn_bayes::mask::{pool_mask, DropoutMasks};
use fbcnn_nn::{Conv2d, Layer, Network, NodeId, Op};
use fbcnn_tensor::{BitMask, Shape};
use serde::{Deserialize, Serialize};

/// The per-neuron count of dropped nw-inputs for one convolution layer —
/// the output of the prediction unit's counting lanes (Fig. 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NdCounts {
    shape: Shape,
    counts: Vec<u16>,
}

impl NdCounts {
    /// The output feature-map shape the counts are defined over.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The count `N_d` for neuron `(m, r, c)`.
    #[inline]
    pub fn at(&self, m: usize, r: usize, c: usize) -> u16 {
        self.counts[self.shape.index(m, r, c)]
    }

    /// The count for a linear neuron index.
    #[inline]
    pub fn at_linear(&self, i: usize) -> u16 {
        self.counts[i]
    }

    /// The raw count buffer in linear layout.
    pub fn as_slice(&self) -> &[u16] {
        &self.counts
    }

    /// The largest count present (drives the paper's 10-bit adder sizing).
    pub fn max(&self) -> u16 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// Resolves the dropout mask describing which *inputs* of `node` (a
/// convolution) are dropped, walking the graph upstream:
///
/// * a convolution output carries its own dropout mask;
/// * a pooling layer pools the upstream mask with the all-dropped-window
///   rule (the mask pooling unit, §V-B2);
/// * a concat node concatenates its branch masks (branches without
///   dropout contribute all-zero masks);
/// * the network input carries no dropout, so the first layer resolves to
///   `None` — which is exactly why the paper gives layer 1 the shortcut
///   path instead of a prediction path.
pub fn input_drop_mask(net: &Network, masks: &DropoutMasks, node: NodeId) -> Option<BitMask> {
    let upstream = *net.node(node).inputs().first()?;
    resolve(net, masks, upstream)
}

fn resolve(net: &Network, masks: &DropoutMasks, id: NodeId) -> Option<BitMask> {
    if let Some(m) = masks.get(id) {
        return Some(m.clone());
    }
    let node = net.node(id);
    match node.op() {
        Op::Input => None,
        Op::Layer(Layer::Pool(p)) => {
            resolve(net, masks, node.inputs()[0]).map(|m| pool_mask(&m, p))
        }
        // A conv without a mask (non-Bayesian) or a dense layer breaks the
        // dropout chain.
        Op::Layer(_) => None,
        Op::Concat => {
            let resolved: Vec<Option<BitMask>> = node
                .inputs()
                .iter()
                .map(|&i| resolve(net, masks, i))
                .collect();
            if resolved.iter().all(Option::is_none) {
                return None;
            }
            let shape = net.shape(id);
            let mut out = BitMask::zeros(shape);
            let mut ch_offset = 0usize;
            for (branch, &input_id) in resolved.iter().zip(node.inputs()) {
                let branch_shape = net.shape(input_id);
                if let Some(m) = branch {
                    for i in m.iter_set() {
                        let (c, r, col) = branch_shape.unravel(i);
                        out.set_at(c + ch_offset, r, col, true);
                    }
                }
                ch_offset += branch_shape.channels();
            }
            Some(out)
        }
    }
}

/// Counts, for every output neuron of `conv`, how many of its inputs are
/// simultaneously dropped and multiply a non-positive weight — the binary
/// convolution of dropout bits with indicator bits (paper Fig. 9a).
///
/// This is the word-parallel kernel: for each output row it packs every
/// window's mask bits into `u64` lanes laid out like the indicator masks
/// (bit `(n·k + i)·k + j`), then reduces each `(kernel, window)` pair with
/// a word-wide AND + popcount — the software analogue of the prediction
/// unit's AND-gate/counting lanes. No per-call byte unpacking, and the one
/// scratch buffer lives outside the loops.
///
/// Falls back to [`count_dropped_nw_inputs_scalar`] (the bit-exact
/// reference) for kernels wider than 64 columns, where a row no longer
/// fits one word.
///
/// # Panics
///
/// Panics if `input_mask` does not match the convolution's input shape or
/// `indicators` does not hold one mask per output channel.
pub fn count_dropped_nw_inputs(
    conv: &Conv2d,
    indicators: &[BitMask],
    input_mask: &BitMask,
) -> NdCounts {
    let k = conv.kernel_size();
    if k > 64 {
        let counts = count_dropped_nw_inputs_scalar(conv, indicators, input_mask);
        record_nd(&counts);
        return counts;
    }
    assert_eq!(
        indicators.len(),
        conv.out_channels(),
        "one indicator mask per kernel required"
    );
    let in_shape = input_mask.shape();
    assert_eq!(
        in_shape.channels(),
        conv.in_channels(),
        "input mask channel count mismatch"
    );
    let out_shape = conv.output_shape(in_shape);
    let stride = conv.stride();
    let pad = conv.pad() as isize;
    let (in_h, in_w) = (in_shape.height(), in_shape.width());
    let (out_h, out_w) = (out_shape.height(), out_shape.width());
    let kernel_shape = Shape::new(conv.in_channels(), k, k);
    for (m, indicator) in indicators.iter().enumerate() {
        assert_eq!(
            indicator.shape(),
            kernel_shape,
            "indicator shape mismatch for kernel {m}"
        );
    }

    // Words per packed window: one bit per kernel position, same linear
    // layout as the indicator masks, so the reduction is a straight
    // word-lane AND + popcount.
    let wpw = kernel_shape.len().div_ceil(64);
    let in_plane = in_shape.plane();
    let out_plane = out_shape.plane();
    let mut counts = vec![0u16; out_shape.len()];
    let mut windows = vec![0u64; out_w * wpw];
    for r in 0..out_h {
        windows.fill(0);
        for n in 0..conv.in_channels() {
            for i in 0..k {
                let ri = (r * stride + i) as isize - pad;
                if ri < 0 || ri as usize >= in_h {
                    continue;
                }
                let row_base = n * in_plane + ri as usize * in_w;
                let kbit = (n * k + i) * k;
                for (c, win) in windows.chunks_exact_mut(wpw).enumerate() {
                    // Clip the window row ci ∈ [ci0, ci0 + k) to the image.
                    let ci0 = (c * stride) as isize - pad;
                    let lo = ci0.max(0) as usize;
                    let hi = ((ci0 + k as isize).min(in_w as isize)) as usize;
                    if lo >= hi {
                        continue;
                    }
                    let bits = input_mask.load_bits(row_base + lo, hi - lo);
                    let dst = kbit + (lo as isize - ci0) as usize;
                    let (w, b) = (dst / 64, dst % 64);
                    win[w] |= bits << b;
                    if b != 0 && w + 1 < wpw {
                        win[w + 1] |= bits >> (64 - b);
                    }
                }
            }
        }
        for (m, indicator) in indicators.iter().enumerate() {
            let iw = indicator.words();
            let row = &mut counts[m * out_plane + r * out_w..][..out_w];
            for (slot, win) in row.iter_mut().zip(windows.chunks_exact(wpw)) {
                *slot = BitMask::and_popcount(iw, win) as u16;
            }
        }
    }
    let counts = NdCounts {
        shape: out_shape,
        counts,
    };
    record_nd(&counts);
    counts
}

/// Feeds every computed `N_d` into the `predictor_nd` telemetry histogram
/// — the software analogue of tapping the counting lanes' output bus. The
/// conversion only happens while a recorder is installed.
fn record_nd(counts: &NdCounts) {
    if fbcnn_telemetry::enabled() {
        let values: Vec<f64> = counts.counts.iter().map(|&c| f64::from(c)).collect();
        fbcnn_telemetry::histogram_batch("predictor_nd", &[], &values);
    }
}

/// Scalar reference implementation of [`count_dropped_nw_inputs`]: unpacks
/// the mask to bytes and accumulates per kernel position. Retained as the
/// bit-exact baseline for property tests and the `counting` bench's
/// before/after comparison.
///
/// # Panics
///
/// Panics if `input_mask` does not match the convolution's input shape or
/// `indicators` does not hold one mask per output channel.
pub fn count_dropped_nw_inputs_scalar(
    conv: &Conv2d,
    indicators: &[BitMask],
    input_mask: &BitMask,
) -> NdCounts {
    assert_eq!(
        indicators.len(),
        conv.out_channels(),
        "one indicator mask per kernel required"
    );
    let in_shape = input_mask.shape();
    assert_eq!(
        in_shape.channels(),
        conv.in_channels(),
        "input mask channel count mismatch"
    );
    let out_shape = conv.output_shape(in_shape);
    let k = conv.kernel_size();
    let stride = conv.stride();
    let pad = conv.pad() as isize;
    let (in_h, in_w) = (in_shape.height(), in_shape.width());
    let (out_h, out_w) = (out_shape.height(), out_shape.width());
    let kernel_shape = Shape::new(conv.in_channels(), k, k);

    // Unpack the mask once: byte indexing in the hot loop is several
    // times faster than per-bit extraction.
    let mask_bytes: Vec<u8> = (0..in_shape.len())
        .map(|i| u8::from(input_mask.get(i)))
        .collect();

    // Transpose the indicators: for every kernel position (n, i, j), the
    // list of kernels whose weight there is non-positive. This amortizes
    // the row-slice setup across kernels instead of paying it per
    // (kernel, position) pair.
    let mut kernels_at: Vec<Vec<u32>> = vec![Vec::new(); kernel_shape.len()];
    for (m, indicator) in indicators.iter().enumerate() {
        assert_eq!(
            indicator.shape(),
            kernel_shape,
            "indicator shape mismatch for kernel {m}"
        );
        for idx in indicator.iter_set() {
            kernels_at[idx].push(m as u32);
        }
    }

    let out_plane = out_shape.plane();
    let mut counts = vec![0u16; out_shape.len()];
    for (idx, kernels) in kernels_at.iter().enumerate() {
        if kernels.is_empty() {
            continue;
        }
        let (n, i, j) = kernel_shape.unravel(idx);
        let mask_plane = &mask_bytes[n * in_shape.plane()..(n + 1) * in_shape.plane()];
        // Column bounds: ci = c·stride + j − pad ∈ [0, in_w).
        let c_lo = ((pad - j as isize).max(0) as usize).div_ceil(stride);
        let c_hi = if (in_w as isize + pad) <= j as isize {
            0
        } else {
            (((in_w as isize + pad - j as isize - 1) / stride as isize) + 1)
                .clamp(0, out_w as isize) as usize
        }
        .max(c_lo);
        for r in 0..out_h {
            let ri = (r * stride + i) as isize - pad;
            if ri < 0 || ri as usize >= in_h {
                continue;
            }
            let mask_row = &mask_plane[ri as usize * in_w..(ri as usize + 1) * in_w];
            if stride == 1 {
                let off = (c_lo as isize + j as isize - pad) as usize;
                let len = c_hi - c_lo;
                let src = &mask_row[off..off + len];
                for &m in kernels {
                    let base = m as usize * out_plane + r * out_w;
                    for (count, &v) in counts[base + c_lo..base + c_hi].iter_mut().zip(src) {
                        *count += v as u16;
                    }
                }
            } else {
                for &m in kernels {
                    let base = m as usize * out_plane + r * out_w;
                    for c in c_lo..c_hi {
                        let ci = (c * stride + j) as isize - pad;
                        counts[base + c] += mask_row[ci as usize] as u16;
                    }
                }
            }
        }
    }
    NdCounts {
        shape: out_shape,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolarityIndicators;
    use fbcnn_bayes::BayesianNetwork;
    use fbcnn_nn::models;
    use fbcnn_nn::NetworkBuilder;

    /// Brute-force reference implementation of the count.
    fn reference_count(conv: &Conv2d, input_mask: &BitMask, m: usize, r: usize, c: usize) -> u16 {
        let in_shape = input_mask.shape();
        let mut n_d = 0u16;
        for n in 0..conv.in_channels() {
            for i in 0..conv.kernel_size() {
                for j in 0..conv.kernel_size() {
                    let ri = (r * conv.stride() + i) as isize - conv.pad() as isize;
                    let ci = (c * conv.stride() + j) as isize - conv.pad() as isize;
                    if ri < 0
                        || ci < 0
                        || ri as usize >= in_shape.height()
                        || ci as usize >= in_shape.width()
                    {
                        continue;
                    }
                    if input_mask.get_at(n, ri as usize, ci as usize)
                        && conv.weight(m, n, i, j) <= 0.0
                    {
                        n_d += 1;
                    }
                }
            }
        }
        n_d
    }

    #[test]
    fn counting_matches_bruteforce() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, true);
        let mut state = 99u64;
        for w in conv.weights_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            *w = ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0;
        }
        let in_shape = Shape::new(3, 6, 6);
        let mask = BitMask::from_fn(in_shape, |i| i % 3 == 0);
        let indicators = PolarityIndicators::profile_conv(&conv);
        let counts = count_dropped_nw_inputs(&conv, &indicators, &mask);
        for (m, r, c) in counts.shape().coords() {
            assert_eq!(
                counts.at(m, r, c),
                reference_count(&conv, &mask, m, r, c),
                "mismatch at ({m},{r},{c})"
            );
        }
    }

    #[test]
    fn empty_mask_counts_zero() {
        let conv = Conv2d::new(2, 2, 3, 1, 1, true);
        let indicators = PolarityIndicators::profile_conv(&conv);
        let mask = BitMask::zeros(Shape::new(2, 5, 5));
        let counts = count_dropped_nw_inputs(&conv, &indicators, &mask);
        assert_eq!(counts.max(), 0);
    }

    #[test]
    fn all_dropped_counts_equal_negative_weights_in_window() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, false);
        for (i, w) in conv.weights_mut().iter_mut().enumerate() {
            *w = if i < 4 { -1.0 } else { 1.0 }; // 4 negative weights
        }
        let indicators = PolarityIndicators::profile_conv(&conv);
        let mask = BitMask::ones(Shape::new(1, 5, 5));
        let counts = count_dropped_nw_inputs(&conv, &indicators, &mask);
        // Interior windows see all 4 negative weights.
        assert!(counts.as_slice().iter().all(|&c| c == 4));
    }

    #[test]
    fn first_layer_has_no_input_mask() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let masks = bnet.generate_masks(0, 0);
        let first = bnet.network().conv_nodes()[0];
        assert!(input_drop_mask(bnet.network(), &masks, first).is_none());
    }

    #[test]
    fn pooled_mask_feeds_the_next_conv() {
        let bnet = BayesianNetwork::new(models::lenet5(1), 0.3);
        let net = bnet.network();
        let masks = bnet.generate_masks(0, 0);
        let convs = net.conv_nodes();
        // conv2's input is pool1(conv1): resolved mask = pooled conv1 mask.
        let resolved = input_drop_mask(net, &masks, convs[1]).expect("resolvable");
        let expected = pool_mask(
            masks.get(convs[0]).unwrap(),
            net.node(NodeId(convs[0].0 + 1))
                .layer()
                .unwrap()
                .as_pool()
                .unwrap(),
        );
        assert_eq!(resolved, expected);
    }

    #[test]
    fn concat_mask_merges_branches() {
        // input -> two 1x1 convs -> concat -> conv
        let mut b = NetworkBuilder::new(Shape::new(1, 4, 4));
        let x = b.input();
        let a = b.layer(x, Conv2d::new(1, 2, 1, 1, 0, true), "a").unwrap();
        let c = b.layer(x, Conv2d::new(1, 3, 1, 1, 0, true), "c").unwrap();
        let cat = b.concat(&[a, c], "cat").unwrap();
        let last = b
            .layer(cat, Conv2d::new(5, 2, 3, 1, 1, true), "last")
            .unwrap();
        let net = b.build().unwrap();
        let bnet = BayesianNetwork::new(net, 0.5);
        let masks = bnet.generate_masks(3, 0);
        let resolved = input_drop_mask(bnet.network(), &masks, last).expect("concat resolves");
        assert_eq!(resolved.shape(), Shape::new(5, 4, 4));
        let ma = masks.get(a).unwrap();
        let mc = masks.get(c).unwrap();
        assert_eq!(
            resolved.count_ones(),
            ma.count_ones() + mc.count_ones(),
            "concat mask must preserve branch bits"
        );
        // Spot-check channel offsets.
        for r in 0..4 {
            for col in 0..4 {
                assert_eq!(resolved.get_at(0, r, col), ma.get_at(0, r, col));
                assert_eq!(resolved.get_at(2, r, col), mc.get_at(0, r, col));
            }
        }
    }

    #[test]
    fn googlenet_masks_resolve_everywhere_past_layer_one() {
        let net = models::ModelKind::GoogLeNet.build_scaled(1, models::ModelScale::TINY);
        let bnet = BayesianNetwork::new(net, 0.3);
        let masks = bnet.generate_masks(0, 0);
        let convs = bnet.network().conv_nodes();
        for (i, &node) in convs.iter().enumerate() {
            let resolved = input_drop_mask(bnet.network(), &masks, node);
            if i == 0 {
                assert!(resolved.is_none());
            } else {
                assert!(resolved.is_some(), "conv {i} failed to resolve");
            }
        }
    }
}
