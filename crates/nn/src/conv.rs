use crate::workspace::Workspace;
use fbcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Column-block width (in output positions) for the blocked im2col kernel.
/// 256 f32 columns keep one output block plus one patch row well inside L1
/// while amortizing the per-block loop overhead.
const COL_BLOCK: usize = 256;

/// A 2-D convolution layer with optional fused ReLU.
///
/// Weight layout is `[m][n][i][j]` — output channel, input channel, kernel
/// row, kernel column — matching the paper's six convolution dimensions
/// `<M, N, R, C, I, J>`. The accelerator models in `fbcnn-accel` and the
/// prediction machinery in `fbcnn-predictor` address weights through
/// [`Conv2d::weight`] and [`Conv2d::kernel`].
///
/// The fused ReLU mirrors the hardware: the paper's PE applies ReLU before
/// the output buffer, and the *zero neuron* concept is defined on the
/// post-ReLU value.
///
/// There are two kernels. [`Conv2d::forward`] is the naive reference loop
/// (with [`Conv2d::forward_channel_preactivation`] beside it for
/// initialization). [`Conv2d::forward_ws`] is the product kernel — im2col
/// plus a cache-blocked accumulation — and runs every dense pass and every
/// skipping sample: the skipping inference in `fbcnn-predictor` computes
/// the whole layer with it and then zeroes the neurons its skip map names.
///
/// # Examples
///
/// ```
/// use fbcnn_nn::Conv2d;
/// use fbcnn_tensor::{Shape, Tensor};
///
/// let mut conv = Conv2d::new(1, 1, 3, 1, 1, false);
/// conv.set_weight(0, 0, 1, 1, 2.0); // identity kernel scaled by 2
/// let input = Tensor::full(Shape::new(1, 4, 4), 1.5);
/// let out = conv.forward(&input);
/// assert_eq!(out[(0, 2, 2)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    k: usize,
    stride: usize,
    pad: usize,
    relu: bool,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a zero-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `k` or `stride` is
    /// zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        k: usize,
        stride: usize,
        pad: usize,
        relu: bool,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && k > 0 && stride > 0,
            "convolution dimensions must be non-zero"
        );
        Self {
            in_channels,
            out_channels,
            k,
            stride,
            pad,
            relu,
            weights: vec![0.0; out_channels * in_channels * k * k],
            bias: vec![0.0; out_channels],
        }
    }

    /// Number of input channels (`N`).
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels / kernels (`M`).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (`K`).
    pub fn kernel_size(&self) -> usize {
        self.k
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Whether ReLU is fused into this layer.
    pub fn has_relu(&self) -> bool {
        self.relu
    }

    /// The shape produced for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from
    /// [`Conv2d::in_channels`] or the kernel does not fit.
    pub fn output_shape(&self, input: Shape) -> Shape {
        assert_eq!(
            input.channels(),
            self.in_channels,
            "conv expects {} input channels, got {input}",
            self.in_channels
        );
        input.conv_output(self.out_channels, self.k, self.stride, self.pad)
    }

    /// Multiply-accumulates needed for one output neuron (`K² · N`).
    pub fn macs_per_neuron(&self) -> usize {
        self.k * self.k * self.in_channels
    }

    #[inline]
    fn widx(&self, m: usize, n: usize, i: usize, j: usize) -> usize {
        ((m * self.in_channels + n) * self.k + i) * self.k + j
    }

    /// Weight at `[m][n][i][j]`.
    #[inline]
    pub fn weight(&self, m: usize, n: usize, i: usize, j: usize) -> f32 {
        self.weights[self.widx(m, n, i, j)]
    }

    /// Sets the weight at `[m][n][i][j]`.
    #[inline]
    pub fn set_weight(&mut self, m: usize, n: usize, i: usize, j: usize, v: f32) {
        let idx = self.widx(m, n, i, j);
        self.weights[idx] = v;
    }

    /// The full kernel for output channel `m`, laid out `[n][i][j]`.
    pub fn kernel(&self, m: usize) -> &[f32] {
        let stride = self.in_channels * self.k * self.k;
        &self.weights[m * stride..(m + 1) * stride]
    }

    /// All weights, laid out `[m][n][i][j]`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable access to all weights (used by the trainer and by
    /// [`crate::init`]).
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Bias per output channel.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Simultaneous mutable access to `(weights, bias)` — used by the
    /// trainer's parameter update.
    pub fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.weights, &mut self.bias)
    }

    /// Runs the convolution (and fused ReLU, if enabled).
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible (see
    /// [`Conv2d::output_shape`]).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let out_shape = self.output_shape(input.shape());
        let mut out = Tensor::zeros(out_shape);
        for m in 0..self.out_channels {
            self.forward_channel_impl(input, m, out.channel_mut(m), self.relu);
        }
        out
    }

    /// Computes one output channel `m` into `plane` (length `R·C`)
    /// *without* the fused ReLU — the pre-activation values.
    ///
    /// Used by the activation-calibrated initialization in
    /// [`crate::init`], which needs the pre-ReLU distribution to place
    /// each kernel's bias.
    ///
    /// # Panics
    ///
    /// Panics if `plane.len()` is not the output plane size.
    pub fn forward_channel_preactivation(&self, input: &Tensor, m: usize, plane: &mut [f32]) {
        self.forward_channel_impl(input, m, plane, false);
    }

    fn forward_channel_impl(&self, input: &Tensor, m: usize, plane: &mut [f32], relu: bool) {
        let in_shape = input.shape();
        let out_shape = self.output_shape(in_shape);
        assert_eq!(plane.len(), out_shape.plane(), "output plane size mismatch");

        plane.fill(self.bias[m]);
        let (out_h, out_w) = (out_shape.height(), out_shape.width());
        let (in_h, in_w) = (in_shape.height(), in_shape.width());
        for n in 0..self.in_channels {
            let in_plane = input.channel(n);
            for i in 0..self.k {
                for j in 0..self.k {
                    let w = self.weight(m, n, i, j);
                    if w == 0.0 {
                        continue;
                    }
                    for r in 0..out_h {
                        let in_r = (r * self.stride + i) as isize - self.pad as isize;
                        if in_r < 0 || in_r as usize >= in_h {
                            continue;
                        }
                        let in_row = &in_plane[in_r as usize * in_w..(in_r as usize + 1) * in_w];
                        let out_row = &mut plane[r * out_w..(r + 1) * out_w];
                        for (c, out_v) in out_row.iter_mut().enumerate() {
                            let in_c = (c * self.stride + j) as isize - self.pad as isize;
                            if in_c < 0 || in_c as usize >= in_w {
                                continue;
                            }
                            *out_v += w * in_row[in_c as usize];
                        }
                    }
                }
            }
        }
        if relu {
            for v in plane.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Runs the convolution through the im2col + cache-blocked kernel,
    /// reusing the patch buffer in `ws` across calls.
    ///
    /// Produces the same bits as [`Conv2d::forward`] on the domain below,
    /// except that a NaN may come out with another sign or payload: two
    /// floats `a`, `b` agree when `a.to_bits() == b.to_bits() ||
    /// (a.is_nan() && b.is_nan())`. All nonzero terms are accumulated in
    /// the same `(n, i, j)`-ascending order as the naive loop, bias first
    /// and ReLU last. Which NaN an addition of two NaNs returns depends on
    /// operand order, which the compiler may pick differently in the two
    /// loops.
    ///
    /// The patch matrix zero-fills out-of-bounds positions, so padding
    /// adds a `w * 0.0` term for every tap the naive loop skips. That term
    /// is a signed zero when `w` is finite, and it leaves a nonzero finite
    /// accumulator unchanged. The two kernels therefore agree only where
    /// every weight is finite and no border neuron's accumulator is `-0.0`
    /// when a padded `+0.0` term reaches it. Outside that domain a border
    /// neuron of a padded conv differs:
    ///
    /// * bias `-0.0`, weights `0.5` and an all-`-0.0` input give a corner
    ///   neuron of `-0.0` from [`Conv2d::forward`] but `+0.0` here;
    /// * an `+Inf` weight on a padded tap gives `inf * 0.0 = NaN` here,
    ///   where [`Conv2d::forward`] returns `+Inf` for an input of `1.0`;
    ///   a NaN weight on a padded tap likewise makes the neuron NaN here.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible (see
    /// [`Conv2d::output_shape`]).
    pub fn forward_ws(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let out_shape = self.output_shape(input.shape());
        let plane = out_shape.plane();
        let patches = ws.im2col(self.macs_per_neuron() * plane);
        self.fill_im2col(input, out_shape, patches);
        let mut out = Tensor::zeros(out_shape);
        for m in 0..self.out_channels {
            self.blocked_channel(patches, m, out.channel_mut(m), self.relu);
        }
        out
    }

    /// Lowers `input` into the patch matrix: row `kk = (n·K + i)·K + j`
    /// holds, for each output position `(r, c)`, the input value that
    /// weight `kk` multiplies — `0.0` where the window hangs over the
    /// border. Row layout matches [`Conv2d::kernel`], column layout matches
    /// the output plane.
    fn fill_im2col(&self, input: &Tensor, out_shape: Shape, patches: &mut [f32]) {
        let in_shape = input.shape();
        let (in_h, in_w) = (in_shape.height(), in_shape.width());
        let (out_h, out_w) = (out_shape.height(), out_shape.width());
        let plane = out_shape.plane();
        let pad = self.pad as isize;
        for n in 0..self.in_channels {
            let in_plane = input.channel(n);
            for i in 0..self.k {
                for j in 0..self.k {
                    let kk = (n * self.k + i) * self.k + j;
                    let row = &mut patches[kk * plane..(kk + 1) * plane];
                    for r in 0..out_h {
                        let in_r = (r * self.stride + i) as isize - pad;
                        let dst = &mut row[r * out_w..(r + 1) * out_w];
                        if in_r < 0 || in_r as usize >= in_h {
                            dst.fill(0.0);
                            continue;
                        }
                        let in_row = &in_plane[in_r as usize * in_w..(in_r as usize + 1) * in_w];
                        if self.stride == 1 {
                            // in_c = c + j - pad is valid for
                            // c ∈ [pad - j, in_w + pad - j) ∩ [0, out_w).
                            let lo = ((pad - j as isize).max(0) as usize).min(out_w);
                            let hi = ((in_w as isize + pad - j as isize).max(lo as isize) as usize)
                                .min(out_w);
                            dst[..lo].fill(0.0);
                            dst[hi..].fill(0.0);
                            let src = (lo + j) - self.pad;
                            dst[lo..hi].copy_from_slice(&in_row[src..src + (hi - lo)]);
                        } else {
                            for (c, v) in dst.iter_mut().enumerate() {
                                let in_c = (c * self.stride + j) as isize - pad;
                                *v = if in_c < 0 || in_c as usize >= in_w {
                                    0.0
                                } else {
                                    in_row[in_c as usize]
                                };
                            }
                        }
                    }
                }
            }
        }
    }

    /// Computes output channel `m` from the patch matrix, walking the
    /// output plane in [`COL_BLOCK`]-column tiles so the accumulator block
    /// stays cache-resident while the kernel's rows stream through it.
    /// Per output element the accumulation order is identical to
    /// [`Conv2d::forward`]: bias, then weights in `kk`-ascending order
    /// (zeros skipped), then ReLU.
    fn blocked_channel(&self, patches: &[f32], m: usize, plane: &mut [f32], relu: bool) {
        let kernel = self.kernel(m);
        let cols = plane.len();
        debug_assert_eq!(patches.len(), kernel.len() * cols);
        plane.fill(self.bias[m]);
        let mut start = 0;
        while start < cols {
            let end = (start + COL_BLOCK).min(cols);
            let out_block = &mut plane[start..end];
            for (kk, &w) in kernel.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let patch_row = &patches[kk * cols + start..kk * cols + end];
                for (acc, &x) in out_block.iter_mut().zip(patch_row) {
                    *acc += w * x;
                }
            }
            start = end;
        }
        if relu {
            for v in plane.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false);
        conv.set_weight(0, 0, 1, 1, 1.0);
        let input = Tensor::from_fn(Shape::new(1, 3, 3), |_, r, c| (r * 3 + c) as f32);
        let out = conv.forward(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn padding_zeros_at_border() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false);
        // Sum-of-window kernel.
        for i in 0..3 {
            for j in 0..3 {
                conv.set_weight(0, 0, i, j, 1.0);
            }
        }
        let input = Tensor::full(Shape::new(1, 3, 3), 1.0);
        let out = conv.forward(&input);
        assert_eq!(out[(0, 1, 1)], 9.0); // full window
        assert_eq!(out[(0, 0, 0)], 4.0); // corner sees 2x2
        assert_eq!(out[(0, 0, 1)], 6.0); // edge sees 2x3
    }

    #[test]
    fn stride_two_subsamples() {
        let mut conv = Conv2d::new(1, 1, 1, 2, 0, false);
        conv.set_weight(0, 0, 0, 0, 1.0);
        let input = Tensor::from_fn(Shape::new(1, 4, 4), |_, r, c| (r * 4 + c) as f32);
        let out = conv.forward(&input);
        assert_eq!(out.shape(), Shape::new(1, 2, 2));
        assert_eq!(out[(0, 0, 0)], 0.0);
        assert_eq!(out[(0, 0, 1)], 2.0);
        assert_eq!(out[(0, 1, 0)], 8.0);
        assert_eq!(out[(0, 1, 1)], 10.0);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, false);
        conv.set_weight(0, 0, 0, 0, 1.0);
        conv.set_weight(0, 1, 0, 0, 10.0);
        let input = Tensor::from_fn(Shape::new(2, 2, 2), |ch, _, _| (ch + 1) as f32);
        let out = conv.forward(&input);
        assert!(out.iter().all(|&v| v == 21.0));
    }

    #[test]
    fn relu_clamps_output() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, true);
        conv.set_weight(0, 0, 0, 0, -1.0);
        let input = Tensor::full(Shape::new(1, 2, 2), 3.0);
        let out = conv.forward(&input);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bias_is_applied_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, false);
        conv.bias_mut()[0] = 1.0;
        conv.bias_mut()[1] = -2.0;
        let input = Tensor::zeros(Shape::new(1, 2, 2));
        let out = conv.forward(&input);
        assert!(out.channel(0).iter().all(|&v| v == 1.0));
        assert!(out.channel(1).iter().all(|&v| v == -2.0));
    }

    fn seeded_conv(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        relu: bool,
        seed: u64,
    ) -> Conv2d {
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, relu);
        let mut state = seed;
        for v in conv.weights_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // ~25% exact zeros to exercise the w == 0.0 skip.
            *v = if state >> 62 == 0 {
                0.0
            } else {
                ((state >> 33) as f32 / u32::MAX as f32 * 2.0 - 1.0) * 0.5
            };
        }
        for b in conv.bias_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as f32 / u32::MAX as f32 - 0.5;
        }
        conv
    }

    #[test]
    fn workspace_is_reused_across_layers() {
        let big = seeded_conv(2, 2, 3, 1, 1, false, 7);
        let small = seeded_conv(1, 1, 1, 1, 0, false, 8);
        let mut ws = Workspace::new();
        let _ = big.forward_ws(&Tensor::full(Shape::new(2, 8, 8), 1.0), &mut ws);
        let cap = ws.im2col_capacity();
        let _ = small.forward_ws(&Tensor::full(Shape::new(1, 4, 4), 1.0), &mut ws);
        assert_eq!(ws.im2col_capacity(), cap, "smaller layer must not shrink");
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_rejected() {
        let conv = Conv2d::new(3, 1, 3, 1, 1, false);
        let input = Tensor::zeros(Shape::new(2, 8, 8));
        let _ = conv.forward(&input);
    }
}
