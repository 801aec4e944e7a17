//! Causal 1-D convolution — the temporal-convolution primitive of RT-GCN
//! (paper Section IV-C, Figure 4).
//!
//! Layout: input `(B, C_in, L)` where `B` indexes stocks, channels are
//! features and `L` is the time axis; weight `(C_out, C_in, k)`. Causality is
//! enforced with left-only zero padding of `dilation·(k−1)` so output step `t`
//! never reads inputs later than `t` (no future leakage — Eq. 6). A stride
//! `> 1` compresses the temporal dimension, expanding the receptive field as
//! the paper describes.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Static configuration of a causal conv.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    pub kernel: usize,
    pub stride: usize,
    pub dilation: usize,
}

impl ConvSpec {
    pub fn new(kernel: usize, stride: usize, dilation: usize) -> Self {
        assert!(kernel >= 1 && stride >= 1 && dilation >= 1, "conv spec fields must be >= 1");
        ConvSpec { kernel, stride, dilation }
    }

    /// Left padding that makes the convolution causal.
    #[inline]
    pub fn pad(&self) -> usize {
        self.dilation * (self.kernel - 1)
    }

    /// Output length for input length `l` (always ≥ 1 for `l ≥ 1`).
    #[inline]
    pub fn out_len(&self, l: usize) -> usize {
        if l == 0 {
            0
        } else {
            (l - 1) / self.stride + 1
        }
    }
}

impl Tape {
    /// Causal strided 1-D convolution.
    ///
    /// * `x`: `(B, C_in, L)`
    /// * `w`: `(C_out, C_in, k)`
    /// * `bias`: `(C_out)`
    ///
    /// Returns `(B, C_out, L_out)` with `L_out = ⌈L / stride⌉`.
    pub fn conv1d_causal(&mut self, x: Var, w: Var, bias: Var, spec: ConvSpec) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        crate::telemetry_hooks::kernel_counter(&CALLS, "tensor.conv1d_causal.calls").inc(1);
        let _t = rtgcn_telemetry::span("conv1d_causal");
        let xv = self.value(x);
        let wv = self.value(w);
        let bv = self.value(bias);
        assert_eq!(xv.rank(), 3, "conv1d input must be (B, C_in, L), got {:?}", xv.shape());
        assert_eq!(wv.rank(), 3, "conv1d weight must be (C_out, C_in, k), got {:?}", wv.shape());
        let (b, c_in, l) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        let (c_out, wc_in, k) = (wv.dims()[0], wv.dims()[1], wv.dims()[2]);
        assert_eq!(c_in, wc_in, "conv1d channel mismatch: input {c_in}, weight {wc_in}");
        assert_eq!(k, spec.kernel, "weight kernel dim {k} != spec kernel {}", spec.kernel);
        assert_eq!(bv.dims(), [c_out], "bias must be (C_out)");

        let dims = Dims {
            b,
            c_in,
            c_out,
            l,
            l_out: spec.out_len(l),
            k,
            stride: spec.stride,
            dilation: spec.dilation,
            pad: spec.pad(),
        };
        let out = forward(xv.data(), wv.data(), bv.data(), dims);
        let out = Tensor::new([b, c_out, dims.l_out], out);

        self.push_op_named("conv1d_causal", out, vec![x, w, bias], move |ctx| {
            let (xd, wd, g) = (ctx.parents[0].data(), ctx.parents[1].data(), ctx.grad.data());
            vec![
                Tensor::new([b, c_in, l], grad_input(wd, g, dims)),
                Tensor::new([c_out, c_in, k], grad_weight(xd, g, dims)),
                Tensor::from_vec(grad_bias(g, dims)),
            ]
        })
    }

    /// Weight-normalised convolution weight (Salimans & Kingma): given the
    /// direction tensor `v: (C_out, C_in, k)` and per-filter gain `g: (C_out)`,
    /// returns `w = g · v / ‖v‖` with the norm taken per output filter. The
    /// paper applies weight normalisation to all TCN filters.
    pub fn weight_norm(&mut self, v: Var, gain: Var) -> Var {
        let vv = self.value(v);
        assert_eq!(vv.rank(), 3, "weight_norm expects (C_out, C_in, k)");
        let (c_out, c_in, k) = (vv.dims()[0], vv.dims()[1], vv.dims()[2]);
        let flat = self.reshape(v, [c_out, c_in * k]);
        let norm = self.row_norm(flat, 1e-6); // (C_out, 1)
        let gain2 = self.reshape(gain, [c_out, 1]);
        let scale = self.div(gain2, norm); // (C_out, 1)
        let scaled = self.mul(flat, scale); // broadcast over columns
        self.reshape(scaled, [c_out, c_in, k])
    }
}

// ------------------------------------------------------------------ kernel
//
// Three GEMM-shaped passes, each the i-k-j axpy loop of `linalg::matmul`:
// a register tile of `LANES` accumulators, contiguous over one channel
// dimension, takes `scalar · row` updates from a transposed copy of the
// other operand. Every output element keeps the accumulation order of the
// scalar kernel in `conv_oracle.rs`, so results are bit-identical to it:
//
// - forward: bias first, then taps in `(ci, j)` order;
// - `gW`: `(stock, step)` order;
// - `gX`: output channel outermost, steps ascending;
// - `gb`: `(stock, step)` order.
//
// Padded taps are excluded by loop bounds, never added as `w·0`: that term
// would turn a `-0.0` into `+0.0` and an infinite weight into NaN. Zero
// upstream gradients are skipped, as in the oracle. `linalg::par_rows`
// splits the work over stocks (forward, `gX`) or output channels (`gW`);
// no element's sum spans two rows, so the thread count cannot change a bit.

/// Channels per register tile: four SSE registers of accumulators. At 32
/// lanes the compiler stops vectorising the tile.
const LANES: usize = 16;

type Tile = [f32; LANES];

/// Sizes of one conv call.
#[derive(Clone, Copy)]
struct Dims {
    b: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    l_out: usize,
    k: usize,
    stride: usize,
    dilation: usize,
    pad: usize,
}

impl Dims {
    fn macs(&self) -> usize {
        self.b * self.c_out * self.l_out * self.c_in * self.k
    }

    /// First tap of output step `t` that reads a real input; the taps
    /// before it read left padding.
    fn first_tap(&self, t: usize) -> usize {
        let origin = t * self.stride;
        if origin >= self.pad {
            0
        } else {
            (self.pad - origin).div_ceil(self.dilation)
        }
    }

    /// First output step whose tap `j` reads a real input.
    fn first_step(&self, j: usize) -> usize {
        let reach = j * self.dilation;
        if reach >= self.pad {
            0
        } else {
            (self.pad - reach).div_ceil(self.stride)
        }
    }

    /// Input position read by tap `j` of output step `t` (a non-padded tap).
    #[inline]
    fn input_pos(&self, t: usize, j: usize) -> usize {
        t * self.stride + j * self.dilation - self.pad
    }
}

/// `n` rounded up to a whole number of tiles.
fn tiled(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// Swap the inner two axes of `src: (outer, rows, cols)` into
/// `(outer, cols, tiled(rows))`, zero-filling the padding lanes.
fn transpose_tiled(src: &[f32], outer: usize, rows: usize, cols: usize) -> Vec<f32> {
    let width = tiled(rows);
    let mut out = vec![0.0; outer * cols * width];
    for o in 0..outer {
        for r in 0..rows {
            for c in 0..cols {
                out[(o * cols + c) * width + r] = src[(o * rows + r) * cols + c];
            }
        }
    }
    out
}

/// `acc += a · v[..LANES]`, lane by lane, written in groups of four so the
/// tile compiles to whole vector registers.
#[inline(always)]
fn axpy(acc: &mut Tile, a: f32, v: &[f32]) {
    for (s, vq) in acc.chunks_exact_mut(4).zip(v[..LANES].chunks_exact(4)) {
        s[0] += a * vq[0];
        s[1] += a * vq[1];
        s[2] += a * vq[2];
        s[3] += a * vq[3];
    }
}

/// Write the first `n` lanes of `acc` to `dst[0], dst[step], dst[2·step], …`.
#[inline]
fn scatter(acc: &Tile, dst: &mut [f32], step: usize, n: usize) {
    for (lane, &v) in acc.iter().take(n).enumerate() {
        dst[lane * step] = v;
    }
}

/// `out[b, co, t] = bias[co] + Σ_(ci, j) w[co, ci, j] · x[b, ci, t·s + j·d − pad]`.
fn forward(x: &[f32], w: &[f32], bias: &[f32], d: Dims) -> Vec<f32> {
    let width = tiled(d.c_out);
    let wt = transpose_tiled(w, 1, d.c_out, d.c_in * d.k); // (C_in·k, C_out)
    let mut bias_tiled = bias.to_vec();
    bias_tiled.resize(width, 0.0);
    let mut out = vec![0.0; d.b * d.c_out * d.l_out];
    crate::linalg::par_rows(d.b, d.macs(), &mut out, d.c_out * d.l_out, |bi, row| {
        let xs = &x[bi * d.c_in * d.l..][..d.c_in * d.l];
        for t in 0..d.l_out {
            let j0 = d.first_tap(t);
            for c0 in (0..d.c_out).step_by(LANES) {
                let mut acc: Tile = [0.0; LANES];
                acc.copy_from_slice(&bias_tiled[c0..c0 + LANES]);
                for ci in 0..d.c_in {
                    let xrow = &xs[ci * d.l..][..d.l];
                    for j in j0..d.k {
                        axpy(&mut acc, xrow[d.input_pos(t, j)], &wt[(ci * d.k + j) * width + c0..]);
                    }
                }
                scatter(&acc, &mut row[c0 * d.l_out + t..], d.l_out, d.c_out - c0);
            }
        }
    });
    out
}

/// `gX[b, ci, p] = Σ_co Σ_t g[b, co, t] · w[co, ci, j]` over the taps `(t, j)`
/// that read position `p`.
fn grad_input(w: &[f32], g: &[f32], d: Dims) -> Vec<f32> {
    let width = tiled(d.c_in);
    let wt = transpose_tiled(w, d.c_out, d.c_in, d.k); // (C_out, k, C_in)
    // The `(t, j)` taps reading each input position, steps ascending.
    let mut taps = Vec::new();
    let mut first = vec![0];
    for p in 0..d.l {
        for j in (0..d.k).rev() {
            let q = p + d.pad - j * d.dilation;
            if q.is_multiple_of(d.stride) && q / d.stride < d.l_out {
                taps.push((q / d.stride, j));
            }
        }
        first.push(taps.len());
    }
    let mut gx = vec![0.0; d.b * d.c_in * d.l];
    crate::linalg::par_rows(d.b, d.macs(), &mut gx, d.c_in * d.l, |bi, row| {
        let gs = &g[bi * d.c_out * d.l_out..][..d.c_out * d.l_out];
        for p in 0..d.l {
            let taps = &taps[first[p]..first[p + 1]];
            for c0 in (0..d.c_in).step_by(LANES) {
                let mut acc: Tile = [0.0; LANES];
                for co in 0..d.c_out {
                    let grow = &gs[co * d.l_out..][..d.l_out];
                    for &(t, j) in taps {
                        let go = grow[t];
                        if go != 0.0 {
                            axpy(&mut acc, go, &wt[(co * d.k + j) * width + c0..]);
                        }
                    }
                }
                scatter(&acc, &mut row[c0 * d.l + p..], d.l, d.c_in - c0);
            }
        }
    });
    gx
}

/// `gW[co, ci, j] = Σ_(b, t) g[b, co, t] · x[b, ci, t·s + j·d − pad]`.
fn grad_weight(x: &[f32], g: &[f32], d: Dims) -> Vec<f32> {
    let width = tiled(d.c_in);
    let xt = transpose_tiled(x, d.b, d.c_in, d.l); // (B, L, C_in)
    let mut gw = vec![0.0; d.c_out * d.c_in * d.k];
    crate::linalg::par_rows(d.c_out, d.macs(), &mut gw, d.c_in * d.k, |co, row| {
        for j in 0..d.k {
            let t0 = d.first_step(j);
            for c0 in (0..d.c_in).step_by(LANES) {
                let mut acc: Tile = [0.0; LANES];
                for bi in 0..d.b {
                    let grow = &g[(bi * d.c_out + co) * d.l_out..][..d.l_out];
                    let xs = &xt[bi * d.l * width..][..d.l * width];
                    for (t, &go) in (t0..).zip(&grow[t0.min(d.l_out)..]) {
                        if go != 0.0 {
                            axpy(&mut acc, go, &xs[d.input_pos(t, j) * width + c0..]);
                        }
                    }
                }
                scatter(&acc, &mut row[c0 * d.k + j..], d.k, d.c_in - c0);
            }
        }
    });
    gw
}

/// `gb[co] = Σ_(b, t) g[b, co, t]`.
fn grad_bias(g: &[f32], d: Dims) -> Vec<f32> {
    let mut gb = vec![0.0; d.c_out];
    for bi in 0..d.b {
        for (co, acc) in gb.iter_mut().enumerate() {
            for &go in &g[(bi * d.c_out + co) * d.l_out..][..d.l_out] {
                if go != 0.0 {
                    *acc += go;
                }
            }
        }
    }
    gb
}

#[cfg(test)]
#[path = "conv_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::check_gradient;

    #[test]
    fn identity_kernel_preserves_input() {
        // k=1, stride=1: convolution is a pointwise map with weight 1.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([1, 1, 4], vec![1., 2., 3., 4.]));
        let w = tape.leaf(Tensor::new([1, 1, 1], vec![1.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0]));
        let y = tape.conv1d_causal(x, w, b, ConvSpec::new(1, 1, 1));
        assert_eq!(tape.value(y).data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn causal_sum_kernel() {
        // k=2 with weights [1,1]: y_t = x_{t-1} + x_t, with x_{-1}=0.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([1, 1, 4], vec![1., 2., 3., 4.]));
        let w = tape.leaf(Tensor::new([1, 1, 2], vec![1.0, 1.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0]));
        let y = tape.conv1d_causal(x, w, b, ConvSpec::new(2, 1, 1));
        assert_eq!(tape.value(y).data(), &[1., 3., 5., 7.]);
    }

    #[test]
    fn no_future_leakage() {
        // Perturbing x_t must never change outputs before t.
        let spec = ConvSpec::new(3, 1, 1);
        let base = Tensor::new([1, 1, 5], vec![1., 2., 3., 4., 5.]);
        let run = |x: &Tensor| -> Vec<f32> {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let w = tape.leaf(Tensor::new([1, 1, 3], vec![0.3, -0.5, 0.8]));
            let b = tape.leaf(Tensor::from_vec(vec![0.1]));
            let y = tape.conv1d_causal(xv, w, b, spec);
            tape.value(y).data().to_vec()
        };
        let y0 = run(&base);
        let mut pert = base.clone();
        pert.data_mut()[3] += 10.0; // change x_3
        let y1 = run(&pert);
        assert_eq!(&y0[..3], &y1[..3], "outputs before t=3 must be unchanged");
        assert_ne!(y0[3], y1[3]);
    }

    #[test]
    fn stride_compresses_length() {
        let spec = ConvSpec::new(3, 2, 1);
        assert_eq!(spec.out_len(8), 4);
        assert_eq!(spec.out_len(7), 4);
        assert_eq!(spec.out_len(1), 1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3, 8]));
        let w = tape.leaf(Tensor::ones([4, 3, 3]));
        let b = tape.leaf(Tensor::zeros([4]));
        let y = tape.conv1d_causal(x, w, b, spec);
        assert_eq!(tape.value(y).dims(), &[2, 4, 4]);
    }

    #[test]
    fn dilation_expands_receptive_field() {
        // k=2, dilation=2: y_t = w0·x_{t-2} + w1·x_t.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([1, 1, 5], vec![1., 2., 3., 4., 5.]));
        let w = tape.leaf(Tensor::new([1, 1, 2], vec![1.0, 10.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0]));
        let y = tape.conv1d_causal(x, w, b, ConvSpec::new(2, 1, 2));
        assert_eq!(tape.value(y).data(), &[10., 20., 31., 42., 53.]);
    }

    #[test]
    fn conv_grad_check_input_and_weight() {
        let spec = ConvSpec::new(3, 2, 1);
        let x0 = Tensor::new([2, 2, 6], (0..24).map(|v| (v as f32) * 0.1 - 1.0).collect());
        let w0 = Tensor::new([3, 2, 3], (0..18).map(|v| (v as f32) * 0.05 - 0.4).collect());
        let w_for_x = w0.clone();
        check_gradient(&x0, 1e-2, 2e-2, move |tape, x| {
            let w = tape.leaf(w_for_x.clone());
            let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3]));
            let y = tape.conv1d_causal(x, w, b, spec);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
        let x_for_w = x0;
        check_gradient(&w0, 1e-2, 2e-2, move |tape, w| {
            let x = tape.leaf(x_for_w.clone());
            let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3]));
            let y = tape.conv1d_causal(x, w, b, spec);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn weight_norm_unit_direction() {
        // With gain g and any v, each output filter has norm g.
        let mut tape = Tape::new();
        let v = tape.leaf(Tensor::new([2, 1, 2], vec![3., 4., 1., 0.]));
        let g = tape.leaf(Tensor::from_vec(vec![2.0, 5.0]));
        let wn = tape.weight_norm(v, g);
        let w = tape.value(wn).clone();
        let f0: f32 = w.data()[..2].iter().map(|&x| x * x).sum::<f32>().sqrt();
        let f1: f32 = w.data()[2..].iter().map(|&x| x * x).sum::<f32>().sqrt();
        assert!((f0 - 2.0).abs() < 1e-4, "filter 0 norm {f0}");
        assert!((f1 - 5.0).abs() < 1e-4, "filter 1 norm {f1}");
    }

    #[test]
    fn weight_norm_grad_check() {
        let v0 = Tensor::new([2, 2, 2], vec![0.5, -1.0, 2.0, 0.3, 1.5, -0.7, 0.2, 0.9]);
        check_gradient(&v0, 1e-3, 2e-2, |tape, v| {
            let g = tape.leaf(Tensor::from_vec(vec![1.5, 0.8]));
            let w = tape.weight_norm(v, g);
            let wsum = tape.square(w);
            tape.sum_all(wsum)
        })
        .unwrap();
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Forward output and `[gX, gW, gb]` of one taped conv, as bit patterns.
    fn conv_bits(x: &Tensor, w: &Tensor, bias: &Tensor, g: &Tensor, spec: ConvSpec) -> [Vec<u32>; 4] {
        let _finite = crate::finite::suppress();
        let mut tape = Tape::new();
        let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(bias.clone()));
        let y = tape.conv1d_causal(xv, wv, bv, spec);
        tape.backward_seeded(y, g.clone());
        let grad = |v| bits(tape.grad(v).expect("leaf gradient"));
        [bits(tape.value(y)), grad(xv), grad(wv), grad(bv)]
    }

    fn oracle_bits(x: &Tensor, w: &Tensor, bias: &Tensor, g: &Tensor, spec: ConvSpec) -> [Vec<u32>; 4] {
        let [gx, gw, gb] = oracle::backward(x, w, g, spec);
        [bits(&oracle::forward(x, w, bias, spec)), bits(&gx), bits(&gw), bits(&gb)]
    }

    #[test]
    fn special_values_match_oracle_bitwise() {
        // A -0.0 bias on the first step, whose only real tap adds w·(-0.0):
        // a padded w·0 term would turn the output into +0.0.
        let spec = ConvSpec::new(3, 1, 1);
        let x = Tensor::new([1, 1, 3], vec![-0.0, 2.0, -1.0]);
        let w = Tensor::new([1, 1, 3], vec![0.5, 0.25, 2.0]);
        let bias = Tensor::from_vec(vec![-0.0]);
        let g = Tensor::new([1, 1, 3], vec![1.0, -0.5, 0.25]);
        let got = conv_bits(&x, &w, &bias, &g, spec);
        assert_eq!(got[0][0], (-0.0f32).to_bits(), "-0.0 output flipped sign");
        assert_eq!(got, oracle_bits(&x, &w, &bias, &g, spec));

        // With L ≤ pad the first tap only ever meets padding, so an infinite
        // weight there must leave the output and every gradient finite.
        let spec = ConvSpec::new(3, 1, 1);
        let x = Tensor::new([1, 2, 2], vec![1.0, -2.0, 0.5, 3.0]);
        for inf in [f32::INFINITY, f32::NEG_INFINITY] {
            let w = Tensor::new([2, 2, 3], vec![inf, 0.1, 0.2, inf, -0.3, 0.4, 0.5, 0.6, 0.7, -inf, 0.8, 0.9]);
            let bias = Tensor::from_vec(vec![0.1, -0.2]);
            let g = Tensor::new([1, 2, 2], vec![1.0, 0.0, -1.0, 0.5]);
            let got = conv_bits(&x, &w, &bias, &g, spec);
            assert!(got[0].iter().all(|&b| f32::from_bits(b).is_finite()), "inf weight leaked");
            assert_eq!(got, oracle_bits(&x, &w, &bias, &g, spec));
        }

        // A NaN input read only by steps whose upstream gradient is zero:
        // skipping those steps keeps NaN out of gW.
        let spec = ConvSpec::new(2, 2, 1);
        let x = Tensor::new([2, 1, 4], vec![1.0, f32::NAN, -1.0, 2.0, 0.5, 1.5, -0.5, 0.25]);
        let w = Tensor::new([2, 1, 2], vec![0.3, -0.7, 1.1, 0.2]);
        let bias = Tensor::from_vec(vec![0.0, 0.5]);
        let g = Tensor::new([2, 2, 2], vec![1.0, 0.0, -2.0, -0.0, 0.5, 0.0, 1.0, -1.0]);
        let got = conv_bits(&x, &w, &bias, &g, spec);
        assert!(got[2].iter().all(|&b| f32::from_bits(b).is_finite()), "NaN reached gW");
        assert_eq!(got, oracle_bits(&x, &w, &bias, &g, spec));
    }

    #[test]
    fn model_shape_matches_oracle_serial_and_threaded() {
        // The default RT-GCN layer (32 → 32 channels, 16 steps, k = 3,
        // stride 2) at 64 stocks clears the threading threshold.
        let spec = ConvSpec::new(3, 2, 1);
        let mut rng = crate::init::rng(17);
        let x = crate::init::uniform([64, 32, 16], -1.0, 1.0, &mut rng);
        let w = crate::init::uniform([32, 32, 3], -0.5, 0.5, &mut rng);
        let bias = crate::init::uniform([32], -0.1, 0.1, &mut rng);
        let mut g = crate::init::uniform([64, 32, 8], -1.0, 1.0, &mut rng);
        for v in g.data_mut().iter_mut().step_by(5) {
            *v = 0.0;
        }
        let expect = oracle_bits(&x, &w, &bias, &g, spec);
        let _guard = crate::linalg::override_lock();
        for threads in [1, 2, 4] {
            crate::linalg::set_num_threads(Some(threads));
            let got = conv_bits(&x, &w, &bias, &g, spec);
            crate::linalg::set_num_threads(None);
            assert!(got == expect, "{threads} threads: conv differs from the oracle");
        }
    }
}
