//! Bitwise oracle for `conv1d_causal`: the original scalar kernel, one
//! output element at a time with the padding test in the innermost tap
//! loop. Every rewrite of the production kernel must reproduce these
//! numbers bit for bit, forward and all three gradients.
//!
//! Test-only. The crate's unit tests include it as a `#[cfg(test)]`
//! module and `tests/tensor_props.rs` includes the same file by path; both
//! provide `ConvSpec` and `Tensor` in the parent module.

use super::{ConvSpec, Tensor};

/// `x: (B, C_in, L)`, `w: (C_out, C_in, k)`, `bias: (C_out)` →
/// `(B, C_out, L_out)`.
pub fn forward(x: &Tensor, w: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
    let (b, c_in, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let (c_out, k) = (w.dims()[0], w.dims()[2]);
    let pad = spec.pad();
    let l_out = spec.out_len(l);
    let mut out = Tensor::zeros([b, c_out, l_out]);
    {
        let (od, xd, wd, bd) = (out.data_mut(), x.data(), w.data(), bias.data());
        for bi in 0..b {
            #[allow(clippy::needless_range_loop)]
            for co in 0..c_out {
                let obase = (bi * c_out + co) * l_out;
                for t in 0..l_out {
                    let mut acc = bd[co];
                    let origin = t * spec.stride;
                    for ci in 0..c_in {
                        let xbase = (bi * c_in + ci) * l;
                        let wbase = (co * c_in + ci) * k;
                        for j in 0..k {
                            let ppos = origin + j * spec.dilation;
                            if ppos >= pad {
                                let ipos = ppos - pad;
                                acc += wd[wbase + j] * xd[xbase + ipos];
                            }
                        }
                    }
                    od[obase + t] = acc;
                }
            }
        }
    }
    out
}

/// Gradients `[gX, gW, gb]` for the upstream gradient `g: (B, C_out, L_out)`.
pub fn backward(x: &Tensor, w: &Tensor, g: &Tensor, spec: ConvSpec) -> [Tensor; 3] {
    let (b, c_in, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let (c_out, k) = (w.dims()[0], w.dims()[2]);
    let pad = spec.pad();
    let l_out = spec.out_len(l);
    let (xd, wd, g) = (x.data(), w.data(), g.data());
    let mut gx = vec![0.0f32; b * c_in * l];
    let mut gw = vec![0.0f32; c_out * c_in * k];
    let mut gb = vec![0.0f32; c_out];
    for bi in 0..b {
        #[allow(clippy::needless_range_loop)]
        for co in 0..c_out {
            let obase = (bi * c_out + co) * l_out;
            for t in 0..l_out {
                let go = g[obase + t];
                if go == 0.0 {
                    continue;
                }
                gb[co] += go;
                let origin = t * spec.stride;
                for ci in 0..c_in {
                    let xbase = (bi * c_in + ci) * l;
                    let wbase = (co * c_in + ci) * k;
                    for j in 0..k {
                        let ppos = origin + j * spec.dilation;
                        if ppos >= pad {
                            let ipos = ppos - pad;
                            gw[wbase + j] += go * xd[xbase + ipos];
                            gx[xbase + ipos] += go * wd[wbase + j];
                        }
                    }
                }
            }
        }
    }
    [
        Tensor::new([b, c_in, l], gx),
        Tensor::new([c_out, c_in, k], gw),
        Tensor::from_vec(gb),
    ]
}
