//! Property-based tests for the tensor engine: algebraic identities of the
//! linalg kernels and structural invariants of the sparse/conv ops under
//! random inputs.

use proptest::prelude::*;
use rtgcn_tensor::{linalg, ConvSpec, Edges, Tape, Tensor};

/// The original scalar conv kernel, the bitwise reference for
/// `conv1d_causal` (shared with the crate's unit tests).
#[path = "../src/ops/conv_oracle.rs"]
mod conv_oracle;

/// Forward output and `[gX, gW, gb]` of one taped conv, as bit patterns.
fn conv_bits(x: &Tensor, w: &Tensor, bias: &Tensor, g: &Tensor, spec: ConvSpec) -> [Vec<u32>; 4] {
    let mut tape = Tape::new();
    let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(bias.clone()));
    let y = tape.conv1d_causal(xv, wv, bv, spec);
    tape.backward_seeded(y, g.clone());
    let grad = |v| bits(tape.grad(v).expect("leaf gradient"));
    [bits(tape.value(y)), grad(xv), grad(wv), grad(bv)]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A random conv problem: shapes, spec, and tensors whose upstream
/// gradient has about a quarter of its entries set to (signed) zero.
fn conv_case() -> impl Strategy<Value = (Tensor, Tensor, Tensor, Tensor, ConvSpec)> {
    // Half the draws are small shapes for the edge cases, half are large
    // enough to clear the kernels' threading threshold.
    let dims = (0usize..2, 0usize..48, 0usize..25, 0usize..25);
    (dims, (0usize..16, 1usize..5, 1usize..7, 1usize..4), 0u64..u64::MAX)
        .prop_map(|((large, b, c_in, c_out), (l, k, stride, dilation), seed)| {
            let (b, c_in, c_out, l) = if large == 1 {
                (16 + b, 8 + c_in, 8 + c_out, 8 + l)
            } else {
                (1 + b % 12, 1 + c_in % 12, 1 + c_out % 12, 1 + l)
            };
            let spec = ConvSpec::new(k, stride, dilation);
            let mut rng = rtgcn_tensor::init::rng(seed);
            let x = rtgcn_tensor::init::uniform([b, c_in, l], -2.0, 2.0, &mut rng);
            let w = rtgcn_tensor::init::uniform([c_out, c_in, k], -1.0, 1.0, &mut rng);
            let bias = rtgcn_tensor::init::uniform([c_out], -0.5, 0.5, &mut rng);
            let mut g = rtgcn_tensor::init::uniform([b, c_out, spec.out_len(l)], -1.0, 1.0, &mut rng);
            for (i, v) in g.data_mut().iter_mut().enumerate() {
                match (seed >> (i % 61)) % 8 {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    _ => {}
                }
            }
            (x, w, bias, g, spec)
        })
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::new([rows, cols], data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A(B + C) == AB + AC (within f32 tolerance).
    #[test]
    fn matmul_distributes((m, k, n) in (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|d| Just(d))) {
        let runner = |seed: u64, r: usize, c: usize| {
            let mut rng = rtgcn_tensor::init::rng(seed);
            rtgcn_tensor::init::uniform([r, c], -2.0, 2.0, &mut rng)
        };
        let a = runner(1, m, k);
        let b = runner(2, k, n);
        let c = runner(3, k, n);
        let bc = b.zip(&c, |x, y| x + y);
        let lhs = linalg::matmul(&a, &bc);
        let ab = linalg::matmul(&a, &b);
        let ac = linalg::matmul(&a, &c);
        let rhs = ab.zip(&ac, |x, y| x + y);
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// matmul_tn(Aᵀ stored as A) and matmul_nt agree with explicit
    /// transposition for arbitrary rectangular matrices.
    #[test]
    fn transpose_free_kernels_agree(a in matrix(4, 3), b in matrix(3, 5)) {
        let expect = linalg::matmul(&a, &b);
        let via_tn = linalg::matmul_tn(&a.transpose(), &b);
        let via_nt = linalg::matmul_nt(&a, &b.transpose());
        prop_assert!(via_tn.allclose(&expect, 1e-3));
        prop_assert!(via_nt.allclose(&expect, 1e-3));
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(a in matrix(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// conv out_len: ⌈L/stride⌉ for any L, stride.
    #[test]
    fn conv_out_len_formula(l in 1usize..100, stride in 1usize..5, kernel in 1usize..5) {
        let spec = ConvSpec::new(kernel, stride, 1);
        prop_assert_eq!(spec.out_len(l), l.div_ceil(stride));
    }

    /// spmm against an explicit dense multiply for a random graph.
    #[test]
    fn spmm_matches_dense(
        n in 2usize..8,
        f in 1usize..5,
        edge_bits in proptest::collection::vec((0usize..8, 0usize..8, -3.0f32..3.0), 0..20),
    ) {
        let mut dense = Tensor::zeros([n, n]);
        let mut pairs = Vec::new();
        let mut weights = Vec::new();
        for (s, d, w) in edge_bits {
            let (s, d) = (s % n, d % n);
            pairs.push([s, d]);
            weights.push(w);
            *dense.at_mut(&[d, s]) += w;
        }
        let edges = Edges::new(n, pairs);
        let mut rng = rtgcn_tensor::init::rng(9);
        let x = rtgcn_tensor::init::uniform([n, f], -1.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let wv = tape.constant(Tensor::from_vec(weights));
        let xv = tape.constant(x.clone());
        let y = tape.spmm(&edges, wv, xv);
        let expect = linalg::matmul(&dense, &x);
        prop_assert!(tape.value(y).allclose(&expect, 1e-3));
    }

    /// Gradient of mean_all is uniform 1/n.
    #[test]
    fn mean_gradient_uniform(data in proptest::collection::vec(-5.0f32..5.0, 1..40)) {
        let n = data.len();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data));
        let m = tape.mean_all(x);
        tape.backward(m);
        let g = tape.grad(x).unwrap();
        for &v in g.data() {
            prop_assert!((v - 1.0 / n as f32).abs() < 1e-5);
        }
    }

    /// Backward through chained elementwise ops obeys the chain rule:
    /// d/dx sum(sigmoid(kx)) == k·σ'(kx).
    #[test]
    fn chain_rule_scale_sigmoid(data in proptest::collection::vec(-3.0f32..3.0, 1..20), k in -2.0f32..2.0) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data.clone()));
        let kx = tape.scale(x, k);
        let s = tape.sigmoid(kx);
        let total = tape.sum_all(s);
        tape.backward(total);
        let g = tape.grad(x).unwrap();
        for (i, &xv) in data.iter().enumerate() {
            let sig = 1.0 / (1.0 + (-k * xv).exp());
            let expect = k * sig * (1.0 - sig);
            prop_assert!((g.data()[i] - expect).abs() < 1e-4, "at {i}: {} vs {expect}", g.data()[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `conv1d_causal` forward and all three gradients are bit-identical to
    /// the scalar oracle, serial and threaded. The shape ranges cover
    /// `L ≤ pad`, `stride > k`, dilation > 1 and a single stock, and the
    /// larger draws clear the threading threshold.
    #[test]
    fn conv_matches_oracle_bitwise((x, w, bias, g, spec) in conv_case()) {
        let [gx, gw, gb] = conv_oracle::backward(&x, &w, &g, spec);
        let expect = [bits(&conv_oracle::forward(&x, &w, &bias, spec)), bits(&gx), bits(&gw), bits(&gb)];
        for threads in [1, 4] {
            linalg::set_num_threads(Some(threads));
            let got = conv_bits(&x, &w, &bias, &g, spec);
            linalg::set_num_threads(None);
            for (part, (a, e)) in ["forward", "gX", "gW", "gb"].iter().zip(got.iter().zip(&expect)) {
                prop_assert!(a == e, "{} differs from the oracle at {} threads ({:?})", part, threads, spec);
            }
        }
    }
}
