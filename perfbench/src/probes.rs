//! Per-layer probes for the traced run: single calls into one layer at the
//! workload's shape, each timed on its own.
//!
//! The 2-vCPU reference VM exposes no hardware counters, so
//! every MAC, FLOP and byte count here is computed from tensor sizes, not
//! measured.

use crate::stats::Samples;
use crate::system::{System, FIT_SALT};
use crate::trace::span;
use rtgcn_core::{Checkpoint, RtGcn};
use rtgcn_graph::{NormalizedAdjCache, TimePlaneCache};
use rtgcn_market::{FeatureStream, StockDataset};
use rtgcn_tensor::{Adam, ConvSpec, Edges, Optimizer, Tape, Tensor};
use std::time::{Duration, Instant};

/// Wall-clock spent repeating one probe, and its repetition limits.
const PROBE_TIME: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 2000;
/// Temporal-conv shape of the default RT-GCN layer: 32 → 32 channels over
/// a 16-day window, kernel 3, stride 2.
const CHANNELS: usize = 32;
const WINDOW: usize = 16;
const KERNEL: usize = 3;
const STRIDE: usize = 2;
/// Days appended by the market and plane-cache probes.
const APPEND_DAYS: usize = 20;

/// A named per-layer value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Run `f` repeatedly for about [`PROBE_TIME`]; each call returns the
/// milliseconds of the part it timed.
fn repeat(mut f: impl FnMut() -> f64) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while s.len() < MIN_REPS || (s.len() < MAX_REPS && start.elapsed() < PROBE_TIME) {
        s.push(f());
    }
    s
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Deterministic values in `[-1, 1)`.
fn filled(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let mut x = seed | 1;
    let data = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    Tensor::new(shape.to_vec(), data)
}

/// Tape-op probes at `n` stocks.
pub fn kernels(sys: &System, seed: u64) -> Vec<Metric> {
    let n = sys.ds.n_stocks();
    let spec = ConvSpec::new(KERNEL, STRIDE, 1);
    let l_out = spec.out_len(WINDOW);
    let x = filled(&[n, CHANNELS, WINDOW], seed);
    let w = filled(&[CHANNELS, CHANNELS, KERNEL], seed + 1);
    let b = filled(&[CHANNELS], seed + 2);
    let mut bwd = Samples::default();
    let fwd = repeat(|| {
        let mut tape = Tape::new();
        let (xv, wv, bv) = (
            tape.leaf(x.clone()),
            tape.leaf(w.clone()),
            tape.leaf(b.clone()),
        );
        let t = Instant::now();
        let out = {
            let _s = span("tensor.conv1d_causal");
            tape.conv1d_causal(xv, wv, bv, spec)
        };
        let fwd_ms = ms_since(t);
        let seed_grad = Tensor::ones([n, CHANNELS, l_out]);
        let t = Instant::now();
        {
            let _s = span("tensor.conv1d_causal.backward");
            tape.backward_seeded(out, seed_grad);
        }
        bwd.push(ms_since(t));
        fwd_ms
    });
    // Every output position takes C_in·k taps, padded ones included.
    let conv_macs = (n * CHANNELS * l_out * CHANNELS * KERNEL) as f64;

    let (m, k, cols) = (n * WINDOW, CHANNELS, CHANNELS);
    let a = filled(&[m, k], seed + 3);
    let bm = filled(&[k, cols], seed + 4);
    let matmul = repeat(|| {
        let mut tape = Tape::new();
        let (av, bv) = (tape.leaf(a.clone()), tape.leaf(bm.clone()));
        let t = Instant::now();
        let _s = span("tensor.matmul");
        tape.matmul(av, bv);
        ms_since(t)
    });
    let matmul_flops = (2 * m * k * cols) as f64;

    let edges = sys.rel.directed_edges();
    let cache = NormalizedAdjCache::new(n, &edges);
    let weights = Tensor::from_vec(cache.uniform().to_vec());
    let feats = filled(&[WINDOW, n, CHANNELS], seed + 5);
    let spmm = repeat(|| {
        let mut tape = Tape::new();
        let (wv, xv) = (tape.leaf(weights.clone()), tape.leaf(feats.clone()));
        let t = Instant::now();
        let _s = span("tensor.spmm_batched");
        tape.spmm_batched(cache.csr(), wv, xv);
        ms_since(t)
    });

    let rel_edges = Edges::new(n, edges);
    let raw = filled(&[WINDOW, n, sys.cfg.n_features], seed + 6);
    let edge_dot = repeat(|| {
        let mut tape = Tape::new();
        let xv = tape.leaf(raw.clone());
        let t = Instant::now();
        let _s = span("tensor.edge_dot_batched");
        tape.edge_dot_batched(&rel_edges, xv, (sys.cfg.n_features as f32).sqrt());
        ms_since(t)
    });

    let mut store = RtGcn::new(sys.cfg.clone(), &sys.rel, seed ^ FIT_SALT).store;
    let mut opt = Adam::new(sys.cfg.lr, sys.cfg.lambda);
    let ids: Vec<_> = store.ids().collect();
    let adam = repeat(|| {
        for &id in &ids {
            store.grad_mut(id).fill(1e-3);
        }
        let t = Instant::now();
        let _s = span("tensor.adam_step");
        opt.step(&mut store);
        ms_since(t)
    });

    vec![
        ("tensor.conv_fwd_ms", fwd.median(), "ms"),
        ("tensor.conv_bwd_ms", bwd.median(), "ms"),
        (
            "tensor.conv_gmac_s",
            conv_macs / (fwd.median() * 1e6),
            "GMAC/s",
        ),
        ("tensor.matmul_ms", matmul.median(), "ms"),
        (
            "tensor.matmul_gflop_s",
            matmul_flops / (matmul.median() * 1e6),
            "GFLOP/s",
        ),
        ("tensor.spmm_batched_ms", spmm.median(), "ms"),
        ("tensor.edge_dot_batched_ms", edge_dot.median(), "ms"),
        ("tensor.adam_ms", adam.median(), "ms"),
    ]
}

/// Bytes each kernel probe touches at least once, computed from tensor
/// sizes (inputs read plus output written, f32).
pub fn kernel_bytes(sys: &System) -> Vec<(&'static str, f64)> {
    let n = sys.ds.n_stocks();
    let l_out = ConvSpec::new(KERNEL, STRIDE, 1).out_len(WINDOW);
    let conv =
        n * CHANNELS * WINDOW + CHANNELS * CHANNELS * KERNEL + CHANNELS + n * CHANNELS * l_out;
    let mm = n * WINDOW * CHANNELS + CHANNELS * CHANNELS + n * WINDOW * CHANNELS;
    vec![
        ("tensor.conv_fwd", (conv * 4) as f64),
        ("tensor.matmul", (mm * 4) as f64),
    ]
}

/// One day's raw feature row as the stream engine builds it:
/// `[close, 5-day MA, 10-day MA, 20-day MA][..d]` per stock.
fn raw_row(features: &FeatureStream, prices: &Tensor, day: usize, d: usize) -> Vec<f32> {
    let n = features.n_stocks();
    let data = prices.data();
    let mut row = vec![0.0f32; n * d];
    for i in 0..n {
        row[i * d] = data[day * n + i];
        for f in 0..d - 1 {
            row[i * d + 1 + f] = features.raw_ma(day, i, f);
        }
    }
    row
}

/// Market and graph layer probes on a copy of the pristine dataset: the
/// calls `StreamEngine::new` and `StreamEngine::advance` make, one by one.
pub fn market_graph(ds: &StockDataset, edges: Vec<[usize; 2]>, d: usize) -> Vec<Metric> {
    let mut ds = ds.clone();
    let n = ds.n_stocks();
    let mut features = FeatureStream::from_prices(&ds.sim.prices);
    let raw: Vec<f32> = (0..features.days())
        .flat_map(|day| raw_row(&features, &ds.sim.prices, day, d))
        .collect();
    let t = Instant::now();
    let mut planes = {
        let _s = span("graph.plane_history");
        TimePlaneCache::from_history(n, d, edges.clone(), &raw)
    };
    let plane_history_s = t.elapsed().as_secs_f64();

    let (mut append, mut push, mut plane_push) =
        (Samples::default(), Samples::default(), Samples::default());
    for _ in 0..APPEND_DAYS {
        let t = Instant::now();
        let day = {
            let _s = span("market.append_day");
            ds.append_day(None)
        };
        append.push(ms_since(t));
        let t = Instant::now();
        {
            let _s = span("market.feature_push");
            features.push_day(&ds.sim.prices);
        }
        push.push(ms_since(t));
        let row = raw_row(&features, &ds.sim.prices, day, d);
        let t = Instant::now();
        {
            let _s = span("graph.plane_push");
            planes.push_day(&row);
        }
        plane_push.push(ms_since(t));
    }
    let mut set_edges = Samples::default();
    for _ in 0..3 {
        let e = edges.clone();
        let t = Instant::now();
        let _s = span("graph.set_edges");
        planes.set_edges(e);
        set_edges.push(ms_since(t));
    }
    vec![
        ("market.append_day_ms", append.median(), "ms"),
        ("market.feature_push_ms", push.median(), "ms"),
        ("graph.plane_history_s", plane_history_s, "s"),
        ("graph.plane_push_ms", plane_push.median(), "ms"),
        ("graph.set_edges_ms", set_edges.median(), "ms"),
    ]
}

/// Checkpoint decode and the serving registry's in-process calls. Runs
/// after the serve phase: `advance_market` rolls the served market forward.
pub fn serving(sys: &System) -> Result<Vec<Metric>, String> {
    let decode = repeat(|| {
        let t = Instant::now();
        let _s = span("core.ckpt_decode");
        let c = Checkpoint::from_bytes(&sys.ckpt_bytes);
        let ms = ms_since(t);
        std::hint::black_box(c.is_ok());
        ms
    });
    let entry = sys
        .registry
        .get(&sys.market)
        .ok_or("served market vanished")?;
    let ranked = repeat(|| {
        let t = Instant::now();
        let _s = span("serve.ranked");
        std::hint::black_box(entry.ranked(10));
        ms_since(t) * 1e3
    });
    let mut advance = Samples::default();
    for _ in 0..5 {
        let t = Instant::now();
        let _s = span("serve.advance_market");
        sys.registry
            .advance_market(&sys.market, 1, None)
            .map_err(|e| format!("advance_market: {e}"))?;
        advance.push(ms_since(t));
    }
    Ok(vec![
        ("core.ckpt_decode_ms", decode.median(), "ms"),
        ("serve.ranked_us", ranked.median(), "us"),
        ("serve.advance_market_ms", advance.median(), "ms"),
    ])
}
