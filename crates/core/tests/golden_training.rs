//! Golden training fixture: the loss of eight consecutive
//! `train_step_stats` calls per adjacency strategy, pinned bit for bit.
//!
//! The bits were captured before the causal-conv kernel was rewritten, so
//! they pin "same model, same numbers" across kernel rewrites: any change
//! to an op's per-element accumulation order, to padding handling or to the
//! thread split shows up here as a changed bit pattern. A deliberate numeric
//! change must recapture them and say so in the change log.

use rtgcn_core::{RtGcn, RtGcnConfig, Strategy};
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_tensor::Adam;

const STEPS: usize = 8;

const UNIFORM: [u32; STEPS] = [
    0x3f2b62d9, 0x3f03c9cd, 0x3ede2f91, 0x3eaeb022, 0x3e74da31, 0x3e26899e, 0x3dda2b48, 0x3d3becea,
];
const WEIGHTED: [u32; STEPS] = [
    0x3f2b4f25, 0x3f03cfaa, 0x3ede196a, 0x3eaeb4ea, 0x3e74c003, 0x3e269569, 0x3dda2d4a, 0x3d3bbda3,
];
const TIME_SENSITIVE: [u32; STEPS] = [
    0x3f2b8987, 0x3f0388db, 0x3eddbbf4, 0x3eae5818, 0x3e741897, 0x3e264f9e, 0x3dda97c3, 0x3d3c246a,
];

fn dataset() -> StockDataset {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 24;
    spec.train_days = 80;
    spec.test_days = 10;
    spec.sectors = 4;
    StockDataset::generate(spec, 11)
}

/// Loss bits of the first [`STEPS`] training steps. Two layers exercise
/// both the strided conv with its 1×1 skip projection and the stride-1
/// block; dropout is on so the seeded mask stream is pinned too.
fn loss_bits(strategy: Strategy) -> Vec<u32> {
    let ds = dataset();
    let cfg = RtGcnConfig {
        strategy,
        layers: 2,
        rel_filters: 16,
        temporal_filters: 16,
        fused: true,
        ..Default::default()
    };
    let relations = ds.relations(RelationKind::Both);
    let mut model = RtGcn::new(cfg.clone(), &relations, 7);
    let mut opt = Adam::new(cfg.lr, cfg.lambda);
    let days = ds.train_end_days(cfg.t_steps);
    (0..STEPS)
        .map(|i| {
            let s = ds.sample(days[i * 5 % days.len()], cfg.t_steps, cfg.n_features);
            model.train_step_stats(&s.x, &s.y, &mut opt).loss.to_bits()
        })
        .collect()
}

fn check(strategy: Strategy, golden: &[u32; STEPS]) {
    let got = loss_bits(strategy);
    assert_eq!(
        got,
        golden,
        "{strategy:?} loss bits changed: {:?}",
        got.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>()
    );
}

#[test]
fn uniform_losses_are_bit_identical() {
    check(Strategy::Uniform, &UNIFORM);
}

#[test]
fn weighted_losses_are_bit_identical() {
    check(Strategy::Weighted, &WEIGHTED);
}

#[test]
fn time_sensitive_losses_are_bit_identical() {
    check(Strategy::TimeSensitive, &TIME_SENSITIVE);
}
