//! The fit phase: training steps over a fixed slice of the training split,
//! and per-day scoring over the test split.

use crate::stats::Samples;
use crate::system::{System, FIT_SALT};
use crate::trace::span;
use rtgcn_core::{PhaseSecs, RtGcn, StockRanker};
use rtgcn_tensor::Adam;
use std::time::{Duration, Instant};

/// Training days the fit phase cycles through, from the start of the split.
pub const TRAIN_SLICE: usize = 64;

#[derive(Debug, Default)]
pub struct FitOut {
    pub steps: Samples,
    pub evals: Samples,
    pub sample: Samples,
    /// Loss of every step, as bits, in step order.
    pub losses: Vec<u32>,
    /// Phase clock of the trained model over the training steps only.
    pub phases: PhaseSecs,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// A model in training (always the same one for a seed) and what its
/// steps and scored days measured so far.
pub struct Fit {
    model: RtGcn,
    opt: Adam,
    slice: Vec<usize>,
    test_days: Vec<usize>,
    pub out: FitOut,
}

impl Fit {
    pub fn new(sys: &System, seed: u64) -> Fit {
        let cfg = &sys.cfg;
        let mut slice = sys.ds.train_end_days(cfg.t_steps);
        slice.truncate(TRAIN_SLICE);
        Fit {
            model: RtGcn::new(cfg.clone(), &sys.rel, seed ^ FIT_SALT),
            opt: Adam::new(cfg.lr, cfg.lambda),
            slice,
            test_days: sys.ds.test_end_days(),
            out: FitOut::default(),
        }
    }

    /// Train on the next days of the slice for `budget` (at least one step).
    pub fn train(&mut self, sys: &System, budget: Duration) {
        let cfg = &sys.cfg;
        let before = self.model.phase_secs();
        let start = Instant::now();
        loop {
            let i = self.out.steps.len();
            let day = self.slice[i % self.slice.len()];
            let t = Instant::now();
            let s = {
                let _s = span("market.sample");
                sys.ds.sample(day, cfg.t_steps, cfg.n_features)
            };
            self.out.sample.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let st = {
                let _s = span("core.train_step");
                self.model.train_step_stats(&s.x, &s.y, &mut self.opt)
            };
            self.out.steps.push(t.elapsed().as_secs_f64() * 1e3);
            self.out.attempted += 1;
            self.out.losses.push(st.loss.to_bits());
            if !st.loss.is_finite() {
                self.out.failed += 1;
                self.out.errors.push(format!("step {i}: loss {}", st.loss));
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        let after = self.model.phase_secs();
        let p = &mut self.out.phases;
        p.relational += after.relational - before.relational;
        p.temporal += after.temporal - before.temporal;
        p.loss += after.loss - before.loss;
        p.backward += after.backward - before.backward;
        p.optim += after.optim - before.optim;
    }

    /// Score the next test days for `budget` (at least one day).
    pub fn eval(&mut self, sys: &System, budget: Duration) {
        let n = sys.ds.n_stocks();
        let start = Instant::now();
        loop {
            let day = self.test_days[self.out.evals.len() % self.test_days.len()];
            let t = Instant::now();
            let scores = {
                let _s = span("core.scores_for_day");
                self.model.scores_for_day(&sys.ds, day)
            };
            self.out.evals.push(t.elapsed().as_secs_f64() * 1e3);
            self.out.attempted += 1;
            if scores.len() != n || scores.iter().any(|s| !s.is_finite()) {
                self.out.failed += 1;
                self.out.errors.push(format!(
                    "day {day}: {} scores, not all finite",
                    scores.len()
                ));
            }
            if start.elapsed() >= budget {
                break;
            }
        }
    }
}
