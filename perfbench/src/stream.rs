//! The stream phase: the `StreamEngine::advance` day loop with a fixed share
//! of edge add/drop days, then the bitwise parity check.

use crate::stats::Samples;
use crate::system::EVENT_EVERY;
use crate::trace::span;
use rtgcn_market::{DayEvent, WikiEdge};
use rtgcn_stream::StreamEngine;
use std::time::{Duration, Instant};

/// Deterministic source of the streamed relation events: each event day
/// either adds an edge between a random unrelated pair or drops the edge
/// the previous event added, so the graph keeps its size.
pub struct Events {
    rng: u64,
    day: usize,
    added: Option<(usize, usize)>,
}

impl Events {
    pub fn new(seed: u64) -> Events {
        Events {
            rng: seed ^ 0xe7e7_0000,
            day: 0,
            added: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The event for the next advanced day, if it carries one.
    fn next(&mut self, engine: &StreamEngine) -> Option<DayEvent> {
        self.day += 1;
        if !self.day.is_multiple_of(EVENT_EVERY) {
            return None;
        }
        if let Some((a, b)) = self.added.take() {
            return Some(DayEvent {
                add: vec![],
                drop: vec![(a, b)],
            });
        }
        let ds = engine.dataset();
        let n = ds.n_stocks() as u64;
        let types = ds.wiki.relations.num_types() as u64;
        loop {
            let (a, b) = (
                (self.next_u64() % n) as usize,
                (self.next_u64() % n) as usize,
            );
            if a == b || ds.wiki.relations.related(a, b) {
                continue;
            }
            self.added = Some((a, b));
            let edge = WikiEdge {
                leader: a,
                follower: b,
                types: vec![(self.next_u64() % types.max(1)) as usize],
                strength: 0.2,
                period: 10,
                phase: 0,
                duty: 1.0,
            };
            return Some(DayEvent {
                add: vec![edge],
                drop: vec![],
            });
        }
    }
}

#[derive(Debug, Default)]
pub struct StreamOut {
    pub advance: Samples,
    /// `DayOutcome::score_ns` of every day.
    pub score: Samples,
    /// Advance time of the days that carried an event.
    pub event_day: Samples,
    pub parity_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Advance `engine` day by day for `budget` (at least one day).
pub fn advance(
    engine: &mut StreamEngine,
    events: &mut Events,
    budget: Duration,
    out: &mut StreamOut,
) {
    let start = Instant::now();
    loop {
        let before = engine.current_day();
        let event = events.next(engine);
        let has_event = event.is_some();
        let t = Instant::now();
        let outcome = {
            let _s = span("stream.advance");
            engine.advance(event)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.advance.push(ms);
        out.score.push(outcome.score_ns as f64 / 1e6);
        if has_event {
            out.event_day.push(ms);
        }
        out.attempted += 1;
        if outcome.day != before + 1 || outcome.relations_changed != has_event {
            out.failed += 1;
            out.errors.push(format!(
                "day {}: expected day {} with relations_changed = {has_event}",
                outcome.day,
                before + 1
            ));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Prove the engine's state equal to a from-scratch rebuild.
pub fn verify(engine: &StreamEngine, out: &mut StreamOut) {
    let t = Instant::now();
    let parity = {
        let _s = span("stream.verify_parity");
        engine.verify_parity()
    };
    out.parity_s = t.elapsed().as_secs_f64();
    record_parity(out, parity);
}

/// A parity mismatch fails the phase.
pub fn record_parity(out: &mut StreamOut, parity: Result<(), String>) {
    out.attempted += 1;
    if let Err(e) = parity {
        out.failed += 1;
        out.errors.push(format!("verify_parity: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_parity_mismatch_counts_as_a_failure() {
        let mut out = StreamOut::default();
        record_parity(&mut out, Ok(()));
        assert_eq!((out.attempted, out.failed), (1, 0));
        record_parity(
            &mut out,
            Err("per-plane dots diverge from the batch rebuild".into()),
        );
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(out.errors[0].contains("per-plane dots"));
    }
}
