//! Per-time-plane state for the streaming time-sensitive adjacency
//! (DESIGN.md §14).
//!
//! The time-sensitive strategy (Eq. 5) scales each relation edge's learned
//! importance by the feature correlation `⟨x_i, x_j⟩/√d` *per time plane*.
//! In batch mode every forward recomputes all `T` planes from the window
//! tensor; on the streaming path only the newest day is new — the other
//! `T − 1` planes were already seen. [`TimePlaneCache`] stores the **raw**
//! (pre-anchor-normalisation) per-edge inner products for every generated
//! day, so a day-advance refreshes exactly one plane, and a window's
//! correlation factor is assembled by rescaling cached dots with the
//! window-end anchors:
//!
//! ```text
//! ⟨x_i, x_j⟩/√d = rawdot_e(day) / (anchor_i · anchor_j · √d)
//! ```
//!
//! because anchor normalisation divides stock `i`'s features by a per-stock
//! scalar.
//!
//! ## Parity contract
//!
//! [`TimePlaneCache::push_day`] and the from-scratch rebuilds
//! ([`TimePlaneCache::from_history`], [`TimePlaneCache::set_edges`]) compute
//! each plane through the same pure per-day function, so streamed and
//! rebuilt caches are bit-identical. Against the direct
//! `edge_dot_batched` path (which dots *normalised* features) the assembled
//! correlations agree to float tolerance only — the division happens in a
//! different place.

use rtgcn_tensor::Tensor;

/// Raw per-edge feature inner products for every generated day, refreshed
/// one plane per day-advance and rebuilt in full on edge-set mutations.
#[derive(Clone, Debug)]
pub struct TimePlaneCache {
    n: usize,
    d: usize,
    /// Directed relation edges the dots are aligned with.
    edges: Vec<[usize; 2]>,
    days: usize,
    /// Raw feature history `(day, stock, feature)` row-major — kept so edge
    /// add/drop events can rebuild every plane for the new edge set.
    raw_hist: Vec<f32>,
    /// Per-day, per-edge raw inner products, `(day, edge)` row-major.
    rawdot: Vec<f32>,
}

impl TimePlaneCache {
    /// Empty cache over `n` stocks with `d` raw features per stock-day.
    pub fn new(n: usize, d: usize, edges: Vec<[usize; 2]>) -> Self {
        assert!(d > 0, "need at least one feature");
        for e in &edges {
            assert!(e[0] < n && e[1] < n, "edge {e:?} out of range for n={n}");
        }
        TimePlaneCache { n, d, edges, days: 0, raw_hist: Vec::new(), rawdot: Vec::new() }
    }

    /// Batch rebuild from a full raw-feature history, `(days, n, d)`
    /// row-major. The parity reference: pushing the same rows one at a time
    /// yields a bit-identical cache.
    pub fn from_history(n: usize, d: usize, edges: Vec<[usize; 2]>, raw: &[f32]) -> Self {
        assert_eq!(raw.len() % (n * d), 0, "raw history must be whole days");
        let mut c = TimePlaneCache::new(n, d, edges);
        for row in raw.chunks_exact(n * d) {
            c.push_day(row);
        }
        c
    }

    pub fn days(&self) -> usize {
        self.days
    }

    pub fn n_stocks(&self) -> usize {
        self.n
    }

    pub fn n_features(&self) -> usize {
        self.d
    }

    pub fn edges(&self) -> &[[usize; 2]] {
        &self.edges
    }

    /// Raw per-edge dots for one day's raw feature row — the single pure
    /// function both the incremental and rebuild paths go through.
    fn dots_for(raw_row: &[f32], edges: &[[usize; 2]], d: usize) -> Vec<f32> {
        edges
            .iter()
            .map(|&[s, t]| {
                let mut acc = 0.0f32;
                for f in 0..d {
                    acc += raw_row[s * d + f] * raw_row[t * d + f];
                }
                acc
            })
            .collect()
    }

    /// Ingest the next day's raw features (`n × d` row-major): appends one
    /// plane of per-edge dots. O(E·d) — only the newest plane is touched.
    pub fn push_day(&mut self, raw_row: &[f32]) {
        assert_eq!(raw_row.len(), self.n * self.d, "raw row must be n×d");
        refresh_counter().inc(1);
        self.rawdot.extend(Self::dots_for(raw_row, &self.edges, self.d));
        self.raw_hist.extend_from_slice(raw_row);
        self.days += 1;
    }

    /// Swap in a new directed edge set (after relation add/drop events) and
    /// rebuild every plane's dots from the stored raw history. O(days·E·d),
    /// paid only on mutation days.
    pub fn set_edges(&mut self, edges: Vec<[usize; 2]>) {
        for e in &edges {
            assert!(e[0] < self.n && e[1] < self.n, "edge {e:?} out of range for n={}", self.n);
        }
        rebuild_counter().inc(1);
        self.edges = edges;
        self.rawdot.clear();
        for row in self.raw_hist.chunks_exact(self.n * self.d) {
            self.rawdot.extend(Self::dots_for(row, &self.edges, self.d));
        }
    }

    /// Raw per-edge dots of every ingested plane, `(day, edge)` row-major.
    pub fn raw_dots(&self) -> &[f32] {
        &self.rawdot
    }

    /// Assemble the `(t_steps, E)` correlation factor for the window ending
    /// at `end_day`, given the per-stock window-end anchors (each stock's
    /// feature divisor) and the `√d` scale of Eq. 5.
    pub fn corr_window(
        &self,
        end_day: usize,
        t_steps: usize,
        anchors: &[f32],
        scale: f32,
    ) -> Tensor {
        assert!(end_day < self.days, "day {end_day} not ingested yet (have {})", self.days);
        assert!(end_day + 1 >= t_steps, "window of {t_steps} steps cannot end at day {end_day}");
        assert_eq!(anchors.len(), self.n, "one anchor per stock");
        let e_count = self.edges.len();
        let start = end_day + 1 - t_steps;
        let mut out = Tensor::zeros([t_steps, e_count]);
        for t in 0..t_steps {
            let plane = &self.rawdot[(start + t) * e_count..(start + t + 1) * e_count];
            let row = &mut out.data_mut()[t * e_count..(t + 1) * e_count];
            for (e, &[s, dst]) in self.edges.iter().enumerate() {
                row[e] = plane[e] / (anchors[s] * anchors[dst] * scale);
            }
        }
        out
    }
}

fn refresh_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("stream.plane.refresh"))
}

fn rebuild_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("stream.plane.rebuild"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_raw(days: usize, n: usize, d: usize) -> Vec<f32> {
        (0..days * n * d).map(|i| ((i * 37 + 11) % 23) as f32 * 0.5 - 4.0).collect()
    }

    #[test]
    fn incremental_equals_batch_rebuild_bitwise() {
        let (n, d) = (4, 3);
        let raw = toy_raw(30, n, d);
        let edges = vec![[0, 1], [1, 0], [2, 3], [3, 2], [0, 3], [3, 0]];
        let batch = TimePlaneCache::from_history(n, d, edges.clone(), &raw);
        let mut inc = TimePlaneCache::new(n, d, edges);
        for row in raw.chunks_exact(n * d) {
            inc.push_day(row);
        }
        assert_eq!(inc.days(), batch.days());
        let a: Vec<u32> = inc.rawdot.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = batch.rawdot.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn edge_mutation_rebuild_matches_fresh_cache_bitwise() {
        let (n, d) = (5, 2);
        let raw = toy_raw(20, n, d);
        let mut cache = TimePlaneCache::from_history(n, d, vec![[0, 1], [1, 0]], &raw);
        let new_edges = vec![[0, 1], [1, 0], [2, 4], [4, 2]];
        cache.set_edges(new_edges.clone());
        let fresh = TimePlaneCache::from_history(n, d, new_edges, &raw);
        let a: Vec<u32> = cache.rawdot.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = fresh.rawdot.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "post-mutation rebuild must equal a fresh cache");
    }

    #[test]
    fn corr_window_matches_direct_normalised_dots() {
        // rawdot/(a_s·a_d·scale) must equal dotting anchor-normalised
        // features directly, to float tolerance.
        let (n, d) = (3, 4);
        let raw = toy_raw(12, n, d);
        let edges = vec![[0, 2], [2, 0], [1, 2], [2, 1]];
        let cache = TimePlaneCache::from_history(n, d, edges.clone(), &raw);
        let end_day = 9;
        let t_steps = 4;
        let anchors: Vec<f32> = (0..n).map(|i| 1.5 + i as f32).collect();
        let scale = (d as f32).sqrt();
        let got = cache.corr_window(end_day, t_steps, &anchors, scale);
        assert_eq!(got.dims(), &[t_steps, edges.len()]);
        for t in 0..t_steps {
            let day = end_day + 1 - t_steps + t;
            for (e, &[s, dst]) in edges.iter().enumerate() {
                let mut dot = 0.0f32;
                for f in 0..d {
                    let xs = raw[(day * n + s) * d + f] / anchors[s];
                    let xd = raw[(day * n + dst) * d + f] / anchors[dst];
                    dot += xs * xd;
                }
                let want = dot / scale;
                let have = got.at(&[t, e]);
                assert!(
                    (have - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "plane {t} edge {e}: {have} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not ingested")]
    fn window_past_history_rejected() {
        let cache = TimePlaneCache::from_history(2, 1, vec![[0, 1]], &toy_raw(5, 2, 1));
        let _ = cache.corr_window(5, 2, &[1.0, 1.0], 1.0);
    }
}
