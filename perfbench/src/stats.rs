//! Order statistics for the benchmark's timings.

/// Tail percentiles a timing may report, lowest first, in per mille so
/// the sample counts beyond them are exact.
pub const TAIL_LADDER: [usize; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples above it, or `None` when even the median has too few.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map(|&pm| pm as f64 / 1000.0)
}

/// A growing set of measurements in one unit.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Linearly interpolated `q`-quantile (NaN when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The tail percentile the sample count supports (see
    /// [`tail_quantile`]) with its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_quantile(self.len()).map(|q| (q, self.quantile(q)))
    }
}

/// Linearly interpolated `q`-quantile of unsorted `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1_000_000), Some(0.999));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = Samples((1..=5).rev().map(f64::from).collect());
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.1), 1.4);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn tail_reports_the_percentile_and_its_value() {
        let s = Samples((0..100).map(f64::from).collect());
        let (q, v) = s.tail().expect("100 samples support p90");
        assert_eq!(q, 0.9);
        assert!((v - 89.1).abs() < 1e-9);
    }
}
