//! Sample sets, the percentile rule, and the seeded generator.

use std::time::Duration;

/// Samples a percentile must have beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Samples a p90 needs: with fewer, fewer than [`TAIL_SAMPLES`] lie
/// beyond it. Timed loops run until every sample set they feed into a p90
/// has this many.
pub const P90_SAMPLES: usize = 100;

/// One timing series, in the unit it is reported in.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer
    /// than [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).max(1);
        if n < rank + TAIL_SAMPLES {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }
}

/// A deterministic splitmix64 stream: the only source of the workloads'
/// choices, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct elements of `xs`, in a seeded order.
    pub fn pick<T: Clone>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        assert!(k <= xs.len(), "cannot pick {k} of {}", xs.len());
        let mut all = xs.to_vec();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        // Pushed in reverse so the quantile has to sort.
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples(19).quantile(0.5), None);
        assert_eq!(samples(20).quantile(0.5), Some(10.0));
        assert_eq!(samples(99).quantile(0.9), None);
        assert_eq!(samples(100).quantile(0.9), Some(90.0));
        assert_eq!(samples(P90_SAMPLES).quantile(0.9), Some(90.0));
        assert_eq!(samples(999).quantile(0.99), None);
        assert_eq!(samples(1000).quantile(0.99), Some(990.0));
        assert_eq!(samples(0).quantile(0.5), None);
    }

    #[test]
    fn nearest_rank_rounds_up() {
        // 21 samples: rank ceil(10.5) = 11, with 10 beyond it.
        assert_eq!(samples(21).quantile(0.5), Some(11.0));
        assert_eq!(samples(101).quantile(0.9), Some(91.0));
    }

    #[test]
    fn rng_is_deterministic_and_picks_distinct_elements() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        let mut picked = Rng::new(3).pick(&[1, 2, 3, 4, 5, 6], 4);
        assert_eq!(picked.len(), 4);
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 4);
    }
}
