//! Order statistics, the tail-percentile rule and the frontier digest.

/// The percentiles a tail metric may report, highest first.
pub const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.9, 0.5];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the value at 1-based
/// rank `ceil(q·n)`, clamped to `[1, n]`. `None` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of [`TAIL_CANDIDATES`] that leaves at least
/// [`MIN_BEYOND`] samples beyond its rank, with its value. `None` when
/// even the median has too few samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&q| n > 0 && n - rank(n, q) >= MIN_BEYOND)
        .map(|&q| (q, sorted[rank(n, q) - 1]))
}

/// Sorts a sample ascending (total order; the benchmark never produces
/// NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this binary reports match the ones an outside script
/// computes from the same rows. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// FNV-1a over a stream of `i64`s (little-endian bytes).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn push(&mut self, value: i64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0), "rank clamps to 1");
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // ceil(0.5 · 3) = 2: the middle of three.
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond → p99.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.99, 990.0)));
        // 999 samples: rank ceil(989.01) = 990 leaves 9 → falls to p90.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.9, 900.0)));
        // 100 samples: p90 leaves 10 → p90.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.9, 90.0)));
        // 20 samples: only the median leaves ≥ 10 beyond.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.5, 10.0)));
        // 19: nothing qualifies.
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let digest = |xs: &[i64]| {
            let mut h = Fnv::default();
            xs.iter().for_each(|&x| h.push(x));
            h.finish()
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
    }
}
