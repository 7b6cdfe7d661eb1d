//! Order statistics over latency samples.

/// The `q`-quantile (`q` in `[0, 1]`) by nearest rank; 0.0 when empty.
/// Sorts `samples` in place.
pub fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    samples[nearest_rank(samples.len(), q)] as f64
}

/// Index of the nearest-rank `q`-quantile among `n > 0` sorted samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.max(1).min(n) - 1
}

/// Median of a few repetition values (mean of the middle two when even);
/// 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), 50.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 0.999), 100.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [7], 0.99), 7.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
