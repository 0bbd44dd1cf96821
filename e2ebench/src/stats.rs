//! Order statistics for the reported timings.

/// Percentiles the tail rule chooses from, highest first.
const LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Minimum samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether quantile `q` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(q: f64, n: usize) -> bool {
    n > 0 && n - 1 - rank(q, n) >= MIN_BEYOND
}

/// The highest percentile of the ladder (p99.9, p99, p90, p50) with at
/// least ten samples beyond it, or `None` below 11 samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&q| supported(q, n))
}

/// Nearest-rank quantile of already sorted samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(q, sorted.len())]
}

/// Sorts a copy of `samples` and returns its quantile `q`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median (lower nearest-rank median for even counts).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples` after dropping the lowest and the highest
/// `trim` share of them (rounded down); the plain mean when that drops
/// nothing.
///
/// # Panics
/// Panics on an empty slice or a `trim` outside `[0, 0.5)`.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    assert!((0.0..0.5).contains(&trim), "trim {trim} outside [0, 0.5)");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (trim * v.len() as f64) as usize;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Human label of a ladder quantile (`0.99` → `"p99"`).
pub fn label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round())
    } else {
        format!("p{pct:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(21), Some(0.5));
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 990.0);
        assert_eq!(quantile_sorted(&v, 0.5), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Exactly ten samples lie beyond p99 of 1000.
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), MIN_BEYOND);
    }

    #[test]
    fn trimmed_mean_drops_each_end() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // 10 % of ten samples: 1 and 10 are dropped.
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 100.0], 0.1), 103.0 / 3.0);
        assert_eq!(trimmed_mean(&[4.0, 1.0, 1.0, 1.0, 1.0, 9.0], 0.2), 1.75);
    }

    #[test]
    fn labels() {
        assert_eq!(label(0.99), "p99");
        assert_eq!(label(0.9), "p90");
        assert_eq!(label(0.999), "p99.9");
    }
}
