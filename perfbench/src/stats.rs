//! Order statistics over measured samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `pct`-th percentile of `samples` (linear interpolation between
/// order statistics, as `nsta_numeric::stats::quantile` computes it), or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it: a tail
/// percentile backed by a handful of samples is noise, not a measurement.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let n = samples.len();
    let rank = (n * pct as usize).div_ceil(100);
    if pct >= 100 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nsta_numeric::stats::quantile(samples, f64::from(pct) / 100.0)
}

/// Median of a non-empty sample set with no count rule: for medians of a
/// few repeated measurements (set-up times, per-call probe times). `0.0`
/// for an empty set, which only a layer the workload never calls has.
pub fn median(samples: &[f64]) -> f64 {
    nsta_numeric::stats::quantile(samples, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 90), None);
        let p90 = percentile(&ramp(100), 90).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        assert_eq!(ramp(100).iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.5));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&ramp(1000), 100), None);
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
