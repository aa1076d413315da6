//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile(samples, p / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_ignores_outliers() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1e9, -1e9]), 1.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&v, 97.0), 98.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 3.0);
    }

    #[test]
    fn quantile_clamps_its_argument() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], -1.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 2.0), 3.0);
    }
}
