//! Order statistics over timing samples.

/// A percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples; an empty
/// sample set reads as zero with zero samples.
pub fn percentile(samples: &[f64], p: f64) -> Pct {
    if samples.is_empty() {
        return Pct {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Pct {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; zero for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 0.95);
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.beyond, 10);
        assert_eq!(percentile(&v, 0.5).value, 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 0.5).samples, 0);
    }
}
