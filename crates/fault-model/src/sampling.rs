//! Primitive distribution sampling used by the fault processes.
//!
//! These are implemented directly on top of [`rand::Rng`] (inverse-CDF
//! method) rather than pulling in `rand_distr`, keeping the dependency
//! surface minimal and the sampling fully transparent for review.

use rand::Rng;

/// Samples `Exp(rate)` via inverse CDF: `-ln(1 - U) / rate` with `U ∈ [0, 1)`.
///
/// # Panics
///
/// Panics unless `rate > 0` and finite.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = eacp_faults::sample_exponential(&mut rng, 2.0);
/// assert!(x > 0.0);
/// ```
#[inline]
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "exponential rate must be positive and finite"
    );
    let u: f64 = rng.gen(); // [0, 1)
                            // 1 - u ∈ (0, 1]: ln never sees zero.
    -(1.0 - u).ln() / rate
}

/// Samples `Weibull(shape, scale)` via inverse CDF:
/// `scale · (-ln(1 - U))^{1/shape}`.
///
/// # Panics
///
/// Panics unless `shape > 0` and `scale > 0` (both finite).
#[inline]
pub fn sample_weibull<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(
        shape > 0.0 && shape.is_finite(),
        "Weibull shape must be positive and finite"
    );
    assert!(
        scale > 0.0 && scale.is_finite(),
        "Weibull scale must be positive and finite"
    );
    let u: f64 = rng.gen();
    scale * (-(1.0 - u).ln()).powf(1.0 / shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(77);
        let rate = 0.25;
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = sample_exponential(&mut rng, rate);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() / (1.0 / rate) < 0.02,
            "mean {mean}"
        );
    }

    #[test]
    fn weibull_median_matches_closed_form() {
        let mut rng = StdRng::seed_from_u64(123);
        let (shape, scale) = (0.7, 50.0);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| sample_weibull(&mut rng, shape, scale))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        let expected = scale * (2f64.ln()).powf(1.0 / shape);
        assert!(
            (median - expected).abs() / expected < 0.03,
            "median {median} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_exponential(&mut rng, 0.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn weibull_rejects_bad_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_weibull(&mut rng, 0.0, 1.0);
    }
}
