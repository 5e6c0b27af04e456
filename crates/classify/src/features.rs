//! Feature extraction over accelerometer bursts.

use sensocial_types::AccelSample;

/// Mean of the per-sample acceleration magnitudes.
///
/// Returns 0 for an empty burst.
pub fn magnitude_mean(samples: &[AccelSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.magnitude()).sum::<f64>() / samples.len() as f64
}

/// Standard deviation of the per-sample acceleration magnitudes — the
/// feature the stock activity classifier thresholds on (gravity cancels in
/// the deviation, so the phone's orientation doesn't matter).
///
/// One pass takes one square root per sample: the variance is the mean
/// squared magnitude less the squared mean magnitude, clamped at zero
/// against rounding.
///
/// Returns 0 for an empty burst.
pub fn magnitude_std(samples: &[AccelSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let (sum, sum_sq) = samples.iter().fold((0.0, 0.0), |(sum, sum_sq), s| {
        let sq = s.x * s.x + s.y * s.y + s.z * s.z;
        (sum + sq.sqrt(), sum_sq + sq)
    });
    let n = samples.len() as f64;
    let mean = sum / n;
    (sum_sq / n - mean * mean).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_burst_has_zero_std() {
        let burst = vec![AccelSample::new(0.0, 0.0, 9.81); 10];
        assert!((magnitude_mean(&burst) - 9.81).abs() < 1e-9);
        assert_eq!(magnitude_std(&burst), 0.0);
    }

    #[test]
    fn oscillating_burst_has_positive_std() {
        let burst: Vec<AccelSample> = (0..100)
            .map(|i| AccelSample::new(0.0, 0.0, 9.81 + (i as f64 * 0.5).sin() * 3.0))
            .collect();
        assert!(magnitude_std(&burst) > 1.0);
    }

    #[test]
    fn empty_burst_is_zero() {
        assert_eq!(magnitude_mean(&[]), 0.0);
        assert_eq!(magnitude_std(&[]), 0.0);
    }
}
