//! Latency distributions for simulated links.

use std::fmt;

use sensocial_runtime::{SimDuration, SimRng};

/// A delay distribution sampled once per message.
///
/// Table 3's structure is reproduced by composing these: the OSN
/// notification path uses a normal distribution around ~46 s, while the
/// broker's push path uses sub-second constants plus server processing.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Normally distributed delay (seconds), truncated below at `min_s`.
    Normal {
        /// Mean delay in seconds.
        mean_s: f64,
        /// Standard deviation in seconds.
        std_s: f64,
        /// Lower truncation bound in seconds.
        min_s: f64,
    },
    /// Exponentially distributed delay with the given mean (seconds).
    Exponential {
        /// Mean delay in seconds.
        mean_s: f64,
    },
}

impl LatencyModel {
    /// A constant delay of `ms` milliseconds.
    pub fn constant_ms(ms: u64) -> Self {
        LatencyModel::Constant(SimDuration::from_millis(ms))
    }

    /// A normal delay, truncated at zero.
    pub fn normal_s(mean_s: f64, std_s: f64) -> Self {
        LatencyModel::Normal {
            mean_s,
            std_s,
            min_s: 0.0,
        }
    }

    /// Samples a delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Normal {
                mean_s,
                std_s,
                min_s,
            } => SimDuration::from_secs_f64(rng.normal_min(mean_s, std_s, min_s)),
            LatencyModel::Exponential { mean_s } => {
                SimDuration::from_secs_f64(rng.exponential(1.0 / mean_s.max(1e-9)))
            }
        }
    }

    /// The distribution's mean, in seconds (for reporting).
    pub fn mean_s(&self) -> f64 {
        match *self {
            LatencyModel::Constant(d) => d.as_secs_f64(),
            LatencyModel::Normal { mean_s, .. } => mean_s,
            LatencyModel::Exponential { mean_s } => mean_s,
        }
    }
}

impl Default for LatencyModel {
    /// A 40 ms constant delay — a plausible uncongested WiFi + Internet
    /// round-trip leg, matching the paper's "uncongested WiFi network"
    /// measurement setting.
    fn default() -> Self {
        LatencyModel::constant_ms(40)
    }
}

impl fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyModel::Constant(d) => write!(f, "constant({d})"),
            LatencyModel::Normal {
                mean_s,
                std_s,
                min_s,
            } => write!(f, "normal(μ={mean_s}s σ={std_s}s ≥{min_s}s)"),
            LatencyModel::Exponential { mean_s } => write!(f, "exponential(μ={mean_s}s)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_exact() {
        let mut rng = SimRng::seed_from(1);
        let m = LatencyModel::constant_ms(80);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(80));
        assert_eq!(m.mean_s(), 0.08);
    }

    #[test]
    fn normal_matches_paper_table3_shape() {
        let mut rng = SimRng::seed_from(2);
        let m = LatencyModel::normal_s(46.5, 2.8);
        let n = 5_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut rng).as_secs_f64()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 46.5).abs() < 0.2, "mean {mean}");
        assert!(samples.iter().all(|s| *s >= 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from(3);
        let m = LatencyModel::Exponential { mean_s: 2.0 };
        let n = 20_000;
        let mean = (0..n)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn truncation_floor_is_respected() {
        let mut rng = SimRng::seed_from(4);
        let m = LatencyModel::Normal {
            mean_s: 0.1,
            std_s: 5.0,
            min_s: 0.05,
        };
        for _ in 0..500 {
            assert!(m.sample(&mut rng) >= SimDuration::from_millis(50));
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!LatencyModel::default().to_string().is_empty());
        assert!(!LatencyModel::normal_s(1.0, 0.1).to_string().is_empty());
    }
}
