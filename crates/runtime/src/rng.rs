//! Seeded randomness with the distributions the substrates need.
//!
//! Every stochastic component of the reproduction — mobility models, OSN
//! activity generators, notification-latency models, sensor noise — draws
//! from a [`SimRng`] derived from a single experiment seed, so runs are
//! exactly repeatable. The generator is xoshiro256** (Blackman and Vigna),
//! its state filled from the 64-bit seed by SplitMix64, and both are
//! written out below: a seed names the same stream on every build, and
//! known-answer tests pin it. The distribution samplers are implemented
//! here as well: [`SimRng::standard_normal`] is a 128-layer ziggurat
//! (Marsaglia and Tsang, 2000) for the hot accelerometer noise;
//! [`SimRng::normal`] stays Box–Muller, because its callers' streams
//! (network latency, OSN push delay, GPS and audio noise) pin every
//! replay digest; exponential is an inverse CDF and Poisson is Knuth's.

/// A deterministic random-number generator for simulations.
///
/// # Example
///
/// ```
/// use sensocial_runtime::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
///
/// // Independent child generators for per-component streams:
/// let mut child = a.split("facebook-latency");
/// let sample = child.normal(46.5, 2.8);
/// assert!(sample > 20.0 && sample < 70.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns its next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The right edge of the ziggurat's base strip: the tail beyond it is
/// sampled exactly (Marsaglia and Tsang, 2000, 128 layers).
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// The area of every layer under the unnormalised density `exp(-x²/2)`.
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;
/// 2³¹: scales a signed 32-bit draw to `[-1, 1)`.
const ZIGGURAT_SCALE: f64 = 2_147_483_648.0;

/// The unnormalised standard normal density, `exp(-x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The ziggurat's tables in Marsaglia and Tsang's layout: layer 0 is the
/// base strip and its tail, layer 127 the layer above it, and layer 1 the
/// cap. Layer `i`'s right edge is `x_i = w[i] · 2³¹`.
struct Ziggurat {
    /// A draw whose magnitude is below `k[i]` lies inside the layer above
    /// (`x_{i-1} / x_i · 2³¹`), so it needs no density test.
    k: [u32; 128],
    /// `x_i / 2³¹`, which turns a signed 32-bit draw into a point of layer `i`.
    w: [f64; 128],
    /// The density `exp(-x_i²/2)` at layer `i`'s edge; `f[0]` is the peak.
    f: [f64; 128],
}

impl Ziggurat {
    /// The shared tables, computed from `r` and `v` on first use.
    fn tables() -> &'static Ziggurat {
        static TABLES: std::sync::OnceLock<Ziggurat> = std::sync::OnceLock::new();
        TABLES.get_or_init(Ziggurat::build)
    }

    fn build() -> Ziggurat {
        let mut x = ZIGGURAT_R;
        let q = ZIGGURAT_V / density(x);
        let mut k = [0; 128];
        let mut w = [0.0; 128];
        let mut f = [0.0; 128];
        k[0] = (x / q * ZIGGURAT_SCALE) as u32;
        w[0] = q / ZIGGURAT_SCALE;
        w[127] = x / ZIGGURAT_SCALE;
        f[0] = 1.0;
        f[127] = density(x);
        for i in (1..127).rev() {
            let inner = (-2.0 * (ZIGGURAT_V / x + density(x)).ln()).sqrt();
            k[i + 1] = (inner / x * ZIGGURAT_SCALE) as u32;
            x = inner;
            f[i] = density(x);
            w[i] = x / ZIGGURAT_SCALE;
        }
        Ziggurat { k, w, f }
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four state words are four consecutive SplitMix64 outputs. Its
    /// output function is a bijection of its counter, so at most one word
    /// is zero and the state never hits xoshiro's all-zero fixed point.
    pub fn seed_from(seed: u64) -> Self {
        let mut state = seed;
        SimRng {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` from the top 53 bits of one draw.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, span)` without modulo bias: Lemire's
    /// widening multiply, rejecting the draws that would over-represent
    /// the low results. `span` must be nonzero.
    fn below(&mut self, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Derives an independent child generator labelled by `tag`.
    ///
    /// Splitting lets each component own its stream of randomness so adding
    /// draws in one component does not perturb another — essential when
    /// comparing two system variants under "the same" workload.
    pub fn split(&mut self, tag: &str) -> SimRng {
        let mut seed = self.next_u64();
        for byte in tag.as_bytes() {
            seed = seed
                .wrapping_mul(0x100000001b3)
                .wrapping_add(u64::from(*byte));
        }
        SimRng::seed_from(seed)
    }

    /// A uniform sample in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` (or either is NaN), or if `high - low`
    /// is not finite.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform bounds must satisfy low < high");
        let width = high - low;
        assert!(width.is_finite(), "uniform bounds must be finite");
        loop {
            let x = low + width * self.unit();
            // Rounding can land exactly on the excluded upper bound.
            if x < high {
                return x;
            }
        }
    }

    /// A uniform integer sample in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "uniform bounds must satisfy low < high");
        low + self.below(high - low)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`). Always
    /// consumes one draw, even when `p` is 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "chance probability must not be NaN");
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A normal (Gaussian) sample with the given mean and standard
    /// deviation, via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box–Muller: u1 in (0,1] so ln(u1) is finite.
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// A normal sample truncated below at `min` (re-sampled up to a bound,
    /// then clamped). Latency models use this to avoid negative delays.
    pub fn normal_min(&mut self, mean: f64, std_dev: f64, min: f64) -> f64 {
        for _ in 0..16 {
            let x = self.normal(mean, std_dev);
            if x >= min {
                return x;
            }
        }
        min
    }

    /// A standard normal sample from a 128-layer ziggurat (Marsaglia and
    /// Tsang, 2000).
    ///
    /// Each attempt takes one draw: its low 7 bits pick the layer and its
    /// high 32 bits, read as signed, the point, so the two share no bits
    /// (Doornik, 2005). About 99% of samples return after one compare;
    /// the rest take the wedge test (one `exp`) or, in the base layer,
    /// Marsaglia's exponential tail beyond `r`.
    pub fn standard_normal(&mut self) -> f64 {
        let zig = Ziggurat::tables();
        loop {
            let bits = self.next_u64();
            let layer = (bits & 0x7f) as usize;
            let signed = (bits >> 32) as u32 as i32;
            let x = f64::from(signed) * zig.w[layer];
            if signed.unsigned_abs() < zig.k[layer] {
                return x;
            }
            if layer == 0 {
                loop {
                    let beyond = -(1.0 - self.unit()).ln() / ZIGGURAT_R;
                    let y = -(1.0 - self.unit()).ln();
                    if y + y >= beyond * beyond {
                        let tail = ZIGGURAT_R + beyond;
                        return if signed > 0 { tail } else { -tail };
                    }
                }
            }
            let (top, bottom) = (zig.f[layer - 1], zig.f[layer]);
            if bottom + self.unit() * (top - bottom) < density(x) {
                return x;
            }
        }
    }

    /// An exponential sample with the given rate (`lambda`), via inverse
    /// CDF.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.unit();
        -u.ln() / rate
    }

    /// A Poisson sample with the given mean, via Knuth's algorithm (suitable
    /// for the small means used by the OSN activity generators).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.unit();
            if p <= l {
                return k;
            }
            k += 1;
            // Guard against pathological means overflowing the loop.
            if k > 10_000_000 {
                return k;
            }
        }
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.below(items.len() as u64) as usize;
            Some(&items[idx])
        }
    }

    /// Samples an index according to the given non-negative weights.
    ///
    /// Returns `None` if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform(0.0, total);
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if target < *w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers computed by a reference SplitMix64 + xoshiro256**
    /// written independently of this file.
    #[test]
    fn stream_matches_reference() {
        let mut zero = SimRng::seed_from(0);
        let first: [u64; 3] = std::array::from_fn(|_| zero.next_u64());
        assert_eq!(
            first,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0
            ]
        );
        let mut answer = SimRng::seed_from(42);
        let first: [u64; 3] = std::array::from_fn(|_| answer.next_u64());
        assert_eq!(
            first,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1
            ]
        );
    }

    /// Each sampler's draws, from the same reference.
    #[test]
    fn samplers_match_reference() {
        assert_eq!(
            SimRng::seed_from(7).split("x").next_u64(),
            0xce66_b370_bf9a_3a2d
        );
        assert_eq!(
            SimRng::seed_from(29).uniform(-2.0, 3.0),
            1.548_033_231_888_019_7
        );
        let mut rng = SimRng::seed_from(29);
        let ints: [u64; 4] = std::array::from_fn(|_| rng.uniform_u64(5, 8));
        assert_eq!(ints, [7, 5, 7, 6]);
        let mut rng = SimRng::seed_from(19);
        let coins: [bool; 8] = std::array::from_fn(|_| rng.chance(0.5));
        assert_eq!(coins, [false, true, true, true, false, false, true, false]);
        let mut rng = SimRng::seed_from(23);
        let picks: [u32; 4] = std::array::from_fn(|_| *rng.choose(&[10, 20, 30, 40, 50]).unwrap());
        assert_eq!(picks, [30, 20, 20, 20]);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn empty_uniform_range_panics() {
        SimRng::seed_from(1).uniform(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn unbounded_uniform_range_panics() {
        SimRng::seed_from(1).uniform(f64::MIN, f64::MAX);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent_of_later_draws() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        let mut child_a = a.split("x");
        let mut child_b = b.split("x");
        // Extra draws on one parent must not affect the already-split child.
        let _ = b.next_u64();
        for _ in 0..10 {
            assert_eq!(child_a.next_u64(), child_b.next_u64());
        }
    }

    #[test]
    fn split_tags_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        let mut ca = a.split("alpha");
        let mut cb = b.split("beta");
        let same = (0..16).all(|_| ca.next_u64() == cb.next_u64());
        assert!(!same, "different tags should give different streams");
    }

    #[test]
    fn normal_matches_moments() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(46.5, 2.8)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 46.5).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.8).abs() < 0.1, "std {}", var.sqrt());
    }

    /// The ziggurat's first draws for the seed `stream_matches_reference`
    /// pins: layers 22, 126 and 33, each inside the layer above.
    #[test]
    fn standard_normal_matches_reference() {
        let mut rng = SimRng::seed_from(42);
        let first: [f64; 3] = std::array::from_fn(|_| rng.standard_normal());
        assert_eq!(
            first,
            [
                0.156_256_204_250_663_1,
                2.442_971_110_087_854,
                -0.708_463_011_786_736_9
            ]
        );
    }

    /// A million ziggurat draws against the standard normal: the first
    /// four moments, the share beyond the base strip's edge `r` (the
    /// exponential tail) and the CDF at -1, 0 and 1.
    #[test]
    fn standard_normal_matches_the_distribution() {
        let mut rng = SimRng::seed_from(42);
        let n = 1_000_000;
        let (mut sum, mut square, mut fourth) = (0.0, 0.0, 0.0);
        let mut beyond_r = 0u32;
        let mut below = [0u32; 3];
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            square += z * z;
            fourth += z * z * z * z;
            if z.abs() > ZIGGURAT_R {
                beyond_r += 1;
            }
            for (count, edge) in below.iter_mut().zip([-1.0, 0.0, 1.0]) {
                if z < edge {
                    *count += 1;
                }
            }
        }
        let n = f64::from(n);
        let (mean, square, fourth) = (sum / n, square / n, fourth / n);
        let tail = f64::from(beyond_r) / n;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((square - 1.0).abs() < 0.005, "E[z²] {square}");
        assert!((fourth - 3.0).abs() < 0.03, "E[z⁴] {fourth}");
        // 2·(1 − Φ(r)) = 0.000576.
        assert!(
            (0.000_45..=0.000_70).contains(&tail),
            "share beyond r {tail}"
        );
        let phi = [0.158_655_253_931_457, 0.5, 0.841_344_746_068_543];
        for ((count, edge), expected) in below.iter().zip([-1.0, 0.0, 1.0]).zip(phi) {
            let share = f64::from(*count) / n;
            assert!((share - expected).abs() < 0.002, "P(z < {edge}) = {share}");
        }
    }

    #[test]
    fn normal_min_never_below_floor() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            assert!(rng.normal_min(1.0, 5.0, 0.0) >= 0.0);
        }
    }

    #[test]
    fn exponential_matches_mean() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_matches_mean() {
        let mut rng = SimRng::seed_from(17);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.poisson(3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0), "p is clamped");
    }

    #[test]
    fn choose_and_weighted_index() {
        let mut rng = SimRng::seed_from(23);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[0.0, 1.0]), Some(1));
        // Distribution sanity: index 1 picked ~3x as often as index 0.
        let mut counts = [0u32; 2];
        for _ in 0..8_000 {
            counts[rng.weighted_index(&[1.0, 3.0]).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SimRng::seed_from(29);
        for _ in 0..1_000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let u = rng.uniform_u64(5, 8);
            assert!((5..8).contains(&u));
        }
    }
}
