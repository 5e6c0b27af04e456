//! Delivery policies: capped exponential backoff with seeded jitter,
//! per-application dispatch quotas and integer token-bucket rate limits.
//!
//! Everything here is deterministic and replayable. Backoff jitter is
//! drawn from a generator derived *statelessly* from the experiment seed
//! and the attempt's identity, so a scheduler recovered from the journal
//! computes the exact same deadlines as the instance it replaced would
//! have. The token bucket uses pure integer arithmetic over virtual-time
//! milliseconds, so replaying the journaled take sequence reproduces its
//! state bit for bit.

use sensocial_runtime::{SimDuration, SimRng};

/// Capped exponential backoff with seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the second attempt (doubles per further attempt).
    pub initial: SimDuration,
    /// Upper bound on the exponential delay (before jitter).
    pub max: SimDuration,
    /// Jitter as a percentage of the base delay, in `0..=100`: the drawn
    /// delay is `base + uniform_u64(0, base * jitter_pct / 100 + 1)` ms.
    pub jitter_pct: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: SimDuration::from_secs(2),
            max: SimDuration::from_secs(60),
            jitter_pct: 20,
        }
    }
}

impl BackoffPolicy {
    /// The un-jittered delay scheduled after dispatch attempt `attempt`
    /// (1-based) fails: `min(initial * 2^(attempt - 1), max)`.
    pub fn base_delay(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(20);
        let ms = self.initial.as_millis().saturating_mul(1u64 << shift);
        SimDuration::from_millis(ms.min(self.max.as_millis()))
    }

    /// The jittered delay after `attempt` fails, for the occurrence
    /// `(campaign, occurrence)` under `seed`.
    ///
    /// The jitter generator is re-derived from scratch on every call, so
    /// the value depends only on `(seed, campaign, occurrence, attempt)` —
    /// never on how many draws some long-lived generator has made. That is
    /// what keeps a journal-recovered scheduler byte-identical to an
    /// uninterrupted one.
    pub fn delay(&self, seed: u64, campaign: &str, occurrence: u32, attempt: u32) -> SimDuration {
        let base = self.base_delay(attempt);
        let jitter_ms = base
            .as_millis()
            .saturating_mul(u64::from(self.jitter_pct.min(100)))
            / 100;
        if jitter_ms == 0 {
            return base;
        }
        let mut rng =
            SimRng::seed_from(seed).split(&format!("jitter/{campaign}/{occurrence}/{attempt}"));
        SimDuration::from_millis(base.as_millis() + rng.uniform_u64(0, jitter_ms + 1))
    }
}

/// An integer token-bucket rate limit: `capacity` tokens, one token
/// refilled every `per_token_ms` virtual milliseconds.
///
/// `per_token_ms == 0` disables the limit (the bucket refills to capacity
/// on every take).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitPolicy {
    /// Burst size: tokens the bucket holds when full.
    pub capacity: u64,
    /// Milliseconds of virtual time that earn one token.
    pub per_token_ms: u64,
}

impl RateLimitPolicy {
    /// A limit of `capacity` burst tokens refilling one per `per_token_ms`.
    pub fn new(capacity: u64, per_token_ms: u64) -> Self {
        RateLimitPolicy {
            capacity,
            per_token_ms,
        }
    }

    /// No rate limiting.
    pub fn unlimited() -> Self {
        RateLimitPolicy {
            capacity: 1,
            per_token_ms: 0,
        }
    }
}

impl Default for RateLimitPolicy {
    fn default() -> Self {
        RateLimitPolicy::unlimited()
    }
}

/// Deterministic token-bucket state for one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TokenBucket {
    policy: RateLimitPolicy,
    tokens: u64,
    /// Virtual time the refill accounting last advanced to, in ms.
    last_ms: u64,
}

impl TokenBucket {
    /// A full bucket anchored at `now_ms`.
    pub(crate) fn new(policy: RateLimitPolicy, now_ms: u64) -> Self {
        TokenBucket {
            policy,
            tokens: policy.capacity,
            last_ms: now_ms,
        }
    }

    fn refill(&mut self, now_ms: u64) {
        if self.policy.per_token_ms == 0 {
            self.tokens = self.policy.capacity.max(1);
            self.last_ms = now_ms;
            return;
        }
        let elapsed = now_ms.saturating_sub(self.last_ms);
        let earned = elapsed / self.policy.per_token_ms;
        if earned > 0 {
            self.tokens = self.tokens.saturating_add(earned).min(self.policy.capacity);
            self.last_ms += earned * self.policy.per_token_ms;
        }
        if self.tokens == self.policy.capacity {
            // A full bucket banks nothing; re-anchor so idle stretches
            // cannot accumulate phantom refill credit.
            self.last_ms = now_ms;
        }
    }

    /// Takes one token at `now_ms`, or reports the earliest virtual time
    /// (strictly after `now_ms`) a token will be available.
    pub(crate) fn try_take(&mut self, now_ms: u64) -> Result<(), u64> {
        self.refill(now_ms);
        if self.tokens > 0 {
            self.tokens -= 1;
            Ok(())
        } else {
            let next = self
                .last_ms
                .saturating_add(self.policy.per_token_ms)
                .max(now_ms + 1);
            Err(next)
        }
    }
}

/// The delivery policies one scheduler instance enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignPolicies {
    /// How long a dispatched command may wait for its ack before the
    /// attempt is redriven.
    pub ack_timeout: SimDuration,
    /// Dispatch attempts per occurrence before dead-lettering.
    pub max_attempts: u32,
    /// Retry backoff shape.
    pub backoff: BackoffPolicy,
    /// Per-application lifetime dispatch quota (`u64::MAX` = unlimited).
    pub quota_per_app: u64,
    /// Per-application dispatch rate limit.
    pub rate: RateLimitPolicy,
}

impl Default for CampaignPolicies {
    fn default() -> Self {
        CampaignPolicies {
            ack_timeout: SimDuration::from_secs(10),
            max_attempts: 5,
            backoff: BackoffPolicy::default(),
            quota_per_app: u64::MAX,
            rate: RateLimitPolicy::unlimited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = BackoffPolicy {
            initial: SimDuration::from_millis(100),
            max: SimDuration::from_millis(450),
            jitter_pct: 0,
        };
        assert_eq!(p.base_delay(1).as_millis(), 100);
        assert_eq!(p.base_delay(2).as_millis(), 200);
        assert_eq!(p.base_delay(3).as_millis(), 400);
        assert_eq!(p.base_delay(4).as_millis(), 450, "capped at max");
        assert_eq!(
            p.base_delay(63).as_millis(),
            450,
            "huge attempts stay capped"
        );
    }

    #[test]
    fn zero_jitter_is_the_base_delay() {
        let p = BackoffPolicy {
            initial: SimDuration::from_millis(100),
            max: SimDuration::from_millis(10_000),
            jitter_pct: 0,
        };
        assert_eq!(p.delay(7, "c", 0, 2), p.base_delay(2));
    }

    #[test]
    fn jitter_is_stateless_and_bounded() {
        let p = BackoffPolicy {
            initial: SimDuration::from_millis(1_000),
            max: SimDuration::from_millis(60_000),
            jitter_pct: 50,
        };
        let a = p.delay(42, "camp", 3, 2);
        let b = p.delay(42, "camp", 3, 2);
        assert_eq!(a, b, "same identity, same jitter — crash-safe");
        assert_ne!(
            p.delay(42, "camp", 3, 2),
            p.delay(43, "camp", 3, 2),
            "different seeds decorrelate"
        );
        let base = p.base_delay(2).as_millis();
        for occ in 0..50 {
            let d = p.delay(42, "camp", occ, 2).as_millis();
            assert!(d >= base && d <= base + base / 2, "jitter within 50%: {d}");
        }
    }

    #[test]
    fn bucket_enforces_burst_then_refills() {
        let mut b = TokenBucket::new(RateLimitPolicy::new(2, 100), 0);
        assert_eq!(b.try_take(0), Ok(()));
        assert_eq!(b.try_take(0), Ok(()));
        assert_eq!(b.try_take(0), Err(100), "empty; next token at 100 ms");
        assert_eq!(b.try_take(50), Err(100), "still empty at 50 ms");
        assert_eq!(b.try_take(100), Ok(()), "one token earned");
        assert_eq!(b.try_take(100), Err(200));
    }

    #[test]
    fn bucket_does_not_bank_idle_time_beyond_capacity() {
        let mut b = TokenBucket::new(RateLimitPolicy::new(2, 100), 0);
        // Idle for an hour: still only `capacity` tokens.
        assert_eq!(b.try_take(3_600_000), Ok(()));
        assert_eq!(b.try_take(3_600_000), Ok(()));
        assert!(b.try_take(3_600_000).is_err());
    }

    #[test]
    fn unlimited_bucket_never_blocks() {
        let mut b = TokenBucket::new(RateLimitPolicy::unlimited(), 0);
        for t in 0..100 {
            assert_eq!(b.try_take(t), Ok(()));
        }
    }

    #[test]
    fn pathological_zero_config_still_makes_progress() {
        // capacity 0 with a refill period: every failure reports a time
        // strictly in the future, so a retry loop cannot spin in place.
        let mut b = TokenBucket::new(RateLimitPolicy::new(0, 0), 10);
        match b.try_take(10) {
            Ok(()) => {}
            Err(next) => assert!(next > 10),
        }
    }

    #[test]
    fn replaying_the_same_take_sequence_reproduces_state() {
        let run = || {
            let mut b = TokenBucket::new(RateLimitPolicy::new(3, 250), 5);
            let times = [5u64, 5, 5, 5, 300, 700, 700, 700, 1200];
            let outcomes: Vec<Result<(), u64>> = times.iter().map(|t| b.try_take(*t)).collect();
            (b, outcomes)
        };
        assert_eq!(run(), run(), "integer bucket is exactly replayable");
    }
}
