//! Virtual time primitives.
//!
//! Simulated time is counted in whole milliseconds from the start of the
//! simulation. A dedicated pair of newtypes — [`Timestamp`] for points in
//! time and [`SimDuration`] for spans — keeps instants and durations from
//! being confused, mirroring `std::time::{Instant, Duration}`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in milliseconds since the simulation epoch.
///
/// `Timestamp` is produced by [`Scheduler::now`](crate::Scheduler::now) and
/// carried on every sampled datum so that OSN actions and sensor context can
/// be paired by time, as the paper's trigger pipeline requires.
///
/// # Example
///
/// ```
/// use sensocial_runtime::{SimDuration, Timestamp};
///
/// let t = Timestamp::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_millis(), 2_000);
/// assert_eq!(t - Timestamp::ZERO, SimDuration::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The simulation epoch (time zero).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis)
    }

    /// Creates a timestamp `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration::from_millis(self.0.saturating_sub(earlier.0))
    }

    /// The hour-of-day component (0–23) assuming the epoch is midnight.
    ///
    /// Time-of-day filter conditions ("only between 9:00 and 17:00") use
    /// this, mirroring the paper's time-interval filters.
    pub fn hour_of_day(self) -> u32 {
        ((self.0 / 3_600_000) % 24) as u32
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = SimDuration;

    /// Duration between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: Timestamp) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "timestamp subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time, in milliseconds.
///
/// # Example
///
/// ```
/// use sensocial_runtime::SimDuration;
///
/// let cycle = SimDuration::from_secs(60);
/// assert_eq!(cycle * 2, SimDuration::from_millis(120_000));
/// assert_eq!(cycle.as_secs_f64(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest millisecond and saturating negative values to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1_000.0).round() as u64)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let start = Timestamp::from_secs(10);
        let later = start + SimDuration::from_millis(2_500);
        assert_eq!(later.as_millis(), 12_500);
        assert_eq!(later - start, SimDuration::from_millis(2_500));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn hour_of_day_wraps_at_midnight() {
        assert_eq!(Timestamp::from_secs(0).hour_of_day(), 0);
        assert_eq!(Timestamp::from_secs(3 * 3600).hour_of_day(), 3);
        assert_eq!(Timestamp::from_secs(27 * 3600).hour_of_day(), 3);
        assert_eq!(Timestamp::from_secs(23 * 3600 + 3599).hour_of_day(), 23);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_mins(3), SimDuration::from_secs(180));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2_500));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::from_millis(1_234).to_string(), "t+1.234s");
        assert_eq!(SimDuration::from_millis(500).to_string(), "0.500s");
    }
}
