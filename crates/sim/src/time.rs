//! Simulated time.
//!
//! The simulator uses a discrete, integer microsecond clock. Newtypes keep
//! instants and durations from being confused ([`SimTime`] vs
//! [`SimDuration`]), and all arithmetic is saturating so fault plans that
//! schedule events "far in the future" cannot overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in microseconds since the start of
/// the run.
///
/// ```
/// use weakset_sim::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(2);
/// assert_eq!(t.as_micros(), 2_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// ```
/// use weakset_sim::time::SimDuration;
/// assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than every schedulable event; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Builds an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000))
    }

    /// Raw microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is later.
    ///
    /// Saturating here means the caller subtracted timestamps out of
    /// order — on a monotonic event loop that is a causality or
    /// scheduler-ordering bug upstream, so debug builds assert instead
    /// of masking it.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "out-of-order timestamps: {earlier:?} is later than {self:?}"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Builds a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000))
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration expressed in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Checked addition of two durations.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.saturating_since(other)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out-of-order timestamps")]
    fn saturating_since_asserts_on_out_of_order() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        let _ = a.saturating_since(b);
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn sub_yields_duration() {
        let d = SimTime::from_micros(30) - SimTime::from_micros(10);
        assert_eq!(d, SimDuration::from_micros(20));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimTime::from_micros(1) < SimTime::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(format!("{:?}", SimTime::from_micros(7)), "t+7us");
    }

    #[test]
    fn as_secs_f64_matches() {
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn min_picks_earlier() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.min(b), a);
        assert_eq!(b.min(a), a);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimDuration::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
        assert_eq!(
            SimDuration::from_micros(1).checked_add(SimDuration::from_micros(2)),
            Some(SimDuration::from_micros(3))
        );
    }
}
