//! Virtual time for the discrete-event world.
//!
//! Nanosecond-resolution fixed-point time, cheap to copy and totally
//! ordered. Used by [`crate::sim::EtherSim`] and by `mether-sim`'s event
//! queue; the threaded runtime uses real `std::time` instead.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The last representable instant, which no run reaches.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Time elapsed since `earlier` (zero if `earlier` is in the future).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// A span of `n` microseconds.
    pub const fn from_micros(n: u64) -> Self {
        SimDuration(n * 1_000)
    }

    /// A span of `n` milliseconds.
    pub const fn from_millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// A span of `n` seconds.
    pub const fn from_secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// A span from a float of seconds (rounded down to whole nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((secs * 1e9) as u64)
    }

    /// The span in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the span by an integer factor.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Checked subtraction, `None` on underflow.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + SimDuration::from_micros(1);
        assert_eq!((t2 - t).as_nanos(), 1_000);
        assert_eq!(t2.since(t).as_nanos(), 1_000);
        assert_eq!(t.since(t2), SimDuration::ZERO, "saturates, never negative");
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_nanos(), 250_000_000);
        assert_eq!(SimDuration::from_millis(1).as_millis_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000µs");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
            let t = SimTime::ZERO + SimDuration::from_nanos(a);
            let d = SimDuration::from_nanos(b);
            prop_assert_eq!(((t + d) - t).as_nanos(), b);
        }

        #[test]
        fn prop_ordering_consistent(a in any::<u32>(), b in any::<u32>()) {
            let ta = SimTime::ZERO + SimDuration::from_nanos(a as u64);
            let tb = SimTime::ZERO + SimDuration::from_nanos(b as u64);
            prop_assert_eq!(ta < tb, a < b);
        }

        #[test]
        fn prop_sum_matches_fold(xs in proptest::collection::vec(0u64..1_000_000, 0..32)) {
            let total: SimDuration = xs.iter().map(|&x| SimDuration::from_nanos(x)).sum();
            prop_assert_eq!(total.as_nanos(), xs.iter().sum::<u64>());
        }
    }
}
