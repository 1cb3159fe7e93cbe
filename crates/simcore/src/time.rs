//! Integer-nanosecond simulated time.
//!
//! All simulation time is kept as whole nanoseconds so that event ordering,
//! arithmetic, and therefore entire simulation runs are exactly reproducible.
//! Floating-point seconds are only used at the edges (rate computations and
//! report formatting) and always converted back with explicit rounding.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any event a simulation will ever schedule.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Builds a time from whole seconds.
    pub fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000_000)
    }

    /// Builds a time from floating-point seconds, rounding up to the next
    /// nanosecond (same contract as [`SimDuration::from_secs_f64`]).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime::ZERO.saturating_add(SimDuration::from_secs_f64(secs))
    }

    /// Converts to floating-point seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; a simulation that observes
    /// time running backwards has a scheduling bug that must not be masked.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier <= self,
            "time ran backwards: {earlier:?} > {self:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One nanosecond, the simulation's time quantum.
    pub const NANO: SimDuration = SimDuration(1);

    /// Builds a duration from whole seconds.
    pub fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * 1_000_000_000)
    }

    /// Builds a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from floating-point seconds, rounding *up* to the
    /// next nanosecond so that work never finishes early.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid duration: {secs} s"
        );
        SimDuration((secs * 1e9).ceil() as u64)
    }

    /// Converts to floating-point seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("simulation duration overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation duration underflow"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_since_round_trip() {
        let t = SimTime::from_secs(3);
        let d = SimDuration::from_millis(250);
        let later = t + d;
        assert_eq!(later.since(t), d);
        assert_eq!(later.as_secs_f64(), 3.25);
    }

    #[test]
    fn from_secs_f64_rounds_up() {
        // 1.5 ns rounds up to 2 ns: work must never complete early.
        let d = SimDuration::from_secs_f64(1.5e-9);
        assert_eq!(d.0, 2);
        assert_eq!(SimDuration::from_secs_f64(0.0).0, 0);
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn since_panics_on_backwards_time() {
        SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_nan() {
        SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::FAR_FUTURE);
    }
}
