//! Virtual-time duration type shared by the device and network models.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A non-negative duration (or instant on a virtual clock) in nanoseconds.
///
/// The device models (`shhc-flash`), network model (`shhc-net`) and the
/// discrete-event simulator (`shhc-sim`) all account costs on virtual
/// clocks measured in [`Nanos`]. Using one newtype everywhere keeps
/// microsecond/nanosecond confusion out of the arithmetic.
///
/// # Examples
///
/// ```
/// use shhc_types::Nanos;
///
/// let t = Nanos::from_micros(25) + Nanos::from_micros(75);
/// assert_eq!(t.as_micros_f64(), 100.0);
/// assert_eq!(t * 3, Nanos::from_micros(300));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Nanos((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in microseconds, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Duration in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Converts to a [`std::time::Duration`].
    pub const fn to_duration(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl Add for Nanos {
    type Output = Nanos;

    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;

    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;

    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;

    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    fn from(n: Nanos) -> u64 {
        n.0
    }
}

impl From<std::time::Duration> for Nanos {
    fn from(d: std::time::Duration) -> Self {
        Nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nanos({self})")
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3} µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns} ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_micros(), 1_000);
        assert_eq!(Nanos::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(Nanos::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a * 2, Nanos::from_micros(20));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_of_iter() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos::new(5).to_string(), "5 ns");
        assert_eq!(Nanos::from_micros(5).to_string(), "5.000 µs");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000 ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.000 s");
    }

    #[test]
    fn duration_round_trip() {
        let n = Nanos::from_millis(123);
        let d = n.to_duration();
        assert_eq!(Nanos::from(d), n);
    }
}
