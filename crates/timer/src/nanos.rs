//! [`Nanos`] — the workspace's exact virtual-time type.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in (or span of) virtual time, in integer nanoseconds.
///
/// All simulation arithmetic is integral, so timer quantization behaves
/// bit-for-bit deterministically: `Nanos::from_millis(5) / 3` has an exact,
/// reproducible answer on every platform.
///
/// Subtraction panics on underflow in debug builds (like the underlying
/// `u64`); use [`Nanos::saturating_sub`] where an attacker computes a
/// difference that a fuzzed timer could make negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time.
    pub const ZERO: Nanos = Nanos(0);
    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);
    /// One millisecond.
    pub const MILLI: Nanos = Nanos(1_000_000);
    /// One second.
    pub const SECOND: Nanos = Nanos(1_000_000_000);
    /// The maximum representable instant (~584 years).
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// From whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// From fractional seconds (rounds to nearest nanosecond).
    ///
    /// # Panics
    ///
    /// Panics when `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "seconds must be finite and non-negative");
        Nanos((s * 1e9).round() as u64)
    }

    /// From fractional milliseconds (rounds to nearest nanosecond).
    ///
    /// # Panics
    ///
    /// Panics when `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "milliseconds must be finite and non-negative");
        Nanos((ms * 1e6).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Addition clamped at [`Nanos::MAX`].
    #[inline]
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Round down to a multiple of `step`.
    ///
    /// # Panics
    ///
    /// Panics when `step` is zero.
    pub const fn floor_to(self, step: Nanos) -> Nanos {
        assert!(step.0 > 0, "floor_to step must be positive");
        Nanos(self.0 / step.0 * step.0)
    }

    /// Round up to a multiple of `step`.
    ///
    /// # Panics
    ///
    /// Panics when `step` is zero.
    pub const fn ceil_to(self, step: Nanos) -> Nanos {
        assert!(step.0 > 0, "ceil_to step must be positive");
        Nanos(self.0.div_ceil(step.0) * step.0)
    }

    /// Scale by a non-negative float, rounding to nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics when `f` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, f: f64) -> Nanos {
        assert!(f.is_finite() && f >= 0.0, "scale factor must be finite and non-negative");
        Nanos((self.0 as f64 * f).round() as u64)
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

/// Number of whole `rhs` spans that fit in `self`.
impl Div<Nanos> for Nanos {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::MICRO);
        assert_eq!(Nanos::from_millis(1), Nanos::MILLI);
        assert_eq!(Nanos::from_secs(1), Nanos::SECOND);
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
        assert_eq!(Nanos::from_millis_f64(0.1), Nanos(100_000));
    }

    #[test]
    fn conversions_roundtrip() {
        let t = Nanos::from_millis(1234);
        assert_eq!(t.as_millis_f64(), 1234.0);
        assert_eq!(t.as_secs_f64(), 1.234);
        assert_eq!(Nanos::from_secs_f64(t.as_secs_f64()), t);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(30);
        assert_eq!(a + b, Nanos(130));
        assert_eq!(a - b, Nanos(70));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 3, Nanos(33));
        assert_eq!(a / b, 3);
        assert_eq!(a % b, Nanos(10));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Nanos(5).saturating_sub(Nanos(10)), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_add(Nanos(1)), Nanos::MAX);
        assert_eq!(Nanos(5).checked_sub(Nanos(10)), None);
        assert_eq!(Nanos(10).checked_sub(Nanos(5)), Some(Nanos(5)));
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = Nanos(1) - Nanos(2);
    }

    #[test]
    fn floor_to_quantizes() {
        let q = Nanos::from_millis(100);
        assert_eq!(Nanos::from_millis(250).floor_to(q), Nanos::from_millis(200));
        assert_eq!(Nanos::from_millis(200).floor_to(q), Nanos::from_millis(200));
        assert_eq!(Nanos::from_millis(99).floor_to(q), Nanos::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(Nanos(10).mul_f64(1.26), Nanos(13));
        assert_eq!(Nanos(10).mul_f64(0.0), Nanos::ZERO);
    }

    #[test]
    fn min_max() {
        assert_eq!(Nanos(3).min(Nanos(5)), Nanos(3));
        assert_eq!(Nanos(3).max(Nanos(5)), Nanos(5));
    }

    #[test]
    fn sum_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn display_chooses_unit() {
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos::from_micros(2).to_string(), "2.000us");
        assert_eq!(Nanos::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Nanos::from_secs(4).to_string(), "4.000s");
    }

    #[test]
    fn ordering() {
        assert!(Nanos(1) < Nanos(2));
        assert_eq!(Nanos(2).max(Nanos(1)), Nanos(2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        Nanos::from_secs_f64(-1.0);
    }
}
