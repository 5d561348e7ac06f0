//! Virtual time primitives.
//!
//! All simulated experiments in this workspace are measured in *virtual
//! nanoseconds* managed by the [`crate::runtime::Runtime`]. Using dedicated
//! newtypes (rather than `std::time::{Instant, Duration}`) keeps virtual and
//! wall-clock time from being mixed accidentally and gives us cheap `Copy`
//! arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`; saturates at zero.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    #[inline]
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    #[inline]
    pub const fn micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    #[inline]
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    #[inline]
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Build a duration from fractional seconds; negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        if s <= 0.0 {
            Dur::ZERO
        } else {
            Dur((s * 1e9).round() as u64)
        }
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn min(self, rhs: Dur) -> Dur {
        Dur(self.0.min(rhs.0))
    }

    #[inline]
    pub fn max(self, rhs: Dur) -> Dur {
        Dur(self.0.max(rhs.0))
    }

    /// The virtual time to move `bytes` at `bytes_per_sec` throughput.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Dur {
        if bytes_per_sec <= 0.0 {
            return Dur::ZERO;
        }
        Dur::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: f64) -> Dur {
        Dur::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs.max(1))
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        Dur(iter.map(|d| d.0).sum())
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+")?;
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = Time::ZERO + Dur::micros(5) + Dur::nanos(250);
        assert_eq!(t.nanos(), 5_250);
        assert_eq!(t - Time(250), Dur::micros(5));
        assert_eq!(t.since(Time(250)), Dur::micros(5));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time(5) - Dur::nanos(10), Time::ZERO);
        assert_eq!(Dur::nanos(5).saturating_sub(Dur::nanos(10)), Dur::ZERO);
        assert_eq!(Time(5).since(Time(10)), Dur::ZERO);
    }

    #[test]
    fn constructors_consistent() {
        assert_eq!(Dur::secs(1), Dur::millis(1_000));
        assert_eq!(Dur::millis(1), Dur::micros(1_000));
        assert_eq!(Dur::micros(1), Dur::nanos(1_000));
        assert_eq!(Dur::from_secs_f64(1.5), Dur::millis(1_500));
        assert_eq!(Dur::from_secs_f64(-2.0), Dur::ZERO);
    }

    #[test]
    fn bandwidth_duration() {
        // 1 MiB at 1 GiB/s is ~1/1024 s.
        let d = Dur::for_bytes(1 << 20, (1u64 << 30) as f64);
        let expect = 1e9 / 1024.0;
        assert!((d.as_nanos() as f64 - expect).abs() < 2.0, "{d:?}");
        assert_eq!(Dur::for_bytes(123, 0.0), Dur::ZERO);
    }

    #[test]
    fn scaling_ops() {
        assert_eq!(Dur::micros(3) * 4, Dur::micros(12));
        assert_eq!(Dur::micros(12) / 4, Dur::micros(3));
        assert_eq!(Dur::micros(10) * 0.5, Dur::micros(5));
        let total: Dur = [Dur::micros(1), Dur::micros(2)].into_iter().sum();
        assert_eq!(total, Dur::micros(3));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::secs(12)), "12.000s");
        assert_eq!(format!("{}", Time(1500)), "T+1.500us");
    }
}
