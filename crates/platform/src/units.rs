//! Dimension-safe physical unit newtypes.
//!
//! All quantities flowing through SEO (latencies, deadlines, powers, energies,
//! data rates) are wrapped in newtypes so the type system rejects unit
//! confusion ([C-NEWTYPE]). Each type is a thin `f64` wrapper with only the
//! physically meaningful operators implemented: e.g. `Seconds * Watts ->
//! Joules`, `Bits / BitsPerSecond -> Seconds`.
//!
//! All constructors accept non-finite input but the [`is_valid`] helpers and
//! the consuming crates treat NaN/∞ as invalid configuration.
//!
//! [`is_valid`]: Seconds::is_valid
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:literal, $as_fn:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value in base units.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base units.
            #[must_use]
            pub const fn $as_fn(self) -> f64 {
                self.0
            }

            /// Returns `true` when the value is finite and non-negative.
            ///
            /// Most physical quantities in SEO (latencies, powers, energies,
            /// payload sizes) are only meaningful when non-negative.
            #[must_use]
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

unit_newtype!(
    /// A time duration or instant offset, in seconds.
    Seconds,
    "s",
    as_secs
);
unit_newtype!(
    /// Instantaneous power draw, in watts.
    Watts,
    "W",
    as_watts
);
unit_newtype!(
    /// Consumed energy, in joules.
    Joules,
    "J",
    as_joules
);
unit_newtype!(
    /// A data quantity, in bits.
    Bits,
    "b",
    as_bits
);
unit_newtype!(
    /// A data rate, in bits per second.
    BitsPerSecond,
    "b/s",
    as_bits_per_second
);

impl Seconds {
    /// Creates a duration from milliseconds.
    ///
    /// ```
    /// use seo_platform::units::Seconds;
    /// assert_eq!(Seconds::from_millis(17.0).as_secs(), 0.017);
    /// ```
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms / 1e3)
    }

    /// Returns the duration in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.as_secs() * 1e3
    }
}

impl Bits {
    /// Creates a data quantity from bytes.
    #[must_use]
    pub(crate) fn from_bytes(bytes: f64) -> Self {
        Self::new(bytes * 8.0)
    }

    /// Creates a data quantity from kilobytes (1 kB = 1000 bytes).
    #[must_use]
    pub fn from_kilobytes(kb: f64) -> Self {
        Self::from_bytes(kb * 1e3)
    }
}

impl BitsPerSecond {
    /// Creates a data rate from megabits per second.
    ///
    /// ```
    /// use seo_platform::units::BitsPerSecond;
    /// assert_eq!(BitsPerSecond::from_mbps(20.0).as_bits_per_second(), 2.0e7);
    /// ```
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        Self::new(mbps * 1e6)
    }

    /// Returns the rate in megabits per second.
    #[must_use]
    pub fn as_mbps(self) -> f64 {
        self.as_bits_per_second() / 1e6
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    /// Energy = time x power.
    fn mul(self, rhs: Watts) -> Joules {
        Joules::new(self.as_secs() * rhs.as_watts())
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy = power x time.
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.as_watts() * rhs.as_secs())
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power = energy / time.
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.as_joules() / rhs.as_secs())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Time = energy / power.
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.as_joules() / rhs.as_watts())
    }
}

impl Div<BitsPerSecond> for Bits {
    type Output = Seconds;
    /// Transmission time = payload / rate.
    fn div(self, rhs: BitsPerSecond) -> Seconds {
        Seconds::new(self.as_bits() / rhs.as_bits_per_second())
    }
}

impl Mul<Seconds> for BitsPerSecond {
    type Output = Bits;
    /// Data volume = rate x time.
    fn mul(self, rhs: Seconds) -> Bits {
        Bits::new(self.as_bits_per_second() * rhs.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_millis_roundtrip() {
        let t = Seconds::from_millis(20.0);
        assert_eq!(t.as_secs(), 0.02);
        assert_eq!(t.as_millis(), 20.0);
    }

    #[test]
    fn energy_is_time_times_power() {
        let e = Seconds::from_millis(17.0) * Watts::new(7.0);
        assert!((e.as_joules() - 0.119).abs() < 1e-12);
        let e2 = Watts::new(7.0) * Seconds::from_millis(17.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn energy_divides_back_to_power_and_time() {
        let e = Joules::new(0.119);
        let p = e / Seconds::from_millis(17.0);
        assert!((p.as_watts() - 7.0).abs() < 1e-9);
        let t = e / Watts::new(7.0);
        assert!((t.as_millis() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn transmission_time_from_payload_and_rate() {
        let payload = Bits::from_kilobytes(25.0); // 200_000 bits
        let rate = BitsPerSecond::from_mbps(20.0); // 2e7 b/s
        let t = payload / rate;
        assert!((t.as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rate_times_time_is_volume() {
        let v = BitsPerSecond::from_mbps(20.0) * Seconds::from_millis(10.0);
        assert!((v.as_bits() - 2.0e5).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Joules::new(1.0);
        let b = Joules::new(0.5);
        assert_eq!(a + b, Joules::new(1.5));
        assert_eq!(a - b, Joules::new(0.5));
        assert_eq!(a * 2.0, Joules::new(2.0));
        assert_eq!(2.0 * a, Joules::new(2.0));
        assert_eq!(a / 2.0, Joules::new(0.5));
        assert_eq!(a / b, 2.0);
        assert_eq!(-a, Joules::new(-1.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Joules::new(1.5));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Joules = (0..4).map(|i| Joules::new(f64::from(i))).sum();
        assert_eq!(total, Joules::new(6.0));
    }

    #[test]
    fn validity_checks() {
        assert!(Seconds::new(1.0).is_valid());
        assert!(Seconds::ZERO.is_valid());
        assert!(!Seconds::new(-1.0).is_valid());
        assert!(!Seconds::new(f64::NAN).is_valid());
        assert!(!Seconds::new(f64::INFINITY).is_valid());
    }

    #[test]
    fn clamp_min_max() {
        let w = Watts::new(5.0);
        assert_eq!(w.clamp(Watts::ZERO, Watts::new(2.0)), Watts::new(2.0));
        assert_eq!(w.max(Watts::new(7.0)), Watts::new(7.0));
        assert_eq!(w.min(Watts::new(2.0)), Watts::new(2.0));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.3}", Seconds::from_millis(17.0)), "0.017 s");
        assert_eq!(format!("{}", Watts::new(7.0)), "7 W");
    }

    #[test]
    fn raw_value_roundtrip_is_transparent() {
        let t = Seconds::from_millis(20.0);
        assert_eq!(t.as_secs(), 0.02);
        let back = Seconds::new(t.as_secs());
        assert_eq!(back, t);
    }

    #[test]
    fn bytes_conversion() {
        assert_eq!(Bits::from_bytes(1.0).as_bits(), 8.0);
        assert_eq!(Bits::from_kilobytes(1.0).as_bits(), 8000.0);
    }
}
