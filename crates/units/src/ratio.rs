//! Dimensionless ratios with domain-enforced ranges: generic [`Ratio`],
//! power-conversion [`Efficiency`], and node [`DutyCycle`].

use core::fmt;

/// A dimensionless ratio (no range constraint).
///
/// Useful for gains, scale factors and fractions that may exceed 1.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

impl Ratio {
    /// The zero ratio.
    pub const ZERO: Self = Self(0.0);
    /// Unity.
    pub const ONE: Self = Self(1.0);

    /// Creates a ratio.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Creates a ratio from a percentage (`Ratio::from_percent(25.0)` is 0.25).
    #[inline]
    pub fn from_percent(pct: f64) -> Self {
        Self(pct / 100.0)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the ratio expressed as a percentage.
    #[inline]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.as_percent())
    }
}

/// The error returned when constructing an [`Efficiency`] or [`DutyCycle`]
/// outside `[0, 1]`, or from a non-finite value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRangeError {
    value: f64,
}

impl UnitRangeError {
    /// The offending value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for UnitRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} is outside the unit interval [0, 1]",
            self.value
        )
    }
}

impl std::error::Error for UnitRangeError {}

macro_rules! unit_interval_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Zero.
            pub const ZERO: Self = Self(0.0);
            /// One (ideal / always-on).
            pub const ONE: Self = Self(1.0);

            /// Creates the value, validating it lies in `[0, 1]` and is
            /// finite.
            ///
            /// # Errors
            ///
            /// Returns [`UnitRangeError`] for values outside `[0, 1]` or
            /// non-finite input.
            pub fn new(value: f64) -> Result<Self, UnitRangeError> {
                if value.is_finite() && (0.0..=1.0).contains(&value) {
                    Ok(Self(value))
                } else {
                    Err(UnitRangeError { value })
                }
            }

            /// Creates the value, clamping into `[0, 1]` (NaN becomes 0).
            pub fn saturating(value: f64) -> Self {
                if value.is_nan() {
                    Self(0.0)
                } else {
                    Self(value.clamp(0.0, 1.0))
                }
            }

            /// Creates the value from a percentage in `[0, 100]`.
            ///
            /// # Errors
            ///
            /// Returns [`UnitRangeError`] when `pct / 100` falls outside
            /// `[0, 1]`.
            pub fn from_percent(pct: f64) -> Result<Self, UnitRangeError> {
                Self::new(pct / 100.0)
            }

            /// Returns the raw value in `[0, 1]`.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the value as a percentage.
            #[inline]
            pub fn as_percent(self) -> f64 {
                self.0 * 100.0
            }

            /// Applies this factor to a scalar.
            #[inline]
            pub fn scale(self, x: f64) -> f64 {
                self.0 * x
            }
        }

        impl Default for $name {
            /// Defaults to [`Self::ONE`] (the ideal element for a
            /// multiplicative factor).
            fn default() -> Self {
                Self::ONE
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.1}%", self.as_percent())
            }
        }

        impl core::ops::Mul for $name {
            type Output = $name;
            /// Cascading two stages multiplies their factors (still in
            /// `[0, 1]`).
            fn mul(self, rhs: Self) -> Self {
                Self(self.0 * rhs.0)
            }
        }

        impl core::ops::Mul<crate::Watts> for $name {
            type Output = crate::Watts;
            fn mul(self, rhs: crate::Watts) -> crate::Watts {
                crate::Watts::new(self.0 * rhs.value())
            }
        }

        impl core::ops::Mul<$name> for crate::Watts {
            type Output = crate::Watts;
            fn mul(self, rhs: $name) -> crate::Watts {
                crate::Watts::new(self.value() * rhs.0)
            }
        }
    };
}

unit_interval_type!(
    /// A power-conversion efficiency in `[0, 1]`.
    ///
    /// ```
    /// use mseh_units::{Efficiency, Watts};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let eta = Efficiency::new(0.85)?;
    /// let out = eta * Watts::from_milli(10.0);
    /// assert!((out.as_milli() - 8.5).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    Efficiency
);

unit_interval_type!(
    /// A duty cycle (fraction of time active) in `[0, 1]`.
    DutyCycle
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Watts;

    #[test]
    fn ratio_percent_roundtrip() {
        let r = Ratio::from_percent(37.5);
        assert_eq!(r.value(), 0.375);
        assert_eq!(r.as_percent(), 37.5);
        assert_eq!(Ratio::new(0.5).to_string(), "50.00%");
    }

    #[test]
    fn efficiency_validates_range() {
        assert!(Efficiency::new(0.0).is_ok());
        assert!(Efficiency::new(1.0).is_ok());
        assert!(Efficiency::new(-0.01).is_err());
        assert!(Efficiency::new(1.01).is_err());
        assert!(Efficiency::new(f64::NAN).is_err());
        let err = Efficiency::new(2.0).unwrap_err();
        assert_eq!(err.value(), 2.0);
        assert!(err.to_string().contains("outside the unit interval"));
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Efficiency::saturating(2.0).value(), 1.0);
        assert_eq!(Efficiency::saturating(-1.0).value(), 0.0);
        assert_eq!(Efficiency::saturating(f64::NAN).value(), 0.0);
        assert_eq!(Efficiency::saturating(0.42).value(), 0.42);
    }

    #[test]
    fn efficiency_scales_power() {
        let eta = Efficiency::new(0.8).unwrap();
        let p = Watts::new(5.0);
        assert_eq!((eta * p).value(), 4.0);
        assert_eq!((p * eta).value(), 4.0);
        assert_eq!(eta.scale(10.0), 8.0);
    }

    #[test]
    fn cascade_multiplies() {
        let a = Efficiency::new(0.9).unwrap();
        let b = Efficiency::new(0.8).unwrap();
        assert!(((a * b).value() - 0.72).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_percent() {
        let d = DutyCycle::from_percent(2.5).unwrap();
        assert_eq!(d.value(), 0.025);
        assert_eq!(d.to_string(), "2.5%");
        assert_eq!(DutyCycle::default(), DutyCycle::ONE);
    }
}
