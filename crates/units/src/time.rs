//! Time quantities.

quantity!(
    /// A duration in seconds.
    ///
    /// ```
    /// use mseh_units::Seconds;
    /// assert_eq!(Seconds::from_hours(2.0).value(), 7200.0);
    /// assert_eq!(Seconds::from_days(1.0).as_hours(), 24.0);
    /// ```
    Seconds,
    "s"
);

impl Seconds {
    /// Creates a duration from minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::new(minutes * 60.0)
    }

    /// Creates a duration from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::new(hours * 3600.0)
    }

    /// Creates a duration from days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::new(days * 86_400.0)
    }

    /// Returns the duration in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.value() / 3600.0
    }

    /// Returns the duration in days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.value() / 86_400.0
    }

    /// The time of day this instant falls at, in seconds since midnight,
    /// assuming the simulation epoch is midnight.
    ///
    /// Exact: the result is bit-identical to `value().rem_euclid(86_400.0)`
    /// for every input, NaN, infinities and ±0 included.
    ///
    /// For `0 < t < 2⁵³` it computes `t − ⌊t / 86 400⌋ · 86 400` instead
    /// of calling `fmod`. The quotient never rounds up to the next whole
    /// day there: `t` falls short of it by at least one ulp of `t`, a
    /// relative gap above 2⁻⁵³, which is more than rounding the quotient
    /// can close. So the floor is the true day count, the product is an
    /// integer below 2⁵³ and exact, and by Sterbenz's lemma so is the
    /// subtraction. Every other input takes `rem_euclid`.
    ///
    /// ```
    /// use mseh_units::Seconds;
    /// let t = Seconds::from_hours(25.5);
    /// assert_eq!(t.time_of_day().as_hours(), 1.5);
    /// ```
    #[inline]
    pub fn time_of_day(self) -> Seconds {
        const DAY: f64 = 86_400.0;
        const EXACT_BELOW: f64 = 9_007_199_254_740_992.0; // 2^53
        let t = self.value();
        if t > 0.0 && t < EXACT_BELOW {
            Seconds::new(t - (t / DAY).floor() * DAY)
        } else {
            Seconds::new(t.rem_euclid(DAY))
        }
    }
}

quantity!(
    /// Frequency in hertz (vibration spectra, converter switching rates).
    Hertz,
    "Hz"
);

impl Hertz {
    /// The period of one cycle at this frequency.
    ///
    /// Returns an infinite duration at 0 Hz.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Seconds::from_minutes(1.5).value(), 90.0);
        assert_eq!(Seconds::from_hours(0.5).value(), 1800.0);
        assert_eq!(Seconds::from_days(2.0).value(), 172_800.0);
        assert_eq!(Seconds::from_days(0.25).as_hours(), 6.0);
        assert_eq!(Seconds::from_hours(36.0).as_days(), 1.5);
    }

    #[test]
    fn time_of_day_wraps() {
        assert_eq!(Seconds::from_hours(23.0).time_of_day().as_hours(), 23.0);
        assert_eq!(Seconds::from_hours(24.0).time_of_day().as_hours(), 0.0);
        assert_eq!(Seconds::from_hours(49.0).time_of_day().as_hours(), 1.0);
    }

    /// `time_of_day` against `rem_euclid`, bit for bit.
    fn assert_time_of_day_exact(t: f64) {
        assert_eq!(
            Seconds::new(t).time_of_day().value().to_bits(),
            t.rem_euclid(86_400.0).to_bits(),
            "t = {t:e} ({:#x})",
            t.to_bits()
        );
    }

    /// `x` moved by `n` units in the last place, within its sign.
    fn ulps(x: f64, n: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + n) as u64)
    }

    #[test]
    fn time_of_day_is_rem_euclid_bit_for_bit() {
        let two_53 = 9_007_199_254_740_992.0_f64;
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Both signs of every binade, with a mantissa off the edge.
        for exp in 0..2047u64 {
            let x = f64::from_bits(exp << 52 | 0x0008_0000_0000_0001);
            inputs.extend([x, -x, f64::from_bits(exp << 52), -f64::from_bits(exp << 52)]);
        }
        // Day edges ±3 ulps, out past 2^53 s.
        let mut day = 1.0;
        while day < 2e11 {
            for n in -3..=3 {
                let edge = day * 86_400.0;
                inputs.extend([ulps(edge, n), -ulps(edge, n)]);
            }
            day = (day * 1.37).ceil();
        }
        // 2^53 ± a few ulps (the spacing doubles at 2^53).
        for n in -4..=4 {
            inputs.extend([ulps(two_53, n), -ulps(two_53, n)]);
        }
        for t in inputs {
            assert_time_of_day_exact(t);
        }
        // The 60 s step grid: two days from the epoch and from each of a
        // hundred starts spread over the years, on and off whole seconds.
        for year in 0..100 {
            let start = f64::from(year * year) * 365.0 * 86_400.0;
            for i in 0..2 * 1440 {
                let t = start + f64::from(i) * 60.0;
                assert_time_of_day_exact(t);
                assert_time_of_day_exact(t + 0.1);
            }
        }
        // Random bit patterns, and log-uniform times up to 2^53 s.
        let mut rng = crate::fuzz::Rng::new(86_400);
        for _ in 0..100_000 {
            assert_time_of_day_exact(f64::from_bits(rng.next_u64()));
            assert_time_of_day_exact(rng.in_range(-20.0, 53.0).exp2());
        }
    }

    #[test]
    fn frequency_period() {
        assert_eq!(Hertz::new(50.0).period().value(), 0.02);
        assert!(Hertz::ZERO.period().value().is_infinite());
    }
}
