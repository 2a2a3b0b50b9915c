//! Environmental quantities sensed by energy harvesters: irradiance,
//! illuminance, wind speed, rotation rate, temperatures and vibration.

quantity!(
    /// Solar irradiance in watts per square metre.
    ///
    /// Standard test conditions for photovoltaic cells are 1000 W/m².
    WattsPerSqM,
    "W/m²"
);

/// Alias: irradiance is the common name for [`WattsPerSqM`] in solar work.
pub type Irradiance = WattsPerSqM;

quantity!(
    /// Illuminance in lux (used for indoor-light harvesting).
    ///
    /// A typical office is 300–500 lx; full daylight exceeds 10 000 lx.
    Lux,
    "lx"
);

impl Lux {
    /// Approximate conversion from illuminance to irradiance for indoor
    /// white-light spectra (≈ 120 lx per W/m² luminous efficacy assumption,
    /// the figure commonly used for fluorescent/LED office light falling on
    /// amorphous-silicon cells).
    ///
    /// ```
    /// use mseh_units::Lux;
    /// let g = Lux::new(600.0).to_irradiance_indoor();
    /// assert_eq!(g.value(), 5.0);
    /// ```
    #[inline]
    pub fn to_irradiance_indoor(self) -> WattsPerSqM {
        WattsPerSqM::new(self.value() / 120.0)
    }
}

quantity!(
    /// Wind (or water-flow) speed in metres per second.
    MetersPerSecond,
    "m/s"
);

quantity!(
    /// Rotation rate in revolutions per minute (micro wind-turbine rotors).
    Rpm,
    "rpm"
);

quantity!(
    /// Temperature in degrees Celsius.
    ///
    /// Subtraction of two temperatures yields a temperature *difference*
    /// ([`KelvinDiff`]) via [`Celsius::diff`], the quantity that drives a
    /// thermoelectric generator.
    Celsius,
    "°C"
);

impl Celsius {
    /// Temperature difference from `other` to `self` (positive when `self`
    /// is the hotter side).
    ///
    /// ```
    /// use mseh_units::Celsius;
    /// let dt = Celsius::new(45.0).diff(Celsius::new(25.0));
    /// assert_eq!(dt.value(), 20.0);
    /// ```
    #[inline]
    pub fn diff(self, other: Celsius) -> KelvinDiff {
        KelvinDiff::new(self.value() - other.value())
    }

    /// Absolute temperature in kelvin.
    #[inline]
    pub fn to_kelvin(self) -> f64 {
        self.value() + 273.15
    }
}

quantity!(
    /// Temperature difference in kelvin (across a thermoelectric generator).
    KelvinDiff,
    "K"
);

quantity!(
    /// Vibration acceleration amplitude in g (9.81 m/s² per g), the common
    /// rating axis for piezoelectric and electromagnetic vibration
    /// harvesters.
    GAccel,
    "g"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lux_to_indoor_irradiance() {
        assert!((Lux::new(300.0).to_irradiance_indoor().value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn temperature_difference() {
        let hot = Celsius::new(60.0);
        let cold = Celsius::new(22.0);
        assert_eq!(hot.diff(cold).value(), 38.0);
        assert_eq!(cold.diff(hot).value(), -38.0);
        assert!((Celsius::new(0.0).to_kelvin() - 273.15).abs() < 1e-12);
    }

    #[test]
    fn display_units() {
        assert_eq!(WattsPerSqM::new(850.0).to_string(), "850.000 W/m²");
        assert_eq!(MetersPerSecond::new(4.2).to_string(), "4.200 m/s");
    }
}
