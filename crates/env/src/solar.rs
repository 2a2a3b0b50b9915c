//! Outdoor solar-irradiance model: clear-sky diurnal curve modulated by a
//! stochastic cloud-cover process.

use crate::rng::{BlendCursor, Noise, StreamId};
use mseh_units::{Seconds, WattsPerSqM};

/// Parameters of the diurnal solar model.
///
/// The clear-sky component is a raised-cosine daylight window; the cloud
/// process multiplies it by a smoothly-varying attenuation factor drawn per
/// `cloud_bucket` interval, mixing clear periods with overcast spells.
///
/// # Examples
///
/// ```
/// use mseh_env::{SolarModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// let model = SolarModel::temperate();
/// let noise = Noise::new(1);
/// let noon = model.irradiance(Seconds::from_hours(12.0), noise);
/// let midnight = model.irradiance(Seconds::from_hours(0.0), noise);
/// assert!(noon.value() > 100.0);
/// assert_eq!(midnight.value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarModel {
    /// Peak clear-sky irradiance at solar noon.
    pub peak: WattsPerSqM,
    /// Sunrise, hours after midnight.
    pub sunrise_h: f64,
    /// Sunset, hours after midnight.
    pub sunset_h: f64,
    /// Width of one cloud-state interval.
    pub cloud_bucket: Seconds,
    /// Probability that a cloud interval is overcast.
    pub overcast_prob: f64,
    /// Transmission factor during overcast spells (diffuse light only).
    pub overcast_transmission: f64,
}

impl SolarModel {
    /// A temperate mid-latitude summer day: 900 W/m² peak, 06:00–20:00
    /// daylight, 30 % overcast intervals passing 15 % of light.
    pub fn temperate() -> Self {
        Self {
            peak: WattsPerSqM::new(900.0),
            sunrise_h: 6.0,
            sunset_h: 20.0,
            cloud_bucket: Seconds::from_minutes(20.0),
            overcast_prob: 0.3,
            overcast_transmission: 0.15,
        }
    }

    /// An overcast northern winter: 250 W/m² peak, 08:30–16:00 daylight,
    /// 70 % overcast.
    pub fn winter() -> Self {
        Self {
            peak: WattsPerSqM::new(250.0),
            sunrise_h: 8.5,
            sunset_h: 16.0,
            cloud_bucket: Seconds::from_minutes(30.0),
            overcast_prob: 0.7,
            overcast_transmission: 0.2,
        }
    }

    /// Clear-sky irradiance at `t` (no clouds): a raised cosine between
    /// sunrise and sunset, zero at night.
    pub fn clear_sky(&self, t: Seconds) -> WattsPerSqM {
        let h = t.time_of_day().as_hours();
        if h <= self.sunrise_h || h >= self.sunset_h {
            return WattsPerSqM::ZERO;
        }
        let day_len = self.sunset_h - self.sunrise_h;
        let phase = (h - self.sunrise_h) / day_len; // 0..1 across the day
        let elevation = (core::f64::consts::PI * phase).sin();
        self.peak * elevation.max(0.0).powf(1.2)
    }

    /// Cloud transmission factor at `t` in `[overcast_transmission, 1]`,
    /// smooth in time and deterministic in the scenario seed.
    pub fn cloud_transmission(&self, t: Seconds, noise: Noise) -> f64 {
        self.cloud_transmission_with(t, noise, &mut BlendCursor::default())
    }

    /// [`SolarModel::cloud_transmission`] on the cloud blend's `cursor`.
    pub(crate) fn cloud_transmission_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> f64 {
        let draw = |bucket: u64| {
            if noise.chance(StreamId::CLOUDS, bucket, self.overcast_prob) {
                // Overcast spell: transmission near the floor, jittered.
                self.overcast_transmission
                    * noise.uniform_in(StreamId::CLOUDS, bucket.wrapping_add(1 << 32), 0.7, 1.3)
            } else {
                // Clear spell: light haze jitter.
                noise.uniform_in(StreamId::CLOUDS, bucket.wrapping_add(1 << 32), 0.85, 1.0)
            }
        };
        cursor
            .blend(t.value(), self.cloud_bucket.value(), draw)
            .clamp(0.0, 1.0)
    }

    /// Irradiance at `t` including cloud attenuation.
    pub fn irradiance(&self, t: Seconds, noise: Noise) -> WattsPerSqM {
        self.irradiance_with(t, noise, &mut BlendCursor::default())
    }

    /// [`SolarModel::irradiance`] on the cloud blend's `cursor`.
    pub(crate) fn irradiance_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> WattsPerSqM {
        self.clear_sky(t) * self.cloud_transmission_with(t, noise, cursor)
    }
}

impl Default for SolarModel {
    fn default() -> Self {
        Self::temperate()
    }
}

/// A solar model with astronomical seasonality: daylight window and peak
/// irradiance follow the solar declination for a latitude, so multi-week
/// simulations see days lengthen and shorten.
///
/// The declination uses the standard Cooper approximation; the daylight
/// half-angle comes from the sunset-hour-angle formula
/// `cos ω = −tan φ · tan δ`. Peak irradiance scales with the sine of the
/// maximum solar elevation. Cloud behaviour is inherited from an inner
/// [`SolarModel`] template.
///
/// # Examples
///
/// ```
/// use mseh_env::{SeasonalSolarModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// // 50° N, simulation epoch at the winter solstice.
/// let model = SeasonalSolarModel::at_latitude(50.0, 355);
/// let noise = Noise::new(1);
/// let midwinter = model.irradiance(Seconds::from_days(0.5), noise);
/// let midsummer = model.irradiance(Seconds::from_days(182.5), noise);
/// assert!(midsummer.value() > midwinter.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalSolarModel {
    /// Site latitude in degrees (positive north).
    pub latitude_deg: f64,
    /// Day of year (1–365) at the simulation epoch.
    pub epoch_day_of_year: u32,
    /// Cloud/peak template (its sunrise/sunset are overridden per day).
    pub template: SolarModel,
}

impl SeasonalSolarModel {
    /// A temperate-template model at the given latitude and epoch day.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is polar (no sunrise/sunset year-round,
    /// |φ| ≥ 66.5°) or `epoch_day_of_year` is outside 1–365.
    pub fn at_latitude(latitude_deg: f64, epoch_day_of_year: u32) -> Self {
        assert!(
            latitude_deg.abs() < 66.5,
            "polar latitudes are out of the model's scope"
        );
        assert!(
            (1..=365).contains(&epoch_day_of_year),
            "day of year must be 1–365"
        );
        Self {
            latitude_deg,
            epoch_day_of_year,
            template: SolarModel::temperate(),
        }
    }

    /// Solar declination (degrees) for a day of year (Cooper, 1969).
    pub fn declination_deg(day_of_year: f64) -> f64 {
        23.45 * (core::f64::consts::TAU * (284.0 + day_of_year) / 365.0).sin()
    }

    /// The day of year `t` falls in.
    fn day_of_year(&self, t: Seconds) -> f64 {
        (self.epoch_day_of_year as f64 + t.as_days()).rem_euclid(365.0)
    }

    /// Daylight half-length in hours for the day `t` falls in.
    pub fn half_day_hours(&self, t: Seconds) -> f64 {
        let phi = self.latitude_deg.to_radians();
        let delta = Self::declination_deg(self.day_of_year(t)).to_radians();
        let cos_omega = (-phi.tan() * delta.tan()).clamp(-1.0, 1.0);
        cos_omega.acos().to_degrees() / 15.0
    }

    /// The day-adjusted model for the instant `t`.
    fn model_for(&self, t: Seconds) -> SolarModel {
        let half = self.half_day_hours(t);
        let phi = self.latitude_deg.to_radians();
        let delta = Self::declination_deg(self.day_of_year(t)).to_radians();
        // Max elevation: 90° − |φ − δ|.
        let elevation_max = core::f64::consts::FRAC_PI_2 - (phi - delta).abs();
        let peak_scale = elevation_max.sin().max(0.0);
        SolarModel {
            peak: WattsPerSqM::new(1000.0 * peak_scale),
            sunrise_h: 12.0 - half,
            sunset_h: 12.0 + half,
            ..self.template
        }
    }

    /// Clear-sky irradiance at `t` with seasonal day length and peak.
    pub fn clear_sky(&self, t: Seconds) -> WattsPerSqM {
        self.model_for(t).clear_sky(t)
    }

    /// Irradiance at `t` including the template's cloud process.
    pub fn irradiance(&self, t: Seconds, noise: Noise) -> WattsPerSqM {
        self.irradiance_with(t, noise, &mut BlendCursor::default())
    }

    /// [`SeasonalSolarModel::irradiance`] on the cloud blend's `cursor`.
    pub(crate) fn irradiance_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> WattsPerSqM {
        self.model_for(t).irradiance_with(t, noise, cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_day_length_tracks_declination() {
        // 50° N: short days at the winter solstice, long at the summer
        // solstice, ~12 h at the equinox.
        let m = SeasonalSolarModel::at_latitude(50.0, 355); // ~winter solstice
        let winter_half = m.half_day_hours(Seconds::ZERO);
        let summer_half = m.half_day_hours(Seconds::from_days(182.0));
        let equinox_half = m.half_day_hours(Seconds::from_days(90.0));
        assert!(winter_half < 5.0, "winter half-day {winter_half}");
        assert!(summer_half > 7.0, "summer half-day {summer_half}");
        assert!(
            (equinox_half - 6.0).abs() < 0.6,
            "equinox half-day {equinox_half}"
        );
    }

    #[test]
    fn seasonal_peak_higher_in_summer() {
        let m = SeasonalSolarModel::at_latitude(50.0, 355);
        let winter_noon = m.clear_sky(Seconds::from_hours(12.0));
        let summer_noon = m.clear_sky(Seconds::from_days(182.0) + Seconds::from_hours(12.0));
        assert!(summer_noon.value() > 2.0 * winter_noon.value());
    }

    #[test]
    fn equator_days_are_always_near_twelve_hours() {
        let m = SeasonalSolarModel::at_latitude(0.0, 1);
        for day in [0.0, 91.0, 182.0, 273.0] {
            let half = m.half_day_hours(Seconds::from_days(day));
            assert!((half - 6.0).abs() < 0.2, "day {day}: half {half}");
        }
    }

    #[test]
    fn declination_extremes() {
        // Solstices near ±23.45°, equinoxes near zero.
        assert!((SeasonalSolarModel::declination_deg(172.0) - 23.45).abs() < 0.5);
        assert!((SeasonalSolarModel::declination_deg(355.0) + 23.45).abs() < 0.5);
        assert!(SeasonalSolarModel::declination_deg(81.0).abs() < 1.5);
    }

    #[test]
    #[should_panic(expected = "polar")]
    fn rejects_polar_latitudes() {
        SeasonalSolarModel::at_latitude(70.0, 1);
    }

    #[test]
    fn zero_at_night_peaked_at_noon() {
        let m = SolarModel::temperate();
        assert_eq!(m.clear_sky(Seconds::from_hours(3.0)), WattsPerSqM::ZERO);
        assert_eq!(m.clear_sky(Seconds::from_hours(22.0)), WattsPerSqM::ZERO);
        let noon = m.clear_sky(Seconds::from_hours(13.0));
        assert!((noon.value() - 900.0).abs() < 1.0, "{noon}");
        let morning = m.clear_sky(Seconds::from_hours(8.0));
        assert!(morning.value() > 0.0 && morning.value() < noon.value());
    }

    #[test]
    fn clear_sky_is_symmetric_about_solar_noon() {
        let m = SolarModel::temperate();
        let a = m.clear_sky(Seconds::from_hours(9.0));
        let b = m.clear_sky(Seconds::from_hours(17.0));
        assert!((a - b).abs().value() < 1e-9);
    }

    #[test]
    fn cloud_transmission_bounded_and_deterministic() {
        let m = SolarModel::temperate();
        let noise = Noise::new(3);
        for i in 0..500 {
            let t = Seconds::new(i as f64 * 97.0);
            let c = m.cloud_transmission(t, noise);
            assert!((0.0..=1.0).contains(&c), "{c}");
            assert_eq!(c, m.cloud_transmission(t, noise));
        }
    }

    #[test]
    fn overcast_probability_shows_in_long_run_average() {
        let m = SolarModel::temperate();
        let noise = Noise::new(5);
        let mut sum = 0.0;
        let samples = 5000;
        for i in 0..samples {
            sum += m.cloud_transmission(Seconds::new(i as f64 * 1200.0), noise);
        }
        let mean = sum / samples as f64;
        // ~0.7·0.925 + 0.3·0.15 ≈ 0.69; allow slack for blending.
        assert!((0.55..0.8).contains(&mean), "mean transmission {mean}");
    }

    #[test]
    fn winter_darker_than_summer() {
        let summer = SolarModel::temperate();
        let winter = SolarModel::winter();
        let noon = Seconds::from_hours(12.2);
        assert!(winter.clear_sky(noon).value() < summer.clear_sky(noon).value());
        // Winter daylight window is shorter.
        assert!(winter.clear_sky(Seconds::from_hours(7.0)).value() == 0.0);
        assert!(summer.clear_sky(Seconds::from_hours(7.0)).value() > 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let m = SolarModel::temperate();
        let t = Seconds::from_hours(10.0);
        let a = m.irradiance(t, Noise::new(1));
        let b = m.irradiance(t, Noise::new(2));
        assert_ne!(a, b);
    }
}
