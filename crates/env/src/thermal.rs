//! Thermal models: diurnal ambient temperature with weather deviation, and
//! hot-surface gradient sources for thermoelectric harvesting.

use crate::rng::{BlendCursor, Noise, StreamId};
use mseh_units::{Celsius, Seconds};

/// Diurnal ambient-temperature model.
///
/// A sinusoid between `night_low` and `day_high` (minimum near 05:00,
/// maximum near 15:00) plus a slowly-varying weather deviation.
///
/// # Examples
///
/// ```
/// use mseh_env::{AmbientModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// let m = AmbientModel::temperate();
/// let afternoon = m.temperature(Seconds::from_hours(15.0), Noise::new(1));
/// let dawn = m.temperature(Seconds::from_hours(5.0), Noise::new(1));
/// assert!(afternoon.value() > dawn.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientModel {
    /// Coolest nominal temperature (around 05:00).
    pub night_low: Celsius,
    /// Warmest nominal temperature (around 15:00).
    pub day_high: Celsius,
    /// Standard deviation of the weather-scale deviation.
    pub weather_sigma: f64,
    /// Width of one weather-deviation interval.
    pub weather_bucket: Seconds,
}

impl AmbientModel {
    /// Temperate outdoor day: 12 °C–26 °C.
    pub fn temperate() -> Self {
        Self {
            night_low: Celsius::new(12.0),
            day_high: Celsius::new(26.0),
            weather_sigma: 2.0,
            weather_bucket: Seconds::from_hours(6.0),
        }
    }

    /// Conditioned indoor space: nearly constant 21 °C–23 °C.
    pub fn indoor() -> Self {
        Self {
            night_low: Celsius::new(21.0),
            day_high: Celsius::new(23.0),
            weather_sigma: 0.3,
            weather_bucket: Seconds::from_hours(6.0),
        }
    }

    /// Ambient temperature at `t`.
    pub fn temperature(&self, t: Seconds, noise: Noise) -> Celsius {
        self.temperature_with(t, noise, &mut BlendCursor::default())
    }

    /// [`AmbientModel::temperature`] on the weather blend's `cursor`.
    pub(crate) fn temperature_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> Celsius {
        let h = t.time_of_day().as_hours();
        let mid = (self.night_low.value() + self.day_high.value()) / 2.0;
        let amp = (self.day_high.value() - self.night_low.value()) / 2.0;
        // Maximum at 15:00 (minimum 12 h opposite, near 03:00).
        let diurnal = mid + amp * (core::f64::consts::TAU * (h - 15.0) / 24.0).cos();
        let weather = cursor.blend(t.value(), self.weather_bucket.value(), |bucket| {
            noise.normal(StreamId::WEATHER_TEMP, bucket) * self.weather_sigma
        });
        Celsius::new(diurnal + weather)
    }
}

impl Default for AmbientModel {
    fn default() -> Self {
        Self::temperate()
    }
}

/// A hot surface available to a TEG's hot side (steam pipe, motor casing,
/// exhaust duct) that is hot during working hours and relaxes toward
/// ambient otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientSource {
    /// Surface temperature while the plant runs.
    pub hot: Celsius,
    /// Hour the plant starts.
    pub on_h: f64,
    /// Hour the plant stops.
    pub off_h: f64,
    /// Thermal relaxation time constant for warm-up/cool-down.
    pub tau: Seconds,
}

impl GradientSource {
    /// A low-pressure steam pipe at 65 °C, 06:00–22:00, 30-minute thermal
    /// time constant.
    pub fn steam_pipe() -> Self {
        Self {
            hot: Celsius::new(65.0),
            on_h: 6.0,
            off_h: 22.0,
            tau: Seconds::from_minutes(30.0),
        }
    }

    /// Surface temperature at `t` given the current ambient.
    ///
    /// Uses first-order relaxation toward the scheduled setpoint; with a
    /// short `tau` relative to the schedule, this reproduces the sharp
    /// morning warm-up and evening cool-down of plant equipment.
    pub fn surface(&self, t: Seconds, ambient: Celsius) -> Celsius {
        let h = t.time_of_day().as_hours();
        let target = if h >= self.on_h && h < self.off_h {
            self.hot
        } else {
            ambient
        };
        // Time since the most recent schedule transition.
        let since_transition_h = if h >= self.on_h && h < self.off_h {
            h - self.on_h
        } else if h >= self.off_h {
            h - self.off_h
        } else {
            h + 24.0 - self.off_h
        };
        let since = Seconds::from_hours(since_transition_h);
        let from = if target == self.hot {
            ambient
        } else {
            self.hot
        };
        let alpha = 1.0 - (-since.value() / self.tau.value()).exp();
        Celsius::new(from.value() + alpha * (target.value() - from.value()))
    }
}

impl Default for GradientSource {
    fn default() -> Self {
        Self::steam_pipe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_extremes_near_nominal() {
        let m = AmbientModel::temperate();
        let noise = Noise::new(1);
        let hot = m.temperature(Seconds::from_hours(15.0), noise);
        let cold = m.temperature(Seconds::from_hours(5.0), noise);
        // Within weather sigma of the nominals.
        assert!((hot.value() - 26.0).abs() < 6.0, "{hot}");
        assert!((cold.value() - 12.0).abs() < 6.0, "{cold}");
        assert!(hot.value() > cold.value());
    }

    #[test]
    fn indoor_is_stable() {
        let m = AmbientModel::indoor();
        let noise = Noise::new(2);
        for i in 0..200 {
            let t = m.temperature(Seconds::from_hours(i as f64 * 0.37), noise);
            assert!((20.0..24.5).contains(&t.value()), "{t}");
        }
    }

    #[test]
    fn gradient_hot_during_shift_ambient_at_night() {
        let g = GradientSource::steam_pipe();
        let ambient = Celsius::new(22.0);
        // Mid-shift: fully warmed up.
        let mid = g.surface(Seconds::from_hours(14.0), ambient);
        assert!((mid.value() - 65.0).abs() < 0.5, "{mid}");
        // 04:00: cooled to ambient (6 h past off with 0.5 h tau).
        let night = g.surface(Seconds::from_hours(4.0), ambient);
        assert!((night.value() - 22.0).abs() < 0.5, "{night}");
    }

    #[test]
    fn gradient_warms_up_gradually() {
        let g = GradientSource::steam_pipe();
        let ambient = Celsius::new(22.0);
        let just_on = g.surface(Seconds::from_hours(6.05), ambient);
        let later = g.surface(Seconds::from_hours(8.0), ambient);
        assert!(just_on.value() < later.value());
        assert!(just_on.value() > ambient.value());
    }
}
