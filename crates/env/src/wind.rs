//! Wind-speed model: slowly-drifting Weibull mean level with short-period
//! gust turbulence, the standard statistical description of surface wind.

use crate::rng::{bucket_blend, BlendCursor, Noise, StreamId};
use mseh_units::{MetersPerSecond, Seconds};

/// Parameters of the stochastic wind model.
///
/// Two time scales are modelled:
///
/// * a *weather level* — the hourly-scale mean wind, drawn from a Weibull
///   distribution per `weather_bucket` and smoothly blended;
/// * *gust turbulence* — second-scale fluctuation around the level, with
///   intensity proportional to the level (constant turbulence intensity).
///
/// # Examples
///
/// ```
/// use mseh_env::{WindModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// let model = WindModel::open_field();
/// let v = model.speed(Seconds::from_hours(3.0), Noise::new(9));
/// assert!(v.value() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindModel {
    /// Weibull scale parameter λ of the hourly mean (m/s).
    pub weibull_scale: f64,
    /// Weibull shape parameter k of the hourly mean.
    pub weibull_shape: f64,
    /// Width of one weather-level interval.
    pub weather_bucket: Seconds,
    /// Width of one gust interval.
    pub gust_bucket: Seconds,
    /// Turbulence intensity: gust standard deviation as a fraction of the
    /// mean level.
    pub turbulence: f64,
    /// Diurnal modulation depth in `[0, 1)`: surface wind is typically
    /// stronger in the afternoon.
    pub diurnal_depth: f64,
}

impl WindModel {
    /// A breezy open field: λ = 4.5 m/s, k = 2 (Rayleigh), 15 % turbulence.
    pub fn open_field() -> Self {
        Self {
            weibull_scale: 4.5,
            weibull_shape: 2.0,
            weather_bucket: Seconds::from_hours(2.0),
            gust_bucket: Seconds::new(10.0),
            turbulence: 0.15,
            diurnal_depth: 0.3,
        }
    }

    /// A sheltered site: λ = 2.0 m/s, gustier shape (k = 1.6).
    pub fn sheltered() -> Self {
        Self {
            weibull_scale: 2.0,
            weibull_shape: 1.6,
            weather_bucket: Seconds::from_hours(2.0),
            gust_bucket: Seconds::new(10.0),
            turbulence: 0.25,
            diurnal_depth: 0.2,
        }
    }

    /// The smoothly-varying hourly mean level at `t`.
    pub fn mean_level(&self, t: Seconds, noise: Noise) -> MetersPerSecond {
        self.mean_level_with(t, noise, &mut BlendCursor::default())
    }

    /// [`WindModel::mean_level`] on the weather blend's `cursor`.
    pub(crate) fn mean_level_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> MetersPerSecond {
        let level = cursor.blend(t.value(), self.weather_bucket.value(), |bucket| {
            noise.weibull(
                StreamId::WIND_MEAN,
                bucket,
                self.weibull_scale,
                self.weibull_shape,
            )
        });
        // Diurnal modulation peaking at 15:00.
        let h = t.time_of_day().as_hours();
        let diurnal = 1.0 + self.diurnal_depth * (core::f64::consts::TAU * (h - 9.0) / 24.0).sin();
        MetersPerSecond::new((level * diurnal).max(0.0))
    }

    /// Instantaneous wind speed at `t` (mean level plus gust turbulence,
    /// floored at zero).
    pub fn speed(&self, t: Seconds, noise: Noise) -> MetersPerSecond {
        self.speed_with(t, noise, &mut BlendCursor::default())
    }

    /// [`WindModel::speed`] on the weather blend's `cursor`. The gust blend
    /// draws afresh: at the usual steps no two instants share a gust
    /// bucket.
    pub(crate) fn speed_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> MetersPerSecond {
        let mean = self.mean_level_with(t, noise, cursor).value();
        let gust = bucket_blend(t.value(), self.gust_bucket.value(), |bucket| {
            noise.normal(StreamId::WIND_GUST, bucket)
        });
        MetersPerSecond::new((mean * (1.0 + self.turbulence * gust)).max(0.0))
    }
}

impl Default for WindModel {
    fn default() -> Self {
        Self::open_field()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_non_negative_and_deterministic() {
        let m = WindModel::open_field();
        let noise = Noise::new(17);
        for i in 0..2000 {
            let t = Seconds::new(i as f64 * 7.3);
            let v = m.speed(t, noise);
            assert!(v.value() >= 0.0);
            assert_eq!(v, m.speed(t, noise));
        }
    }

    #[test]
    fn long_run_mean_tracks_weibull_mean() {
        let m = WindModel::open_field();
        let noise = Noise::new(2);
        let samples = 20_000;
        let mut sum = 0.0;
        for i in 0..samples {
            // Sample beyond the bucket scale so levels decorrelate.
            sum += m.speed(Seconds::new(i as f64 * 3600.0), noise).value();
        }
        let mean = sum / samples as f64;
        // Rayleigh mean = λ√π/2 ≈ 3.99 m/s; diurnal modulation averages out.
        let expected = m.weibull_scale * core::f64::consts::PI.sqrt() / 2.0;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn sheltered_is_calmer() {
        let open = WindModel::open_field();
        let shel = WindModel::sheltered();
        let noise = Noise::new(8);
        let avg = |m: &WindModel| -> f64 {
            (0..2000)
                .map(|i| m.speed(Seconds::new(i as f64 * 1800.0), noise).value())
                .sum::<f64>()
                / 2000.0
        };
        assert!(avg(&shel) < avg(&open));
    }

    #[test]
    fn gusts_move_faster_than_weather() {
        // Within one weather bucket the mean level barely changes but the
        // instantaneous speed fluctuates.
        let m = WindModel::open_field();
        let noise = Noise::new(14);
        let t0 = Seconds::from_hours(5.0);
        let t1 = t0 + Seconds::new(40.0);
        let mean_delta = (m.mean_level(t0, noise) - m.mean_level(t1, noise))
            .abs()
            .value();
        let speed_spread: f64 = (0..20)
            .map(|i| m.speed(t0 + Seconds::new(i as f64 * 2.0), noise).value())
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
            .1
            - (0..20)
                .map(|i| m.speed(t0 + Seconds::new(i as f64 * 2.0), noise).value())
                .fold(f64::MAX, f64::min);
        assert!(speed_spread > mean_delta);
    }
}
