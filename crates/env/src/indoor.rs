//! Indoor environment models: office/industrial lighting schedules and
//! machinery vibration — the sources System B of the survey targets.

use crate::rng::{BlendCursor, Noise, StreamId};
use mseh_units::{GAccel, Hertz, Lux, Seconds};

/// Artificial-lighting schedule with occupancy jitter.
///
/// Lights follow a working-hours window on weekdays (the simulation epoch is
/// a Monday midnight), with a smooth occupancy factor that varies the level
/// and a small chance the space is dark during nominal hours (meetings out,
/// lights-off policies).
///
/// # Examples
///
/// ```
/// use mseh_env::{IndoorLightModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// let office = IndoorLightModel::office();
/// let nine_am = office.illuminance(Seconds::from_hours(9.0), Noise::new(1));
/// let midnight = office.illuminance(Seconds::from_hours(0.0), Noise::new(1));
/// assert!(nine_am.value() > midnight.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndoorLightModel {
    /// Nominal illuminance with lights on and full occupancy.
    pub nominal: Lux,
    /// Residual illuminance when lights are off (emergency lighting,
    /// windows at a distance).
    pub residual: Lux,
    /// Lights-on hour (after midnight).
    pub on_h: f64,
    /// Lights-off hour.
    pub off_h: f64,
    /// Whether the schedule skips weekends (days 6 and 7 of each week).
    pub weekends_off: bool,
    /// Width of one occupancy-jitter interval.
    pub occupancy_bucket: Seconds,
}

impl IndoorLightModel {
    /// A standard office: 500 lx nominal, 08:00–18:00, weekends off.
    pub fn office() -> Self {
        Self {
            nominal: Lux::new(500.0),
            residual: Lux::new(10.0),
            on_h: 8.0,
            off_h: 18.0,
            weekends_off: true,
            occupancy_bucket: Seconds::from_minutes(30.0),
        }
    }

    /// A three-shift factory floor: 300 lx, 06:00–22:00, every day.
    pub fn factory() -> Self {
        Self {
            nominal: Lux::new(300.0),
            residual: Lux::new(20.0),
            on_h: 6.0,
            off_h: 22.0,
            weekends_off: false,
            occupancy_bucket: Seconds::from_minutes(30.0),
        }
    }

    /// Whether the schedule has lights on at `t` (before occupancy jitter).
    pub fn scheduled_on(&self, t: Seconds) -> bool {
        if self.weekends_off {
            let day = (t.value() / 86_400.0).floor() as u64 % 7;
            if day >= 5 {
                return false;
            }
        }
        let h = t.time_of_day().as_hours();
        h >= self.on_h && h < self.off_h
    }

    /// Illuminance at `t`.
    pub fn illuminance(&self, t: Seconds, noise: Noise) -> Lux {
        self.illuminance_with(t, noise, &mut BlendCursor::default())
    }

    /// [`IndoorLightModel::illuminance`] on the occupancy blend's `cursor`.
    pub(crate) fn illuminance_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> Lux {
        if !self.scheduled_on(t) {
            return self.residual;
        }
        let occupancy = cursor.blend(t.value(), self.occupancy_bucket.value(), |bucket| {
            if noise.chance(StreamId::OCCUPANCY, bucket, 0.08) {
                0.0 // space momentarily dark
            } else {
                noise.uniform_in(StreamId::OCCUPANCY, bucket.wrapping_add(1 << 33), 0.75, 1.0)
            }
        });
        self.residual + (self.nominal - self.residual) * occupancy.clamp(0.0, 1.0)
    }
}

impl Default for IndoorLightModel {
    fn default() -> Self {
        Self::office()
    }
}

/// Machinery-vibration model: a dominant line frequency whose amplitude
/// follows a duty schedule (machine running during shifts) with amplitude
/// jitter.
///
/// Matches the excitation assumptions of resonant piezo / electromagnetic
/// harvesters, which deliver rated power only near their design frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VibrationModel {
    /// Acceleration amplitude while the machine runs.
    pub amplitude: GAccel,
    /// Dominant excitation frequency (e.g. 2× line frequency for motors).
    pub frequency: Hertz,
    /// Machine-on hour.
    pub on_h: f64,
    /// Machine-off hour.
    pub off_h: f64,
    /// Relative amplitude jitter (standard deviation fraction).
    pub jitter: f64,
    /// Width of one jitter interval.
    pub jitter_bucket: Seconds,
}

impl VibrationModel {
    /// An industrial induction motor: 0.5 g at 100 Hz, 06:00–22:00.
    pub fn industrial_motor() -> Self {
        Self {
            amplitude: GAccel::new(0.5),
            frequency: Hertz::new(100.0),
            on_h: 6.0,
            off_h: 22.0,
            jitter: 0.1,
            jitter_bucket: Seconds::from_minutes(5.0),
        }
    }

    /// HVAC ducting: weak broad excitation, 0.05 g at 60 Hz, always on.
    pub fn hvac_duct() -> Self {
        Self {
            amplitude: GAccel::new(0.05),
            frequency: Hertz::new(60.0),
            on_h: 0.0,
            off_h: 24.0,
            jitter: 0.2,
            jitter_bucket: Seconds::from_minutes(10.0),
        }
    }

    /// Whether the machine is scheduled on at `t`.
    pub fn running(&self, t: Seconds) -> bool {
        let h = t.time_of_day().as_hours();
        h >= self.on_h && h < self.off_h
    }

    /// Vibration amplitude at `t` (zero when the machine is off).
    pub fn amplitude_at(&self, t: Seconds, noise: Noise) -> GAccel {
        self.amplitude_with(t, noise, &mut BlendCursor::default())
    }

    /// [`VibrationModel::amplitude_at`] on the jitter blend's `cursor`.
    pub(crate) fn amplitude_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> GAccel {
        if !self.running(t) {
            return GAccel::ZERO;
        }
        let jitter = cursor.blend(t.value(), self.jitter_bucket.value(), |bucket| {
            noise.normal(StreamId::VIBRATION, bucket)
        });
        GAccel::new((self.amplitude.value() * (1.0 + self.jitter * jitter)).max(0.0))
    }
}

impl Default for VibrationModel {
    fn default() -> Self {
        Self::industrial_motor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn office_dark_at_night_and_weekends() {
        let m = IndoorLightModel::office();
        let noise = Noise::new(3);
        assert_eq!(m.illuminance(Seconds::from_hours(2.0), noise), m.residual);
        // Saturday 10:00 — day 5 (epoch is Monday).
        let saturday = Seconds::from_days(5.0) + Seconds::from_hours(10.0);
        assert!(!m.scheduled_on(saturday));
        assert_eq!(m.illuminance(saturday, noise), m.residual);
        // Tuesday 10:00.
        let tuesday = Seconds::from_days(1.0) + Seconds::from_hours(10.0);
        assert!(m.scheduled_on(tuesday));
        assert!(m.illuminance(tuesday, noise).value() > m.residual.value());
    }

    #[test]
    fn factory_runs_weekends() {
        let m = IndoorLightModel::factory();
        let saturday = Seconds::from_days(5.0) + Seconds::from_hours(10.0);
        assert!(m.scheduled_on(saturday));
    }

    #[test]
    fn illuminance_bounded_by_nominal() {
        let m = IndoorLightModel::office();
        let noise = Noise::new(6);
        for i in 0..2000 {
            let t = Seconds::new(i as f64 * 171.0);
            let lx = m.illuminance(t, noise);
            assert!(lx.value() >= 0.0 && lx.value() <= m.nominal.value() + 1e-9);
        }
    }

    #[test]
    fn vibration_follows_schedule() {
        let m = VibrationModel::industrial_motor();
        let noise = Noise::new(4);
        assert_eq!(
            m.amplitude_at(Seconds::from_hours(3.0), noise),
            GAccel::ZERO
        );
        let during = m.amplitude_at(Seconds::from_hours(10.0), noise);
        assert!(during.value() > 0.2, "{during}");
    }

    #[test]
    fn hvac_always_on_but_weak() {
        let m = VibrationModel::hvac_duct();
        let noise = Noise::new(4);
        let night = m.amplitude_at(Seconds::from_hours(3.0), noise);
        assert!(night.value() > 0.0);
        assert!(night.value() < 0.2);
    }

    #[test]
    fn vibration_deterministic() {
        let m = VibrationModel::industrial_motor();
        let t = Seconds::from_hours(12.0);
        assert_eq!(
            m.amplitude_at(t, Noise::new(9)),
            m.amplitude_at(t, Noise::new(9))
        );
    }
}
