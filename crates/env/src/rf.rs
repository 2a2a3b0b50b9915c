//! Ambient / dedicated RF power model for rectenna harvesting.

use crate::rng::{BlendCursor, Noise, StreamId};
use mseh_units::{Seconds, Watts};

/// RF power incident at the reference antenna aperture.
///
/// Two components are modelled, matching how RF harvesting is deployed in
/// practice (e.g. the radio input of the Cymbet and Maxim evaluation kits):
///
/// * an *ambient floor* — weak, always-present broadcast/cellular energy;
/// * a *dedicated transmitter* — a nearby intentional RF power source that
///   radiates on a duty schedule, providing bursts far above the floor.
///
/// # Examples
///
/// ```
/// use mseh_env::{RfModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// let m = RfModel::dedicated_transmitter();
/// let p = m.incident(Seconds::from_hours(1.0), Noise::new(5));
/// assert!(p.value() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfModel {
    /// Ambient incident power floor.
    pub ambient_floor: Watts,
    /// Peak incident power while the dedicated transmitter bursts.
    pub burst_power: Watts,
    /// Fraction of intervals in which the transmitter is radiating.
    pub burst_duty: f64,
    /// Width of one burst interval.
    pub burst_bucket: Seconds,
}

impl RfModel {
    /// Ambient-only urban RF: ~1 µW floor, no dedicated source.
    pub fn ambient_only() -> Self {
        Self {
            ambient_floor: Watts::from_micro(1.0),
            burst_power: Watts::ZERO,
            burst_duty: 0.0,
            burst_bucket: Seconds::from_minutes(1.0),
        }
    }

    /// A dedicated 915 MHz power transmitter a few metres away: 200 µW
    /// incident during bursts, radiating 40 % of the time.
    pub fn dedicated_transmitter() -> Self {
        Self {
            ambient_floor: Watts::from_micro(1.0),
            burst_power: Watts::from_micro(200.0),
            burst_duty: 0.4,
            burst_bucket: Seconds::from_minutes(2.0),
        }
    }

    /// Incident RF power at `t`.
    pub fn incident(&self, t: Seconds, noise: Noise) -> Watts {
        self.incident_with(t, noise, &mut BlendCursor::default())
    }

    /// [`RfModel::incident`] on the burst blend's `cursor`.
    pub(crate) fn incident_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> Watts {
        let burst = if self.burst_power > Watts::ZERO {
            let factor = cursor.blend(t.value(), self.burst_bucket.value(), |bucket| {
                if noise.chance(StreamId::RF, bucket, self.burst_duty) {
                    noise.uniform_in(StreamId::RF, bucket.wrapping_add(1 << 34), 0.8, 1.0)
                } else {
                    0.0
                }
            });
            self.burst_power * factor.clamp(0.0, 1.0)
        } else {
            Watts::ZERO
        };
        self.ambient_floor + burst
    }
}

impl Default for RfModel {
    fn default() -> Self {
        Self::ambient_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_only_is_flat_floor() {
        let m = RfModel::ambient_only();
        let noise = Noise::new(1);
        for i in 0..100 {
            assert_eq!(
                m.incident(Seconds::new(i as f64 * 31.0), noise),
                m.ambient_floor
            );
        }
    }

    #[test]
    fn bursts_raise_average_by_roughly_duty() {
        let m = RfModel::dedicated_transmitter();
        let noise = Noise::new(7);
        let samples = 5000;
        let mean: f64 = (0..samples)
            .map(|i| m.incident(Seconds::new(i as f64 * 240.0), noise).value())
            .sum::<f64>()
            / samples as f64;
        // Expect ~floor + duty·0.9·burst ≈ 1 µW + 72 µW.
        let expected = 1e-6 + 0.4 * 0.9 * 200e-6;
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn incident_never_below_floor() {
        let m = RfModel::dedicated_transmitter();
        let noise = Noise::new(3);
        for i in 0..2000 {
            let p = m.incident(Seconds::new(i as f64 * 13.7), noise);
            assert!(p >= m.ambient_floor);
            assert!(p <= m.ambient_floor + m.burst_power);
        }
    }
}
