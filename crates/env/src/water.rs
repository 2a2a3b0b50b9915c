//! Water-flow model for micro-hydro harvesting.
//!
//! Models the agricultural irrigation scenario of MPWiNode (System D of the
//! survey): water flows through a pipe or channel during scheduled
//! irrigation windows, with flow-rate variation.

use crate::rng::{BlendCursor, Noise, StreamId};
use mseh_units::{MetersPerSecond, Seconds};

/// Scheduled water-flow model.
///
/// # Examples
///
/// ```
/// use mseh_env::{WaterFlowModel, rng::Noise};
/// use mseh_units::Seconds;
///
/// let m = WaterFlowModel::irrigation();
/// // Early-morning irrigation window.
/// let v = m.flow(Seconds::from_hours(6.0), Noise::new(2));
/// assert!(v.value() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterFlowModel {
    /// Nominal flow speed while a window is active.
    pub nominal: MetersPerSecond,
    /// Irrigation windows as (start hour, end hour) pairs.
    pub windows: [(f64, f64); 2],
    /// Relative flow jitter while active.
    pub jitter: f64,
    /// Width of one jitter interval.
    pub jitter_bucket: Seconds,
}

impl WaterFlowModel {
    /// Typical drip-irrigation plant: 1.2 m/s in 05:00–08:00 and
    /// 19:00–21:00 windows.
    pub fn irrigation() -> Self {
        Self {
            nominal: MetersPerSecond::new(1.2),
            windows: [(5.0, 8.0), (19.0, 21.0)],
            jitter: 0.1,
            jitter_bucket: Seconds::from_minutes(10.0),
        }
    }

    /// A permanent stream: 0.8 m/s continuous.
    pub fn stream() -> Self {
        Self {
            nominal: MetersPerSecond::new(0.8),
            windows: [(0.0, 24.0), (0.0, 0.0)],
            jitter: 0.15,
            jitter_bucket: Seconds::from_minutes(30.0),
        }
    }

    /// Whether any window is active at `t`.
    pub fn active(&self, t: Seconds) -> bool {
        let h = t.time_of_day().as_hours();
        self.windows
            .iter()
            .any(|&(start, end)| h >= start && h < end)
    }

    /// Flow speed at `t` (zero outside the windows).
    pub fn flow(&self, t: Seconds, noise: Noise) -> MetersPerSecond {
        self.flow_with(t, noise, &mut BlendCursor::default())
    }

    /// [`WaterFlowModel::flow`] on the jitter blend's `cursor`.
    pub(crate) fn flow_with(
        &self,
        t: Seconds,
        noise: Noise,
        cursor: &mut BlendCursor,
    ) -> MetersPerSecond {
        if !self.active(t) {
            return MetersPerSecond::ZERO;
        }
        let jitter = cursor.blend(t.value(), self.jitter_bucket.value(), |bucket| {
            noise.normal(StreamId::WATER, bucket)
        });
        MetersPerSecond::new((self.nominal.value() * (1.0 + self.jitter * jitter)).max(0.0))
    }
}

impl Default for WaterFlowModel {
    fn default() -> Self {
        Self::irrigation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_gate_the_flow() {
        let m = WaterFlowModel::irrigation();
        let noise = Noise::new(1);
        assert_eq!(
            m.flow(Seconds::from_hours(12.0), noise),
            MetersPerSecond::ZERO
        );
        assert!(m.flow(Seconds::from_hours(6.0), noise).value() > 0.5);
        assert!(m.flow(Seconds::from_hours(20.0), noise).value() > 0.5);
    }

    #[test]
    fn stream_is_continuous() {
        let m = WaterFlowModel::stream();
        let noise = Noise::new(2);
        for i in 0..48 {
            assert!(m.flow(Seconds::from_hours(i as f64 * 0.5), noise).value() > 0.0);
        }
    }

    #[test]
    fn flow_near_nominal_during_window() {
        let m = WaterFlowModel::irrigation();
        let noise = Noise::new(3);
        let v = m.flow(Seconds::from_hours(6.5), noise);
        assert!((v.value() - 1.2).abs() < 0.5, "{v}");
    }
}
