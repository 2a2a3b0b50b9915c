//! Trace replay: drive any environment channel from recorded data.
//!
//! The survey stresses that harvester choice is deployment-specific;
//! evaluating a design against *measured* deployment data is how that
//! choice is made in practice. [`ReplayEnvironment`] overlays recorded
//! [`Trace`]s (e.g. an irradiance log from the site) on a synthetic base
//! [`Environment`], channel by channel.

use crate::conditions::EnvConditions;
use crate::scenario::Environment;
use crate::trace::Trace;
use mseh_units::{Celsius, GAccel, Lux, MetersPerSecond, Seconds, Watts, WattsPerSqM};

/// Anything that can be sampled for ambient conditions.
///
/// Implemented by the synthetic [`Environment`] and by
/// [`ReplayEnvironment`]; the simulation kernel accepts either.
pub trait EnvSampler {
    /// Samples every channel at `t`.
    fn conditions(&self, t: Seconds) -> EnvConditions;

    /// Samples every channel at each instant in `times`, appending into
    /// `out` (which is cleared first).
    ///
    /// The default implementation calls [`EnvSampler::conditions`] per
    /// instant; samplers with per-call overhead that can be shared
    /// across a batch (trig tables, noise streams, trace cursors) may
    /// override this to amortize it. The simulation kernel batches one
    /// control window at a time through this path, the fleet one site
    /// table and the arena one seed row.
    ///
    /// [`Environment`] shares its slow noise buckets across the batch:
    /// each blend site (cloud state, wind mean level, weather, occupancy,
    /// vibration, RF bursts, water jitter) keeps the last bucket it drew,
    /// so instants that share a bucket, or step into the next one, reuse
    /// its draws. [`ReplayEnvironment`] samples its base in one batch and
    /// overlays the traces row by row.
    ///
    /// Implementations must be observationally identical to the
    /// per-instant path: `conditions_into(times)[i] == conditions(times[i])`
    /// bit-for-bit for any `times`, sorted or not, or the equivalence of
    /// fleet nodes and arena lanes with independent runs breaks.
    fn conditions_into(&self, times: &[Seconds], out: &mut Vec<EnvConditions>) {
        out.clear();
        out.reserve(times.len());
        out.extend(times.iter().map(|&t| self.conditions(t)));
    }
}

/// A synthetic environment with recorded traces overriding chosen
/// channels.
///
/// # Examples
///
/// ```
/// use mseh_env::{Environment, ReplayEnvironment, Trace, EnvSampler};
/// use mseh_units::Seconds;
///
/// // A measured irradiance log (two samples for brevity).
/// let mut log = Trace::new("site irradiance");
/// log.push(Seconds::from_hours(0.0), 0.0);
/// log.push(Seconds::from_hours(12.0), 640.0);
///
/// let env = ReplayEnvironment::new(Environment::outdoor_temperate(1))
///     .with_irradiance(log);
/// let noon = env.conditions(Seconds::from_hours(12.0));
/// assert_eq!(noon.irradiance.value(), 640.0); // from the log
/// assert!(noon.wind.value() >= 0.0);          // synthetic base
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEnvironment {
    base: Environment,
    irradiance: Option<Trace>,
    illuminance: Option<Trace>,
    wind: Option<Trace>,
    ambient: Option<Trace>,
    hot_surface: Option<Trace>,
    vibration_amp: Option<Trace>,
    rf_incident: Option<Trace>,
    water_flow: Option<Trace>,
}

impl ReplayEnvironment {
    /// Starts from a synthetic base; channels without a trace keep the
    /// base's values.
    pub fn new(base: Environment) -> Self {
        Self {
            base,
            irradiance: None,
            illuminance: None,
            wind: None,
            ambient: None,
            hot_surface: None,
            vibration_amp: None,
            rf_incident: None,
            water_flow: None,
        }
    }

    /// Replays a recorded irradiance log (W/m²).
    pub fn with_irradiance(mut self, trace: Trace) -> Self {
        self.irradiance = Some(trace);
        self
    }

    /// Replays a recorded illuminance log (lx).
    pub fn with_illuminance(mut self, trace: Trace) -> Self {
        self.illuminance = Some(trace);
        self
    }

    /// Replays a recorded wind-speed log (m/s).
    pub fn with_wind(mut self, trace: Trace) -> Self {
        self.wind = Some(trace);
        self
    }

    /// Replays a recorded ambient-temperature log (°C).
    pub fn with_ambient(mut self, trace: Trace) -> Self {
        self.ambient = Some(trace);
        self
    }

    /// Replays a recorded hot-surface-temperature log (°C).
    pub fn with_hot_surface(mut self, trace: Trace) -> Self {
        self.hot_surface = Some(trace);
        self
    }

    /// Replays a recorded vibration-amplitude log (g).
    pub fn with_vibration_amp(mut self, trace: Trace) -> Self {
        self.vibration_amp = Some(trace);
        self
    }

    /// Replays a recorded incident-RF log (W).
    pub fn with_rf_incident(mut self, trace: Trace) -> Self {
        self.rf_incident = Some(trace);
        self
    }

    /// Replays a recorded water-flow log (m/s).
    pub fn with_water_flow(mut self, trace: Trace) -> Self {
        self.water_flow = Some(trace);
        self
    }

    /// Replaces the traced channels of one base sample, at the sample's
    /// own time.
    fn overlay(&self, c: &mut EnvConditions) {
        let t = c.time;
        if let Some(tr) = &self.irradiance {
            c.irradiance = WattsPerSqM::new(tr.sample(t).max(0.0));
        }
        if let Some(tr) = &self.illuminance {
            c.illuminance = Lux::new(tr.sample(t).max(0.0));
        }
        if let Some(tr) = &self.wind {
            c.wind = MetersPerSecond::new(tr.sample(t).max(0.0));
        }
        if let Some(tr) = &self.ambient {
            c.ambient = Celsius::new(tr.sample(t));
            // Without an explicit gradient trace, keep the surface at
            // least at ambient so TEG gradients stay physical.
            if self.hot_surface.is_none() && c.hot_surface < c.ambient {
                c.hot_surface = c.ambient;
            }
        }
        if let Some(tr) = &self.hot_surface {
            c.hot_surface = Celsius::new(tr.sample(t));
        }
        if let Some(tr) = &self.vibration_amp {
            c.vibration_amp = GAccel::new(tr.sample(t).max(0.0));
        }
        if let Some(tr) = &self.rf_incident {
            c.rf_incident = Watts::new(tr.sample(t).max(0.0));
        }
        if let Some(tr) = &self.water_flow {
            c.water_flow = MetersPerSecond::new(tr.sample(t).max(0.0));
        }
    }
}

impl EnvSampler for ReplayEnvironment {
    fn conditions(&self, t: Seconds) -> EnvConditions {
        let mut c = self.base.conditions(t);
        self.overlay(&mut c);
        c
    }

    fn conditions_into(&self, times: &[Seconds], out: &mut Vec<EnvConditions>) {
        self.base.conditions_into(times, out);
        for c in out.iter_mut() {
            self.overlay(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(name: &str, v0: f64, v1: f64) -> Trace {
        let mut t = Trace::new(name);
        t.push(Seconds::ZERO, v0);
        t.push(Seconds::from_hours(24.0), v1);
        t
    }

    #[test]
    fn overridden_channels_follow_the_trace() {
        let env = ReplayEnvironment::new(Environment::outdoor_temperate(5))
            .with_irradiance(ramp("g", 0.0, 480.0))
            .with_wind(ramp("w", 2.0, 2.0));
        let mid = env.conditions(Seconds::from_hours(12.0));
        assert_eq!(mid.irradiance.value(), 240.0);
        assert_eq!(mid.wind.value(), 2.0);
    }

    #[test]
    fn untouched_channels_stay_synthetic() {
        let base = Environment::indoor_industrial(9);
        let replay =
            ReplayEnvironment::new(base.clone()).with_illuminance(ramp("lx", 100.0, 100.0));
        let t = Seconds::from_hours(10.0);
        let synthetic = base.conditions(t);
        let mixed = replay.conditions(t);
        assert_eq!(mixed.illuminance.value(), 100.0);
        assert_eq!(mixed.vibration_amp, synthetic.vibration_amp);
        assert_eq!(mixed.rf_incident, synthetic.rf_incident);
    }

    #[test]
    fn negative_samples_clamp_to_zero_for_magnitudes() {
        let env = ReplayEnvironment::new(Environment::outdoor_temperate(1))
            .with_irradiance(ramp("g", -100.0, -100.0));
        assert_eq!(
            env.conditions(Seconds::from_hours(3.0)).irradiance.value(),
            0.0
        );
    }

    #[test]
    fn ambient_trace_keeps_gradient_physical() {
        // A cold recorded ambient must not leave the synthetic hot
        // surface *below* ambient.
        let env = ReplayEnvironment::new(Environment::outdoor_temperate(1))
            .with_ambient(ramp("amb", 35.0, 35.0));
        let c = env.conditions(Seconds::from_hours(4.0));
        assert!(c.hot_surface >= c.ambient);
        assert_eq!(c.ambient.value(), 35.0);
    }

    #[test]
    fn csv_roundtrip_feeds_replay() {
        let csv = "time_s,irr\n0,0\n43200,800\n86400,0\n";
        let trace = Trace::from_csv(csv).expect("valid csv");
        let env = ReplayEnvironment::new(Environment::outdoor_temperate(1)).with_irradiance(trace);
        assert_eq!(
            env.conditions(Seconds::from_hours(12.0)).irradiance.value(),
            800.0
        );
    }
}
