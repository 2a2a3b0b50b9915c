//! Composite deployment scenarios: the [`Environment`] combines per-channel
//! models into one [`EnvConditions`] sampler, with presets mirroring the
//! deployments the survey discusses.

use crate::conditions::EnvConditions;
use crate::indoor::{IndoorLightModel, VibrationModel};
use crate::replay::EnvSampler;
use crate::rf::RfModel;
use crate::rng::{BlendCursor, Noise};
use crate::solar::{SeasonalSolarModel, SolarModel};
use crate::thermal::{AmbientModel, GradientSource};
use crate::water::WaterFlowModel;
use crate::wind::WindModel;
use mseh_units::Seconds;

/// A deployment environment: a deterministic (seeded) sampler from
/// simulation time to [`EnvConditions`].
///
/// Construct with a preset or with [`Environment::builder`], then call
/// [`Environment::conditions`] at any instant. Sampling is random-access —
/// no internal state advances — so the same `Environment` value can serve
/// many concurrent simulations.
///
/// # Examples
///
/// ```
/// use mseh_env::Environment;
/// use mseh_units::Seconds;
///
/// let env = Environment::outdoor_temperate(42);
/// let noon = env.conditions(Seconds::from_hours(12.0));
/// assert!(noon.irradiance.value() > 0.0);
/// assert!(noon.wind.value() >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    noise: Noise,
    ambient: AmbientModel,
    solar: Option<SolarModel>,
    seasonal_solar: Option<SeasonalSolarModel>,
    wind: Option<WindModel>,
    indoor_light: Option<IndoorLightModel>,
    gradient: Option<GradientSource>,
    vibration: Option<VibrationModel>,
    rf: Option<RfModel>,
    water: Option<WaterFlowModel>,
}

impl Environment {
    /// Starts building a custom environment from a scenario seed.
    pub fn builder(seed: u64) -> EnvironmentBuilder {
        EnvironmentBuilder {
            env: Environment {
                noise: Noise::new(seed),
                ambient: AmbientModel::temperate(),
                solar: None,
                seasonal_solar: None,
                wind: None,
                indoor_light: None,
                gradient: None,
                vibration: None,
                rf: None,
                water: None,
            },
        }
    }

    /// Outdoor temperate deployment (System A's habitat): summer sun, open
    /// field wind, diurnal temperatures.
    pub fn outdoor_temperate(seed: u64) -> Self {
        Self::builder(seed)
            .solar(SolarModel::temperate())
            .wind(WindModel::open_field())
            .ambient(AmbientModel::temperate())
            .build()
    }

    /// Outdoor winter deployment: weak sun, strong wind — the regime where
    /// a wind harvester carries a solar-led platform.
    pub fn outdoor_winter(seed: u64) -> Self {
        Self::builder(seed)
            .solar(SolarModel::winter())
            .wind(WindModel::open_field())
            .ambient(AmbientModel::temperate())
            .build()
    }

    /// Indoor industrial deployment (System B's habitat): factory lighting,
    /// motor vibration, a steam-pipe thermal gradient and a dedicated RF
    /// source.
    pub fn indoor_industrial(seed: u64) -> Self {
        Self::builder(seed)
            .indoor_light(IndoorLightModel::factory())
            .vibration(VibrationModel::industrial_motor())
            .gradient(GradientSource::steam_pipe())
            .rf(RfModel::dedicated_transmitter())
            .ambient(AmbientModel::indoor())
            .build()
    }

    /// Indoor office deployment: lighting only — the sparsest energy
    /// environment, stressing sub-µW quiescent design.
    pub fn indoor_office(seed: u64) -> Self {
        Self::builder(seed)
            .indoor_light(IndoorLightModel::office())
            .vibration(VibrationModel::hvac_duct())
            .ambient(AmbientModel::indoor())
            .build()
    }

    /// Agricultural deployment (System D / MPWiNode's habitat): sun, wind
    /// and irrigation water flow.
    pub fn agricultural(seed: u64) -> Self {
        Self::builder(seed)
            .solar(SolarModel::temperate())
            .wind(WindModel::sheltered())
            .water(WaterFlowModel::irrigation())
            .ambient(AmbientModel::temperate())
            .build()
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.noise.seed()
    }

    /// Samples every channel at `t`.
    pub fn conditions(&self, t: Seconds) -> EnvConditions {
        self.sample(t, &mut Cursors::default())
    }

    /// Samples every channel at `t`, each blend site on its own cursor.
    fn sample(&self, t: Seconds, cursors: &mut Cursors) -> EnvConditions {
        let mut c = EnvConditions::quiescent(t);
        c.ambient = self
            .ambient
            .temperature_with(t, self.noise, &mut cursors.ambient);
        c.hot_surface = c.ambient;
        if let Some(solar) = &self.solar {
            c.irradiance = solar.irradiance_with(t, self.noise, &mut cursors.solar);
        }
        if let Some(seasonal) = &self.seasonal_solar {
            c.irradiance = seasonal.irradiance_with(t, self.noise, &mut cursors.seasonal_solar);
        }
        if let Some(wind) = &self.wind {
            c.wind = wind.speed_with(t, self.noise, &mut cursors.wind);
        }
        if let Some(light) = &self.indoor_light {
            c.illuminance = light.illuminance_with(t, self.noise, &mut cursors.indoor_light);
        }
        if let Some(gradient) = &self.gradient {
            c.hot_surface = gradient.surface(t, c.ambient);
        }
        if let Some(vibration) = &self.vibration {
            c.vibration_amp = vibration.amplitude_with(t, self.noise, &mut cursors.vibration);
            c.vibration_freq = vibration.frequency;
        }
        if let Some(rf) = &self.rf {
            c.rf_incident = rf.incident_with(t, self.noise, &mut cursors.rf);
        }
        if let Some(water) = &self.water {
            c.water_flow = water.flow_with(t, self.noise, &mut cursors.water);
        }
        c
    }
}

impl EnvSampler for Environment {
    fn conditions(&self, t: Seconds) -> EnvConditions {
        Environment::conditions(self, t)
    }

    /// Samples the whole slice on one set of cursors, so each slow noise
    /// bucket is drawn once per batch instead of at both ends on every
    /// instant. Every row is bit-identical to [`Environment::conditions`].
    fn conditions_into(&self, times: &[Seconds], out: &mut Vec<EnvConditions>) {
        out.clear();
        out.reserve(times.len());
        let mut cursors = Cursors::default();
        out.extend(times.iter().map(|&t| self.sample(t, &mut cursors)));
    }
}

/// One [`BlendCursor`] per blend site of an [`Environment`]. The plain
/// and seasonal solar channels each get one: both draw the cloud stream,
/// at different bucket widths.
#[derive(Debug, Default)]
struct Cursors {
    ambient: BlendCursor,
    solar: BlendCursor,
    seasonal_solar: BlendCursor,
    wind: BlendCursor,
    indoor_light: BlendCursor,
    vibration: BlendCursor,
    rf: BlendCursor,
    water: BlendCursor,
}

/// Builder for a custom [`Environment`].
#[derive(Debug, Clone)]
pub struct EnvironmentBuilder {
    env: Environment,
}

impl EnvironmentBuilder {
    /// Sets the ambient-temperature model (defaults to temperate outdoor).
    pub fn ambient(mut self, m: AmbientModel) -> Self {
        self.env.ambient = m;
        self
    }

    /// Adds a solar-irradiance channel.
    pub fn solar(mut self, m: SolarModel) -> Self {
        self.env.solar = Some(m);
        self
    }

    /// Adds a seasonally-varying solar channel (overrides a plain solar
    /// channel when both are set).
    pub fn seasonal_solar(mut self, m: SeasonalSolarModel) -> Self {
        self.env.seasonal_solar = Some(m);
        self
    }

    /// Adds a wind channel.
    pub fn wind(mut self, m: WindModel) -> Self {
        self.env.wind = Some(m);
        self
    }

    /// Adds an indoor-lighting channel.
    pub fn indoor_light(mut self, m: IndoorLightModel) -> Self {
        self.env.indoor_light = Some(m);
        self
    }

    /// Adds a hot-surface gradient source.
    pub fn gradient(mut self, m: GradientSource) -> Self {
        self.env.gradient = Some(m);
        self
    }

    /// Adds a vibration channel.
    pub fn vibration(mut self, m: VibrationModel) -> Self {
        self.env.vibration = Some(m);
        self
    }

    /// Adds an RF channel.
    pub fn rf(mut self, m: RfModel) -> Self {
        self.env.rf = Some(m);
        self
    }

    /// Adds a water-flow channel.
    pub fn water(mut self, m: WaterFlowModel) -> Self {
        self.env.water = Some(m);
        self
    }

    /// Finishes the environment.
    pub fn build(self) -> Environment {
        self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outdoor_has_sun_and_wind_but_no_indoor_channels() {
        let env = Environment::outdoor_temperate(1);
        let noon = env.conditions(Seconds::from_hours(12.0));
        assert!(noon.irradiance.value() > 0.0);
        assert_eq!(noon.illuminance.value(), 0.0);
        assert_eq!(noon.vibration_amp.value(), 0.0);
        assert_eq!(noon.water_flow.value(), 0.0);
    }

    #[test]
    fn indoor_industrial_has_four_channels() {
        let env = Environment::indoor_industrial(1);
        let mid_shift = env.conditions(Seconds::from_hours(10.0));
        assert!(mid_shift.illuminance.value() > 0.0);
        assert!(mid_shift.vibration_amp.value() > 0.0);
        assert!(mid_shift.thermal_gradient().value() > 10.0);
        assert!(mid_shift.rf_incident.value() > 0.0);
        assert_eq!(mid_shift.irradiance.value(), 0.0);
    }

    #[test]
    fn agricultural_waters_in_the_morning() {
        let env = Environment::agricultural(1);
        let morning = env.conditions(Seconds::from_hours(6.0));
        assert!(morning.water_flow.value() > 0.0);
        let noon = env.conditions(Seconds::from_hours(12.0));
        assert_eq!(noon.water_flow.value(), 0.0);
    }

    #[test]
    fn sampling_is_pure_and_seeded() {
        let env = Environment::outdoor_temperate(7);
        let t = Seconds::from_hours(9.5);
        assert_eq!(env.conditions(t), env.conditions(t));
        let other = Environment::outdoor_temperate(8);
        assert_ne!(env.conditions(t), other.conditions(t));
        assert_eq!(env.seed(), 7);
    }

    #[test]
    fn seasonal_solar_overrides_plain_channel() {
        use crate::solar::SeasonalSolarModel;
        let env = Environment::builder(4)
            .seasonal_solar(SeasonalSolarModel::at_latitude(50.0, 355))
            .build();
        // Winter-solstice epoch: 09:00 is before the ~08:15 sunrise at
        // 50° N only marginally — compare winter noon with day-182 noon.
        let winter = env.conditions(Seconds::from_hours(12.0)).irradiance;
        let summer = env
            .conditions(Seconds::from_days(182.0) + Seconds::from_hours(12.0))
            .irradiance;
        assert!(summer.value() > winter.value());
    }

    #[test]
    fn builder_composes_channels() {
        let env = Environment::builder(3)
            .solar(SolarModel::winter())
            .rf(RfModel::ambient_only())
            .build();
        let c = env.conditions(Seconds::from_hours(12.0));
        assert!(c.irradiance.value() >= 0.0);
        assert!(c.rf_incident.value() > 0.0);
        assert_eq!(c.wind.value(), 0.0);
    }
}
