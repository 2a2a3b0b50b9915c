//! Seeded per-node perturbation of a shared site environment.
//!
//! Fleet simulations place many nodes at one site: they share the site's
//! weather but not its exact micro-climate (panel tilt, shading, mounting
//! height, distance to the vibration source). [`EnvJitter`] describes the
//! spread; [`JitterFactors`] is one node's concrete draw from it — a set
//! of constant multiplicative scales for the magnitude channels plus one
//! additive temperature offset — and [`JitteredEnv`] wraps any
//! [`EnvSampler`] with those factors so a single jittered node can be
//! re-simulated standalone, bit-identically to its in-fleet trajectory.

use crate::conditions::EnvConditions;
use crate::replay::EnvSampler;
use crate::rng::{Noise, StreamId};
use mseh_units::{Celsius, GAccel, Lux, MetersPerSecond, Seconds, Watts, WattsPerSqM};

/// Noise streams reserved for per-node jitter draws (disjoint from the
/// environment models' streams, which live below 100).
const JITTER_STREAM_BASE: u64 = 100;

/// How widely member nodes of a deployment group spread around their
/// site's shared conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvJitter {
    /// Peak relative perturbation of the magnitude channels (irradiance,
    /// illuminance, wind, vibration amplitude, incident RF, water flow):
    /// each node's scale is drawn uniformly from `[1 − r, 1 + r]`.
    pub relative: f64,
    /// Peak temperature offset in °C, applied identically to ambient and
    /// hot-surface so thermal gradients are preserved.
    pub temperature: f64,
}

impl EnvJitter {
    /// No spread: every node sees the site conditions exactly.
    pub const NONE: Self = Self {
        relative: 0.0,
        temperature: 0.0,
    };

    /// A spread with the given relative magnitude amplitude and no
    /// temperature offset.
    ///
    /// # Panics
    ///
    /// Panics if `relative` is not in `[0, 1)`; see
    /// [`try_relative`](Self::try_relative).
    pub fn relative(relative: f64) -> Self {
        Self::try_relative(relative).unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`relative`](Self::relative), or why `relative` is not in
    /// `[0, 1)`.
    pub fn try_relative(relative: f64) -> Result<Self, String> {
        if !(0.0..1.0).contains(&relative) {
            return Err(format!("relative jitter must be in [0, 1), got {relative}"));
        }
        Ok(Self {
            relative,
            temperature: 0.0,
        })
    }

    /// Adds a peak temperature offset (°C).
    pub fn with_temperature(mut self, celsius: f64) -> Self {
        self.temperature = celsius;
        self
    }

    /// Whether this spread is exactly zero (factors collapse to the
    /// identity).
    pub fn is_none(&self) -> bool {
        self.relative == 0.0 && self.temperature == 0.0
    }
}

/// One node's concrete draw from an [`EnvJitter`] spread: six constant
/// multiplicative scales and one additive temperature offset.
///
/// Applying the identity draw (`EnvJitter::NONE`, or any draw with all
/// scales exactly `1.0` and offset `0.0`) is bit-exact: multiplying a
/// finite IEEE-754 value by `1.0` and adding `0.0` reproduce it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterFactors {
    irradiance: f64,
    illuminance: f64,
    wind: f64,
    vibration_amp: f64,
    rf_incident: f64,
    water_flow: f64,
    temperature_offset: f64,
}

impl JitterFactors {
    /// The identity draw.
    pub const IDENTITY: Self = Self {
        irradiance: 1.0,
        illuminance: 1.0,
        wind: 1.0,
        vibration_amp: 1.0,
        rf_incident: 1.0,
        water_flow: 1.0,
        temperature_offset: 0.0,
    };

    /// Derives the factors for one node from its seed. A zero spread
    /// yields [`IDENTITY`](Self::IDENTITY) without consuming draws.
    pub fn derive(spread: EnvJitter, node_seed: u64) -> Self {
        if spread.is_none() {
            return Self::IDENTITY;
        }
        let noise = Noise::new(node_seed);
        let scale = |i: u64| {
            1.0 + spread.relative * noise.uniform_in(StreamId(JITTER_STREAM_BASE + i), 0, -1.0, 1.0)
        };
        Self {
            irradiance: scale(0),
            illuminance: scale(1),
            wind: scale(2),
            vibration_amp: scale(3),
            rf_incident: scale(4),
            water_flow: scale(5),
            temperature_offset: spread.temperature
                * noise.uniform_in(StreamId(JITTER_STREAM_BASE + 6), 0, -1.0, 1.0),
        }
    }

    /// Applies the factors to a site snapshot. Magnitude channels scale
    /// multiplicatively (a non-negative input stays non-negative);
    /// ambient and hot-surface shift by the same offset, preserving the
    /// thermal gradient to within one rounding (exactly-zero gradients
    /// stay exactly zero); vibration frequency and `time` pass through.
    pub fn apply(&self, c: &EnvConditions) -> EnvConditions {
        // The gradient is re-anchored on the shifted ambient
        // (`hot = amb′ + (hot − amb)`) rather than shifted independently:
        // two independently rounded additions can move `hot − amb` by a
        // couple of ULPs, which a TEG sees as a phantom gradient change.
        // A zero offset passes both temperatures through untouched, so
        // identity draws stay bit-exact.
        let (ambient, hot_surface) = if self.temperature_offset == 0.0 {
            (c.ambient, c.hot_surface)
        } else {
            let amb = c.ambient.value() + self.temperature_offset;
            let gradient = c.hot_surface.value() - c.ambient.value();
            (Celsius::new(amb), Celsius::new(amb + gradient))
        };
        EnvConditions {
            time: c.time,
            irradiance: WattsPerSqM::new(c.irradiance.value() * self.irradiance),
            illuminance: Lux::new(c.illuminance.value() * self.illuminance),
            wind: MetersPerSecond::new(c.wind.value() * self.wind),
            ambient,
            hot_surface,
            vibration_amp: GAccel::new(c.vibration_amp.value() * self.vibration_amp),
            vibration_freq: c.vibration_freq,
            rf_incident: Watts::new(c.rf_incident.value() * self.rf_incident),
            water_flow: MetersPerSecond::new(c.water_flow.value() * self.water_flow),
        }
    }
}

/// An [`EnvSampler`] that applies one node's [`JitterFactors`] on top of
/// a shared base sampler.
///
/// This is the standalone view of a fleet member's environment: the
/// fleet kernel applies the same factors to the same site samples, so
/// `run_simulation` against a `JitteredEnv` reproduces the in-fleet
/// trajectory bit for bit.
///
/// # Examples
///
/// ```
/// use mseh_env::{EnvJitter, Environment, EnvSampler, JitterFactors, JitteredEnv};
/// use mseh_units::Seconds;
///
/// let site = Environment::outdoor_temperate(42);
/// let factors = JitterFactors::derive(EnvJitter::relative(0.1), 7);
/// let node_view = JitteredEnv::new(&site, factors);
/// let t = Seconds::from_hours(12.0);
/// let jittered = node_view.conditions(t);
/// assert_eq!(jittered, factors.apply(&site.conditions(t)));
/// ```
#[derive(Clone, Copy)]
pub struct JitteredEnv<'a> {
    base: &'a dyn EnvSampler,
    factors: JitterFactors,
}

impl core::fmt::Debug for JitteredEnv<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JitteredEnv")
            .field("factors", &self.factors)
            .finish_non_exhaustive()
    }
}

impl<'a> JitteredEnv<'a> {
    /// Wraps `base` with one node's factors.
    pub fn new(base: &'a dyn EnvSampler, factors: JitterFactors) -> Self {
        Self { base, factors }
    }
}

impl EnvSampler for JitteredEnv<'_> {
    fn conditions(&self, t: Seconds) -> EnvConditions {
        self.factors.apply(&self.base.conditions(t))
    }

    fn conditions_into(&self, times: &[Seconds], out: &mut Vec<EnvConditions>) {
        self.base.conditions_into(times, out);
        for c in out.iter_mut() {
            *c = self.factors.apply(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Environment;

    #[test]
    fn identity_factors_are_bit_exact() {
        let site = Environment::outdoor_temperate(11);
        let factors = JitterFactors::derive(EnvJitter::NONE, 999);
        assert_eq!(factors, JitterFactors::IDENTITY);
        for hour in 0..48 {
            let t = Seconds::from_hours(hour as f64 * 0.5);
            let c = site.conditions(t);
            assert_eq!(factors.apply(&c), c, "identity must not move bits");
        }
    }

    #[test]
    fn factors_are_deterministic_per_seed_and_distinct_across_seeds() {
        let spread = EnvJitter::relative(0.2).with_temperature(3.0);
        let a = JitterFactors::derive(spread, 5);
        let b = JitterFactors::derive(spread, 5);
        let c = JitterFactors::derive(spread, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scales_stay_in_band_and_preserve_gradient() {
        let spread = EnvJitter::relative(0.25).with_temperature(2.0);
        let site = Environment::indoor_industrial(3);
        let t = Seconds::from_hours(10.0);
        let base = site.conditions(t);
        for seed in 0..50u64 {
            let f = JitterFactors::derive(spread, seed);
            let j = f.apply(&base);
            let ratio = j.illuminance.value() / base.illuminance.value();
            assert!((0.75..=1.25).contains(&ratio), "seed {seed}: {ratio}");
            // Same offset on both temperatures: the TEG gradient survives
            // to within one rounding of the re-anchored sum.
            assert!(
                (j.thermal_gradient().value() - base.thermal_gradient().value()).abs() < 1e-12,
                "seed {seed}: {} vs {}",
                j.thermal_gradient().value(),
                base.thermal_gradient().value()
            );
            assert!((j.ambient.value() - base.ambient.value()).abs() <= 2.0);
        }
    }

    #[test]
    fn sampler_wrapper_matches_manual_application() {
        let site = Environment::agricultural(21);
        let factors = JitterFactors::derive(EnvJitter::relative(0.15), 4242);
        let wrapped = JitteredEnv::new(&site, factors);
        let times: Vec<Seconds> = (0..10).map(|i| Seconds::from_minutes(i as f64)).collect();
        let mut batch = Vec::new();
        wrapped.conditions_into(&times, &mut batch);
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(batch[i], wrapped.conditions(t));
            assert_eq!(batch[i], factors.apply(&site.conditions(t)));
        }
    }

    #[test]
    #[should_panic(expected = "relative jitter")]
    fn rejects_out_of_band_relative() {
        EnvJitter::relative(1.5);
    }
}
