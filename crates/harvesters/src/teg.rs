//! Thermoelectric generator: Seebeck voltage behind an internal resistance.

use crate::batch::VocBatch;
use crate::kind::HarvesterKind;
use crate::thevenin::Thevenin;
use crate::transducer::Transducer;
use mseh_env::EnvConditions;
use mseh_units::{Amps, KelvinDiff, Ohms, Volts};

/// A thermoelectric generator (TEG).
///
/// The classical model: open-circuit voltage `V = S·ΔT` (module Seebeck
/// coefficient times the hot-to-cold temperature difference) behind the
/// module's internal resistance. A thermal coupling factor accounts for the
/// fraction of the ambient gradient that actually appears across the
/// junctions (heat-sink and contact losses).
///
/// # Examples
///
/// ```
/// use mseh_harvesters::{Teg, Transducer};
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, Celsius};
///
/// let teg = Teg::module_40mm();
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.hot_surface = Celsius::new(60.0); // pipe at 60 °C, ambient 20 °C
/// assert!(teg.mpp(&env).power().as_milli() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Teg {
    name: String,
    /// Module Seebeck coefficient, V/K.
    seebeck: f64,
    /// Internal electrical resistance.
    r_int: Ohms,
    /// Fraction of the ambient gradient appearing across the junctions.
    thermal_coupling: f64,
}

impl Teg {
    /// Creates a TEG from its module parameters.
    ///
    /// # Panics
    ///
    /// Panics if `seebeck` or the resistance is non-positive, or if
    /// `thermal_coupling` is outside `(0, 1]`.
    pub fn new(name: impl Into<String>, seebeck: f64, r_int: Ohms, thermal_coupling: f64) -> Self {
        assert!(seebeck > 0.0, "Seebeck coefficient must be positive");
        assert!(r_int.value() > 0.0, "internal resistance must be positive");
        assert!(
            thermal_coupling > 0.0 && thermal_coupling <= 1.0,
            "thermal coupling must be in (0, 1]"
        );
        Self {
            name: name.into(),
            seebeck,
            r_int,
            thermal_coupling,
        }
    }

    /// A 40 mm bismuth-telluride module with a small heat sink:
    /// 25 mV/K, 2.5 Ω, 50 % gradient coupling.
    pub fn module_40mm() -> Self {
        Self::new("40 mm BiTe TEG", 0.025, Ohms::new(2.5), 0.5)
    }

    /// A thin-film TEG patch (wearable/space-constrained): 10 mV/K, 10 Ω.
    pub fn thin_film() -> Self {
        Self::new("thin-film TEG", 0.010, Ohms::new(10.0), 0.35)
    }

    /// The junction temperature difference seen under `env`.
    pub fn junction_delta(&self, env: &EnvConditions) -> KelvinDiff {
        env.thermal_gradient() * self.thermal_coupling
    }

    fn source(&self, env: &EnvConditions) -> Thevenin {
        let dt = self.junction_delta(env).value();
        if dt <= 0.0 {
            return Thevenin::dead();
        }
        Thevenin::new(Volts::new(self.seebeck * dt), self.r_int)
    }
}

impl Transducer for Teg {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        HarvesterKind::Thermoelectric
    }

    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps {
        self.source(env).current_at(v)
    }

    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts {
        self.source(env).voc
    }

    fn voc_batch(&self) -> Option<&dyn VocBatch> {
        Some(self)
    }
}

impl VocBatch for Teg {
    fn voc_lanes(&self, envs: &[EnvConditions], out: &mut [f64]) {
        assert_eq!(envs.len(), out.len());
        // The Voc is closed-form (Seebeck × junction ΔT); the batched
        // lane is the scalar expression per lane, trivially bit-identical.
        for (slot, env) in out.iter_mut().zip(envs) {
            *slot = self.source(env).voc.value();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::{Celsius, Seconds};

    fn env_with_gradient(hot: f64) -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.hot_surface = Celsius::new(hot);
        env
    }

    #[test]
    fn voc_linear_in_gradient() {
        let teg = Teg::module_40mm();
        // 40 K ambient gradient × 0.5 coupling × 25 mV/K = 0.5 V.
        let voc = teg.open_circuit_voltage(&env_with_gradient(60.0));
        assert!((voc.value() - 0.5).abs() < 1e-12, "{voc}");
        let voc2 = teg.open_circuit_voltage(&env_with_gradient(100.0));
        assert!((voc2.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mpp_power_quadratic_in_gradient() {
        let teg = Teg::module_40mm();
        let p1 = teg.mpp(&env_with_gradient(40.0)).power().value();
        let p2 = teg.mpp(&env_with_gradient(60.0)).power().value();
        // ΔT doubles (20 K → 40 K) ⇒ power quadruples.
        assert!((p2 / p1 - 4.0).abs() < 1e-6, "ratio {}", p2 / p1);
    }

    #[test]
    fn no_gradient_no_power_and_reverse_gradient_blocked() {
        let teg = Teg::module_40mm();
        assert_eq!(teg.mpp(&env_with_gradient(20.0)).power().value(), 0.0);
        // Cold surface (reverse gradient) also yields nothing — the input
        // conditioning blocks reverse flow.
        assert_eq!(teg.mpp(&env_with_gradient(5.0)).power().value(), 0.0);
    }

    #[test]
    fn junction_delta_applies_coupling() {
        let teg = Teg::module_40mm();
        assert_eq!(teg.junction_delta(&env_with_gradient(60.0)).value(), 20.0);
    }

    #[test]
    fn thin_film_weaker_than_module() {
        let env = env_with_gradient(60.0);
        assert!(
            Teg::thin_film().mpp(&env).power().value()
                < Teg::module_40mm().mpp(&env).power().value()
        );
    }

    #[test]
    #[should_panic(expected = "thermal coupling")]
    fn rejects_bad_coupling() {
        Teg::new("bad", 0.02, Ohms::new(1.0), 1.5);
    }
}
