//! Micro wind turbine (and, by parameterization, micro hydro generator):
//! rotor aerodynamics feeding a rectified Thevenin-equivalent generator.
//!
//! Follows the design of the high-efficiency micro turbine of Carli et al.
//! (SPEEDAM 2010), reference [7] of the survey, which System A uses.

use crate::kind::HarvesterKind;
use crate::thevenin::Thevenin;
use crate::transducer::Transducer;
use mseh_env::EnvConditions;
use mseh_units::{Amps, MetersPerSecond, Ohms, Volts, Watts};

/// A micro flow turbine: wind by default, water with
/// [`FlowTurbine::micro_hydro`].
///
/// Mechanics: `P_avail = ½·ρ·A·v³·Cp` between cut-in and rated speed,
/// clamped at rated power, zero beyond cut-out (furling). The generator and
/// rectifier are folded into a Thevenin source whose open-circuit voltage
/// scales with rotor speed (∝ flow speed) and whose maximum deliverable
/// power equals the mechanical power times the generator efficiency.
///
/// # Examples
///
/// ```
/// use mseh_harvesters::{FlowTurbine, Transducer};
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, MetersPerSecond};
///
/// let turbine = FlowTurbine::micro_wind();
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.wind = MetersPerSecond::new(6.0);
/// assert!(turbine.mpp(&env).power().as_milli() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTurbine {
    name: String,
    kind: HarvesterKind,
    /// Fluid density, kg/m³ (≈1.225 air, ≈1000 water).
    density: f64,
    /// Swept rotor area, m².
    area: f64,
    /// Power coefficient (fraction of kinetic power captured).
    cp: f64,
    /// Generator + rectifier efficiency.
    generator_eta: f64,
    /// Below this speed the rotor does not turn.
    cut_in: MetersPerSecond,
    /// At this speed rated power is reached (output clamps above).
    rated_speed: MetersPerSecond,
    /// Above this speed the turbine furls (output zero).
    cut_out: MetersPerSecond,
    /// Open-circuit volts per m/s of flow speed.
    volts_per_speed: f64,
}

impl FlowTurbine {
    /// A 6 cm micro wind turbine in the class of the survey's reference
    /// \[7\]: cut-in 2 m/s, rated 9 m/s, tens of mW at moderate wind.
    pub fn micro_wind() -> Self {
        Self {
            name: "micro wind turbine".into(),
            kind: HarvesterKind::WindTurbine,
            density: 1.225,
            area: 0.005, // ≈8 cm rotor
            cp: 0.25,
            generator_eta: 0.6,
            cut_in: MetersPerSecond::new(2.0),
            rated_speed: MetersPerSecond::new(9.0),
            cut_out: MetersPerSecond::new(15.0),
            volts_per_speed: 0.8,
        }
    }

    /// A micro hydro generator in an irrigation pipe (System D's water-flow
    /// input): dense fluid, small rotor, low cut-in.
    pub fn micro_hydro() -> Self {
        Self {
            name: "micro hydro generator".into(),
            kind: HarvesterKind::Hydro,
            density: 1000.0,
            area: 0.0005, // 2.5 cm duct rotor
            cp: 0.2,
            generator_eta: 0.55,
            cut_in: MetersPerSecond::new(0.3),
            rated_speed: MetersPerSecond::new(2.0),
            cut_out: MetersPerSecond::new(5.0),
            volts_per_speed: 3.0,
        }
    }

    /// The flow speed this turbine responds to under `env`.
    fn flow_speed(&self, env: &EnvConditions) -> MetersPerSecond {
        match self.kind {
            HarvesterKind::Hydro => env.water_flow,
            _ => env.wind,
        }
    }

    /// Mechanical-to-electrical available power at flow speed `v`.
    pub fn available_power(&self, v: MetersPerSecond) -> Watts {
        let speed = v.value();
        if speed < self.cut_in.value() || speed >= self.cut_out.value() {
            return Watts::ZERO;
        }
        let effective = speed.min(self.rated_speed.value());
        let kinetic = 0.5 * self.density * self.area * effective.powi(3);
        Watts::new(kinetic * self.cp * self.generator_eta)
    }

    /// The rated electrical power (at `rated_speed`).
    pub fn rated_power(&self) -> Watts {
        let v = self.rated_speed.value();
        Watts::new(0.5 * self.density * self.area * v.powi(3) * self.cp * self.generator_eta)
    }

    /// The equivalent rectified source at the current conditions.
    fn source(&self, env: &EnvConditions) -> Thevenin {
        let v = self.flow_speed(env);
        let p = self.available_power(v);
        if p <= Watts::ZERO {
            return Thevenin::dead();
        }
        let voc = Volts::new(self.volts_per_speed * v.value().min(self.cut_out.value()));
        // R chosen so matched-load power equals the available power.
        let r = Ohms::new(voc.value() * voc.value() / (4.0 * p.value()));
        Thevenin::new(voc, r)
    }
}

impl Transducer for FlowTurbine {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        self.kind
    }

    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps {
        self.source(env).current_at(v)
    }

    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts {
        self.source(env).voc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::Seconds;

    fn env_with_wind(v: f64) -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.wind = MetersPerSecond::new(v);
        env
    }

    #[test]
    fn cubic_power_law_between_cut_in_and_rated() {
        let t = FlowTurbine::micro_wind();
        let p4 = t.available_power(MetersPerSecond::new(4.0)).value();
        let p8 = t.available_power(MetersPerSecond::new(8.0)).value();
        assert!((p8 / p4 - 8.0).abs() < 1e-9, "ratio {}", p8 / p4);
    }

    #[test]
    fn cut_in_rated_and_cut_out() {
        let t = FlowTurbine::micro_wind();
        assert_eq!(t.available_power(MetersPerSecond::new(1.5)), Watts::ZERO);
        let rated = t.rated_power();
        assert!(
            (t.available_power(MetersPerSecond::new(12.0)) - rated)
                .abs()
                .value()
                < 1e-12
        );
        assert_eq!(t.available_power(MetersPerSecond::new(16.0)), Watts::ZERO);
        // Sanity: rated power of a micro turbine is tens–hundreds of mW.
        assert!((0.05..0.5).contains(&rated.value()), "{rated}");
    }

    #[test]
    fn mpp_matches_available_power() {
        let t = FlowTurbine::micro_wind();
        let env = env_with_wind(6.0);
        let mpp = t.mpp(&env);
        let avail = t.available_power(MetersPerSecond::new(6.0));
        assert!(
            (mpp.power() - avail).abs().value() < 1e-6 * avail.value().max(1e-9),
            "{} vs {avail}",
            mpp.power()
        );
        // MPP of a Thevenin source sits at half the open-circuit voltage.
        assert!((mpp.voltage.value() - 0.5 * t.open_circuit_voltage(&env).value()).abs() < 1e-6);
    }

    #[test]
    fn dead_in_calm_air() {
        let t = FlowTurbine::micro_wind();
        let env = env_with_wind(0.0);
        assert_eq!(t.open_circuit_voltage(&env), Volts::ZERO);
        assert_eq!(t.short_circuit_current(&env), Amps::ZERO);
    }

    #[test]
    fn hydro_reads_water_channel_not_wind() {
        let h = FlowTurbine::micro_hydro();
        let mut env = env_with_wind(10.0);
        assert_eq!(h.mpp(&env).power(), Watts::ZERO);
        env.water_flow = MetersPerSecond::new(1.2);
        assert!(h.mpp(&env).power().as_milli() > 1.0);
        assert_eq!(h.kind(), HarvesterKind::Hydro);
    }

    #[test]
    fn hydro_beats_wind_at_same_speed() {
        // Water is ~800× denser: at the same flow speed the hydro rotor
        // extracts far more power despite its smaller area.
        let w = FlowTurbine::micro_wind();
        let h = FlowTurbine::micro_hydro();
        let p_w = w.available_power(MetersPerSecond::new(1.9));
        let p_h = h.available_power(MetersPerSecond::new(1.9));
        assert_eq!(p_w, Watts::ZERO); // below wind cut-in
        assert!(p_h.value() > 0.0);
    }
}
