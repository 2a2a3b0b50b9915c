//! Switching DC-DC converters: buck, boost and buck-boost stages with
//! load-dependent efficiency and quiescent draw.

use crate::efficiency::EfficiencyCurve;
use crate::stage::PowerStage;
use mseh_units::{Amps, Volts, Watts};

/// Converter topology, which constrains the legal input window relative to
/// the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Steps the voltage down (`v_in > v_out`).
    Buck,
    /// Steps the voltage up (`v_in < v_out`).
    Boost,
    /// Either direction (System A's output stage).
    BuckBoost,
}

/// A regulated switching converter.
///
/// # Examples
///
/// ```
/// use mseh_power::{DcDcConverter, PowerStage};
/// use mseh_units::{Volts, Watts};
///
/// let conv = DcDcConverter::buck_boost_3v3();
/// let out = conv.output_for_input(Watts::from_milli(10.0), Volts::new(2.0));
/// assert!(out.value() > 0.0 && out < Watts::from_milli(10.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DcDcConverter {
    name: String,
    topology: Topology,
    v_in_min: Volts,
    v_in_max: Volts,
    v_out: Volts,
    eta: EfficiencyCurve,
    rated: Watts,
    quiescent: Watts,
}

impl DcDcConverter {
    /// Creates a converter.
    ///
    /// # Panics
    ///
    /// Panics if the input window is inverted, the output voltage is
    /// non-positive, the rating is non-positive, or the topology is
    /// inconsistent with the window (e.g. a buck whose window lies below
    /// `v_out`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        v_in_min: Volts,
        v_in_max: Volts,
        v_out: Volts,
        eta: EfficiencyCurve,
        rated: Watts,
        quiescent: Watts,
    ) -> Self {
        assert!(
            v_in_max.value() > v_in_min.value() && v_in_min.value() >= 0.0,
            "input window must satisfy 0 <= v_in_min < v_in_max"
        );
        assert!(v_out.value() > 0.0, "output voltage must be positive");
        assert!(rated.value() > 0.0, "rated power must be positive");
        assert!(quiescent.value() >= 0.0, "quiescent must be non-negative");
        match topology {
            Topology::Buck => assert!(
                v_in_min >= v_out,
                "a buck's input window must lie at or above v_out"
            ),
            Topology::Boost => assert!(
                v_in_max <= v_out,
                "a boost's input window must lie at or below v_out"
            ),
            Topology::BuckBoost => {}
        }
        Self {
            name: name.into(),
            topology,
            v_in_min,
            v_in_max,
            v_out,
            eta,
            rated,
            quiescent,
        }
    }

    /// System A's output stage: a buck-boost regulating 3.3 V from a
    /// 0.5–5.5 V store, 85 % peak efficiency, 5 µA quiescent at 3.3 V.
    pub fn buck_boost_3v3() -> Self {
        Self::new(
            "3.3 V buck-boost",
            Topology::BuckBoost,
            Volts::new(0.5),
            Volts::new(5.5),
            Volts::new(3.3),
            EfficiencyCurve::switching_small(),
            Watts::from_milli(300.0),
            Volts::new(3.3) * Amps::from_micro(5.0),
        )
    }

    /// An MPPT front-end: wide-input buck-boost (0.3–18 V) onto a 5 V
    /// storage bus, premium efficiency, 8 µA quiescent.
    pub fn mppt_front_end_5v() -> Self {
        Self::new(
            "5 V MPPT front-end",
            Topology::BuckBoost,
            Volts::new(0.3),
            Volts::new(18.0),
            Volts::new(5.0),
            EfficiencyCurve::switching_premium(),
            Watts::from_milli(500.0),
            Volts::new(5.0) * Amps::from_micro(8.0),
        )
    }

    /// A module-level interface converter for the plug-and-play
    /// architecture: wide input, 4.1 V storage bus, small and cheap
    /// (moderate efficiency, 2 µA quiescent).
    pub fn module_interface_4v1() -> Self {
        Self::new(
            "module interface converter",
            Topology::BuckBoost,
            Volts::new(0.3),
            Volts::new(20.0),
            Volts::new(4.1),
            EfficiencyCurve::switching_small(),
            Watts::from_milli(100.0),
            Volts::new(4.1) * Amps::from_micro(2.0),
        )
    }

    /// The converter topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The rated (maximum) output power.
    pub fn rated_power(&self) -> Watts {
        self.rated
    }
}

impl PowerStage for DcDcConverter {
    fn name(&self) -> &str {
        &self.name
    }

    fn quiescent(&self) -> Watts {
        self.quiescent
    }

    fn accepts_input_voltage(&self, v_in: Volts) -> bool {
        v_in >= self.v_in_min && v_in <= self.v_in_max
    }

    fn output_voltage(&self) -> Volts {
        self.v_out
    }

    fn output_for_input(&self, p_in: Watts, v_in: Volts) -> Watts {
        if !self.accepts_input_voltage(v_in) || p_in.value() <= 0.0 {
            return Watts::ZERO;
        }
        // p_out = η(p_out)·p_in is piecewise linear in p_out, so the
        // curve solves it in closed form (one segment walk, no
        // iteration).
        self.eta
            .solve_output(p_in, self.rated, p_in.min(self.rated))
    }

    fn input_for_output(&self, p_out: Watts, v_in: Volts) -> Watts {
        if !self.accepts_input_voltage(v_in) || p_out.value() <= 0.0 {
            return Watts::ZERO;
        }
        let p_out = p_out.min(self.rated);
        let eta = self.eta.at_power(p_out, self.rated);
        if eta.value() <= 0.0 {
            return Watts::ZERO;
        }
        p_out / eta.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_window_is_enforced() {
        let c = DcDcConverter::mppt_front_end_5v();
        assert!(c.accepts_input_voltage(Volts::new(1.0)));
        assert!(!c.accepts_input_voltage(Volts::new(19.0)));
        assert!(!c.accepts_input_voltage(Volts::new(0.2)));
        assert_eq!(
            c.output_for_input(Watts::from_milli(10.0), Volts::new(19.0)),
            Watts::ZERO
        );
        // The window's edges are inclusive: 0.3–18 V.
        assert!(c.accepts_input_voltage(Volts::new(0.3)));
        assert!(c.accepts_input_voltage(Volts::new(18.0)));
    }

    #[test]
    fn conversion_loses_power_per_curve() {
        let c = DcDcConverter::buck_boost_3v3();
        let p_in = Watts::from_milli(100.0);
        let out = c.output_for_input(p_in, Volts::new(2.5));
        let eta = out / p_in;
        assert!((0.7..0.9).contains(&eta), "eta {eta}");
    }

    #[test]
    fn inversion_roundtrip() {
        let c = DcDcConverter::buck_boost_3v3();
        let v = Volts::new(2.5);
        for mw in [0.1, 1.0, 10.0, 50.0, 200.0] {
            let p_out = Watts::from_milli(mw);
            let p_in = c.input_for_output(p_out, v);
            let back = c.output_for_input(p_in, v);
            assert!(
                (back - p_out).abs().value() < 1e-9 * p_out.value().max(1e-9),
                "{back} vs {p_out}"
            );
        }
    }

    #[test]
    fn output_clamps_at_rating() {
        let c = DcDcConverter::buck_boost_3v3();
        let huge = c.output_for_input(Watts::new(10.0), Volts::new(3.0));
        assert!(huge <= c.rated_power() + Watts::new(1e-12));
    }

    #[test]
    fn light_load_efficiency_collapses() {
        let c = DcDcConverter::buck_boost_3v3();
        let tiny = Watts::from_micro(50.0);
        let out = c.output_for_input(tiny, Volts::new(2.5));
        let eta = out / tiny;
        assert!(eta < 0.5, "eta at light load {eta}");
    }

    #[test]
    fn quiescent_matches_preset() {
        let c = DcDcConverter::buck_boost_3v3();
        assert!((c.quiescent().as_micro() - 16.5).abs() < 0.1); // 5 µA × 3.3 V
        assert_eq!(c.topology(), Topology::BuckBoost);
        assert_eq!(c.output_voltage(), Volts::new(3.3));
    }

    #[test]
    #[should_panic(expected = "buck's input window")]
    fn rejects_inconsistent_buck() {
        DcDcConverter::new(
            "bad",
            Topology::Buck,
            Volts::new(1.0),
            Volts::new(2.0),
            Volts::new(3.3),
            EfficiencyCurve::switching_small(),
            Watts::from_milli(100.0),
            Watts::ZERO,
        );
    }
}
