//! Electrical quantities: potential, current, resistance, power, charge and
//! capacitance, with Ohm's-law and power-law cross arithmetic.

use crate::energy::Joules;
use crate::time::Seconds;

quantity!(
    /// Electric potential in volts.
    ///
    /// ```
    /// use mseh_units::{Volts, Ohms, Amps};
    /// let i: Amps = Volts::new(3.0) / Ohms::new(1000.0);
    /// assert_eq!(i.as_milli(), 3.0);
    /// ```
    Volts,
    "V"
);

quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);

quantity!(
    /// Electrical resistance in ohms.
    Ohms,
    "Ω"
);

quantity!(
    /// Power in watts.
    ///
    /// ```
    /// use mseh_units::{Watts, Volts, Amps};
    /// let i: Amps = Watts::from_milli(10.0) / Volts::new(2.0);
    /// assert_eq!(i.as_milli(), 5.0);
    /// ```
    Watts,
    "W"
);

quantity!(
    /// Electric charge in coulombs.
    Coulombs,
    "C"
);

quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);

// P = V·I and the derived divisions.
cross_ops!(Volts * Amps = Watts);
// V = I·R and the derived divisions (I = V/R, R = V/I).
cross_ops!(Amps * Ohms = Volts);
// Q = I·t.
cross_ops!(Amps * Seconds = Coulombs);
// Q = C·V.
cross_ops!(Farads * Volts = Coulombs);
// E = P·t.
cross_ops!(Watts * Seconds = Joules);

impl Volts {
    /// Power dissipated across a resistance at this voltage: `V²/R`.
    ///
    /// ```
    /// use mseh_units::{Volts, Ohms};
    /// let p = Volts::new(2.0).power_into(Ohms::new(8.0));
    /// assert_eq!(p.value(), 0.5);
    /// ```
    #[inline]
    pub fn power_into(self, r: Ohms) -> Watts {
        Watts::new(self.value() * self.value() / r.value())
    }
}

impl Farads {
    /// Energy stored in this capacitance charged to `v`: `½·C·V²`.
    ///
    /// ```
    /// use mseh_units::{Farads, Volts};
    /// let e = Farads::new(10.0).stored_energy(Volts::new(2.0));
    /// assert_eq!(e.value(), 20.0);
    /// ```
    #[inline]
    pub fn stored_energy(self, v: Volts) -> Joules {
        Joules::new(0.5 * self.value() * v.value() * v.value())
    }

    /// Voltage this capacitance holds when storing `energy`: `√(2E/C)`.
    ///
    /// Negative energy is treated as empty (returns 0 V).
    #[inline]
    pub fn voltage_at_energy(self, energy: Joules) -> Volts {
        if energy.value() <= 0.0 {
            return Volts::ZERO;
        }
        Volts::new((2.0 * energy.value() / self.value()).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_relations() {
        let v = Volts::new(5.0);
        let r = Ohms::new(250.0);
        let i: Amps = v / r;
        assert_eq!(i.as_milli(), 20.0);
        let back: Volts = i * r;
        assert!((back - v).abs().value() < 1e-12);
        let r2: Ohms = v / i;
        assert!((r2 - r).abs().value() < 1e-9);
    }

    #[test]
    fn power_relations() {
        let p: Watts = Volts::new(3.3) * Amps::from_milli(2.0);
        assert!((p.as_milli() - 6.6).abs() < 1e-12);
        let i: Amps = p / Volts::new(3.3);
        assert!((i.as_milli() - 2.0).abs() < 1e-12);
        let v: Volts = p / Amps::from_milli(2.0);
        assert!((v.value() - 3.3).abs() < 1e-12);
    }

    #[test]
    fn resistive_power_helpers() {
        assert_eq!(Volts::new(4.0).power_into(Ohms::new(2.0)).value(), 8.0);
    }

    #[test]
    fn charge_relations() {
        let q: Coulombs = Amps::from_milli(10.0) * Seconds::new(100.0);
        assert_eq!(q.value(), 1.0);
        let q2: Coulombs = Farads::new(0.5) * Volts::new(2.0);
        assert_eq!(q2.value(), 1.0);
        let c: Farads = q2 / Volts::new(2.0);
        assert_eq!(c.value(), 0.5);
    }

    #[test]
    fn capacitor_energy_roundtrip() {
        let c = Farads::new(22.0);
        let v = Volts::new(2.7);
        let e = c.stored_energy(v);
        assert!((e.value() - 0.5 * 22.0 * 2.7 * 2.7).abs() < 1e-9);
        let v2 = c.voltage_at_energy(e);
        assert!((v2 - v).abs().value() < 1e-9);
        assert_eq!(c.voltage_at_energy(Joules::new(-1.0)), Volts::ZERO);
    }

    #[test]
    fn energy_from_power_and_time() {
        let e: Joules = Watts::from_milli(2.5) * Seconds::new(3600.0);
        assert!((e.value() - 9.0).abs() < 1e-9);
        let p: Watts = e / Seconds::new(3600.0);
        assert!((p.as_milli() - 2.5).abs() < 1e-12);
    }
}
