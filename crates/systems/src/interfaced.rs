//! Storage modules behind their own interface circuits — the defining
//! mechanism of the Plug-and-Play architecture (System B).
//!
//! "System B has a power conditioning board for each energy
//! harvester/storage device; these boards act as interfaces between the
//! energy devices and the power unit, meaning that voltages can be
//! converted and devices can be swapped easily." An [`InterfacedStorage`]
//! wraps any [`Storage`] device and presents the module-bus voltage to
//! the power unit, at the price of interface conversion losses and a
//! small standing draw on the wrapped cell.

use mseh_storage::{Storage, StorageKind};
use mseh_units::{Efficiency, Joules, Seconds, Volts, Watts};

/// A storage device behind a module interface circuit.
///
/// The wrapper presents a constant bus voltage while energy remains, so
/// the host's output stage sees a stable rail regardless of the inner
/// cell's chemistry — which is exactly what lets System B accept *any*
/// storage device without retuning its input conditioning.
///
/// # Examples
///
/// ```
/// use mseh_systems::InterfacedStorage;
/// use mseh_storage::{Supercap, Storage};
/// use mseh_units::{Volts, Watts, Seconds};
///
/// let mut cap = Supercap::edlc_22f();
/// cap.set_voltage(Volts::new(2.5));
/// let module = InterfacedStorage::module_4v1(Box::new(cap));
/// assert_eq!(module.voltage(), Volts::new(4.1));
/// ```
pub struct InterfacedStorage {
    inner: Box<dyn Storage>,
    name: String,
    bus_voltage: Volts,
    /// Interface conversion efficiency, applied per transfer direction.
    eta: Efficiency,
    /// Standing draw of the interface circuit, fed from the inner cell.
    quiescent: Watts,
    losses: Joules,
}

impl InterfacedStorage {
    /// Wraps `inner` behind an interface circuit.
    ///
    /// # Panics
    ///
    /// Panics if the bus voltage is not positive or the efficiency is
    /// zero.
    pub fn new(
        inner: Box<dyn Storage>,
        bus_voltage: Volts,
        eta: Efficiency,
        quiescent: Watts,
    ) -> Self {
        assert!(bus_voltage.value() > 0.0, "bus voltage must be positive");
        assert!(eta.value() > 0.0, "interface efficiency must be positive");
        let name = format!("{} (interfaced)", inner.name());
        Self {
            inner,
            name,
            bus_voltage,
            eta,
            quiescent,
            losses: Joules::ZERO,
        }
    }

    /// The standard Plug-and-Play module interface: 4.1 V bus, 85 %
    /// conversion, 0.5 µW standing draw.
    pub fn module_4v1(inner: Box<dyn Storage>) -> Self {
        Self::new(
            inner,
            Volts::new(4.1),
            Efficiency::saturating(0.85),
            Watts::from_micro(0.5),
        )
    }

    /// The wrapped device.
    pub fn inner(&self) -> &dyn Storage {
        self.inner.as_ref()
    }
}

impl Storage for InterfacedStorage {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.inner.kind()
    }

    fn voltage(&self) -> Volts {
        if self.inner.is_depleted() {
            Volts::ZERO
        } else {
            self.bus_voltage
        }
    }

    fn stored_energy(&self) -> Joules {
        self.inner.stored_energy()
    }

    fn capacity(&self) -> Joules {
        self.inner.capacity()
    }

    fn min_voltage(&self) -> Volts {
        Volts::ZERO
    }

    fn max_voltage(&self) -> Volts {
        self.bus_voltage
    }

    fn max_charge_power(&self) -> Watts {
        self.inner.max_charge_power() / self.eta.value()
    }

    fn max_discharge_power(&self) -> Watts {
        self.inner.max_discharge_power() * self.eta.value()
    }

    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        if power.value() <= 0.0 || dt.value() <= 0.0 {
            return Joules::ZERO;
        }
        // The interface converts bus power to cell power at η.
        let inner_taken = self.inner.charge(power * self.eta, dt);
        let bus_taken = inner_taken / self.eta.value();
        self.losses += bus_taken - inner_taken;
        bus_taken
    }

    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        if power.value() <= 0.0 || dt.value() <= 0.0 {
            return Joules::ZERO;
        }
        // Delivering `power` at the bus needs `power/η` from the cell.
        let inner_got = self.inner.discharge(power / self.eta.value(), dt);
        let delivered = inner_got * self.eta.value();
        self.losses += inner_got - delivered;
        delivered
    }

    fn idle(&mut self, dt: Seconds) {
        self.inner.idle(dt);
        // The interface circuit feeds its own housekeeping from the cell.
        let burned = self.inner.discharge(self.quiescent, dt);
        self.losses += burned;
    }

    fn losses(&self) -> Joules {
        self.inner.losses() + self.losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_storage::{Battery, Supercap};

    fn charged_module() -> InterfacedStorage {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        InterfacedStorage::module_4v1(Box::new(cap))
    }

    #[test]
    fn presents_bus_voltage_until_depleted() {
        let mut module = charged_module();
        assert_eq!(module.voltage(), Volts::new(4.1));
        // Drain it completely.
        for _ in 0..100_000 {
            module.discharge(Watts::new(1.0), Seconds::new(10.0));
        }
        assert_eq!(module.voltage(), Volts::ZERO);
        assert!(module.is_depleted());
    }

    #[test]
    fn any_chemistry_presents_the_same_bus() {
        let a = InterfacedStorage::module_4v1(Box::new(Supercap::edlc_22f()));
        let b = InterfacedStorage::module_4v1(Box::new(Battery::nimh_aa_pair()));
        assert_eq!(a.max_voltage(), b.max_voltage());
        assert_ne!(a.kind(), b.kind());
    }

    #[test]
    fn interface_losses_accrue_both_directions() {
        let mut module = charged_module();
        let taken = module.charge(Watts::from_milli(100.0), Seconds::new(60.0));
        let delivered = module.discharge(Watts::from_milli(100.0), Seconds::new(30.0));
        assert!(taken.value() > 0.0 && delivered.value() > 0.0);
        assert!(module.losses().value() > 0.0);
    }

    #[test]
    fn conservation_holds_through_the_interface() {
        let mut module = InterfacedStorage::module_4v1(Box::new(Supercap::edlc_22f()));
        let initial = module.stored_energy();
        let mut total_in = Joules::ZERO;
        let mut total_out = Joules::ZERO;
        for i in 0..50 {
            if i % 3 == 0 {
                total_in += module.charge(Watts::from_milli(200.0), Seconds::new(60.0));
            } else if i % 3 == 1 {
                total_out += module.discharge(Watts::from_milli(50.0), Seconds::new(60.0));
            } else {
                module.idle(Seconds::new(600.0));
            }
        }
        let balance = initial.value() + total_in.value()
            - total_out.value()
            - module.losses().value()
            - module.stored_energy().value();
        let scale = (initial.value() + total_in.value()).max(1.0);
        assert!(balance.abs() < 1e-6 * scale, "residual {balance}");
    }

    #[test]
    fn quiescent_drains_the_cell_over_time() {
        let mut module = charged_module();
        let before = module.stored_energy();
        module.idle(Seconds::from_days(2.0));
        assert!(module.stored_energy() < before);
    }

    #[test]
    fn inner_access() {
        let module = charged_module();
        assert!(module.inner().name().contains("EDLC"));
    }
}
