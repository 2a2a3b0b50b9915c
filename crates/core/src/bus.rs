//! The digital energy-management bus: the I²C-style link between the
//! embedded device and its energy hardware (System A's SPU interface,
//! System B's module bus).
//!
//! Requests and responses are modelled as values; a transaction counter
//! and per-transaction energy cost make management *traffic* a measurable
//! overhead — experiment E8 compares intelligence placements partly on
//! this.

use crate::power_unit::PowerUnit;
use mseh_node::EnergyStatus;
use mseh_units::{Joules, Volts};

/// A request the embedded device can put on the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BusRequest {
    /// Read the store voltage register.
    ReadStoreVoltage,
    /// Read the full energy status (SoC, stored energy, harvest power).
    ReadEnergyStatus,
    /// Ping a slot to ask whether a module is present.
    Enumerate {
        /// Storage-port index.
        slot: usize,
    },
    /// Move energy between storage devices (two-way interfaces only —
    /// the control capability the survey attributes to System A's SPU).
    TransferEnergy {
        /// Source storage-port index.
        from: usize,
        /// Destination storage-port index.
        to: usize,
        /// Amount to move (bus-side).
        amount: mseh_units::Joules,
    },
}

/// The response to a [`BusRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum BusResponse {
    /// The store voltage.
    StoreVoltage(Volts),
    /// The (monitoring-clamped) energy status.
    EnergyStatus(EnergyStatus),
    /// Whether a module answered the enumeration ping.
    Present(bool),
    /// Energy actually deposited by a transfer command.
    Transferred(mseh_units::Joules),
    /// The addressed register/slot does not exist or the unit's interface
    /// does not implement the request.
    Nak,
}

/// A bus master wrapping a [`PowerUnit`], tracking transaction count and
/// energy cost.
///
/// # Examples
///
/// ```
/// use mseh_core::{EnergyBus, BusRequest, BusResponse};
/// # use mseh_core::{PowerUnit, StoreRole, PortRequirement, Supervisor};
/// # use mseh_core::{InterfaceKind, IntelligenceLocation};
/// # use mseh_node::MonitoringLevel;
/// # use mseh_power::DcDcConverter;
/// # use mseh_storage::Supercap;
/// # use mseh_units::{Volts, Watts};
/// # let unit = PowerUnit::builder("demo")
/// #     .store_port(
/// #         PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
/// #         Some(Box::new(Supercap::edlc_22f())),
/// #         StoreRole::PrimaryBuffer,
/// #         true,
/// #     )
/// #     .supervisor(Supervisor {
/// #         location: IntelligenceLocation::PowerUnit,
/// #         monitoring: MonitoringLevel::Full,
/// #         interface: InterfaceKind::Digital { two_way: true },
/// #         overhead: Watts::from_micro(10.0),
/// #     })
/// #     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
/// #     .build();
/// let mut bus = EnergyBus::new(unit);
/// match bus.transact(BusRequest::ReadStoreVoltage) {
///     BusResponse::StoreVoltage(v) => assert!(v.value() >= 0.0),
///     other => panic!("unexpected {other:?}"),
/// }
/// assert_eq!(bus.transaction_count(), 1);
/// ```
#[derive(Debug)]
pub struct EnergyBus {
    unit: PowerUnit,
    transactions: u64,
    /// Energy per transaction (bus drivers + register logic).
    cost_per_transaction: Joules,
}

impl EnergyBus {
    /// Energy cost of one transaction: ≈5 µJ (a short I²C exchange at
    /// 100 kHz including MCU wake).
    pub const DEFAULT_TRANSACTION_COST: Joules = Joules::new(5e-6);

    /// Wraps a unit in a bus master.
    pub fn new(unit: PowerUnit) -> Self {
        Self {
            unit,
            transactions: 0,
            cost_per_transaction: Self::DEFAULT_TRANSACTION_COST,
        }
    }

    /// Access to the wrapped unit.
    pub fn unit(&self) -> &PowerUnit {
        &self.unit
    }

    /// Mutable access to the wrapped unit (for stepping the simulation).
    pub fn unit_mut(&mut self) -> &mut PowerUnit {
        &mut self.unit
    }

    /// Transactions completed so far.
    pub fn transaction_count(&self) -> u64 {
        self.transactions
    }

    /// Total bus energy spent on management traffic.
    pub fn traffic_energy(&self) -> Joules {
        self.cost_per_transaction * self.transactions as f64
    }

    /// Performs one transaction.
    ///
    /// Requests beyond the unit's interface capability return
    /// [`BusResponse::Nak`] — a unit without a digital interface NAKs
    /// everything except the analog store-voltage line, mirroring the
    /// capability rows of Table I.
    pub fn transact(&mut self, request: BusRequest) -> BusResponse {
        self.transactions += 1;
        let digital = self.unit.supervisor().interface.is_digital();
        match request {
            BusRequest::ReadStoreVoltage => match self.unit.energy_status().store_voltage {
                Some(v) => BusResponse::StoreVoltage(v),
                None => BusResponse::Nak,
            },
            BusRequest::ReadEnergyStatus => {
                if !digital {
                    return BusResponse::Nak;
                }
                BusResponse::EnergyStatus(self.unit.energy_status())
            }
            BusRequest::Enumerate { slot } => {
                if !digital {
                    return BusResponse::Nak;
                }
                match self.unit.store_ports().get(slot) {
                    Some(port) => BusResponse::Present(port.device().is_some()),
                    None => BusResponse::Nak,
                }
            }
            BusRequest::TransferEnergy { from, to, amount } => {
                // Control commands need a *two-way* digital interface.
                let two_way = matches!(
                    self.unit.supervisor().interface,
                    crate::taxonomy::InterfaceKind::Digital { two_way: true }
                );
                if !two_way {
                    return BusResponse::Nak;
                }
                match self.unit.transfer_energy(from, to, amount) {
                    Ok(moved) => BusResponse::Transferred(moved),
                    Err(_) => BusResponse::Nak,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::PortRequirement;
    use crate::power_unit::{StoreRole, Supervisor};
    use crate::taxonomy::{IntelligenceLocation, InterfaceKind};
    use mseh_node::MonitoringLevel;
    use mseh_power::DcDcConverter;
    use mseh_storage::Supercap;
    use mseh_units::{Volts, Watts};

    fn unit(interface: InterfaceKind, monitoring: MonitoringLevel) -> PowerUnit {
        PowerUnit::builder("bus test")
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .supervisor(Supervisor {
                location: IntelligenceLocation::PowerUnit,
                monitoring,
                interface,
                overhead: Watts::from_micro(10.0),
            })
            .build()
    }

    #[test]
    fn digital_unit_answers_everything() {
        let mut bus = EnergyBus::new(unit(
            InterfaceKind::Digital { two_way: true },
            MonitoringLevel::Full,
        ));
        assert!(matches!(
            bus.transact(BusRequest::ReadStoreVoltage),
            BusResponse::StoreVoltage(_)
        ));
        assert!(matches!(
            bus.transact(BusRequest::ReadEnergyStatus),
            BusResponse::EnergyStatus(_)
        ));
        assert_eq!(
            bus.transact(BusRequest::Enumerate { slot: 0 }),
            BusResponse::Present(true)
        );
        assert_eq!(bus.transaction_count(), 3);
        assert!((bus.traffic_energy().value() - 3.0 * 5e-6).abs() < 1e-12);
    }

    #[test]
    fn analog_only_unit_naks_digital_requests() {
        let mut bus = EnergyBus::new(unit(InterfaceKind::Analog, MonitoringLevel::StoreVoltage));
        assert!(matches!(
            bus.transact(BusRequest::ReadStoreVoltage),
            BusResponse::StoreVoltage(_)
        ));
        assert_eq!(bus.transact(BusRequest::ReadEnergyStatus), BusResponse::Nak);
    }

    #[test]
    fn blind_unit_naks_even_voltage() {
        let mut bus = EnergyBus::new(unit(InterfaceKind::None, MonitoringLevel::None));
        assert_eq!(bus.transact(BusRequest::ReadStoreVoltage), BusResponse::Nak);
    }

    #[test]
    fn two_way_interface_moves_energy_between_stores() {
        use crate::power_unit::StoreRole;
        use mseh_storage::Battery;
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let mut lipo = Battery::lipo_400mah();
        lipo.set_soc(0.1);
        let unit = PowerUnit::builder("transfer test")
            .store_port(
                PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(cap)),
                StoreRole::PrimaryBuffer,
                true,
            )
            .store_port(
                PortRequirement::any_in_window("batt", Volts::ZERO, Volts::new(4.3)),
                Some(Box::new(lipo)),
                StoreRole::SecondaryBuffer,
                true,
            )
            .supervisor(Supervisor {
                location: IntelligenceLocation::PowerUnit,
                monitoring: MonitoringLevel::Full,
                interface: InterfaceKind::Digital { two_way: true },
                overhead: Watts::from_micro(10.0),
            })
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
        let mut bus = EnergyBus::new(unit);
        let cap_before = bus.unit().store_ports()[0]
            .device()
            .expect("cap")
            .stored_energy();
        let batt_before = bus.unit().store_ports()[1]
            .device()
            .expect("batt")
            .stored_energy();
        let moved = match bus.transact(BusRequest::TransferEnergy {
            from: 0,
            to: 1,
            amount: mseh_units::Joules::new(0.5),
        }) {
            BusResponse::Transferred(j) => j,
            other => panic!("unexpected {other:?}"),
        };
        assert!(moved.value() > 0.0, "{moved}");
        let cap_after = bus.unit().store_ports()[0]
            .device()
            .expect("cap")
            .stored_energy();
        let batt_after = bus.unit().store_ports()[1]
            .device()
            .expect("batt")
            .stored_energy();
        assert!(cap_after < cap_before);
        assert!(batt_after > batt_before);
        // The path is lossy: deposited < drawn.
        assert!(moved < cap_before - cap_after);
        // Bad addressing NAKs.
        assert_eq!(
            bus.transact(BusRequest::TransferEnergy {
                from: 0,
                to: 0,
                amount: mseh_units::Joules::new(1.0),
            }),
            BusResponse::Nak
        );
    }

    #[test]
    fn one_way_interface_refuses_control_commands() {
        let mut bus = EnergyBus::new(unit(
            InterfaceKind::Digital { two_way: false },
            MonitoringLevel::Full,
        ));
        assert_eq!(
            bus.transact(BusRequest::TransferEnergy {
                from: 0,
                to: 1,
                amount: mseh_units::Joules::new(1.0),
            }),
            BusResponse::Nak
        );
    }

    #[test]
    fn missing_slots_nak() {
        let mut bus = EnergyBus::new(unit(
            InterfaceKind::Digital { two_way: false },
            MonitoringLevel::Full,
        ));
        assert_eq!(
            bus.transact(BusRequest::Enumerate { slot: 9 }),
            BusResponse::Nak
        );
    }
}
