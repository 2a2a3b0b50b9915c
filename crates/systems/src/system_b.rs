//! System B — the Plug-and-Play Architecture (Weddell et al., SECON 2009;
//! Fig. 2 of the survey).
//!
//! Indoor platform, <1 mW budget. Six *shared* module slots accept any
//! energy device that arrives behind a conforming interface circuit and
//! electronic datasheet; conditioning lives on the modules, the output is
//! a low-quiescent linear regulator, and energy awareness runs on the
//! sensor node's own microcontroller. The default loadout attaches four
//! harvester modules (light, wind, thermal, vibration — Table I's kinds)
//! and two storage modules (supercap, NiMH); a lithium-primary module is
//! also supported and available via [`li_primary_module`]. Quiescent:
//! 7 µA.

use crate::interfaced::InterfacedStorage;
use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{
    ConditioningPlacement, ElectronicDatasheet, IntelligenceLocation, InterfaceKind,
    PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh_harvesters::HarvesterKind;
use mseh_node::MonitoringLevel;
use mseh_power::InputChannel;
use mseh_storage::{Battery, Storage, StorageKind, Supercap};
use mseh_units::{Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "Plug-and-Play";

/// The module-bus voltage every interface circuit presents.
pub const MODULE_BUS: Volts = Volts::new(4.1);

fn module_requirement(label: &str) -> PortRequirement {
    // A shared slot: any device, provided its interface circuit presents
    // the module bus.
    PortRequirement::any_in_window(label, Volts::ZERO, Volts::new(4.2))
}

fn module_front_end(label: &str) -> mseh_power::DcDcConverter {
    parts::front_end(
        label,
        MODULE_BUS,
        Watts::from_micro(3.5),
        Watts::from_milli(100.0),
    )
}

/// Builds one of the four standard harvester modules as a channel plus
/// datasheet.
pub fn harvester_module(kind: HarvesterKind) -> (InputChannel, ElectronicDatasheet) {
    let (harvester, tracking, rated_mw) = match kind {
        HarvesterKind::Photovoltaic => (
            harvesters::pv_indoor(),
            Tracking::Fixed(Volts::new(3.0)),
            0.5,
        ),
        HarvesterKind::WindTurbine => (harvesters::wind(), Tracking::Fixed(Volts::new(2.4)), 80.0),
        HarvesterKind::Thermoelectric => {
            (harvesters::teg(), Tracking::Fixed(Volts::new(0.25)), 25.0)
        }
        HarvesterKind::Piezoelectric => {
            (harvesters::piezo(), Tracking::Fixed(Volts::new(2.0)), 0.25)
        }
        other => panic!("no standard Plug-and-Play module for {other}"),
    };
    let channel = parts::channel(
        harvester,
        tracking,
        Protection::Schottky,
        module_front_end(&format!("{kind} module interface")),
    );
    let sheet =
        ElectronicDatasheet::harvester(format!("PNP-{kind}"), kind, Watts::from_milli(rated_mw));
    (channel, sheet)
}

/// The supercap storage module (pre-charged to mid-window).
pub fn supercap_module() -> (InterfacedStorage, ElectronicDatasheet) {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    let capacity = cap.capacity();
    let module = InterfacedStorage::module_4v1(Box::new(cap));
    let sheet = ElectronicDatasheet::storage(
        "PNP-SC22",
        StorageKind::Supercapacitor,
        Watts::from_milli(500.0),
        capacity,
    );
    (module, sheet)
}

/// The NiMH storage module (half charged).
pub fn nimh_module() -> (InterfacedStorage, ElectronicDatasheet) {
    let mut pack = Battery::nimh_aa_pair();
    pack.set_soc(0.5);
    let capacity = pack.capacity();
    let module = InterfacedStorage::module_4v1(Box::new(pack));
    let sheet = ElectronicDatasheet::storage(
        "PNP-NIMH2",
        StorageKind::NiMh,
        Watts::from_milli(300.0),
        capacity,
    );
    (module, sheet)
}

/// The lithium-primary backup module (supported; not in the default
/// loadout — the demo board has six slots).
pub fn li_primary_module() -> (InterfacedStorage, ElectronicDatasheet) {
    let cell = Battery::li_primary_aa();
    let capacity = cell.capacity();
    let module = InterfacedStorage::module_4v1(Box::new(cell));
    let sheet = ElectronicDatasheet::storage(
        "PNP-LIP",
        StorageKind::LiPrimary,
        Watts::from_milli(200.0),
        capacity,
    );
    (module, sheet)
}

/// Builds the Plug-and-Play architecture with its default six-module
/// loadout.
pub fn build() -> PowerUnit {
    let mut builder = PowerUnit::builder(NAME)
        .conditioning(ConditioningPlacement::EnergyModules)
        .datasheet_capable(true)
        .shared_ports(6)
        .supervisor(Supervisor {
            location: IntelligenceLocation::EmbeddedDevice,
            monitoring: MonitoringLevel::Full,
            // Table I: no *dedicated* digital management interface — the
            // node reads module datasheets directly over its own lines.
            interface: InterfaceKind::Analog,
            overhead: Watts::from_micro(4.0),
        })
        .output_stage(Box::new(parts::output_ldo(
            Volts::new(3.0),
            mseh_units::Amps::from_micro(1.0),
        )));

    for kind in [
        HarvesterKind::Photovoltaic,
        HarvesterKind::WindTurbine,
        HarvesterKind::Thermoelectric,
        HarvesterKind::Piezoelectric,
    ] {
        let (channel, _sheet) = harvester_module(kind);
        builder = builder.harvester_port(
            module_requirement(&format!("slot ({kind})")),
            Some(channel),
            true,
        );
    }
    let (sc, _) = supercap_module();
    let (nimh, _) = nimh_module();
    builder
        .store_port(
            module_requirement("slot (storage 1)"),
            Some(Box::new(sc)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .store_port(
            module_requirement("slot (storage 2)"),
            Some(Box::new(nimh)),
            StoreRole::SecondaryBuffer,
            true,
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::{classify, CompatError};
    use mseh_env::Environment;
    use mseh_units::Seconds;

    #[test]
    fn table_row_matches_paper() {
        let r = classify(&build());
        assert_eq!(r.name, NAME);
        assert_eq!(r.counts_cell(), "6 (shared)");
        assert!(r.swappable_sensor_node);
        assert_eq!(r.swappable_storage, 2); // every slot swappable
        assert_eq!(r.swappable_harvesters, 4);
        assert_eq!(r.swappable_storage + r.swappable_harvesters, 6); // "Yes, 6"
        assert_eq!(r.energy_monitoring, MonitoringLevel::Full); // "Yes"
        assert!(!r.digital_interface); // Table I: "No"
        assert!(!r.commercial);
        assert!(
            (r.quiescent.as_micro() - 7.0).abs() < 0.5,
            "quiescent {}",
            r.quiescent
        );
        // Harvesters: Light, Wind, Thermal, Vibration (piezo).
        let cell = r.harvesters_cell();
        for needle in ["Light", "Wind", "Thermal", "Piezo"] {
            assert!(cell.contains(needle), "{cell}");
        }
        // Storage: supercap + NiMH attached (Li primary also supported).
        let cell = r.storage_cell();
        assert!(cell.contains("Supercap"), "{cell}");
        assert!(cell.contains("NiMH"), "{cell}");
        assert_eq!(r.intelligence, IntelligenceLocation::EmbeddedDevice);
        assert_eq!(r.conditioning, ConditioningPlacement::EnergyModules);
        assert_eq!(
            r.exchangeability(),
            mseh_core::Exchangeability::CompletelyFlexible
        );
    }

    #[test]
    fn sub_milliwatt_operation_indoors() {
        let mut unit = build();
        let env = Environment::indoor_industrial(5);
        let mut total_harvest = 0.0;
        for minute in 0..(8 * 60) {
            let t = Seconds::from_hours(8.0) + Seconds::from_minutes(minute as f64);
            let r = unit.step(
                &env.conditions(t),
                Seconds::new(60.0),
                Watts::from_micro(300.0),
            );
            total_harvest += r.harvested.value();
        }
        let avg_mw = total_harvest / (8.0 * 3600.0) * 1e3;
        // "its power budget is <1 mW" — the indoor harvest is sub-mW but
        // sustains the 300 µW load.
        assert!(avg_mw < 5.0, "harvest {avg_mw} mW");
        assert!(avg_mw > 0.05, "harvest {avg_mw} mW");
    }

    #[test]
    fn swap_requires_interface_circuit_but_accepts_any_kind() {
        let mut unit = build();
        unit.detach_storage(1);
        // Without a datasheet the module is refused — the interface
        // circuit is mandatory.
        let (module, _sheet) = li_primary_module();
        assert_eq!(
            unit.attach_storage(1, Box::new(module), None).unwrap_err(),
            CompatError::MissingInterfaceCircuit
        );
        // With its datasheet the lithium-primary module (a completely
        // different chemistry) attaches, and the unit's recognized
        // capacity follows it — energy-awareness survives the swap.
        let (module, sheet) = li_primary_module();
        let expected = module.capacity();
        unit.attach_storage(1, Box::new(module), Some(&sheet))
            .expect("interface circuit present");
        assert_eq!(unit.store_ports()[1].recognized_capacity(), expected);
    }

    #[test]
    fn all_six_slots_are_swappable() {
        let unit = build();
        assert!(unit.harvester_ports().iter().all(|p| p.is_swappable()));
        assert!(unit.store_ports().iter().all(|p| p.is_swappable()));
    }

    #[test]
    #[should_panic(expected = "no standard Plug-and-Play module")]
    fn exotic_kinds_have_no_standard_module() {
        harvester_module(HarvesterKind::Hydro);
    }
}

#[cfg(test)]
mod ledger_tests {
    use crate::tests::ledger_itemizes_the_idle_budget;
    use crate::SystemId;

    #[test]
    fn quiescent_ledger_itemizes_the_idle_budget() {
        // Referenced to the output rail, the total reproduces Table I's
        // quiescent-current figure.
        let micro = ledger_itemizes_the_idle_budget(SystemId::B);
        assert!((micro - 7.0).abs() < 0.5, "quiescent {micro} uA");
    }
}
