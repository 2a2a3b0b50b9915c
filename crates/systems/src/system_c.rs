//! System C — AmbiMax (Park & Chou, SECON 2006).
//!
//! Autonomous multi-supply platform: per-source supercapacitor reservoirs
//! with autonomous (analog) MPPT, light + wind inputs, a Li-poly battery
//! behind the caps. No energy monitoring, no digital interface, no
//! on-board intelligence. Quiescent: <5 µA.

use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_harvesters::HarvesterKind;
use mseh_storage::{Battery, StorageKind, Supercap};
use mseh_units::{Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "AmbiMax";

/// Builds AmbiMax with its PV + wind loadout.
pub fn build() -> PowerUnit {
    let bus = Volts::new(5.0);
    let fe = |label: &str| {
        parts::front_end(label, bus, Watts::from_micro(2.5), Watts::from_milli(400.0))
    };
    let pv = parts::channel(
        harvesters::pv_small(),
        Tracking::FractionalVocPv,
        Protection::Schottky,
        fe("PV MPPT"),
    );
    let wind = parts::channel(
        harvesters::wind(),
        Tracking::FractionalVocThevenin,
        Protection::Schottky,
        fe("wind MPPT"),
    );

    let mut supercap = Supercap::edlc_22f();
    supercap.set_voltage(Volts::new(1.8));
    let mut lipo = Battery::lipo_400mah();
    lipo.set_soc(0.5);

    PowerUnit::builder(NAME)
        .harvester_port(
            PortRequirement::harvester_port(
                "PV",
                Volts::ZERO,
                Volts::new(8.0),
                vec![HarvesterKind::Photovoltaic],
            ),
            Some(pv),
            true,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "wind",
                Volts::ZERO,
                Volts::new(12.0),
                vec![HarvesterKind::WindTurbine],
            ),
            Some(wind),
            true,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "aux",
                Volts::ZERO,
                Volts::new(8.0),
                vec![HarvesterKind::Photovoltaic, HarvesterKind::WindTurbine],
            ),
            None,
            true,
        )
        .store_port(
            PortRequirement::any_in_window("supercap reservoir", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(supercap)),
            StoreRole::PrimaryBuffer,
            false,
        )
        .store_port(
            PortRequirement::storage_port(
                "battery",
                Volts::ZERO,
                Volts::new(4.3),
                vec![StorageKind::LiIon, StorageKind::NiMh],
            ),
            Some(Box::new(lipo)),
            StoreRole::SecondaryBuffer,
            true,
        )
        .supervisor(Supervisor::none())
        .output_stage(Box::new(parts::output_buck_boost(
            Volts::new(3.3),
            Watts::from_micro(5.0),
        )))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;
    use mseh_node::MonitoringLevel;
    use mseh_storage::Storage;

    #[test]
    fn table_row_matches_paper() {
        let r = classify(&build());
        assert_eq!(r.name, NAME);
        assert_eq!(r.counts_cell(), "3/2");
        assert!(r.swappable_sensor_node); // "Yes"
        assert_eq!(r.swappable_storage, 1); // "Yes, battery"
        assert_eq!(r.swappable_harvesters, 3); // "Yes, 3"
        assert_eq!(r.energy_monitoring, MonitoringLevel::None); // "No"
        assert!(!r.digital_interface); // "No"
        assert!(!r.commercial);
        // Quiescent: <5 µA.
        assert!(r.quiescent.as_micro() < 5.0, "quiescent {}", r.quiescent);
        assert!(r.quiescent.as_micro() > 1.0);
        assert_eq!(r.harvesters_cell(), "Light, Wind");
        let cell = r.storage_cell();
        assert!(cell.contains("Supercap"), "{cell}");
        assert!(cell.contains("Li-ion"), "{cell}");
        assert!(cell.contains("NiMH"), "{cell}");
        assert_eq!(r.intelligence, mseh_core::IntelligenceLocation::None);
    }

    #[test]
    fn battery_swap_leaves_unit_unaware() {
        // "the software will not automatically be able to recognise any
        // change in capacity" — AmbiMax has no datasheet mechanism.
        let mut unit = build();
        let commissioned = unit.store_ports()[1].recognized_capacity();
        unit.detach_storage(1);
        let mut bigger = Battery::nimh_aa_pair();
        bigger.set_soc(0.5);
        let real = bigger.capacity();
        unit.attach_storage(1, Box::new(bigger), None)
            .expect("chemistry allowed");
        assert_eq!(unit.store_ports()[1].recognized_capacity(), commissioned);
        assert_ne!(real, commissioned);
    }

    #[test]
    fn aux_port_refuses_foreign_kinds() {
        let mut unit = build();
        let teg = parts::channel(
            harvesters::teg(),
            Tracking::FractionalVocThevenin,
            Protection::Schottky,
            parts::front_end(
                "x",
                Volts::new(5.0),
                Watts::from_micro(1.0),
                Watts::from_milli(50.0),
            ),
        );
        assert!(unit
            .attach_harvester(2, teg, Volts::new(1.0), None)
            .is_err());
        let pv = parts::channel(
            harvesters::pv_small(),
            Tracking::FractionalVocPv,
            Protection::Schottky,
            parts::front_end(
                "y",
                Volts::new(5.0),
                Watts::from_micro(1.0),
                Watts::from_milli(50.0),
            ),
        );
        assert!(unit.attach_harvester(2, pv, Volts::new(6.0), None).is_ok());
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
        let micro = ledger_itemizes_the_idle_budget(SystemId::C);
        assert!(micro > 1.0 && micro < 5.0, "quiescent {micro} uA");
    }
}
