//! System F — Cymbet EnerChip EP Universal Energy Harvester Eval Kit
//! (EVAL-09, 2012).
//!
//! Commercial universal evaluation kit: four swappable inputs (light,
//! radio, thermal, vibration) with the documented input-window split —
//! certain inputs must stay below 4.06 V, others must sit between 4.06 V
//! and 20 V — charging a soldered thin-film battery with an optional
//! external lithium cell. A dedicated controller provides energy
//! monitoring and a digital interface. Quiescent: 20 µA.

use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{
    IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh_harvesters::HarvesterKind;
use mseh_node::MonitoringLevel;
use mseh_storage::{Battery, StorageKind};
use mseh_units::{Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "Cymbet EVAL-09";

/// The documented low-input window ceiling: 4.06 V.
pub const LOW_WINDOW_CEILING: Volts = Volts::new(4.06);

/// Builds the EVAL-09 with light, radio, thermal and vibration inputs.
pub fn build() -> PowerUnit {
    let bus = Volts::new(4.1);
    let fe = |label: &str| {
        parts::front_end(label, bus, Watts::from_micro(6.0), Watts::from_milli(200.0))
    };
    let light = parts::channel(
        harvesters::pv_indoor(),
        Tracking::FractionalVocPv,
        Protection::Schottky,
        fe("light input"),
    );
    let radio = parts::channel(
        harvesters::rectenna(),
        Tracking::Fixed(Volts::new(1.0)),
        Protection::Schottky,
        fe("radio input"),
    );
    let thermal = parts::channel(
        harvesters::teg(),
        Tracking::FractionalVocThevenin,
        Protection::Schottky,
        fe("thermal input"),
    );
    let vibration = parts::channel(
        harvesters::piezo(),
        Tracking::Fixed(Volts::new(2.0)),
        Protection::Schottky,
        fe("vibration input"),
    );

    let mut cell = Battery::thin_film_50uah();
    cell.set_soc(0.5);

    PowerUnit::builder(NAME)
        // Low-window inputs: "certain inputs must be below 4.06 V".
        .harvester_port(
            PortRequirement::harvester_port(
                "CH1 (<4.06 V)",
                Volts::ZERO,
                LOW_WINDOW_CEILING,
                vec![HarvesterKind::Thermoelectric, HarvesterKind::RfRectenna],
            ),
            Some(thermal),
            true,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "CH2 (<4.06 V)",
                Volts::ZERO,
                LOW_WINDOW_CEILING,
                vec![HarvesterKind::RfRectenna, HarvesterKind::Photovoltaic],
            ),
            Some(radio),
            true,
        )
        // High-window inputs: "others must be between 4.06 V and 20 V".
        .harvester_port(
            PortRequirement::harvester_port(
                "CH3 (4.06–20 V)",
                LOW_WINDOW_CEILING,
                Volts::new(20.0),
                vec![HarvesterKind::Photovoltaic, HarvesterKind::Piezoelectric],
            ),
            Some(light),
            true,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "CH4 (4.06–20 V)",
                LOW_WINDOW_CEILING,
                Volts::new(20.0),
                vec![HarvesterKind::Piezoelectric, HarvesterKind::Electromagnetic],
            ),
            Some(vibration),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("EnerChip (soldered)", Volts::ZERO, Volts::new(4.2)),
            Some(Box::new(cell)),
            StoreRole::PrimaryBuffer,
            false,
        )
        .store_port(
            PortRequirement::storage_port(
                "optional ext. Li battery",
                Volts::ZERO,
                Volts::new(4.3),
                vec![StorageKind::LiIon, StorageKind::LiPrimary],
            ),
            None, // optional, unpopulated by default
            StoreRole::SecondaryBuffer,
            true,
        )
        .supervisor(Supervisor {
            location: IntelligenceLocation::PowerUnit,
            monitoring: MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: false },
            overhead: Watts::from_micro(30.0),
        })
        .output_stage(Box::new(parts::output_buck_boost(
            Volts::new(3.3),
            Watts::from_micro(12.0),
        )))
        .commercial(true)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;

    #[test]
    fn table_row_matches_paper() {
        let r = classify(&build());
        assert_eq!(r.name, NAME);
        assert_eq!(r.counts_cell(), "4/2");
        assert!(r.swappable_sensor_node); // "Yes"
        assert_eq!(r.swappable_storage, 1); // "Yes, battery"
        assert_eq!(r.swappable_harvesters, 4); // "Yes, 4"
        assert_eq!(r.energy_monitoring, MonitoringLevel::Full); // "Yes"
        assert!(r.digital_interface); // "Yes"
        assert!(r.commercial); // "Yes"
                               // Quiescent: 20 µA.
        assert!(
            (r.quiescent.as_micro() - 20.0).abs() < 2.0,
            "quiescent {}",
            r.quiescent
        );
        // Harvesters: Light, Radio, Thermal, Vibration.
        let cell = r.harvesters_cell();
        for needle in ["Light", "Radio", "Thermal", "Piezo"] {
            assert!(cell.contains(needle), "{cell}");
        }
        // Storage: thin-film + optional external lithium.
        let cell = r.storage_cell();
        assert!(cell.contains("Thin-film"), "{cell}");
        assert!(cell.contains("Li"), "{cell}");
        assert_eq!(r.intelligence, IntelligenceLocation::PowerUnit);
    }

    #[test]
    fn input_window_split_is_enforced() {
        // The survey's System F example: a 12 V source is refused on a
        // low-window channel and accepted on a high-window one.
        let mut unit = build();
        unit.detach_harvester(0); // CH1, <4.06 V
        unit.detach_harvester(2); // CH3, 4.06–20 V
        let make_rf = || {
            parts::channel(
                harvesters::rectenna(),
                Tracking::Fixed(Volts::new(1.0)),
                Protection::Schottky,
                parts::front_end(
                    "rf",
                    Volts::new(4.1),
                    Watts::from_micro(6.0),
                    Watts::from_milli(10.0),
                ),
            )
        };
        // A 12 V-rated device violates CH1's window...
        assert!(unit
            .attach_harvester(0, make_rf(), Volts::new(12.0), None)
            .is_err());
        // ...and its kind is refused on CH3 even at a legal voltage.
        assert!(unit
            .attach_harvester(2, make_rf(), Volts::new(12.0), None)
            .is_err());
        // A 2 V rectenna fits CH1.
        assert!(unit
            .attach_harvester(0, make_rf(), Volts::new(2.0), None)
            .is_ok());
    }

    #[test]
    fn optional_battery_slot_ships_empty() {
        let unit = build();
        assert!(unit.store_ports()[1].device().is_none());
        assert!(unit.store_ports()[1].is_swappable());
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
        let micro = ledger_itemizes_the_idle_budget(SystemId::F);
        assert!((micro - 20.0).abs() < 2.0, "quiescent {micro} uA");
    }
}
