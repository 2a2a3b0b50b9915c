//! System A — the Smart Power Unit (Magno et al., DATE 2012; Fig. 1 of
//! the survey).
//!
//! Outdoor platform, mW power budget: two PV inputs and a micro wind
//! turbine with perturb-and-observe MPPT, a supercapacitor working buffer
//! plus a LiPo rechargeable and a hydrogen fuel-cell backup, a buck-boost
//! 3.3 V output, and a dedicated supervisory MCU exposing a two-way I²C
//! interface. Energy hardware is soldered down (Table I: swappable
//! harvesters/storage — No). Quiescent: 5 µA.

use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{
    IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh_node::MonitoringLevel;
use mseh_storage::{Battery, FuelCell, Supercap};
use mseh_units::{Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "Smart Power Unit";

/// Builds the Smart Power Unit with its commissioning loadout.
///
/// The supercap starts at 1.8 V (mid-charge) so cold-start behaviour is
/// realistic without requiring a bootstrap phase.
pub fn build() -> PowerUnit {
    let bus = Volts::new(5.0);
    let fe = |label: &str| {
        parts::front_end(label, bus, Watts::from_micro(1.0), Watts::from_milli(500.0))
    };
    let pv_main = parts::channel(
        harvesters::pv_large(),
        Tracking::PerturbObserve,
        Protection::IdealDiode,
        fe("PV main front-end"),
    );
    let pv_aux = parts::channel(
        harvesters::pv_small(),
        Tracking::PerturbObserve,
        Protection::IdealDiode,
        fe("PV aux front-end"),
    );
    let wind = parts::channel(
        harvesters::wind(),
        Tracking::PerturbObserve,
        Protection::IdealDiode,
        fe("wind front-end"),
    );

    let mut supercap = Supercap::edlc_22f();
    supercap.set_voltage(Volts::new(1.8));
    let mut lipo = Battery::lipo_400mah();
    lipo.set_soc(0.5);

    PowerUnit::builder(NAME)
        .harvester_port(
            PortRequirement::harvester_port(
                "PV main",
                Volts::ZERO,
                Volts::new(8.0),
                vec![mseh_harvesters::HarvesterKind::Photovoltaic],
            ),
            Some(pv_main),
            false,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "PV aux",
                Volts::ZERO,
                Volts::new(8.0),
                vec![mseh_harvesters::HarvesterKind::Photovoltaic],
            ),
            Some(pv_aux),
            false,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "wind",
                Volts::ZERO,
                Volts::new(12.0),
                vec![mseh_harvesters::HarvesterKind::WindTurbine],
            ),
            Some(wind),
            false,
        )
        .store_port(
            PortRequirement::any_in_window("supercap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(supercap)),
            StoreRole::PrimaryBuffer,
            false,
        )
        .store_port(
            PortRequirement::any_in_window("LiPo", Volts::ZERO, Volts::new(4.3)),
            Some(Box::new(lipo)),
            StoreRole::SecondaryBuffer,
            false,
        )
        .store_port(
            PortRequirement::any_in_window("fuel cell", Volts::ZERO, Volts::new(4.0)),
            Some(Box::new(FuelCell::hydrogen_cartridge())),
            StoreRole::Backup,
            false,
        )
        .supervisor(Supervisor {
            location: IntelligenceLocation::PowerUnit,
            monitoring: MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: true },
            // Budgeted so the platform's total idle draw lands on
            // Table I's 5 µA at the 3.3 V rail.
            overhead: Watts::from_micro(6.8),
        })
        .output_stage(Box::new(parts::output_buck_boost(
            Volts::new(3.3),
            Watts::from_micro(4.0),
        )))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;
    use mseh_env::Environment;
    use mseh_units::Seconds;

    #[test]
    fn table_row_matches_paper() {
        let r = classify(&build());
        assert_eq!(r.name, NAME);
        assert_eq!(r.counts_cell(), "3/3");
        assert!(r.swappable_sensor_node);
        assert_eq!(r.swappable_storage, 0); // "No"
        assert_eq!(r.swappable_harvesters, 0); // "No"
        assert_eq!(r.energy_monitoring, MonitoringLevel::Full); // "Yes"
        assert!(r.digital_interface); // "Yes"
        assert!(!r.commercial);
        // Quiescent: 5 µA.
        assert!(
            (r.quiescent.as_micro() - 5.0).abs() < 0.5,
            "quiescent {}",
            r.quiescent
        );
        // Harvesters: Light, Wind.
        assert_eq!(r.harvesters_cell(), "Light, Wind");
        // Storage: fuel cell, Li-ion, supercap.
        let cell = r.storage_cell();
        for needle in ["Fuel cell", "Li-ion rech. batt.", "Supercap"] {
            assert!(cell.contains(needle), "{cell}");
        }
        assert_eq!(r.intelligence, IntelligenceLocation::PowerUnit);
    }

    #[test]
    fn harvests_milliwatts_outdoors_at_noon() {
        let mut unit = build();
        let env = Environment::outdoor_temperate(11);
        let mut last = None;
        for minute in 0..120 {
            let t = Seconds::from_hours(11.0) + Seconds::from_minutes(minute as f64);
            last = Some(unit.step(
                &env.conditions(t),
                Seconds::new(60.0),
                Watts::from_milli(2.0),
            ));
        }
        let report = last.expect("ran");
        let avg_harvest_mw = report.harvested.value() / 60.0 * 1e3;
        // "its power budget is of the order of a few milliwatts" — the
        // harvest at noon comfortably exceeds it.
        assert!(avg_harvest_mw > 2.0, "harvest {avg_harvest_mw} mW");
        assert!(report.fully_served());
    }

    #[test]
    fn fuel_cell_is_the_backup_of_last_resort() {
        let unit = build();
        let backup = unit.store_ports()[2].device().expect("fuel cell");
        assert_eq!(backup.kind(), mseh_storage::StorageKind::FuelCell);
        assert_eq!(unit.store_ports()[2].role(), StoreRole::Backup);
    }

    #[test]
    fn hardware_is_soldered_down() {
        let mut unit = build();
        // Detaching works (bench rework), but re-attachment to a
        // non-swappable port is refused — the survey's "soldered" level.
        unit.detach_harvester(0);
        let ch = parts::channel(
            harvesters::pv_small(),
            Tracking::PerturbObserve,
            Protection::IdealDiode,
            parts::front_end(
                "x",
                Volts::new(5.0),
                Watts::from_micro(1.0),
                Watts::from_milli(100.0),
            ),
        );
        assert!(unit.attach_harvester(0, ch, Volts::new(6.0), None).is_err());
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
        let micro = ledger_itemizes_the_idle_budget(SystemId::A);
        assert!((micro - 5.0).abs() < 0.5, "quiescent {micro} uA");
    }
}
