//! System G — MicroStrain EH-Link (2011).
//!
//! A commercial energy-harvesting wireless sensor node: the radio node
//! *is* the power unit (inflexible topology), fed from piezo, inductive,
//! radio or any external AC/DC source above 5 V, buffering into an
//! auxiliary supercap/thin-film store. No monitoring, no interface, no
//! intelligence. Quiescent: <32 µA.

use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_harvesters::HarvesterKind;
use mseh_node::MonitoringLevel;
use mseh_storage::{Battery, StorageKind};
use mseh_units::{Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "Microstrain EH-Link";

/// Builds the EH-Link with piezo, inductive and AC/DC inputs.
pub fn build() -> PowerUnit {
    let bus = Volts::new(4.1);
    let fe = |label: &str| {
        parts::front_end(
            label,
            bus,
            Watts::from_micro(10.0),
            Watts::from_milli(300.0),
        )
    };
    let piezo = parts::channel(
        harvesters::piezo(),
        Tracking::Fixed(Volts::new(2.0)),
        Protection::Schottky,
        fe("piezo input"),
    );
    let inductive = parts::channel(
        harvesters::electromagnetic(),
        Tracking::Fixed(Volts::new(0.5)),
        Protection::Schottky,
        fe("inductive input"),
    );
    let acdc = parts::channel(
        harvesters::acdc(),
        Tracking::Fixed(Volts::new(6.0)),
        Protection::Schottky,
        fe("AC/DC input"),
    );

    let mut cell = Battery::thin_film_50uah();
    cell.set_soc(0.5);

    PowerUnit::builder(NAME)
        .harvester_port(
            PortRequirement::harvester_port(
                "piezo",
                Volts::ZERO,
                Volts::new(20.0),
                vec![HarvesterKind::Piezoelectric],
            ),
            Some(piezo),
            true,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "inductive",
                Volts::ZERO,
                Volts::new(20.0),
                vec![HarvesterKind::Electromagnetic],
            ),
            Some(inductive),
            true,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "radio / AC-DC (>5 V)",
                Volts::new(5.0),
                Volts::new(20.0),
                vec![HarvesterKind::RfRectenna, HarvesterKind::ExternalAcDc],
            ),
            Some(acdc),
            true,
        )
        .store_port(
            PortRequirement::storage_port(
                "aux store",
                Volts::ZERO,
                Volts::new(5.5),
                vec![StorageKind::Supercapacitor, StorageKind::ThinFilm],
            ),
            Some(Box::new(cell)),
            StoreRole::PrimaryBuffer,
            true, // "Swappable Storage: Yes"
        )
        .supervisor(Supervisor {
            location: mseh_core::IntelligenceLocation::None,
            monitoring: MonitoringLevel::None,
            interface: mseh_core::InterfaceKind::None,
            // The integrated radio-node electronics keep a standing draw.
            overhead: Watts::from_micro(32.5),
        })
        .node_on_power_unit(true)
        .output_stage(Box::new(parts::output_buck_boost(
            Volts::new(3.3),
            Watts::from_micro(20.0),
        )))
        .commercial(true)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;
    use mseh_env::EnvConditions;
    use mseh_units::Seconds;

    #[test]
    fn table_row_matches_paper() {
        let r = classify(&build());
        assert_eq!(r.name, NAME);
        assert_eq!(r.counts_cell(), "3/1");
        assert!(!r.swappable_sensor_node); // "No" — node on power unit
        assert_eq!(r.swappable_storage, 1); // "Yes"
        assert_eq!(r.swappable_harvesters, 3); // "Yes, 3"
        assert_eq!(r.energy_monitoring, MonitoringLevel::None); // "No"
        assert!(!r.digital_interface);
        assert!(r.commercial); // "Yes"
                               // Quiescent: <32 µA.
        assert!(r.quiescent.as_micro() < 32.0, "quiescent {}", r.quiescent);
        assert!(r.quiescent.as_micro() > 10.0);
        // Harvesters: Piezo, Inductive, Radio, General AC/DC.
        let cell = r.harvesters_cell();
        for needle in ["Piezo", "Inductive", "Radio", "General AC/DC"] {
            assert!(cell.contains(needle), "{cell}");
        }
        // Storage: aux supercap/thin-film.
        let cell = r.storage_cell();
        assert!(cell.contains("Supercap"), "{cell}");
        assert!(cell.contains("Thin-film"), "{cell}");
    }

    #[test]
    fn bench_supply_powers_the_node() {
        // The AC/DC input is a commissioning feature: with the bench
        // supply present the node runs regardless of ambient energy.
        let mut unit = build();
        let env = EnvConditions::quiescent(Seconds::ZERO);
        let mut served = false;
        for _ in 0..30 {
            let r = unit.step(&env, Seconds::new(60.0), Watts::from_milli(5.0));
            if r.fully_served() {
                served = true;
            }
        }
        assert!(served, "AC/DC input never carried the load");
    }

    #[test]
    fn acdc_port_rejects_low_voltage_sources() {
        // "General AC/DC > 5 V": the port floor refuses a 3 V source.
        let mut unit = build();
        unit.detach_harvester(2);
        let rf = parts::channel(
            harvesters::rectenna(),
            Tracking::Fixed(Volts::new(1.0)),
            Protection::Schottky,
            parts::front_end(
                "rf",
                Volts::new(4.1),
                Watts::from_micro(10.0),
                Watts::from_milli(10.0),
            ),
        );
        assert!(unit.attach_harvester(2, rf, Volts::new(3.0), None).is_err());
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
        let micro = ledger_itemizes_the_idle_budget(SystemId::G);
        assert!(micro > 10.0 && micro < 32.0, "quiescent {micro} uA");
    }
}
