//! System E — Maxim MAX17710 Evaluation Kit (2011).
//!
//! A commercial nano-power harvesting manager: one fixed light input plus
//! one selectable input (piezo/mechanical or radio), charging a soldered
//! thin-film cell. No monitoring, no interface, no intelligence — but a
//! class-leading sub-µA quiescent draw.

use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_harvesters::HarvesterKind;
use mseh_storage::Battery;
use mseh_units::{Amps, Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "Maxim MAX17710 Eval";

/// Builds the MAX17710 evaluation kit.
pub fn build() -> PowerUnit {
    let bus = Volts::new(4.1);
    let fe = |label: &str| {
        parts::front_end(label, bus, Watts::from_micro(0.2), Watts::from_milli(100.0))
    };
    let light = parts::channel(
        harvesters::pv_indoor(),
        Tracking::Fixed(Volts::new(3.0)),
        Protection::Schottky,
        fe("light input"),
    );
    let piezo = parts::channel(
        harvesters::piezo(),
        Tracking::Fixed(Volts::new(2.0)),
        Protection::Schottky,
        fe("piezo/radio input"),
    );

    let mut cell = Battery::thin_film_50uah();
    cell.set_soc(0.5);

    PowerUnit::builder(NAME)
        .harvester_port(
            PortRequirement::harvester_port(
                "light (fixed)",
                Volts::ZERO,
                Volts::new(5.0),
                vec![HarvesterKind::Photovoltaic],
            ),
            Some(light),
            false,
        )
        .harvester_port(
            PortRequirement::harvester_port(
                "AC input (piezo/mech or radio)",
                Volts::ZERO,
                Volts::new(12.0),
                vec![
                    HarvesterKind::Piezoelectric,
                    HarvesterKind::Electromagnetic,
                    HarvesterKind::RfRectenna,
                ],
            ),
            Some(piezo),
            true, // "Yes, 1 of 2"
        )
        .store_port(
            PortRequirement::any_in_window("thin-film cell", Volts::ZERO, Volts::new(4.2)),
            Some(Box::new(cell)),
            StoreRole::PrimaryBuffer,
            false, // soldered
        )
        .supervisor(Supervisor::none())
        .output_stage(Box::new(parts::output_ldo(
            Volts::new(3.3),
            Amps::from_nano(625.0),
        )))
        .commercial(true)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;
    use mseh_node::MonitoringLevel;

    #[test]
    fn table_row_matches_paper() {
        let r = classify(&build());
        assert_eq!(r.name, NAME);
        assert_eq!(r.counts_cell(), "2/1");
        assert!(r.swappable_sensor_node); // "Yes"
        assert_eq!(r.swappable_storage, 0); // "No"
        assert_eq!(r.swappable_harvesters, 1); // "Yes, 1 of 2"
        assert_eq!(r.energy_monitoring, MonitoringLevel::None); // "No"
        assert!(!r.digital_interface);
        assert!(r.commercial); // "Yes"
                               // Quiescent: <1 µA — the headline feature.
        assert!(r.quiescent.as_micro() < 1.0, "quiescent {}", r.quiescent);
        // Harvesters: Piezo/Mech, Light, Radio.
        let cell = r.harvesters_cell();
        for needle in ["Light", "Piezo", "Radio"] {
            assert!(cell.contains(needle), "{cell}");
        }
        assert!(r.storage_cell().contains("Thin-film"));
    }

    #[test]
    fn lowest_quiescent_in_the_survey() {
        let e = classify(&build()).quiescent.as_micro();
        for other in [
            classify(&crate::system_a::build()).quiescent.as_micro(),
            classify(&crate::system_b::build()).quiescent.as_micro(),
            classify(&crate::system_c::build()).quiescent.as_micro(),
            classify(&crate::system_d::build()).quiescent.as_micro(),
        ] {
            assert!(e < other, "E {e} vs {other}");
        }
    }

    #[test]
    fn swappable_input_accepts_rectenna_but_not_wind() {
        let mut unit = build();
        unit.detach_harvester(1);
        let wind = parts::channel(
            harvesters::wind(),
            Tracking::FractionalVocThevenin,
            Protection::Schottky,
            parts::front_end(
                "w",
                Volts::new(4.1),
                Watts::from_micro(0.2),
                Watts::from_milli(80.0),
            ),
        );
        assert!(unit
            .attach_harvester(1, wind, Volts::new(7.0), None)
            .is_err());
        let rf = parts::channel(
            harvesters::rectenna(),
            Tracking::Fixed(Volts::new(1.0)),
            Protection::Schottky,
            parts::front_end(
                "r",
                Volts::new(4.1),
                Watts::from_micro(0.2),
                Watts::from_milli(10.0),
            ),
        );
        assert!(unit.attach_harvester(1, rf, Volts::new(2.0), None).is_ok());
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
        let micro = ledger_itemizes_the_idle_budget(SystemId::E);
        assert!(micro < 1.0, "quiescent {micro} uA");
    }
}
