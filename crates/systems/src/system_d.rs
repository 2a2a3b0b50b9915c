//! System D — MPWiNode (Morais et al., 2008).
//!
//! Agricultural data-acquisition platform: sun, wind and water flow
//! charging a 2×AA NiMH pack. The sensor node is integrated on the power
//! unit (inflexible topology), monitoring is limited to an analog
//! store-voltage line, and the charging electronics are power-hungry:
//! 75 µA quiescent — by far the thirstiest platform in Table I.

use crate::parts::{self, harvesters, Protection, Tracking};
use mseh_core::{
    IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh_harvesters::HarvesterKind;
use mseh_node::MonitoringLevel;
use mseh_storage::{Battery, StorageKind};
use mseh_units::{Volts, Watts};

/// The platform's display name (Table I column header).
pub const NAME: &str = "MPWiNode";

/// Builds MPWiNode with its sun + wind + water loadout.
pub fn build() -> PowerUnit {
    let bus = Volts::new(3.2);
    let fe = |label: &str| {
        parts::front_end(
            label,
            bus,
            Watts::from_micro(15.0),
            Watts::from_milli(400.0),
        )
    };
    let pv = parts::channel(
        harvesters::pv_small(),
        Tracking::FractionalVocPv,
        Protection::Schottky,
        fe("PV charger"),
    );
    let wind = parts::channel(
        harvesters::wind(),
        Tracking::FractionalVocThevenin,
        Protection::Schottky,
        fe("wind charger"),
    );
    let hydro = parts::channel(
        harvesters::hydro(),
        Tracking::FractionalVocThevenin,
        Protection::Schottky,
        fe("water-flow charger"),
    );

    let mut pack = Battery::nimh_aa_pair();
    pack.set_soc(0.6);

    PowerUnit::builder(NAME)
        .harvester_port(
            PortRequirement::harvester_port(
                "solar",
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
                "water",
                Volts::ZERO,
                Volts::new(15.0),
                vec![HarvesterKind::Hydro],
            ),
            Some(hydro),
            true,
        )
        .store_port(
            PortRequirement::storage_port(
                "AA pack",
                Volts::ZERO,
                Volts::new(3.0),
                vec![StorageKind::NiMh],
            ),
            Some(Box::new(pack)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .supervisor(Supervisor {
            location: IntelligenceLocation::None,
            monitoring: MonitoringLevel::StoreVoltage, // "Limited"
            interface: InterfaceKind::Analog,
            // The always-on charging electronics dominate the budget.
            overhead: Watts::from_micro(150.0),
        })
        .sense_adc(mseh_core::AdcModel::coarse_4bit())
        .node_on_power_unit(true)
        .output_stage(Box::new(parts::output_buck_boost(
            Volts::new(3.0),
            Watts::from_micro(30.0),
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
        assert_eq!(r.counts_cell(), "3/1");
        assert!(!r.swappable_sensor_node); // "No" — node on power unit
        assert_eq!(r.swappable_storage, 1); // "Yes, battery"
        assert_eq!(r.swappable_harvesters, 3); // "Yes"
        assert_eq!(r.energy_monitoring, MonitoringLevel::StoreVoltage); // "Limited"
        assert!(!r.digital_interface);
        assert!(!r.commercial);
        // Quiescent: 75 µA.
        assert!(
            (r.quiescent.as_micro() - 75.0).abs() < 5.0,
            "quiescent {}",
            r.quiescent
        );
        let cell = r.harvesters_cell();
        for needle in ["Light", "Wind", "Water Flow"] {
            assert!(cell.contains(needle), "{cell}");
        }
        assert!(r.storage_cell().contains("NiMH"));
    }

    #[test]
    fn analog_sense_line_quantizes_the_store_voltage() {
        // MPWiNode's "Limited" monitoring reads through a coarse ADC: the
        // reported store voltage is a quantized version of the terminal
        // voltage, never above it.
        let unit = build();
        let reported = unit
            .energy_status()
            .store_voltage
            .expect("limited monitoring reports voltage");
        let actual = unit.store_voltage();
        assert!(reported <= actual);
        assert!((actual - reported).value() < 0.21); // one 4-bit LSB
    }

    #[test]
    fn water_flow_charges_during_irrigation_windows() {
        let mut unit = build();
        let env = Environment::agricultural(7);
        // 06:00–07:00 sits inside the morning irrigation window and has
        // early sun; verify the platform harvests.
        let mut harvested = 0.0;
        for minute in 0..60 {
            let t = Seconds::from_hours(6.0) + Seconds::from_minutes(minute as f64);
            harvested += unit
                .step(
                    &env.conditions(t),
                    Seconds::new(60.0),
                    Watts::from_milli(5.0),
                )
                .harvested
                .value();
        }
        assert!(harvested > 1.0, "harvested {harvested} J");
    }

    #[test]
    fn thirstiest_platform_in_the_survey() {
        // MPWiNode's 75 µA dwarfs every other platform — the survey's
        // implicit warning about always-on charger electronics.
        let d = classify(&build()).quiescent.as_micro();
        let a = classify(&crate::system_a::build()).quiescent.as_micro();
        let b = classify(&crate::system_b::build()).quiescent.as_micro();
        assert!(d > 10.0 * a, "D {d} vs A {a}");
        assert!(d > 10.0 * b, "D {d} vs B {b}");
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
        let micro = ledger_itemizes_the_idle_budget(SystemId::D);
        assert!((micro - 75.0).abs() < 5.0, "quiescent {micro} uA");
    }
}
