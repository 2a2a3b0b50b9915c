//! `PowerUnit::step` ≡ `settle(harvest(..))`, bit for bit.
//!
//! The policy arena solves a seed's channels on one driver unit and
//! settles every lane against that harvest, so the split must reproduce
//! a full step exactly: same reports, same totals, same status. Checked
//! over one day for all seven Table-I systems, for a unit settling its
//! own harvest and for one settling a twin's, plus one unit whose output
//! stage browns out on a schedule (its stage ages inside `settle`).

use mseh_core::PowerUnit;
use mseh_power::BrownoutConverter;
use mseh_systems::{resilience, SystemId};
use mseh_units::{Seconds, Watts};

/// Debug output prints the shortest round-trip form of every float, so
/// equal strings mean equal bits (signed zeros included).
fn bits<T: core::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

fn assert_split_matches_step(name: &str, build: impl Fn() -> PowerUnit, seed: u64, id: SystemId) {
    let env = resilience::natural_environment(id, seed);
    let dt = Seconds::new(60.0);
    let mut whole = build();
    let mut split = build();
    let mut twin = build();
    for i in 0..1440u32 {
        let conditions = env.conditions(Seconds::new(f64::from(i) * dt.value()));
        // Alternate idle, light and heavy loads so both balance
        // directions and the brown-out branch all run.
        let load = Watts::from_milli([0.0, 0.5, 8.0][(i / 45 % 3) as usize]);
        let expected = whole.step(&conditions, dt, load);
        let harvest = split.harvest(&conditions, dt);
        let got = split.settle(&harvest, dt, load);
        let shared = twin.settle(&harvest, dt, load);
        assert_eq!(bits(&got), bits(&expected), "{name} step {i}");
        assert_eq!(bits(&shared), bits(&expected), "{name} twin step {i}");
    }
    for unit in [&split, &twin] {
        assert_eq!(bits(&unit.totals()), bits(&whole.totals()), "{name} totals");
        assert_eq!(
            bits(&unit.energy_status()),
            bits(&whole.energy_status()),
            "{name} status"
        );
        assert_eq!(
            bits(&unit.total_stored_energy()),
            bits(&whole.total_stored_energy()),
            "{name} stored"
        );
    }
}

#[test]
fn settle_of_harvest_equals_step_for_every_table_i_system() {
    for id in SystemId::ALL {
        assert_split_matches_step(id.display_name(), || id.build(), 17, id);
    }
}

#[test]
fn settle_of_harvest_equals_step_through_a_brownout() {
    let build = || {
        let mut unit = SystemId::C.build();
        unit.instrument_output_stage(|stage| {
            Box::new(BrownoutConverter::new(
                stage,
                vec![
                    (Seconds::from_hours(7.0), Seconds::from_hours(7.5)),
                    (Seconds::from_hours(20.0), Seconds::from_hours(21.0)),
                ],
            ))
        });
        unit
    };
    assert_split_matches_step("System C with brownouts", build, 5, SystemId::C);
}
