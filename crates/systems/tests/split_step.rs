//! `Platform::step` ≡ `settle(harvest(..))`, bit for bit.
//!
//! The policy arena solves a seed's channels on one driver platform and
//! settles every lane against that harvest, so the split must reproduce
//! a full step exactly: same reports, same status. Checked over one day
//! for all seven Table-I systems, for a unit settling its own harvest
//! and for one settling a twin's, plus one unit whose output stage
//! browns out on a schedule (its stage ages inside `settle`), and a
//! smart harvester whose modules report status from the harvest.

use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_env::Environment;
use mseh_harvesters::{PvModule, Teg, Transducer};
use mseh_power::{DcDcConverter, IdealDiode, InputChannel, PerturbObserve};
use mseh_sim::{BrownoutConverter, FaultSchedule, Platform};
use mseh_storage::{Battery, Supercap};
use mseh_systems::{resilience, SystemId};
use mseh_units::{Seconds, Volts, Watts};

/// Debug output prints the shortest round-trip form of every float, so
/// equal strings mean equal bits (signed zeros included).
fn bits<T: core::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// Steps three builds through one day of `env`: one whole, one split,
/// and a twin settling the split one's harvests. Every report, and
/// after every step the `state` each build reports, must match.
/// Returns the whole-stepped build.
fn assert_split_matches_step<P: Platform, S: core::fmt::Debug>(
    name: &str,
    env: &Environment,
    build: impl Fn() -> P,
    state: impl Fn(&P) -> S,
) -> P {
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
        let expected = bits(&state(&whole));
        assert_eq!(bits(&state(&split)), expected, "{name} state {i}");
        assert_eq!(bits(&state(&twin)), expected, "{name} twin state {i}");
    }
    whole
}

fn unit_state(unit: &PowerUnit) -> impl core::fmt::Debug {
    (unit.energy_status(), unit.total_stored_energy())
}

#[test]
fn settle_of_harvest_equals_step_for_every_table_i_system() {
    for id in SystemId::ALL {
        let env = resilience::natural_environment(id, 17);
        assert_split_matches_step(id.display_name(), &env, || id.build(), unit_state);
    }
}

#[test]
fn settle_of_harvest_equals_step_through_a_brownout() {
    let build = || {
        let mut unit = SystemId::C.build();
        unit.instrument_output_stage(|stage| {
            Box::new(BrownoutConverter::new(
                stage,
                FaultSchedule::from_windows(vec![
                    (Seconds::from_hours(7.0), Seconds::from_hours(7.5)),
                    (Seconds::from_hours(20.0), Seconds::from_hours(21.0)),
                ]),
            ))
        });
        unit
    };
    let env = resilience::natural_environment(SystemId::C, 5);
    assert_split_matches_step("System C with brownouts", &env, build, unit_state);
}

/// A smart harvester: two harvester modules (PV and TEG, each under
/// perturb-and-observe) and two storage modules (an EDLC, then a NiMH
/// pair).
fn smart_network() -> PowerUnit {
    let port = |label: &str| PortRequirement::any_in_window(label, Volts::ZERO, Volts::new(8.0));
    let channel = |transducer: Box<dyn Transducer>| {
        Some(InputChannel::new(
            transducer,
            Box::new(PerturbObserve::new()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        ))
    };
    PowerUnit::builder("smart network")
        .harvester_port(
            port("PV"),
            channel(Box::new(PvModule::outdoor_panel_half_watt())),
            true,
        )
        .harvester_port(port("TEG"), channel(Box::new(Teg::module_40mm())), true)
        .store_port(
            port("EDLC"),
            Some(Box::new(Supercap::edlc_22f())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .store_port(
            port("NiMH"),
            Some(Box::new(Battery::nimh_aa_pair())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor::devolved())
        .build()
}

#[test]
fn settle_of_harvest_equals_step_for_a_smart_network() {
    for env in [
        Environment::outdoor_temperate(17),
        Environment::indoor_industrial(17),
    ] {
        let state = |unit: &PowerUnit| (unit.status_events(), unit_state(unit));
        let unit = assert_split_matches_step("smart network", &env, smart_network, state);
        assert!(unit.status_events() > 0, "no status event to compare");
    }
}
