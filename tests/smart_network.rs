//! Integration: the "smart harvester" scheme (survey §IV) against a
//! conventional centrally-managed platform on identical hardware. Both
//! are `PowerUnit`s; the smart one places its intelligence on the energy
//! devices (`Supervisor::devolved`).

use mseh::core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh::env::Environment;
use mseh::harvesters::{PvModule, Teg};
use mseh::node::{SensorNode, VoltageThreshold};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel, PerturbObserve};
use mseh::sim::{
    run_simulation, BrownoutConverter, FaultSchedule, IntermittentStorage, Platform, SimConfig,
};
use mseh::storage::Supercap;
use mseh::units::{Joules, Seconds, Volts, Watts};

fn channel(pv: bool) -> InputChannel {
    let h: Box<dyn mseh::harvesters::Transducer> = if pv {
        Box::new(PvModule::outdoor_panel_half_watt())
    } else {
        Box::new(Teg::module_40mm())
    };
    InputChannel::new(
        h,
        Box::new(PerturbObserve::new()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

/// PV and TEG ports under perturb-and-observe, a spare harvester port
/// and a 22 F EDLC at 2.0 V, managed by `supervisor`.
fn twin(name: &str, supervisor: Supervisor) -> PowerUnit {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    PowerUnit::builder(name)
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(8.0)),
            Some(channel(true)),
            true,
        )
        .harvester_port(
            PortRequirement::any_in_window("TEG", Volts::ZERO, Volts::new(2.0)),
            Some(channel(false)),
            true,
        )
        .harvester_port(
            PortRequirement::any_in_window("spare", Volts::ZERO, Volts::new(8.0)),
            None,
            true,
        )
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(cap)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(supervisor)
        .build()
}

fn smart() -> PowerUnit {
    twin("smart twin", Supervisor::devolved())
}

fn central() -> PowerUnit {
    twin("central twin", Supervisor::none())
}

fn run_day(platform: &mut PowerUnit, seed: u64) -> (f64, f64) {
    let env = Environment::outdoor_temperate(seed);
    let mut harvested = 0.0;
    let mut delivered = 0.0;
    for minute in 0..(24 * 60) {
        let t = Seconds::from_minutes(minute as f64);
        let r = platform.step(
            &env.conditions(t),
            Seconds::new(60.0),
            Watts::from_milli(1.0),
        );
        harvested += r.harvested.value();
        delivered += r.delivered.value();
    }
    (harvested, delivered)
}

#[test]
fn same_hardware_similar_harvest() {
    let mut s = smart();
    let mut c = central();
    let (h_smart, d_smart) = run_day(&mut s, 5);
    let (h_central, d_central) = run_day(&mut c, 5);
    // Identical transducers, trackers and environment: harvests agree
    // within a few percent (the schemes differ in management, not
    // extraction).
    let ratio = h_smart / h_central;
    assert!((0.95..1.05).contains(&ratio), "harvest ratio {ratio}");
    assert!(d_smart > 0.0 && d_central > 0.0);
}

#[test]
fn smart_scheme_pays_a_standing_overhead() {
    let s = smart();
    let c = central();
    // The channel and output electronics are identical in both schemes;
    // the smart unit's *additional* structural cost is one micro-manager
    // per module: PV, TEG and the supercap.
    assert_eq!(s.occupied_ports(), 3);
    let extra = s.quiescent_power() - c.quiescent_power();
    let expected = PowerUnit::MODULE_DRAW * 3.0;
    assert!(
        (extra - expected).abs() < Watts::from_nano(1.0),
        "smart pays {extra} more than central, expected {expected}"
    );
    // Neither twin has a central supervisor drawing anything.
    assert_eq!(s.supervisor().overhead, Watts::ZERO);
    assert_eq!(c.supervisor().overhead, Watts::ZERO);
}

#[test]
fn discovery_is_event_driven_not_polled() {
    let mut s = smart();
    let before = s.occupied_ports();
    s.attach_harvester(2, channel(true), Volts::new(6.0), None)
        .expect("the spare port is free");
    // One more announced module, zero polling transactions.
    assert_eq!(s.occupied_ports(), before + 1);
    assert_eq!(s.status_events(), 0);
}

#[test]
fn status_events_track_environment_dynamics() {
    let mut s = smart();
    let env = Environment::outdoor_temperate(8);
    // A stable hour produces few events; sunrise produces a burst.
    let count_events = |net: &mut PowerUnit, from_h: f64| {
        let before = net.status_events();
        for minute in 0..60 {
            let t = Seconds::from_hours(from_h) + Seconds::from_minutes(minute as f64);
            net.step(&env.conditions(t), Seconds::new(60.0), Watts::ZERO);
        }
        net.status_events() - before
    };
    let night = count_events(&mut s, 2.0); // dead of night: nothing changes
    let sunrise = count_events(&mut s, 6.0); // irradiance ramps
    assert!(sunrise > night, "sunrise {sunrise} vs night {night}");
}

/// The smart twin with its PV module tracking at a fixed fraction of
/// the open-circuit voltage instead of perturb-and-observe.
fn smart_fractional_voc() -> PowerUnit {
    let mut unit = smart();
    unit.detach_harvester(0).expect("PV attached");
    let pv = InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    unit.attach_harvester(0, pv, Volts::new(6.0), None)
        .expect("PV port free again");
    unit
}

#[test]
fn kernel_caches_are_counted_through_the_platform() {
    let mut unit = smart_fractional_voc();
    run_simulation(
        &mut unit,
        &Environment::outdoor_temperate(7),
        &SensorNode::submilliwatt_class(),
        &mut VoltageThreshold::supercap_ladder(),
        SimConfig::over(Seconds::from_days(2.0)),
    );
    let stats = Platform::kernel_cache_stats(&unit);
    assert!(
        stats.hits + stats.misses > 0,
        "no lookup counted: {stats:?}"
    );
}

#[test]
fn store_faults_are_counted_and_strand_energy_through_the_platform() {
    let mut unit = smart();
    let schedule =
        FaultSchedule::one_shot_recovering(Seconds::from_hours(1.0), Seconds::from_hours(1.0));
    assert!(
        unit.instrument_store(0, |inner| Box::new(IntermittentStorage::new(
            inner, schedule
        )))
    );
    let night = Environment::outdoor_temperate(3);
    let dt = Seconds::new(60.0);
    let mut stranded_while_down = Joules::ZERO;
    for minute in 0..240 {
        let t = Seconds::from_minutes(f64::from(minute));
        unit.step(&night.conditions(t), dt, Watts::from_milli(0.1));
        if Platform::fault_counts(&unit) == (1, 0) {
            stranded_while_down = stranded_while_down.max(Platform::stranded_energy(&unit));
        }
    }
    assert!(stranded_while_down > Joules::ZERO);
    assert_eq!(Platform::fault_counts(&unit), (1, 1));
    assert_eq!(Platform::stranded_energy(&unit), Joules::ZERO);
}

#[test]
fn settle_ages_a_browning_output_stage() {
    let mut unit = smart();
    let (start, end) = (Seconds::from_hours(1.0), Seconds::from_hours(2.0));
    unit.instrument_output_stage(|stage| {
        Box::new(BrownoutConverter::new(
            stage,
            FaultSchedule::from_windows(vec![(start, end)]),
        ))
    });
    let night = Environment::outdoor_temperate(3);
    let dt = Seconds::new(60.0);
    for minute in 0..180u32 {
        let t = Seconds::from_minutes(f64::from(minute));
        let report = unit.step(&night.conditions(t), dt, Watts::from_milli(0.1));
        // The stage's clock ticks after each step, so step `minute`
        // sees the stage as it is at `t`.
        let down = t >= start && t < end;
        assert_eq!(report.fully_served(), !down, "minute {minute}");
    }
    assert_eq!(Platform::fault_counts(&unit), (1, 1));
}
