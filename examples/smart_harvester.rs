//! The survey's future-work proposal in action: a "smart harvester"
//! where every energy device carries its own micro-manager. It is an
//! ordinary `PowerUnit` whose intelligence sits on the energy devices
//! (`Supervisor::devolved`).
//!
//! Demonstrates the three measurable properties experiment E8 quantifies:
//! zero-latency discovery on attach, event-driven status reporting, and
//! the per-module standing overhead that pays for both.
//!
//! ```sh
//! cargo run --example smart_harvester
//! ```

use mseh::core::{
    ConditioningPlacement, ElectronicDatasheet, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh::env::Environment;
use mseh::harvesters::{HarvesterKind, PvModule, Teg, VibrationHarvester};
use mseh::power::{DcDcConverter, IdealDiode, InputChannel, PerturbObserve};
use mseh::storage::{Storage, StorageKind, Supercap};
use mseh::units::{Seconds, Volts, Watts};

fn smart_channel(h: Box<dyn mseh::harvesters::Transducer>) -> InputChannel {
    InputChannel::new(
        h,
        Box::new(PerturbObserve::new()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn main() {
    // Empty slots; each module brings its own conditioning and datasheet.
    let slot = |label: &str| PortRequirement::any_in_window(label, Volts::ZERO, Volts::new(20.0));
    let mut unit = PowerUnit::builder("smart harvester")
        .harvester_port(slot("slot 1"), None, true)
        .harvester_port(slot("slot 2"), None, true)
        .harvester_port(slot("slot 3"), None, true)
        .store_port(slot("store"), None, StoreRole::PrimaryBuffer, true)
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor::devolved())
        .conditioning(ConditioningPlacement::EnergyModules)
        .datasheet_capable(true)
        .build();
    println!("smart harvester network (survey §IV future work)\n");

    // Modules announce themselves the instant they are attached — no
    // polling, no enumeration sweep.
    let pv_sheet = ElectronicDatasheet::harvester(
        "SMART-PV",
        HarvesterKind::Photovoltaic,
        Watts::from_milli(500.0),
    );
    unit.attach_harvester(
        0,
        smart_channel(Box::new(PvModule::outdoor_panel_half_watt())),
        Volts::new(6.0),
        Some(&pv_sheet),
    )
    .expect("slot 1 is free");
    println!(
        "attach PV module        -> announcements: {}",
        unit.occupied_ports()
    );

    let teg_sheet = ElectronicDatasheet::harvester(
        "SMART-TEG",
        HarvesterKind::Thermoelectric,
        Watts::from_milli(25.0),
    );
    unit.attach_harvester(
        1,
        smart_channel(Box::new(Teg::module_40mm())),
        Volts::new(1.0),
        Some(&teg_sheet),
    )
    .expect("slot 2 is free");
    println!(
        "attach TEG module       -> announcements: {}",
        unit.occupied_ports()
    );

    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    let cap_sheet = ElectronicDatasheet::storage(
        "SMART-SC",
        StorageKind::Supercapacitor,
        Watts::from_milli(500.0),
        cap.capacity(),
    );
    unit.attach_storage(0, Box::new(cap), Some(&cap_sheet))
        .expect("the store slot is free");
    println!(
        "attach supercap module  -> announcements: {}",
        unit.occupied_ports()
    );

    println!(
        "\nstanding draw of the platform: {}, of which module MCUs {} ({} each)",
        unit.quiescent_power(),
        PowerUnit::MODULE_DRAW * unit.occupied_ports() as f64,
        PowerUnit::MODULE_DRAW
    );

    // Run a day outdoors; every module tracks locally, and status events
    // fire only when a module's output moves significantly.
    let env = Environment::outdoor_temperate(4);
    let mut served = 0.0f64;
    for minute in 0..(24 * 60) {
        let t = Seconds::from_minutes(minute as f64);
        let report = unit.step(
            &env.conditions(t),
            Seconds::new(60.0),
            Watts::from_milli(1.0),
        );
        served += report.delivered.value();
    }
    println!("\nafter one simulated day:");
    println!("  delivered to load : {:.1} J", served);
    println!("  stored energy     : {}", unit.stored_energy());
    println!(
        "  status events     : {} (event-driven — pushed only on change)",
        unit.status_events()
    );
    println!(
        "  the equivalent polled design issues {} transactions at 1/min",
        24 * 60
    );

    // A fourth module can join mid-deployment with zero ceremony.
    let piezo_sheet = ElectronicDatasheet::harvester(
        "SMART-PZ",
        HarvesterKind::Piezoelectric,
        Watts::from_micro(250.0),
    );
    unit.attach_harvester(
        2,
        smart_channel(Box::new(VibrationHarvester::piezo_cantilever())),
        Volts::new(3.0),
        Some(&piezo_sheet),
    )
    .expect("slot 3 is free");
    println!(
        "\nhot-attach piezo module -> announcements: {} (discovery latency: none)",
        unit.occupied_ports()
    );
    println!(
        "network status now: {} modules, store at {}",
        unit.occupied_ports(),
        unit.store_voltage()
    );
}
