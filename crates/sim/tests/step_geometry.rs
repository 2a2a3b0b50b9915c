//! Step-geometry differential test across the single-run, fleet and
//! arena entry points.
//!
//! Every other suite steps at 60 s with 10-minute control windows. Here
//! a seeded sweep draws the step width (30, 60 or 90 s), a control
//! interval (one that divides the hour, two that divide no drawn
//! horizon, one shorter than every step) and a horizon with or without
//! a fractional closing step — half of those closers land mid-window,
//! half open a window of their own. For each draw a Table-I system runs
//! through `run_simulation`, a one-node per-step fleet and a one-lane
//! boxed arena, and the three `SimResult`s must be equal. A dense-shaped
//! rig runs the same geometries through the dense fleet lane, the dense
//! arena lanes and a `PowerUnit` of the same hardware.

use mseh_core::{
    IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh_env::Environment;
use mseh_harvesters::PvModule;
use mseh_node::{MonitoringLevel, SensorNode, VoltageThreshold};
use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh_sim::{
    run_arena, run_fleet, run_simulation, ArenaConfig, ArenaSpec, Contender, DenseClass,
    DenseGroup, DenseStore, FleetConfig, FleetGroup, FleetSpec, SimConfig, SimResult,
};
use mseh_storage::Supercap;
use mseh_systems::resilience::{natural_environment, natural_node, natural_policy};
use mseh_systems::SystemId;
use mseh_units::fuzz::Rng;
use mseh_units::{Seconds, Volts, Watts};

const DTS: [f64; 3] = [30.0, 60.0, 90.0];
const CONTROL_INTERVALS: [f64; 4] = [600.0, 420.0, 1390.0, 20.0];

#[derive(Debug, Clone, Copy)]
struct Draw {
    system: SystemId,
    seed: u64,
    sim: SimConfig,
}

/// 21 draws: every (system, dt) pair once, every control interval at
/// least five times, closers on every other draw.
fn draws() -> Vec<Draw> {
    let mut rng = Rng::new(2013);
    (0..21)
        .map(|i| {
            let dt = DTS[i % 3];
            let control = CONTROL_INTERVALS[i % 4];
            let every = (control / dt).round().max(1.0) as u64;
            let mut steps = 40 + rng.index(200) as u64;
            let closer = if i % 2 == 0 {
                if i % 4 == 0 {
                    steps = steps.div_ceil(every) * every;
                } else if steps.is_multiple_of(every) {
                    steps += 1;
                }
                rng.in_range(0.05, 0.95)
            } else {
                0.0
            };
            Draw {
                system: SystemId::ALL[i % 7],
                seed: rng.next_u64() % 10_000,
                sim: SimConfig {
                    dt: Seconds::new(dt),
                    duration: Seconds::new(dt * (steps as f64 + closer)),
                    start_at: Seconds::ZERO,
                    control_interval: Seconds::new(control),
                    record: false,
                },
            }
        })
        .collect()
}

fn fleet_config(sim: SimConfig) -> FleetConfig {
    FleetConfig {
        sim,
        keep_node_results: true,
        ..FleetConfig::over(sim.duration)
    }
    .exact_env()
}

fn arena_config(sim: SimConfig) -> ArenaConfig {
    ArenaConfig {
        sim,
        ..ArenaConfig::over(sim.duration)
    }
    .keep_lane_results()
}

fn only(results: Option<Vec<SimResult>>) -> SimResult {
    let mut results = results.expect("kept");
    assert_eq!(results.len(), 1);
    results.remove(0)
}

#[test]
fn single_run_fleet_node_and_arena_lane_agree_at_every_step_geometry() {
    let draws = draws();
    assert!(draws.iter().any(|d| d.sim.control_interval < d.sim.dt));
    for draw in draws {
        let Draw { system, seed, sim } = draw;
        let env = natural_environment(system, seed);
        let node = natural_node(system);

        let mut unit = system.build();
        let reference =
            run_simulation(&mut unit, &env, &node, natural_policy(system).as_mut(), sim);

        let mut spec = FleetSpec::new();
        let site = spec.add_site(natural_environment(system, seed));
        spec.add_group(FleetGroup::new(
            system.display_name(),
            1,
            site,
            natural_node(system),
            move |_| Box::new(system.build()),
            move |_| natural_policy(system),
        ));
        let fleet_node = only(run_fleet(&spec, fleet_config(sim)).node_results);

        let arena = ArenaSpec::boxed(
            system.display_name(),
            natural_node(system),
            move |_| Box::new(system.build()),
            move |s| natural_environment(system, s),
        )
        .with_contender(Contender::new("natural", move |_| natural_policy(system)))
        .with_seeds(&[seed]);
        let arena_lane = only(run_arena(&arena, arena_config(sim)).lane_results);

        assert_eq!(fleet_node, reference, "fleet node, {draw:?}");
        assert_eq!(arena_lane, reference, "arena lane, {draw:?}");
    }
}

fn solar_channel() -> InputChannel {
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn solar_cap() -> Supercap {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(1.8));
    cap
}

/// The boxed build of exactly the hardware [`solar_class`] declares.
fn solar_unit() -> PowerUnit {
    PowerUnit::builder("dense rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(solar_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(solar_cap())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor {
            location: IntelligenceLocation::PowerUnit,
            monitoring: MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: false },
            overhead: Watts::ZERO,
        })
        .build()
}

fn solar_class() -> DenseClass {
    DenseClass::new(
        solar_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Supercap(solar_cap()),
    )
    .with_monitoring(MonitoringLevel::Full)
}

#[test]
fn dense_fleet_node_and_dense_arena_lane_match_the_power_unit_at_every_step_geometry() {
    for draw in draws() {
        let Draw { seed, sim, .. } = draw;
        let node = SensorNode::submilliwatt_class();

        let mut unit = solar_unit();
        let mut policy = VoltageThreshold::supercap_ladder();
        let reference = run_simulation(
            &mut unit,
            &Environment::outdoor_temperate(seed),
            &node,
            &mut policy,
            sim,
        );

        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(seed));
        spec.add_dense_group(
            DenseGroup::new(
                "dense rig",
                1,
                site,
                node.clone(),
                solar_channel,
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Supercap(solar_cap()),
                |_| Box::new(VoltageThreshold::supercap_ladder()),
            )
            .with_monitoring(MonitoringLevel::Full),
        );
        let fleet_node = only(run_fleet(&spec, fleet_config(sim)).node_results);

        let arena = ArenaSpec::dense(
            "dense rig",
            node,
            solar_class(),
            Environment::outdoor_temperate,
        )
        .with_contender(Contender::new("ladder", |_| {
            Box::new(VoltageThreshold::supercap_ladder())
        }))
        .with_seeds(&[seed]);
        let arena_lane = only(run_arena(&arena, arena_config(sim)).lane_results);

        assert_eq!(fleet_node, reference, "dense fleet node, {draw:?}");
        assert_eq!(arena_lane, reference, "dense arena lane, {draw:?}");
    }
}
