//! Arena ↔ standalone-run equivalence over the survey's Table-I fleet.
//!
//! The arena's contract is that sampling the seeded environment once
//! per (scenario, seed) and replaying the trace across every policy
//! lane is indistinguishable — bit for bit, full-summary equality —
//! from each lane sampling its own `EnvSampler` inside an independent
//! `run_simulation`. This property must hold for every platform shape
//! the survey classifies, not just the dense single-channel one, so it
//! is checked here across all seven Table-I systems × 4 seeds.
//!
//! Every boxed lane settles against a shared harvest: one extra
//! platform per seed solves the channels. The checks below therefore
//! cover that shared path for all seven systems and for a smart
//! harvester (a `PowerUnit` with its intelligence on the energy
//! devices).

use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_env::Environment;
use mseh_harvesters::PvModule;
use mseh_node::{FixedDuty, HillClimbDuty, SensorNode, VoltageThreshold};
use mseh_power::{DcDcConverter, IdealDiode, InputChannel, PerturbObserve};
use mseh_sim::{
    run_arena, run_simulation, ArenaConfig, ArenaSpec, Contender, SimConfig, SimResult,
};
use mseh_storage::Supercap;
use mseh_systems::{resilience, SystemId};
use mseh_units::{DutyCycle, Seconds, Volts};

fn roster(id: SystemId) -> Vec<Contender> {
    vec![
        Contender::new("natural", move |_| resilience::natural_policy(id)),
        Contender::new("fixed-5%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.05)))
        }),
        Contender::new("hill-climb", |seed| Box::new(HillClimbDuty::new(seed))),
    ]
}

const SEEDS: [u64; 4] = [101, 202, 303, 404];

#[test]
fn shared_trace_matches_per_run_sampling_for_every_table_i_system() {
    let horizon = Seconds::from_hours(4.0);
    for id in SystemId::ALL {
        let spec = ArenaSpec::boxed(
            id.display_name(),
            resilience::natural_node(id),
            move |_| Box::new(id.build()),
            move |seed| resilience::natural_environment(id, seed),
        )
        .with_contenders(roster(id))
        .with_seeds(&SEEDS);

        let out = run_arena(&spec, ArenaConfig::over(horizon).keep_lane_results());
        let lanes = out.lane_results.expect("lane results kept");
        assert_eq!(lanes.len(), spec.lanes() as usize);

        // Every lane against a fresh, fully independent standalone run:
        // its own platform build, its own environment instance sampling
        // per step, its own policy instance.
        for (si, &seed) in SEEDS.iter().enumerate() {
            for (ci, contender) in spec.contenders().iter().enumerate() {
                let mut platform = id.build();
                let mut policy = match ci {
                    0 => resilience::natural_policy(id),
                    1 => Box::new(FixedDuty::new(DutyCycle::saturating(0.05))),
                    _ => Box::new(HillClimbDuty::new(seed)),
                };
                let reference: SimResult = run_simulation(
                    &mut platform,
                    &resilience::natural_environment(id, seed),
                    &resilience::natural_node(id),
                    policy.as_mut(),
                    SimConfig::over(horizon),
                );
                let lane = &lanes[si * spec.contenders().len() + ci];
                assert_eq!(
                    *lane,
                    reference,
                    "system {id} seed {seed} contender {}",
                    contender.name()
                );
            }
        }
    }
}

fn smart_network() -> PowerUnit {
    PowerUnit::builder("smart network")
        .harvester_port(
            PortRequirement::any_in_window("PV-07", Volts::ZERO, Volts::new(8.0)),
            Some(InputChannel::new(
                Box::new(PvModule::outdoor_panel_half_watt()),
                Box::new(PerturbObserve::new()),
                Box::new(IdealDiode::nanopower()),
                Box::new(DcDcConverter::mppt_front_end_5v()),
            )),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("SC-22", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(Supercap::edlc_22f())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor::devolved())
        .build()
}

#[test]
fn smart_network_lanes_match_independent_runs() {
    let horizon = Seconds::from_hours(6.0);
    let seeds = [7, 8];
    let spec = ArenaSpec::boxed(
        "smart network",
        SensorNode::submilliwatt_class(),
        |_| Box::new(smart_network()),
        Environment::outdoor_temperate,
    )
    .with_contender(Contender::new("fixed-5%", |_| {
        Box::new(FixedDuty::new(DutyCycle::saturating(0.05)))
    }))
    .with_contender(Contender::new("ladder", |_| {
        Box::new(VoltageThreshold::supercap_ladder())
    }))
    .with_seeds(&seeds);
    let out = run_arena(&spec, ArenaConfig::over(horizon).keep_lane_results());
    let lanes = out.lane_results.expect("kept");
    for (si, &seed) in seeds.iter().enumerate() {
        for (ci, contender) in spec.contenders().iter().enumerate() {
            let mut policy = contender.build(seed);
            let reference = run_simulation(
                &mut smart_network(),
                &Environment::outdoor_temperate(seed),
                &SensorNode::submilliwatt_class(),
                policy.as_mut(),
                SimConfig::over(horizon),
            );
            assert_eq!(lanes[si * spec.contenders().len() + ci], reference);
        }
    }
}
