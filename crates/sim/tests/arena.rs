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
//! Boxed lanes built on a `PowerUnit` go further: one extra platform
//! solves each seed's channels and every lane settles against that
//! harvest. That shared path is checked lane by lane against the
//! whole-step path, which any platform that cannot split its step
//! (here a newtype forwarding only `step`, and the `SmartNetwork`)
//! still takes.

use mseh_core::{ElectronicDatasheet, PowerUnit, SmartModule, SmartNetwork, StepReport};
use mseh_env::{EnvConditions, Environment};
use mseh_harvesters::{CacheStats, HarvesterKind, PvModule};
use mseh_node::{EnergyStatus, FixedDuty, HillClimbDuty, SensorNode, VoltageThreshold};
use mseh_power::{DcDcConverter, IdealDiode, InputChannel, PerturbObserve};
use mseh_sim::{
    run_arena, run_simulation, ArenaConfig, ArenaSpec, Contender, Platform, SimConfig, SimResult,
};
use mseh_storage::{Storage, StorageKind, Supercap};
use mseh_systems::{resilience, SystemId};
use mseh_units::{DutyCycle, Joules, Seconds, Watts};

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

/// A `PowerUnit` that forwards only whole steps (plus the read-outs the
/// books need), so the arena cannot split it and takes the whole-step
/// path: the reference the shared-harvest path must reproduce.
struct WholeSteps(PowerUnit);

impl Platform for WholeSteps {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        self.0.step(env, dt, load)
    }
    fn energy_status(&self) -> EnergyStatus {
        self.0.energy_status()
    }
    fn total_stored_energy(&self) -> Joules {
        self.0.total_stored_energy()
    }
    fn storage_losses(&self) -> Joules {
        self.0.storage_losses()
    }
    fn storage_capacity(&self) -> Joules {
        self.0.storage_capacity()
    }
    fn stranded_energy(&self) -> Joules {
        self.0.stranded_energy()
    }
    fn kernel_cache_stats(&self) -> CacheStats {
        self.0.kernel_cache_stats()
    }
}

fn table_i_spec(id: SystemId, whole_steps: bool) -> ArenaSpec {
    let platform = move |_: u64| -> Box<dyn Platform> {
        if whole_steps {
            Box::new(WholeSteps(id.build()))
        } else {
            Box::new(id.build())
        }
    };
    ArenaSpec::boxed(
        id.display_name(),
        resilience::natural_node(id),
        platform,
        move |seed| resilience::natural_environment(id, seed),
    )
    .with_contenders(roster(id))
    .with_seeds(&SEEDS)
}

#[test]
fn shared_harvest_lanes_match_whole_step_lanes() {
    let contenders = 3;
    // Whole steps only; a fractional closing step sharing the last
    // window with five whole ones; per-window sampling.
    let configs = [
        ArenaConfig::over(Seconds::from_hours(4.0)),
        ArenaConfig::over(Seconds::new(4.0 * 3600.0 + 325.0)),
        ArenaConfig::over(Seconds::from_hours(4.0)).windowed_env(),
    ];
    for id in SystemId::ALL {
        for config in configs {
            let config = config.keep_lane_results();
            let shared = run_arena(&table_i_spec(id, false), config);
            let whole = run_arena(&table_i_spec(id, true), config);
            let (shared_lanes, whole_lanes) = (
                shared.lane_results.expect("kept"),
                whole.lane_results.expect("kept"),
            );
            for (lane, (s, w)) in shared_lanes.iter().zip(&whole_lanes).enumerate() {
                assert_eq!(s, w, "system {id} lane {lane} ({:?})", config.cadence);
            }
            // Everything but the cache line agrees; that line counts the
            // channel solves, which the shared path runs once per seed
            // instead of once per lane.
            let mut s = shared.summary;
            let mut w = whole.summary;
            assert_eq!(w.kernel_cache.hits, contenders * s.kernel_cache.hits);
            assert_eq!(w.kernel_cache.misses, contenders * s.kernel_cache.misses);
            s.kernel_cache = CacheStats::default();
            w.kernel_cache = CacheStats::default();
            assert_eq!(s, w, "system {id} summary ({:?})", config.cadence);
        }
    }
}

fn smart_network() -> SmartNetwork {
    let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
    net.attach(SmartModule::harvester(
        ElectronicDatasheet::harvester(
            "PV-07",
            HarvesterKind::Photovoltaic,
            Watts::from_milli(500.0),
        ),
        InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(PerturbObserve::new()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        ),
    ));
    let cap = Supercap::edlc_22f();
    let sheet = ElectronicDatasheet::storage(
        "SC-22",
        StorageKind::Supercapacitor,
        Watts::from_milli(500.0),
        cap.capacity(),
    );
    net.attach(SmartModule::storage(sheet, Box::new(cap)));
    net
}

#[test]
fn smart_network_lanes_step_whole_and_match_independent_runs() {
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
