//! Integration: the headline claims hold across seeds, not just on one
//! lucky trace.

use mseh::core::{PortRequirement, PowerUnit, StoreRole};
use mseh::env::Environment;
use mseh::node::{FixedDuty, SensorNode};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{run_arena, ArenaConfig, ArenaSpec, Contender, SimResult, Spread};
use mseh::storage::Supercap;
use mseh::units::{DutyCycle, Seconds, Volts};

fn channel(pv: bool) -> InputChannel {
    let harvester: Box<dyn mseh::harvesters::Transducer> = if pv {
        Box::new(mseh::harvesters::PvModule::outdoor_panel_half_watt())
    } else {
        Box::new(mseh::harvesters::FlowTurbine::micro_wind())
    };
    let tracker: Box<dyn mseh::power::OperatingPointController> = if pv {
        Box::new(FractionalVoc::pv_standard())
    } else {
        Box::new(FractionalVoc::thevenin_standard())
    };
    InputChannel::new(
        harvester,
        tracker,
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn rig(solar: bool, wind: bool) -> PowerUnit {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    let mut builder = PowerUnit::builder("robustness rig");
    if solar {
        builder = builder.harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(channel(true)),
            true,
        );
    }
    if wind {
        builder = builder.harvester_port(
            PortRequirement::any_in_window("wind", Volts::ZERO, Volts::new(12.0)),
            Some(channel(false)),
            true,
        );
    }
    builder
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(cap)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

const SEEDS: [u64; 8] = [3, 17, 101, 444, 1234, 9000, 31337, 99999];

/// One platform under one policy across `SEEDS`: a one-contender arena
/// keeping every lane, each equal to an independent run of its seed.
fn seed_sweep(solar: bool, wind: bool) -> Vec<SimResult> {
    let spec = ArenaSpec::boxed(
        "robustness",
        SensorNode::submilliwatt_class(),
        move |_| Box::new(rig(solar, wind)),
        Environment::outdoor_temperate,
    )
    .with_contender(Contender::new("fixed-5%", |_| {
        Box::new(FixedDuty::new(DutyCycle::saturating(0.05)))
    }))
    .with_seeds(&SEEDS);
    let config = ArenaConfig::over(Seconds::from_days(1.0)).keep_lane_results();
    let runs = run_arena(&spec, config).lane_results.expect("kept");
    assert_eq!(runs.len(), SEEDS.len());
    runs
}

fn harvested(runs: &[SimResult]) -> Spread {
    let joules: Vec<f64> = runs.iter().map(|r| r.harvested.value()).collect();
    Spread::of(&joules)
}

#[test]
fn multi_source_dominance_is_seed_robust() {
    // E1's claim across seeds: on every seed the combined platform
    // harvests at least as much as either single source, and its worst
    // case beats each single source's mean.
    let solar = seed_sweep(true, false);
    let wind = seed_sweep(false, true);
    let both = seed_sweep(true, true);
    for ((s, w), b) in solar.iter().zip(&wind).zip(&both) {
        assert!(b.harvested.value() >= s.harvested.value() * 0.99);
        assert!(b.harvested.value() >= w.harvested.value() * 0.99);
    }
    let (solar, wind, both) = (harvested(&solar), harvested(&wind), harvested(&both));
    assert!(both.min > solar.mean * 0.8);
    assert!(both.min > wind.mean);
}

#[test]
fn conservation_is_seed_robust() {
    let both = seed_sweep(true, true);
    for run in &both {
        assert!(run.audit_residual < 1e-6, "{}", run.audit_residual);
    }
    // Weather varies meaningfully across seeds (the sweep isn't
    // degenerate).
    let harvested = harvested(&both);
    assert!(harvested.max > 1.1 * harvested.min);
}

#[test]
fn conservation_holds_under_injected_faults_across_seeds() {
    // Fault wrappers strand and restore energy mid-run; the per-window
    // audit must still close to numerical precision for every seed,
    // through every fire, clear and failover engagement.
    use mseh::node::FailoverPolicy;
    use mseh::sim::{
        run_resilience_campaign, CampaignConfig, FaultScenario, FaultSchedule, IntermittentStorage,
    };

    let horizon = Seconds::from_hours(18.0);
    let summary = run_resilience_campaign(
        &SEEDS,
        |seed| {
            let schedule = FaultSchedule::stochastic(
                seed,
                Seconds::from_hours(3.0),
                Seconds::from_minutes(40.0),
                horizon,
            );
            let mut unit = rig(true, true);
            assert!(unit.instrument_store(0, |inner| {
                Box::new(IntermittentStorage::new(inner, schedule.clone()))
            }));
            FaultScenario::new(
                unit,
                Environment::outdoor_temperate(seed),
                Box::new(FailoverPolicy::new(Box::new(FixedDuty::new(
                    DutyCycle::saturating(0.3),
                )))),
                schedule,
            )
        },
        &SensorNode::submilliwatt_class(),
        CampaignConfig::over(horizon).with_threads(2),
    );
    assert!(summary.total_faults > 0, "{summary:?}");
    for outcome in &summary.outcomes {
        assert!(
            outcome.audit.worst_relative < 1e-6,
            "seed {}: audit {}",
            outcome.seed,
            outcome.audit.worst_relative
        );
    }
}
