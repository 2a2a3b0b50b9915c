//! Integration: fault injection — platforms with redundant energy devices
//! ride through device failures that kill single-device designs.

use mseh::core::{
    IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh::env::{EnvConditions, EnvSampler, Environment, ReplayEnvironment, Trace};
use mseh::harvesters::PvModule;
use mseh::node::{DutyCyclePolicy, FailoverPolicy, FixedDuty, SensorNode, VoltageThreshold};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{
    run_resilience_campaign_with_threads, run_simulation, run_simulation_observed,
    BrownoutConverter, CampaignConfig, ConservationAuditor, DegradingHarvester, FaultScenario,
    FaultSchedule, GlitchingHarvester, IntermittentStorage, RingRecorder, ScenarioOutcome,
    SimConfig, SimEvent, SimObserver, WindowBooks,
};
use mseh::storage::{Battery, Supercap};
use mseh::systems::{resilience, SystemId};
use mseh::units::{DutyCycle, Joules, Seconds, Volts, Watts, WattsPerSqM};

fn pv_channel() -> InputChannel {
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn charged_cap() -> Supercap {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.5));
    cap
}

fn charged_lipo() -> Battery {
    let mut b = Battery::lipo_400mah();
    b.set_soc(0.8);
    b
}

/// A solar rig whose primary buffer fails open after `fail_h` hours;
/// optionally a healthy secondary battery backs it up.
fn rig(fail_h: f64, with_backup: bool) -> PowerUnit {
    let failing = IntermittentStorage::new(
        Box::new(charged_cap()),
        FaultSchedule::one_shot(Seconds::from_hours(fail_h)),
    );
    let mut builder = PowerUnit::builder("resilience rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(failing)),
            StoreRole::PrimaryBuffer,
            true,
        );
    if with_backup {
        builder = builder.store_port(
            PortRequirement::any_in_window("batt", Volts::ZERO, Volts::new(4.3)),
            Some(Box::new(charged_lipo())),
            StoreRole::SecondaryBuffer,
            true,
        );
    }
    builder
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

#[test]
fn single_store_platform_dies_with_its_store() {
    let mut unit = rig(12.0, false);
    let result = run_simulation(
        &mut unit,
        &Environment::outdoor_temperate(13),
        &SensorNode::submilliwatt_class(),
        &mut FixedDuty::new(DutyCycle::saturating(0.1)),
        SimConfig::over(Seconds::from_days(2.0)),
    );
    // After the store fails, every night is an outage.
    assert!(result.uptime < 0.95, "uptime {}", result.uptime);
    assert!(result.brownout_steps > 0);
    assert!(result.audit_residual < 1e-6, "{}", result.audit_residual);
}

#[test]
fn redundant_store_carries_the_platform_through() {
    let mut unit = rig(12.0, true);
    let result = run_simulation(
        &mut unit,
        &Environment::outdoor_temperate(13),
        &SensorNode::submilliwatt_class(),
        &mut FixedDuty::new(DutyCycle::saturating(0.1)),
        SimConfig::over(Seconds::from_days(2.0)),
    );
    assert!(result.uptime > 0.99, "uptime {}", result.uptime);
    assert!(result.audit_residual < 1e-6);
    // The failed cap really is dead.
    let cap = unit.store_ports()[0].device().expect("attached");
    assert_eq!(cap.capacity().value(), 0.0);
}

#[test]
fn degrading_panel_reduces_harvest_across_seasons() {
    let fresh_channel = InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    let tired_channel = InputChannel::new(
        Box::new(DegradingHarvester::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Seconds::from_days(10.0),
            0.3,
        )),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    let build = |channel| {
        PowerUnit::builder("degradation rig")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(channel),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(charged_cap())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    };
    let env = Environment::outdoor_temperate(17);
    let node = SensorNode::submilliwatt_class();
    // Compare day 9 (late in the degrading panel's life).
    let late = SimConfig::over(Seconds::from_days(1.0)).starting_at(Seconds::from_days(9.0));
    let mut fresh = build(fresh_channel);
    let mut tired = build(tired_channel);
    let fresh_run = run_simulation(
        &mut fresh,
        &env,
        &node,
        &mut FixedDuty::new(DutyCycle::saturating(0.05)),
        late,
    );
    let tired_run = run_simulation(
        &mut tired,
        &env,
        &node,
        &mut FixedDuty::new(DutyCycle::saturating(0.05)),
        late,
    );
    let ratio = tired_run.harvested.value() / fresh_run.harvested.value();
    assert!(
        (0.25..0.5).contains(&ratio),
        "degraded/fresh harvest ratio {ratio}"
    );
}

#[test]
fn replayed_site_trace_drives_a_full_simulation() {
    // A synthetic "measured" irradiance log: a harsh three-day overcast
    // spell the seeded model would not produce.
    let mut log = Trace::new("site log");
    for hour in 0..=72 {
        let h = hour as f64;
        let value = if (10.0..14.0).contains(&(h % 24.0)) {
            60.0
        } else {
            0.0
        };
        log.push(Seconds::from_hours(h), value);
    }
    let env = ReplayEnvironment::new(Environment::outdoor_temperate(3)).with_irradiance(log);
    // Sanity: the replayed channel is what the platform sees.
    assert_eq!(
        env.conditions(Seconds::from_hours(36.0)).irradiance.value(),
        60.0
    );
    let mut unit = PowerUnit::builder("trace rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(charged_cap())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build();
    let result = run_simulation(
        &mut unit,
        &env,
        &SensorNode::submilliwatt_class(),
        &mut VoltageThreshold::supercap_ladder(),
        SimConfig::over(Seconds::from_days(3.0)),
    );
    // The site's 4 h × 60 W/m² days harvest something but far less than
    // the synthetic summer (~tens of kJ).
    assert!(result.harvested.value() > 1.0, "{:?}", result.harvested);
    assert!(result.harvested.value() < 5_000.0, "{:?}", result.harvested);
    assert!(result.audit_residual < 1e-6);
    let _ = Watts::ZERO;
}

/// A dual-store rig with full monitoring whose primary supercap fails
/// open on `schedule`; the small secondary cap is all that's left while
/// the fault holds.
fn failover_rig(schedule: FaultSchedule) -> PowerUnit {
    let mut secondary = Supercap::edlc_1f();
    secondary.set_voltage(Volts::new(2.5));
    let mut unit = PowerUnit::builder("failover rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(charged_cap())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .store_port(
            PortRequirement::any_in_window("aux", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(secondary)),
            StoreRole::SecondaryBuffer,
            true,
        )
        .supervisor(Supervisor {
            location: IntelligenceLocation::PowerUnit,
            monitoring: mseh::node::MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: true },
            overhead: Watts::from_micro(5.0),
        })
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build();
    assert!(unit.instrument_store(0, |inner| {
        Box::new(IntermittentStorage::new(inner, schedule))
    }));
    unit
}

#[test]
fn failover_policy_lifts_uptime_on_a_multi_store_rig() {
    // The primary fails open at hour 18 and stays down through the
    // night; an aggressive always-on duty is hopeless on the 1 F
    // secondary alone. The failover wrapper detects the collapse and
    // sheds load until the store comes back.
    let schedule =
        FaultSchedule::one_shot_recovering(Seconds::from_hours(18.0), Seconds::from_hours(10.0));
    let node = SensorNode::milliwatt_class();
    let env = Environment::outdoor_temperate(23);
    let config = SimConfig::over(Seconds::from_days(2.0));

    let mut plain_unit = failover_rig(schedule.clone());
    let mut plain_policy = FixedDuty::new(DutyCycle::ONE);
    let plain = run_simulation(&mut plain_unit, &env, &node, &mut plain_policy, config);

    let mut wrapped_unit = failover_rig(schedule);
    let mut wrapped_policy = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::ONE)))
        .with_hold(Seconds::from_hours(6.0));
    let mut auditor = ConservationAuditor::new();
    let wrapped = run_simulation_observed(
        &mut wrapped_unit,
        &env,
        &node,
        &mut wrapped_policy,
        config,
        &mut [&mut auditor],
    );

    assert!(
        wrapped_policy.failover_count() >= 1,
        "the collapse must actually be detected"
    );
    assert!(
        wrapped.uptime > plain.uptime + 0.05,
        "failover uptime {} vs plain {}",
        wrapped.uptime,
        plain.uptime
    );
    // The books stay closed through the fault, the failover and the
    // recovery.
    assert!(plain.audit_residual < 1e-6, "{}", plain.audit_residual);
    assert!(
        auditor.report().worst_relative < 1e-6,
        "{}",
        auditor.report()
    );
}

#[test]
fn fault_fire_and_clear_inside_one_window_both_surface() {
    // Regression: the runner used to infer faults from capacity drops
    // at window edges, so a fault that fired *and* cleared between two
    // polls (here: down from t=120 s to t=300 s, inside the first
    // 10-minute control window) was invisible. The wrappers now expose
    // fired/cleared counters and the runner emits the missed pair.
    let schedule = FaultSchedule::one_shot_recovering(Seconds::new(120.0), Seconds::new(180.0));
    let mut unit = failover_rig(schedule);
    // Big enough that per-step harvest/discharge events can't evict the
    // one fault pair we're looking for.
    let mut ring = RingRecorder::new(4096);
    let result = run_simulation_observed(
        &mut unit,
        &Environment::outdoor_temperate(5),
        &SensorNode::submilliwatt_class(),
        &mut FixedDuty::new(DutyCycle::saturating(0.05)),
        SimConfig::over(Seconds::from_hours(1.0)),
        &mut [&mut ring],
    );
    let kinds: Vec<&str> = ring.events().iter().map(|e| e.kind()).collect();
    assert!(
        kinds.contains(&"fault_fire"),
        "fire event missing: {kinds:?}"
    );
    assert!(
        kinds.contains(&"fault_clear"),
        "clear event missing: {kinds:?}"
    );
    assert!(result.audit_residual < 1e-6);
    let (fires, clears) = unit.fault_counts();
    assert_eq!((fires, clears), (1, 1));
}

/// One convention for every scheduled wrapper: a primary store, an
/// output stage and a lead harvester on one schedule, one wrapper per
/// unit, are each down for exactly the steps that start inside a
/// window, and at every window edge the store's and the stage's fault
/// counts are the schedule's counts at that edge.
#[test]
fn every_wrapper_is_down_for_exactly_the_steps_starting_in_its_windows() {
    // No edge falls on a step edge; the middle window sits inside one
    // step, so no step starts in it but both its edges are counted.
    let schedule = FaultSchedule::from_windows(vec![
        (Seconds::new(1_234.5), Seconds::new(2_345.6)),
        (Seconds::new(5_000.25), Seconds::new(5_030.75)),
        (Seconds::new(7_777.7), Seconds::new(10_901.1)),
    ]);
    let unit = |channel: Option<InputChannel>| {
        let mut builder = PowerUnit::builder("convention rig");
        if channel.is_some() {
            builder = builder.harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                channel,
                true,
            );
        }
        builder
            .store_port(
                PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(charged_cap())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    };
    // With no harvester the load draws on the store every step.
    let mut store = unit(None);
    assert!(store.instrument_store(0, |inner| {
        Box::new(IntermittentStorage::new(inner, schedule.clone()))
    }));
    let mut stage = unit(None);
    stage
        .instrument_output_stage(|inner| Box::new(BrownoutConverter::new(inner, schedule.clone())));
    let mut lead = unit(Some(pv_channel()));
    assert!(lead.instrument_harvester(0, |inner| {
        Box::new(GlitchingHarvester::new(inner, schedule.clone()))
    }));

    let (dt, steps_per_window) = (Seconds::new(60.0), 10);
    let load = Watts::from_milli(1.0);
    for k in 0..240 {
        let t = Seconds::new(60.0 * f64::from(k));
        if k % steps_per_window == 0 {
            let counts = (schedule.fired_by(t), schedule.cleared_by(t));
            assert_eq!(store.fault_counts(), counts, "store counts at {t}");
            assert_eq!(stage.fault_counts(), counts, "stage counts at {t}");
        }
        let mut daylight = EnvConditions::quiescent(t);
        daylight.irradiance = WattsPerSqM::new(800.0);
        let up = !schedule.is_down(t);
        let drawn = store.step(&daylight, dt, load).discharged;
        assert_eq!(drawn > Joules::ZERO, up, "store, step at {t}");
        let served = stage.step(&daylight, dt, load).fully_served();
        assert_eq!(served, up, "stage, step at {t}");
        let harvested = lead.step(&daylight, dt, load).harvested;
        assert_eq!(harvested > Joules::ZERO, up, "harvester, step at {t}");
    }
    assert_eq!(store.fault_counts(), (3, 3));
    assert_eq!(stage.fault_counts(), (3, 3));
    assert_eq!(lead.fault_counts(), (3, 3));
}

#[test]
fn campaign_metrics_are_thread_count_invariant_for_every_system() {
    // The acceptance bar for the campaign engine: availability metrics
    // for all seven Table-I systems are bit-identical at 1, 2 and 4
    // worker threads.
    let horizon = Seconds::from_hours(12.0);
    let seeds = [1u64, 2, 3];
    for id in SystemId::ALL {
        let run = |threads: usize| {
            run_resilience_campaign_with_threads(
                threads,
                &seeds,
                |seed| resilience::resilience_scenario(id, seed, horizon),
                &resilience::natural_node(id),
                CampaignConfig::over(horizon),
            )
        };
        let base = run(1);
        assert!(
            base.worst_audit_relative < 1e-6,
            "{id}: audit {}",
            base.worst_audit_relative
        );
        for threads in [2, 4] {
            assert_eq!(base, run(threads), "{id} diverged at {threads} threads");
        }
    }
}

/// The hot-swap rig: a one-shot primary fault, and a recovery hook that
/// re-routes to a fresh store through the existing management path,
/// detaching whatever sits on the secondary port and hot-swapping in a
/// charged spare.
fn hot_swap_scenario(seed: u64) -> FaultScenario<PowerUnit> {
    let schedule = FaultSchedule::one_shot(Seconds::from_hours(1.0));
    FaultScenario::new(
        failover_rig(schedule.clone()),
        Environment::outdoor_temperate(seed),
        Box::new(FixedDuty::new(DutyCycle::saturating(0.2))),
        schedule,
    )
    .with_recovery(|unit: &mut PowerUnit, _now| {
        let mut spare = Supercap::edlc_22f();
        spare.set_voltage(Volts::new(2.5));
        unit.detach_storage(1);
        unit.attach_storage(1, Box::new(spare), None).is_ok()
    })
}

#[test]
fn campaign_counts_recoveries_made_through_the_hot_swap_path() {
    let horizon = Seconds::from_hours(4.0);
    let summary = run_resilience_campaign_with_threads(
        1,
        &[5],
        hot_swap_scenario,
        &SensorNode::submilliwatt_class(),
        CampaignConfig::over(horizon).with_check_interval(Seconds::from_hours(1.0)),
    );
    let outcome = &summary.outcomes[0];
    assert_eq!(outcome.faults_fired, 1);
    assert_eq!(outcome.faults_cleared, 0, "one-shot never self-clears");
    assert!(outcome.recoveries >= 1, "{outcome:?}");
    assert!(
        outcome.time_to_recover.is_some(),
        "hook repair counts as the recovery signal"
    );
    assert!(outcome.energy_stranded > Joules::ZERO, "{outcome:?}");
    assert!(summary.worst_audit_relative < 1e-6, "{summary:?}");
}

/// One scenario's outcome from a one-seed campaign.
fn campaign_outcome(
    scenario: impl Fn(u64) -> FaultScenario<PowerUnit> + Sync,
    seed: u64,
    node: &SensorNode,
    config: CampaignConfig,
) -> ScenarioOutcome {
    run_resilience_campaign_with_threads(1, &[seed], scenario, node, config)
        .outcomes
        .remove(0)
}

#[test]
fn a_campaign_scenario_books_exactly_like_a_single_run() {
    let horizon = Seconds::from_days(2.0);
    let config = CampaignConfig::over(horizon);
    for id in SystemId::ALL {
        let node = resilience::natural_node(id);
        for seed in [1u64, 7, 42] {
            let scenario = |s| resilience::resilience_scenario(id, s, horizon);
            let outcome = campaign_outcome(scenario, seed, &node, config);
            let mut alone = scenario(seed);
            let single = run_simulation(
                &mut alone.platform,
                &alone.env,
                &node,
                alone.policy.as_mut(),
                config.sim,
            );
            let outage = Seconds::new(single.longest_outage_steps as f64 * config.sim.dt.value());
            assert_eq!(
                (
                    outcome.uptime,
                    outcome.delivered,
                    outcome.shortfall,
                    outcome.longest_outage
                ),
                (single.uptime, single.delivered, single.shortfall, outage),
                "{id} seed {seed}"
            );
        }
    }
}

/// The detection of the injected fault — the first fault observation
/// at or after `injected`, its absolute fire time — and the first
/// recovery signal after it.
#[derive(Default)]
struct FirstSignals {
    injected: f64,
    fire: Option<f64>,
    recovery: Option<f64>,
}

impl FirstSignals {
    fn recovered(&mut self, t: Seconds) {
        if self.fire.is_some() && self.recovery.is_none() {
            self.recovery = Some(t.value());
        }
    }
}

impl SimObserver for FirstSignals {
    fn on_event(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::FaultFire { time, .. } if time.value() >= self.injected => {
                self.fire.get_or_insert(time.value());
            }
            SimEvent::FaultClear { time, .. } | SimEvent::FailoverEngaged { time, .. } => {
                self.recovered(time);
            }
            _ => {}
        }
    }
}

/// The fault metrics of `scenario` run in segments of the check
/// interval, one `run_simulation_observed` per segment with the
/// recovery hook called between segments: fault, clear, failover and
/// recovery counts, time to detect, time to recover and peak stranded
/// energy, in `ScenarioOutcome`'s units.
#[allow(clippy::type_complexity)]
fn segmented_fault_metrics(
    mut scenario: FaultScenario<PowerUnit>,
    node: &SensorNode,
    config: CampaignConfig,
) -> (u64, u64, u64, u64, Option<Seconds>, Option<Seconds>, Joules) {
    let sim = config.sim;
    let injected = scenario
        .schedule
        .first_fault()
        .map_or(f64::INFINITY, |fire| (sim.start_at + fire).value());
    let mut signals = FirstSignals {
        injected,
        ..FirstSignals::default()
    };
    let (mut recoveries, mut stranded) = (0, Joules::ZERO);
    let total = sim.duration.value();
    let mut covered = 0.0;
    while total - covered >= sim.dt.value() {
        let segment = SimConfig {
            duration: Seconds::new(config.check_interval.value().min(total - covered)),
            ..sim.starting_at(sim.start_at + Seconds::new(covered))
        };
        run_simulation_observed(
            &mut scenario.platform,
            &scenario.env,
            node,
            scenario.policy.as_mut(),
            segment,
            &mut [&mut signals],
        );
        covered += segment.duration.value();
        stranded = stranded.max(scenario.platform.stranded_energy());
        if covered < total {
            if let Some(hook) = scenario.recovery.as_mut() {
                let now = sim.start_at + Seconds::new(covered);
                if hook(&mut scenario.platform, now) {
                    recoveries += 1;
                    signals.recovered(now);
                }
            }
        }
    }
    let (fired, cleared) = scenario.platform.fault_counts();
    let detect = signals.fire.map(|seen| Seconds::new(seen - injected));
    let recover = signals
        .fire
        .zip(signals.recovery)
        .map(|(fire, rec)| Seconds::new(rec - fire));
    let failovers = scenario.policy.failover_count();
    (
        fired, cleared, failovers, recoveries, detect, recover, stranded,
    )
}

/// Asserts that a one-seed campaign of `scenario` reports the fault
/// metrics of [`segmented_fault_metrics`].
fn assert_matches_segmented(
    name: &str,
    scenario: impl Fn(u64) -> FaultScenario<PowerUnit> + Sync,
    seed: u64,
    node: &SensorNode,
    config: CampaignConfig,
) {
    let o = campaign_outcome(&scenario, seed, node, config);
    assert_eq!(
        (
            o.faults_fired,
            o.faults_cleared,
            o.failovers,
            o.recoveries,
            o.time_to_detect,
            o.time_to_recover,
            o.energy_stranded
        ),
        segmented_fault_metrics(scenario(seed), node, config),
        "{name}"
    );
}

#[test]
fn campaign_fault_metrics_match_a_segmented_run() {
    let horizon = Seconds::from_days(2.0);
    let config = CampaignConfig::over(horizon);
    for id in SystemId::ALL {
        for seed in [1u64, 7, 42] {
            assert_matches_segmented(
                &format!("{id} seed {seed}"),
                |s| resilience::resilience_scenario(id, s, horizon),
                seed,
                &resilience::natural_node(id),
                config,
            );
        }
    }
    assert_matches_segmented(
        "hot-swap rig",
        hot_swap_scenario,
        5,
        &SensorNode::submilliwatt_class(),
        config,
    );
}

/// A campaign detects its injected fault at the first control-window
/// edge at or after the fault fires: never before it, and less than one
/// window after it, whatever the other wrappers fired first.
#[test]
fn time_to_detect_is_under_one_control_window() {
    let horizon = Seconds::from_days(2.0);
    let config = CampaignConfig::over(horizon);
    let interval = config.sim.control_interval.value();
    for id in SystemId::ALL {
        let scenario = |s| resilience::resilience_scenario(id, s, horizon);
        for seed in [1u64, 7, 42] {
            let injected = (scenario(seed).schedule.first_fault())
                .expect("two days draw a store fault")
                .value();
            let outcome = campaign_outcome(scenario, seed, &resilience::natural_node(id), config);
            let detect = outcome
                .time_to_detect
                .expect("the fault is detected")
                .value();
            let edge = (injected / interval).ceil() * interval;
            assert_eq!(detect, edge - injected, "{id} seed {seed}");
            assert!(
                (0.0..interval).contains(&detect),
                "{id} seed {seed}: {detect}"
            );
        }
    }
}

/// A fault already down at the run's first instant is detected at the
/// first window edge, the run's start, and its recovery at the edge
/// where it clears.
#[test]
fn a_fault_down_at_the_first_instant_is_detected_at_the_start() {
    let schedule = FaultSchedule::one_shot_recovering(Seconds::ZERO, Seconds::from_hours(1.0));
    let scenario = |seed| {
        let store = IntermittentStorage::new(Box::new(charged_cap()), schedule.clone());
        let unit = PowerUnit::builder("first-instant rig")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(pv_channel()),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(store)),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
        FaultScenario::new(
            unit,
            Environment::outdoor_temperate(seed),
            Box::new(FixedDuty::new(DutyCycle::saturating(0.1))),
            schedule.clone(),
        )
    };
    let config = CampaignConfig::over(Seconds::from_hours(3.0));
    let outcome = campaign_outcome(scenario, 3, &SensorNode::submilliwatt_class(), config);
    assert_eq!((outcome.faults_fired, outcome.faults_cleared), (1, 1));
    assert_eq!(outcome.time_to_detect, Some(Seconds::ZERO), "{outcome:?}");
    assert_eq!(
        outcome.time_to_recover,
        Some(Seconds::from_hours(1.0)),
        "{outcome:?}"
    );
}

/// Keeps everything one observer is sent.
struct Log {
    steps: bool,
    events: Vec<SimEvent>,
    windows: Vec<WindowBooks>,
}

impl Log {
    fn new(steps: bool) -> Self {
        Self {
            steps,
            events: Vec::new(),
            windows: Vec::new(),
        }
    }
}

impl SimObserver for Log {
    fn on_event(&mut self, event: &SimEvent) {
        self.events.push(*event);
    }

    fn on_window(&mut self, books: &WindowBooks) {
        self.windows.push(*books);
    }

    fn wants_step_events(&self) -> bool {
        self.steps
    }
}

/// The rank of a per-step event in a step's order, `None` for an
/// edge event.
fn step_rank(event: &SimEvent) -> Option<usize> {
    match event {
        SimEvent::Harvest { .. } => Some(0),
        SimEvent::ConversionLoss { .. } => Some(1),
        SimEvent::StoreCharge { .. } => Some(2),
        SimEvent::StoreDischarge { .. } => Some(3),
        SimEvent::Shortfall { .. } => Some(4),
        _ => None,
    }
}

/// Per-step events go only to an observer that asks for them, as each
/// step happens and in a fixed order; the edge events and window books
/// are the same for every observer.
#[test]
fn step_events_reach_only_the_observers_that_ask() {
    let horizon = Seconds::from_days(2.0);
    let mut scenario = resilience::resilience_scenario(SystemId::B, 7, horizon);
    let (mut edges, mut stepped) = (Log::new(false), Log::new(true));
    run_simulation_observed(
        &mut scenario.platform,
        &scenario.env,
        &resilience::natural_node(SystemId::B),
        scenario.policy.as_mut(),
        SimConfig::over(horizon),
        &mut [&mut edges, &mut stepped],
    );

    // Both observers see the same edge events and window books; only
    // the one that asked sees step events.
    assert!(edges.events.iter().all(|e| step_rank(e).is_none()));
    let stepped_edges: Vec<SimEvent> = (stepped.events.iter())
        .filter(|e| step_rank(e).is_none())
        .copied()
        .collect();
    assert_eq!(edges.events, stepped_edges);
    assert_eq!(edges.windows, stepped.windows);
    assert_eq!(edges.windows.len(), 288);
    for kind in ["policy_change", "fault_fire", "fault_clear", "run_end"] {
        assert!(edges.events.iter().any(|e| e.kind() == kind), "no {kind}");
    }

    // Each step is one Harvest, one ConversionLoss, then StoreCharge,
    // StoreDischarge and Shortfall in that order when positive; a
    // window's step events sum to its books.
    let mut seen = [0u64; 5];
    let mut books = stepped.windows.iter();
    // Each flow's sum in step-event order, the overhead last.
    let mut sums = [0.0f64; 6];
    let mut last: Option<(usize, Seconds)> = None;
    for event in &stepped.events {
        let Some(rank) = step_rank(event) else {
            if let SimEvent::WindowEnd { .. } = event {
                let w = books.next().expect("one books per window");
                let booked = [
                    w.harvested,
                    w.converter_loss,
                    w.charged,
                    w.discharged,
                    w.shortfall,
                    w.overhead,
                ];
                assert_eq!(sums, booked.map(|e| e.value()));
                sums = [0.0; 6];
            }
            continue;
        };
        let (t, energy) = (event.time(), event.values()[0].unwrap());
        match (rank, last) {
            // A step opens once the previous one has its ConversionLoss.
            (0, None) => {}
            (0, Some((prev, _))) => assert!(prev >= 1, "{event:?}"),
            (1, prev) => assert_eq!(prev, Some((0, t)), "{event:?}"),
            (_, Some((prev, at))) => {
                assert!((1..rank).contains(&prev) && at == t, "{event:?}");
                assert!(energy > 0.0, "{event:?}");
            }
            (_, None) => panic!("{event:?} opens the stream"),
        }
        sums[rank] += energy;
        if let SimEvent::ConversionLoss { overhead, .. } = event {
            sums[5] += overhead.value();
        }
        seen[rank] += 1;
        last = Some((rank, t));
    }
    assert!(books.next().is_none());
    assert_eq!(seen[0], 2880);
    assert_eq!(seen[1], 2880);
    assert!(seen[2..].iter().all(|&n| n > 0), "{seen:?}");
}
