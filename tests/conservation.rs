//! Randomized integration tests: energy conservation and determinism
//! hold for arbitrary platform configurations, loads and horizons.
//! Inputs come from the deterministic [`mseh::units::fuzz::Rng`]
//! (seeds fixed, failures reproduce exactly).

use mseh::core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh::env::Environment;
use mseh::harvesters::{FlowTurbine, PvModule, Rectenna, Teg, VibrationHarvester};
use mseh::node::{FixedDuty, SensorNode};
use mseh::power::{
    DcDcConverter, DiodeStage, FixedPoint, FractionalVoc, IdealDiode, InputChannel,
    OperatingPointController, PerturbObserve, PowerStage,
};
use mseh::sim::{
    run_simulation, run_simulation_observed, ConservationAuditor, MetricsObserver, RingRecorder,
    SimConfig,
};
use mseh::storage::{Battery, FuelCell, Storage, Supercap};
use mseh::systems::{resilience, SystemId};
use mseh::units::fuzz::Rng;
use mseh::units::{DutyCycle, Seconds, Volts, Watts};

/// Builds the i-th harvester flavour.
fn harvester(i: u8) -> Box<dyn mseh::harvesters::Transducer> {
    match i % 6 {
        0 => Box::new(PvModule::outdoor_panel_half_watt()),
        1 => Box::new(FlowTurbine::micro_wind()),
        2 => Box::new(Teg::module_40mm()),
        3 => Box::new(VibrationHarvester::piezo_cantilever()),
        4 => Box::new(Rectenna::rectenna_915mhz()),
        _ => Box::new(PvModule::amorphous_indoor()),
    }
}

/// Builds the i-th controller flavour.
fn controller(i: u8) -> Box<dyn OperatingPointController> {
    match i % 4 {
        0 => Box::new(PerturbObserve::new()),
        1 => Box::new(FractionalVoc::pv_standard()),
        2 => Box::new(FractionalVoc::thevenin_standard()),
        _ => Box::new(FixedPoint::new(Volts::new(1.5))),
    }
}

/// Builds the i-th storage flavour, with some charge.
fn storage(i: u8, soc: f64) -> Box<dyn Storage> {
    match i % 4 {
        0 => {
            let mut c = Supercap::edlc_22f();
            let v = c.min_voltage().lerp(c.max_voltage(), soc);
            c.set_voltage(v);
            Box::new(c)
        }
        1 => {
            let mut b = Battery::lipo_400mah();
            b.set_soc(soc);
            Box::new(b)
        }
        2 => {
            let mut b = Battery::nimh_aa_pair();
            b.set_soc(soc);
            Box::new(b)
        }
        _ => Box::new(FuelCell::hydrogen_cartridge()),
    }
}

fn build_platform(
    harvesters: &[(u8, u8)],
    stores: &[(u8, f64)],
    supervisor: Supervisor,
) -> PowerUnit {
    let mut builder = PowerUnit::builder("prop platform").supervisor(supervisor);
    for (i, &(h, c)) in harvesters.iter().enumerate() {
        let protection: Box<dyn PowerStage> = if h % 2 == 0 {
            Box::new(IdealDiode::nanopower())
        } else {
            Box::new(DiodeStage::schottky_single())
        };
        builder = builder.harvester_port(
            PortRequirement::any_in_window(format!("h{i}"), Volts::ZERO, Volts::new(20.0)),
            Some(InputChannel::new(
                harvester(h),
                controller(c),
                protection,
                Box::new(DcDcConverter::mppt_front_end_5v()),
            )),
            true,
        );
    }
    for (i, &(s, soc)) in stores.iter().enumerate() {
        let role = match i {
            0 => StoreRole::PrimaryBuffer,
            1 => StoreRole::SecondaryBuffer,
            _ => StoreRole::Backup,
        };
        builder = builder.store_port(
            PortRequirement::any_in_window(format!("s{i}"), Volts::ZERO, Volts::new(6.0)),
            Some(storage(s, soc)),
            role,
            true,
        );
    }
    builder
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

/// A random list of `(harvester flavour, controller flavour)` pairs.
fn random_harvesters(rng: &mut Rng) -> Vec<(u8, u8)> {
    let len = 1 + rng.index(3);
    (0..len)
        .map(|_| (rng.index(6) as u8, rng.index(4) as u8))
        .collect()
}

/// A random list of `(storage flavour, state of charge)` pairs.
fn random_stores(rng: &mut Rng) -> Vec<(u8, f64)> {
    let len = 1 + rng.index(3);
    (0..len)
        .map(|_| (rng.index(4) as u8, rng.in_range(0.0, 1.0)))
        .collect()
}

/// Storage-side conservation closes for any platform shape, any
/// environment, any duty cycle, with the intelligence on no device or
/// devolved to every energy device (a module draw on each occupied
/// port, backups included).
#[test]
fn conservation_closes_for_arbitrary_platforms() {
    let mut rng = Rng::new(0xC0);
    for _ in 0..24 {
        let harvesters = random_harvesters(&mut rng);
        let stores = random_stores(&mut rng);
        let env_kind = rng.index(4);
        let duty = rng.in_range(0.0, 1.0);
        let seed = rng.index(1000) as u64;
        let hours = rng.in_range(2.0, 24.0);

        let central = build_platform(&harvesters, &stores, Supervisor::none());
        let devolved = build_platform(&harvesters, &stores, Supervisor::devolved());
        let modules = (harvesters.len() + stores.len()) as f64;
        let extra = devolved.quiescent_power() - central.quiescent_power();
        assert!(
            (extra - PowerUnit::MODULE_DRAW * modules).abs() < Watts::from_nano(1.0),
            "module draws {extra} (harvesters {harvesters:?}, stores {stores:?})"
        );
        for mut unit in [central, devolved] {
            let env = match env_kind {
                0 => Environment::outdoor_temperate(seed),
                1 => Environment::indoor_industrial(seed),
                2 => Environment::agricultural(seed),
                _ => Environment::outdoor_winter(seed),
            };
            let result = run_simulation(
                &mut unit,
                &env,
                &SensorNode::submilliwatt_class(),
                &mut FixedDuty::new(DutyCycle::saturating(duty)),
                SimConfig::over(Seconds::from_hours(hours)),
            );
            let location = unit.supervisor().location;
            assert!(
                result.audit_residual < 1e-6,
                "residual {} (harvesters {harvesters:?}, stores {stores:?}, intelligence {location})",
                result.audit_residual
            );
            // Uptime and samples are well-formed.
            assert!((0.0..=1.0).contains(&result.uptime));
            assert!(result.samples >= 0.0);
            assert!(result.harvested.value() >= 0.0);
        }
    }
}

/// The conservation auditor closes the per-window energy books on every
/// Table-I platform, the metrics bridge agrees with the run totals, and
/// attaching the full observer stack does not perturb the physics.
#[test]
fn auditor_closes_the_books_on_all_table_one_systems() {
    for id in SystemId::ALL {
        let env = Environment::outdoor_temperate(7);
        let node = SensorNode::submilliwatt_class();
        let config = SimConfig::over(Seconds::from_days(1.0));

        let mut unit = id.build();
        let mut auditor = ConservationAuditor::new();
        let mut meter = MetricsObserver::new();
        let mut ring = RingRecorder::new(64);
        let observed = run_simulation_observed(
            &mut unit,
            &env,
            &node,
            &mut FixedDuty::new(DutyCycle::saturating(0.05)),
            config,
            &mut [&mut auditor, &mut meter, &mut ring],
        );

        // Books balance every control window, not just in aggregate.
        let report = auditor.report();
        assert_eq!(report.windows, 144, "{id}");
        assert!(
            report.worst_relative < 1e-6,
            "{id}: conservation violated — {report}"
        );

        // The metrics bridge saw every step and agrees with the totals.
        let m = meter.registry();
        assert_eq!(m.counter("sim_steps_total", &[]), Some(1440.0), "{id}");
        assert_eq!(m.counter("sim_windows_total", &[]), Some(144.0), "{id}");
        let metered = m.counter("sim_harvested_joules_total", &[]).unwrap();
        let harvested = observed.harvested.value();
        assert!(
            (metered - harvested).abs() <= 1e-9 * harvested.abs().max(1.0),
            "{id}: metered {metered} vs harvested {harvested}"
        );

        // The flight recorder kept the tail of the event stream.
        assert_eq!(ring.len(), 64, "{id}");
        assert!(ring.total_seen() > 1440, "{id}");

        // Observation must not perturb the physics: the bare run is
        // bit-for-bit identical.
        let mut bare_unit = id.build();
        let bare = run_simulation(
            &mut bare_unit,
            &env,
            &node,
            &mut FixedDuty::new(DutyCycle::saturating(0.05)),
            config,
        );
        assert_eq!(bare, observed, "{id}");
    }
}

/// The metrics bridge counts a brown-out step exactly when the run's
/// books do: `sim_brownout_steps_total` equals
/// `SimResult::brownout_steps` on every Table-I system in its natural
/// deployment over a week, including runs whose only shortfalls are
/// rounding dust below the 1 pJ threshold.
#[test]
fn brownout_metric_matches_the_run_books() {
    for id in SystemId::ALL {
        let mut unit = id.build();
        let mut meter = MetricsObserver::new();
        let result = run_simulation_observed(
            &mut unit,
            &resilience::natural_environment(id, 7),
            &resilience::natural_node(id),
            resilience::natural_policy(id).as_mut(),
            SimConfig::over(Seconds::from_days(7.0)),
            &mut [&mut meter],
        );
        assert_eq!(
            meter.registry().counter("sim_brownout_steps_total", &[]),
            Some(result.brownout_steps as f64),
            "{id}"
        );
    }
}

/// Identical configuration + seed ⇒ bit-identical results.
#[test]
fn simulation_is_deterministic() {
    let mut rng = Rng::new(0xC1);
    for _ in 0..16 {
        let seed = rng.index(500) as u64;
        let duty = rng.in_range(0.0, 1.0);
        let run = || {
            let mut unit = build_platform(&[(0, 1), (1, 2)], &[(0, 0.5)], Supervisor::none());
            run_simulation(
                &mut unit,
                &Environment::outdoor_temperate(seed),
                &SensorNode::submilliwatt_class(),
                &mut FixedDuty::new(DutyCycle::saturating(duty)),
                SimConfig::over(Seconds::from_hours(6.0)),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.harvested, b.harvested);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.shortfall, b.shortfall);
        assert_eq!(a.samples, b.samples);
    }
}

/// Higher duty never yields more uptime and never fewer demanded
/// samples-at-full-power: monotonicity smoke checks.
#[test]
fn duty_monotonicity() {
    let mut rng = Rng::new(0xC2);
    for _ in 0..8 {
        let seed = rng.index(200) as u64;
        let run_at = |duty: f64| {
            let mut unit = build_platform(&[(0, 1)], &[(0, 0.6)], Supervisor::none());
            run_simulation(
                &mut unit,
                &Environment::outdoor_winter(seed),
                &SensorNode::milliwatt_class(),
                &mut FixedDuty::new(DutyCycle::saturating(duty)),
                SimConfig::over(Seconds::from_hours(12.0)),
            )
        };
        let low = run_at(0.05);
        let high = run_at(0.9);
        assert!(
            high.uptime <= low.uptime + 1e-9,
            "high-duty uptime {} vs low {}",
            high.uptime,
            low.uptime
        );
        assert!(high.shortfall >= low.shortfall - mseh::units::Joules::new(1e-9));
    }
}
