//! Randomized integration tests: energy conservation and determinism
//! hold for arbitrary platform configurations, loads and horizons.
//! Inputs come from the deterministic [`mseh::units::fuzz::Rng`]
//! (seeds fixed, failures reproduce exactly).

use mseh::core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh::env::{EnvJitter, Environment};
use mseh::harvesters::{FlowTurbine, PvModule, Rectenna, Teg, VibrationHarvester};
use mseh::node::{DutyCyclePolicy, FixedDuty, MonitoringLevel, SensorNode, VoltageThreshold};
use mseh::power::{
    DcDcConverter, DiodeStage, FixedPoint, FractionalVoc, IdealDiode, InputChannel,
    OperatingPointController, PerturbObserve, PowerStage,
};
use mseh::sim::{
    run_fleet, run_simulation, run_simulation_observed, BrownoutConverter, ConservationAuditor,
    DenseGroup, DenseStore, FaultSchedule, FleetConfig, FleetGroup, FleetSpec, FleetSummary,
    HeldWindows, IntermittentStorage, MetricsObserver, RingRecorder, SimConfig,
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
        builder = builder.harvester_port(
            PortRequirement::any_in_window(format!("h{i}"), Volts::ZERO, Volts::new(20.0)),
            Some(InputChannel::new(
                harvester(h),
                controller(c),
                protection(h),
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

/// Builds the i-th protection flavour.
fn protection(i: u8) -> Box<dyn PowerStage> {
    if i.is_multiple_of(2) {
        Box::new(IdealDiode::nanopower())
    } else {
        Box::new(DiodeStage::schottky_single())
    }
}

/// Builds the i-th environment flavour.
fn environment(i: usize, seed: u64) -> Environment {
    match i % 4 {
        0 => Environment::outdoor_temperate(seed),
        1 => Environment::indoor_industrial(seed),
        2 => Environment::agricultural(seed),
        _ => Environment::outdoor_winter(seed),
    }
}

/// The environment flavours in which the i-th harvester flavour finds
/// its ambient source: sun or wind outdoors, a thermal gradient,
/// vibration, an RF field or lighting on the industrial site.
fn sites_for(harvester: u8) -> &'static [usize] {
    match harvester % 6 {
        0 | 1 => &[0, 2, 3],
        _ => &[1],
    }
}

/// The controller flavours that hold the i-th harvester flavour at a
/// point behind `mppt_front_end_5v` that both the front end's 0.3 V
/// input floor and the source's open-circuit voltage admit, as measured
/// on its sites. The 40 mm TEG (about 0.53 V open circuit) takes only
/// the PV rule's 0.40 V: P&O and the Thevenin rule settle near 0.27 V,
/// and 1.5 V is above its open circuit. The rectenna's P&O point sits
/// below the floor too, and 1.5 V above its open circuit.
fn controllers_for(harvester: u8) -> &'static [u8] {
    match harvester % 6 {
        2 => &[1],
        4 => &[1, 2],
        _ => &[0, 1, 2, 3],
    }
}

/// A random list of `(harvester flavour, controller flavour)` pairs.
fn random_harvesters(rng: &mut Rng) -> Vec<(u8, u8)> {
    let len = 1 + rng.index(3);
    (0..len)
        .map(|_| {
            let harvester = rng.index(6) as u8;
            let controllers = controllers_for(harvester);
            (harvester, controllers[rng.index(controllers.len())])
        })
        .collect()
}

/// A random list of `(storage flavour, state of charge)` pairs.
fn random_stores(rng: &mut Rng) -> Vec<(u8, f64)> {
    let len = 1 + rng.index(3);
    (0..len)
        .map(|_| (rng.index(4) as u8, rng.in_range(0.0, 1.0)))
        .collect()
}

/// [`build_platform`] with its first store failing open and its output
/// stage browning out on the given timelines.
fn instrumented_platform(
    harvesters: &[(u8, u8)],
    stores: &[(u8, f64)],
    supervisor: Supervisor,
    store_faults: &FaultSchedule,
    stage_faults: &FaultSchedule,
) -> PowerUnit {
    let mut unit = build_platform(harvesters, stores, supervisor);
    assert!(unit.instrument_store(0, |inner| {
        Box::new(IntermittentStorage::new(inner, store_faults.clone()))
    }));
    unit.instrument_output_stage(|inner| {
        Box::new(BrownoutConverter::new(inner, stage_faults.clone()))
    });
    unit
}

/// How many of the 24 drawn platforms harvest anything, as measured.
/// The other one runs through the night: PV on the agricultural site
/// from 20:00 for 8.5 h.
const HARVESTING_DRAWS: usize = 23;

/// Storage-side conservation closes for any platform shape, any of the
/// first harvester's sites, any start hour, any duty cycle, with the
/// intelligence on no device or devolved to every energy device (a
/// module draw on each occupied port, backups included), while the
/// first store fails open and the output stage browns out on seeded
/// timelines. A one-node per-window fleet of the same unit, whose held
/// windows replay through the channels' memos, equals a per-step run
/// over its held windows.
#[test]
fn conservation_closes_for_arbitrary_platforms() {
    let mut rng = Rng::new(0xC0);
    let mut fired_total = 0;
    let mut harvesting = 0;
    for draw in 0..24 {
        let harvesters = random_harvesters(&mut rng);
        let stores = random_stores(&mut rng);
        let sites = sites_for(harvesters[0].0);
        let env_kind = sites[rng.index(sites.len())];
        let duty = rng.in_range(0.0, 1.0);
        let seed = rng.index(1000) as u64;
        let hours = rng.in_range(2.0, 24.0);
        let start_h = rng.index(24);
        let case = format!(
            "draw {draw}: harvesters {harvesters:?}, stores {stores:?}, site {env_kind}, \
             duty {duty}, seed {seed}, {hours} h from {start_h}:00"
        );

        let central = build_platform(&harvesters, &stores, Supervisor::none());
        let devolved = build_platform(&harvesters, &stores, Supervisor::devolved());
        let modules = (harvesters.len() + stores.len()) as f64;
        let extra = devolved.quiescent_power() - central.quiescent_power();
        assert!(
            (extra - PowerUnit::MODULE_DRAW * modules).abs() < Watts::from_nano(1.0),
            "module draws {extra} ({case})"
        );
        // Two timelines from the drawn seed, so the draws above stay as
        // they were, over twice the horizon.
        let horizon = Seconds::from_hours(hours);
        let sim = SimConfig::over(horizon).starting_at(Seconds::from_hours(start_h as f64));
        let timeline = |salt: u64| {
            FaultSchedule::stochastic(
                seed ^ salt,
                Seconds::from_hours(3.0),
                Seconds::from_minutes(30.0),
                Seconds::from_hours(2.0 * hours),
            )
        };
        let (store_faults, stage_faults) = (timeline(0), timeline(1 << 32));
        let scheduled = (
            store_faults.fired_by(horizon) + stage_faults.fired_by(horizon),
            store_faults.cleared_by(horizon) + stage_faults.cleared_by(horizon),
        );
        fired_total += scheduled.0;
        let node = SensorNode::submilliwatt_class();
        let policy = move || FixedDuty::new(DutyCycle::saturating(duty));
        for supervisor in [Supervisor::none(), Supervisor::devolved()] {
            let unit = {
                let (harvesters, stores) = (harvesters.clone(), stores.clone());
                let (store_faults, stage_faults) = (store_faults.clone(), stage_faults.clone());
                move || {
                    instrumented_platform(
                        &harvesters,
                        &stores,
                        supervisor,
                        &store_faults,
                        &stage_faults,
                    )
                }
            };
            let location = supervisor.location;
            let mut platform = unit();
            let result = run_simulation(
                &mut platform,
                &environment(env_kind, seed),
                &node,
                &mut policy(),
                sim,
            );
            assert!(
                result.audit_residual < 1e-6,
                "residual {} ({case}, intelligence {location})",
                result.audit_residual
            );
            assert_eq!(
                platform.fault_counts(),
                scheduled,
                "{case}, intelligence {location}"
            );
            // Uptime and samples are well-formed.
            assert!((0.0..=1.0).contains(&result.uptime));
            assert!(result.samples >= 0.0);
            assert!(result.harvested.value() >= 0.0);
            if supervisor == Supervisor::none() && result.harvested.value() > 0.0 {
                harvesting += 1;
            }

            // Held ≡ per step, fault wrappers on.
            let config = FleetConfig {
                keep_node_results: true,
                sim,
                ..FleetConfig::over(horizon)
            };
            let mut spec = FleetSpec::new();
            let site = spec.add_site(environment(env_kind, seed));
            let held_unit = unit.clone();
            spec.add_group(FleetGroup::new(
                "drawn",
                1,
                site,
                node.clone(),
                move |_| Box::new(held_unit()),
                move |_| Box::new(policy()),
            ));
            let held = run_fleet(&spec, config).node_results.expect("kept");
            let per_step = run_simulation(
                &mut unit(),
                &HeldWindows::new(environment(env_kind, seed), config.sim),
                &node,
                &mut policy(),
                config.sim,
            );
            assert_eq!(held[0], per_step, "{case}, intelligence {location}");
        }
    }
    assert!(fired_total > 0, "no draw injected a fault");
    assert!(
        harvesting >= HARVESTING_DRAWS,
        "{harvesting} of 24 draws harvested"
    );
}

/// One dense class, its policy and its fleet's geometry, all drawn
/// from `seed`.
#[derive(Debug, Clone, Copy)]
struct DenseDraw {
    seed: u64,
    harvester: u8,
    controller: u8,
    protection: u8,
    /// Which of the seven cell templates, and its state of charge.
    cell: u8,
    soc: f64,
    monitoring: MonitoringLevel,
    /// A voltage ladder over the cell's window, else a fixed duty that
    /// half the draws spread over the nodes.
    ladder: bool,
    duty: f64,
    spread: bool,
    /// One of the harvester's sites (see [`sites_for`]).
    env: usize,
    milliwatt_nodes: bool,
    nodes: usize,
    start_h: u32,
    minutes: u32,
    /// The fractional closer after the whole steps, seconds.
    closer: Option<f64>,
    per_step: bool,
    jitter: bool,
}

impl DenseDraw {
    fn new(seed: u64) -> Self {
        const LEVELS: [MonitoringLevel; 3] = [
            MonitoringLevel::None,
            MonitoringLevel::StoreVoltage,
            MonitoringLevel::Full,
        ];
        let mut rng = Rng::new(seed);
        let harvester = rng.index(6) as u8;
        let sites = sites_for(harvester);
        let controllers = controllers_for(harvester);
        Self {
            seed,
            harvester,
            controller: controllers[rng.index(controllers.len())],
            protection: rng.index(2) as u8,
            cell: rng.index(7) as u8,
            soc: rng.in_range(0.0, 1.0),
            monitoring: LEVELS[rng.index(3)],
            ladder: rng.index(2) == 0,
            duty: rng.in_range(0.01, 0.5),
            spread: rng.index(2) == 0,
            env: sites[rng.index(sites.len())],
            milliwatt_nodes: rng.index(2) == 0,
            nodes: 1 + rng.index(8),
            start_h: rng.index(24) as u32,
            minutes: 120 + rng.index(480) as u32,
            closer: (rng.index(2) == 0).then(|| rng.in_range(1.0, 59.0)),
            per_step: rng.index(2) == 0,
            jitter: rng.index(2) == 0,
        }
    }

    fn channel(&self) -> InputChannel {
        InputChannel::new(
            harvester(self.harvester),
            controller(self.controller),
            protection(self.protection),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }

    /// The drawn cell template at the drawn state of charge.
    fn store(&self) -> DenseStore {
        let cap = |mut c: Supercap| {
            c.set_voltage(c.min_voltage().lerp(c.max_voltage(), self.soc));
            DenseStore::Supercap(c)
        };
        let cell = |mut b: Battery| {
            b.set_soc(self.soc);
            DenseStore::Battery(b)
        };
        match self.cell {
            0 => cap(Supercap::edlc_22f()),
            1 => cap(Supercap::edlc_1f()),
            2 => cap(Supercap::lithium_ion_capacitor_40f()),
            3 => cell(Battery::lipo_400mah()),
            4 => cell(Battery::nimh_aa_pair()),
            5 => cell(Battery::thin_film_50uah()),
            _ => cell(Battery::li_primary_aa()),
        }
    }

    /// [`store`](Self::store) as a boxed device.
    fn device(&self) -> Box<dyn Storage> {
        match self.store() {
            DenseStore::Supercap(c) => Box::new(c),
            DenseStore::Battery(b) => Box::new(b),
        }
    }

    /// The unit the class stands for, built by hand: one harvester
    /// port, one primary buffer, the output converter and a supervisor
    /// at the drawn monitoring level.
    fn unit(&self) -> PowerUnit {
        PowerUnit::builder("drawn unit")
            .harvester_port(
                PortRequirement::any_in_window("h", Volts::ZERO, Volts::new(20.0)),
                Some(self.channel()),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("s", Volts::ZERO, Volts::new(6.0)),
                Some(self.device()),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .supervisor(Supervisor {
                monitoring: self.monitoring,
                ..Supervisor::none()
            })
            .build()
    }

    fn policy(&self, node_seed: u64) -> Box<dyn DutyCyclePolicy> {
        if self.ladder {
            let device = self.device();
            let (lo, hi) = (device.min_voltage(), device.max_voltage());
            Box::new(VoltageThreshold {
                v_high: lo.lerp(hi, 0.7),
                v_low: lo.lerp(hi, 0.35),
                ..VoltageThreshold::supercap_ladder()
            })
        } else {
            let share = if self.spread {
                (1 + node_seed % 3) as f64 / 3.0
            } else {
                1.0
            };
            Box::new(FixedDuty::new(DutyCycle::saturating(self.duty * share)))
        }
    }

    fn config(&self) -> FleetConfig {
        let horizon = Seconds::new(f64::from(self.minutes) * 60.0 + self.closer.unwrap_or(0.0));
        let mut config = FleetConfig::over(horizon);
        config.sim = config
            .sim
            .starting_at(Seconds::from_hours(f64::from(self.start_h)));
        if self.per_step {
            config = config.exact_env();
        }
        config
    }

    /// The draw's fleet summary as a dense group and as a boxed group of
    /// hand-built units, the kernel-cache counters cleared (the lanes
    /// synthesize theirs).
    fn run(self) -> (FleetSummary, FleetSummary) {
        let jitter = if self.jitter {
            EnvJitter::relative(0.15)
        } else {
            EnvJitter::NONE
        };
        let node = if self.milliwatt_nodes {
            SensorNode::milliwatt_class()
        } else {
            SensorNode::submilliwatt_class()
        };
        let run = |spec: &FleetSpec| {
            let mut summary = run_fleet(spec, self.config()).summary;
            summary.kernel_cache = Default::default();
            summary
        };
        let mut dense = FleetSpec::new();
        let site = dense.add_site(environment(self.env, self.seed));
        dense.add_dense_group(
            DenseGroup::new(
                "drawn",
                self.nodes,
                site,
                node.clone(),
                move || self.channel(),
                DcDcConverter::buck_boost_3v3(),
                self.store(),
                move |node_seed| self.policy(node_seed),
            )
            .with_seed(self.seed)
            .with_jitter(jitter)
            .with_monitoring(self.monitoring),
        );
        let mut boxed = FleetSpec::new();
        let site = boxed.add_site(environment(self.env, self.seed));
        boxed.add_group(
            FleetGroup::new(
                "drawn",
                self.nodes,
                site,
                node,
                move |_| Box::new(self.unit()),
                move |node_seed| self.policy(node_seed),
            )
            .with_seed(self.seed)
            .with_jitter(jitter),
        );
        (run(&dense), run(&boxed))
    }
}

/// How many of the 48 dense draws harvest anything, as measured. The
/// other two draw no ambient source: PV on the winter site from 21:00
/// for 588 min, and the TEG on the industrial site from 02:00 for
/// 153 min, before its machines come on.
const HARVESTING_DENSE_DRAWS: usize = 46;

/// A drawn dense class — any harvester under a controller that admits
/// it ([`controllers_for`]), any protection flavour, any of the seven
/// cell templates at any state of charge, each monitoring level, a
/// fixed-duty or voltage-ladder policy, one of the harvester's sites,
/// 1–8 nodes of either load class, either cadence, with or without
/// jitter and a fractional closer — steps its fleet exactly as the
/// boxed units it stands for.
#[test]
fn drawn_dense_classes_equal_their_boxed_units() {
    let mut rng = Rng::new(0xC3);
    let mut harvesting = 0;
    for _ in 0..48 {
        let draw = DenseDraw::new(rng.next_u64());
        let (dense, boxed) = draw.run();
        assert_eq!(dense, boxed, "seed {}: {draw:?}", draw.seed);
        assert!(dense.audit_relative < 1e-6, "seed {}: {draw:?}", draw.seed);
        if dense.harvested.value() > 0.0 {
            harvesting += 1;
        }
    }
    assert!(
        harvesting >= HARVESTING_DENSE_DRAWS,
        "{harvesting} of 48 dense draws harvested"
    );
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
