//! Dense ≡ boxed: the dense lane's batched struct-of-arrays kernels
//! against the scalar reference, a boxed group of the same hardware
//! built by hand with [`PowerUnit::builder`] and stepped one
//! `Platform::step` per node (in the arena: one lockstep settle per
//! lane).
//!
//! The sweep crosses the seven Table-I-style presets with both store
//! kinds, with and without jitter, under both fleet condition cadences
//! (arenas always sample every step). It
//! adds a PV channel under each controller family (fractional-V_oc,
//! fixed point, perturb-and-observe) and fractional-V_oc on the two
//! harvesters without a window-lane kernel (wind, RF). Every cell
//! agrees with the boxed reference on every physical quantity. Cache
//! counters may differ where the lanes run, because the lanes synthesize
//! theirs; jittered per-step cells close the lane gate and run boxed,
//! so they agree in full. A daylight fleet and arena hold the EDLC at its
//! rated voltage, where the boxed store replays its inversion memo and
//! the lanes, which keep none, solve every target.

use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_env::{EnvJitter, Environment};
use mseh_harvesters::{FlowTurbine, PvModule, Rectenna, Teg, Transducer};
use mseh_node::{
    DutyCyclePolicy, EnergyNeutral, FixedDuty, HillClimbDuty, MonitoringLevel, SensorNode,
    VoltageThreshold,
};
use mseh_power::{
    DcDcConverter, FixedPoint, FractionalVoc, IdealDiode, InputChannel, OperatingPointController,
    PerturbObserve,
};
use mseh_sim::{
    run_arena_controlled, run_fleet, run_fleet_controlled, ArenaConfig, ArenaResult, ArenaSpec,
    Contender, DenseClass, DenseGroup, DenseStore, EnvCadence, FleetConfig, FleetGroup, FleetSpec,
    FleetSummary, RunControl, SimConfig,
};
use mseh_storage::{Battery, Storage, StorageKind, Supercap};
use mseh_units::{DutyCycle, Joules, Seconds, Volts, Watts};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One dense platform preset per Table-I system: the seven surveyed
/// harvester-class / controller / buffer combinations, reduced to the
/// dense lane's one-channel/one-store shape.
const PRESETS: usize = 7;

/// Presets whose harvester is a Thevenin-like source (wind, TEG, RF).
fn thevenin_source(preset: usize) -> bool {
    matches!(preset, 2 | 4 | 6)
}

fn harvester_for(preset: usize) -> Box<dyn Transducer> {
    match preset {
        // A: Smart Power Unit — large PV.
        0 => Box::new(PvModule::outdoor_panel_two_watt()),
        // B and D: Plug-and-Play, MPWiNode — half-watt PV.
        1 | 3 => Box::new(PvModule::outdoor_panel_half_watt()),
        // C: AmbiMax — wind column.
        2 => Box::new(FlowTurbine::micro_wind()),
        // E: MAX17710 eval — TEG.
        4 => Box::new(Teg::module_40mm()),
        // F: EnerChip eval — indoor amorphous PV.
        5 => Box::new(PvModule::amorphous_indoor()),
        // G: EH-Link — RF rectenna column.
        _ => Box::new(Rectenna::rectenna_915mhz()),
    }
}

/// Which controller a cell's channel runs on the preset's harvester.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ctl {
    /// The preset's own: fixed point on B, C, F and G (turbines and
    /// rectennas expose no batched V_oc kernel, so fixed point is what
    /// lets them clear the window-lane gate), fractional-V_oc elsewhere.
    Preset,
    Focv,
    Fixed,
    PerturbObserve,
}

fn channel_for(preset: usize, ctl: Ctl) -> InputChannel {
    let focv = || -> Box<dyn OperatingPointController> {
        if thevenin_source(preset) {
            Box::new(FractionalVoc::thevenin_standard())
        } else {
            Box::new(FractionalVoc::pv_standard())
        }
    };
    let controller: Box<dyn OperatingPointController> = match (ctl, preset) {
        (Ctl::Preset, 1) | (Ctl::Fixed, _) => Box::new(FixedPoint::new(Volts::new(3.2))),
        (Ctl::Preset, 2) => Box::new(FixedPoint::new(Volts::new(3.0))),
        (Ctl::Preset, 5) => Box::new(FixedPoint::new(Volts::new(2.4))),
        (Ctl::Preset, 6) => Box::new(FixedPoint::new(Volts::new(1.8))),
        (Ctl::Preset, _) | (Ctl::Focv, _) => focv(),
        (Ctl::PerturbObserve, _) => Box::new(PerturbObserve::new()),
    };
    InputChannel::new(
        harvester_for(preset),
        controller,
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn cap_for(preset: usize) -> Supercap {
    let mut cap = match preset % 3 {
        0 => Supercap::edlc_22f(),
        1 => Supercap::lithium_ion_capacitor_40f(),
        _ => Supercap::edlc_1f(),
    };
    cap.set_voltage(Volts::new(
        cap.min_voltage().value() + 0.7 * (cap.max_voltage() - cap.min_voltage()).value(),
    ));
    cap
}

/// Battery analog of [`cap_for`]: the surveyed chemistries at partial
/// state of charge (the primary cell rides along to prove the lanes
/// honour the charge-refusal mask too).
fn batt_for(preset: usize) -> Battery {
    let mut batt = match preset % 4 {
        0 => Battery::lipo_400mah(),
        1 => Battery::nimh_aa_pair(),
        2 => Battery::thin_film_50uah(),
        _ => Battery::li_primary_aa(),
    };
    batt.set_soc(0.3 + 0.1 * (preset % 5) as f64);
    batt
}

#[derive(Debug, Clone, Copy)]
enum Store {
    Supercap,
    Battery,
}

const STORES: [Store; 2] = [Store::Supercap, Store::Battery];
const CADENCES: [EnvCadence; 2] = [EnvCadence::PerStep, EnvCadence::PerWindow];

fn dense_store(preset: usize, store: Store) -> DenseStore {
    match store {
        Store::Supercap => DenseStore::Supercap(cap_for(preset)),
        Store::Battery => DenseStore::Battery(batt_for(preset)),
    }
}

fn site_for(preset: usize, seed: u64) -> Environment {
    match preset {
        // TEG and rectenna presets need a gradient / an RF field.
        4 | 6 => Environment::indoor_industrial(seed),
        5 => Environment::indoor_office(seed),
        _ => Environment::outdoor_temperate(seed),
    }
}

fn policy_for(preset: usize, node_seed: u64) -> Box<dyn DutyCyclePolicy> {
    if preset.is_multiple_of(2) {
        Box::new(VoltageThreshold::supercap_ladder())
    } else {
        Box::new(FixedDuty::new(DutyCycle::saturating(
            0.02 + 0.08 * (node_seed % 7) as f64 / 7.0,
        )))
    }
}

/// The hardware a dense cell declares, built by hand as a boxed unit:
/// one harvester port, one primary-buffer store, the output converter,
/// and a zero-overhead supervisor reporting full status.
fn unit_for(preset: usize, ctl: Ctl, store: Store) -> PowerUnit {
    let device: Box<dyn Storage> = match store {
        Store::Supercap => Box::new(cap_for(preset)),
        Store::Battery => Box::new(batt_for(preset)),
    };
    unit_with(preset, ctl, device)
}

/// [`unit_for`] around a given store device.
fn unit_with(preset: usize, ctl: Ctl, device: Box<dyn Storage>) -> PowerUnit {
    PowerUnit::builder("preset")
        .harvester_port(
            PortRequirement::any_in_window("in", Volts::ZERO, Volts::new(50.0)),
            Some(channel_for(preset, ctl)),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(5.0)),
            Some(device),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor {
            monitoring: MonitoringLevel::Full,
            ..Supervisor::none()
        })
        .build()
}

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
struct Cell {
    preset: usize,
    ctl: Ctl,
    store: Store,
    seed: u64,
    jitter: EnvJitter,
    cadence: EnvCadence,
}

impl Cell {
    fn preset(preset: usize, store: Store, seed: u64, jitter: EnvJitter) -> Self {
        Self {
            preset,
            ctl: Ctl::Preset,
            store,
            seed,
            jitter,
            cadence: EnvCadence::PerWindow,
        }
    }

    fn dense(self, count: usize) -> FleetSpec {
        let Cell {
            preset, ctl, store, ..
        } = self;
        let mut spec = FleetSpec::new();
        let site = spec.add_site(site_for(preset, self.seed));
        spec.add_dense_group(
            DenseGroup::new(
                "preset",
                count,
                site,
                SensorNode::submilliwatt_class(),
                move || channel_for(preset, ctl),
                DcDcConverter::buck_boost_3v3(),
                dense_store(preset, store),
                move |node_seed| policy_for(preset, node_seed),
            )
            .with_seed(self.seed ^ 0x5EED)
            .with_jitter(self.jitter)
            .with_monitoring(MonitoringLevel::Full),
        );
        spec
    }

    fn boxed(self, count: usize) -> FleetSpec {
        let Cell {
            preset, ctl, store, ..
        } = self;
        let mut spec = FleetSpec::new();
        let site = spec.add_site(site_for(preset, self.seed));
        spec.add_group(
            FleetGroup::new(
                "preset",
                count,
                site,
                SensorNode::submilliwatt_class(),
                move |_| Box::new(unit_for(preset, ctl, store)),
                move |node_seed| policy_for(preset, node_seed),
            )
            .with_seed(self.seed ^ 0x5EED)
            .with_jitter(self.jitter),
        );
        spec
    }

    fn config(self) -> FleetConfig {
        let config = FleetConfig::over(horizon());
        match self.cadence {
            EnvCadence::PerStep => config.exact_env(),
            EnvCadence::PerWindow => config,
        }
    }

    /// Runs the cell as a dense group and as its boxed twin.
    fn run(self) -> (FleetSummary, FleetSummary) {
        let run = |spec: &FleetSpec| {
            run_fleet_controlled(spec, self.config(), RunControl::default())
                .expect("valid spec")
                .expect("no cancel token")
                .summary
        };
        (run(&self.dense(8)), run(&self.boxed(8)))
    }

    /// Asserts the cell: full equality where the lane gate is closed
    /// (jittered under per-step cadence), equality modulo cache counters
    /// elsewhere.
    fn check(self) {
        let (dense, boxed) = self.run();
        if !self.jitter.is_none() && self.cadence == EnvCadence::PerStep {
            assert_eq!(dense, boxed, "{self:?}");
        } else {
            assert_eq!(modulo_cache(dense.clone()), modulo_cache(boxed), "{self:?}");
        }
    }
}

/// The presets × both cadences, one store kind and jitter setting.
fn sweep_presets(store: Store, jitter: EnvJitter, seeds: [u64; 2]) {
    for preset in 0..PRESETS {
        for seed in seeds {
            for cadence in CADENCES {
                Cell {
                    cadence,
                    ..Cell::preset(preset, store, seed, jitter)
                }
                .check();
            }
        }
    }
}

/// Guards the jittered sweeps against vacuity: a preset whose channel
/// misses the window-lane gate would run boxed on both sides and
/// compare the reference with itself.
fn assert_presets_take_window_lanes() {
    for preset in 0..PRESETS {
        assert!(
            channel_for(preset, Ctl::Preset).supports_window_lanes(Seconds::new(60.0)),
            "preset {preset} is not window-batchable"
        );
    }
}

/// A duration whose fractional closer lands mid-window (10 s closer
/// after 2 h of whole steps), shorter than the fractional-Voc sample
/// interval so the hold path of the batched closer is exercised too.
fn horizon() -> Seconds {
    Seconds::from_hours(2.0) + Seconds::new(10.0)
}

/// Cache counters aside (the lanes book synthesized replay counts, the
/// boxed path books each member channel's own), every physical quantity
/// must agree bit for bit.
fn modulo_cache(mut s: FleetSummary) -> FleetSummary {
    s.kernel_cache = Default::default();
    s
}

#[test]
fn batched_matches_scalar_bitwise_across_presets_unjittered() {
    sweep_presets(Store::Supercap, EnvJitter::NONE, [11, 4242]);
}

#[test]
fn batched_matches_scalar_bitwise_across_presets_jittered() {
    assert_presets_take_window_lanes();
    sweep_presets(Store::Supercap, EnvJitter::relative(0.25), [7, 1999]);
}

#[test]
fn battery_batched_matches_scalar_bitwise_across_presets_unjittered() {
    sweep_presets(Store::Battery, EnvJitter::NONE, [11, 4242]);
}

#[test]
fn battery_batched_matches_scalar_bitwise_across_presets_jittered() {
    assert_presets_take_window_lanes();
    sweep_presets(Store::Battery, EnvJitter::relative(0.25), [7, 1999]);
}

#[test]
fn pv_controller_families_match_boxed() {
    // Perturb-and-observe cells: see the test below.
    for ctl in [Ctl::Focv, Ctl::Fixed] {
        for store in STORES {
            for jitter in [EnvJitter::NONE, EnvJitter::relative(0.25)] {
                for cadence in CADENCES {
                    Cell {
                        ctl,
                        cadence,
                        ..Cell::preset(3, store, 7, jitter)
                    }
                    .check();
                }
            }
        }
    }
}

#[test]
fn channels_without_window_lanes_match_boxed() {
    // Fractional-V_oc on a turbine and a rectenna: replayable, but with
    // no batched V_oc kernel, so jittered groups run boxed whatever the
    // cadence.
    for preset in [2, 6] {
        assert!(!channel_for(preset, Ctl::Focv).supports_window_lanes(Seconds::new(60.0)));
        for store in STORES {
            for jitter in [EnvJitter::NONE, EnvJitter::relative(0.25)] {
                for cadence in CADENCES {
                    Cell {
                        ctl: Ctl::Focv,
                        cadence,
                        ..Cell::preset(preset, store, 1999, jitter)
                    }
                    .check();
                }
            }
        }
    }
}

fn arena_roster() -> Vec<Contender> {
    vec![
        Contender::new("fixed-2%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.02)))
        }),
        Contender::new("fixed-20%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.20)))
        }),
        Contender::new("ladder", |_| Box::new(VoltageThreshold::supercap_ladder())),
        Contender::new("energy-neutral", |_| Box::new(EnergyNeutral::new())),
        Contender::new("hill-climb", |seed| Box::new(HillClimbDuty::new(seed))),
    ]
}

/// An arena cell run as `ArenaSpec::dense` and as `ArenaSpec::boxed`
/// on the hand-built unit, per-lane results kept.
fn arena_pair(preset: usize, ctl: Ctl, store: Store) -> (ArenaResult, ArenaResult) {
    arena_pair_with(
        preset,
        ctl,
        store,
        move || unit_for(preset, ctl, store),
        ArenaConfig::over(horizon()),
    )
}

/// [`arena_pair`] with the boxed side's unit and the run config given.
fn arena_pair_with(
    preset: usize,
    ctl: Ctl,
    store: Store,
    unit: impl Fn() -> PowerUnit + Send + Sync + 'static,
    config: ArenaConfig,
) -> (ArenaResult, ArenaResult) {
    let env = move |seed| site_for(preset, seed);
    let dense = ArenaSpec::dense(
        "preset",
        SensorNode::submilliwatt_class(),
        DenseClass::new(
            move || channel_for(preset, ctl),
            DcDcConverter::buck_boost_3v3(),
            dense_store(preset, store),
        )
        .with_monitoring(MonitoringLevel::Full),
        env,
    );
    let boxed = ArenaSpec::boxed(
        "preset",
        SensorNode::submilliwatt_class(),
        move |_| Box::new(unit()),
        env,
    );
    let config = config.keep_lane_results();
    let run = |spec: ArenaSpec| {
        let spec = spec.with_contenders(arena_roster()).with_seeds(&[3, 17]);
        run_arena_controlled(&spec, config, RunControl::default())
            .expect("valid spec")
            .expect("no cancel token")
    };
    (run(dense), run(boxed))
}

#[test]
fn arena_dense_lanes_match_boxed_lanes() {
    for preset in 0..PRESETS {
        for store in STORES {
            let (mut dense, mut boxed) = arena_pair(preset, Ctl::Preset, store);
            let cell = format!("preset {preset}, {store:?}");
            assert_eq!(dense.lane_results, boxed.lane_results, "{cell}");
            dense.summary.kernel_cache = Default::default();
            boxed.summary.kernel_cache = Default::default();
            assert_eq!(dense.summary, boxed.summary, "{cell}");
        }
    }
}

/// The daylight preset: half-watt PV on a 22 F EDLC at 70 % of its
/// window, outdoors from 10:00 for 4 h, which fills the buffer within
/// minutes.
const DAYLIGHT_PRESET: usize = 3;

fn daylight_sim() -> SimConfig {
    SimConfig::over(Seconds::from_hours(4.0)).starting_at(Seconds::from_hours(10.0))
}

fn two_percent(_: u64) -> Box<dyn DutyCyclePolicy> {
    Box::new(FixedDuty::new(DutyCycle::saturating(0.02)))
}

/// A boxed store that records whether it ever sat at its rated voltage
/// and otherwise is the supercap it wraps.
struct RailWatch {
    cap: Supercap,
    at_rail: Arc<AtomicBool>,
}

impl RailWatch {
    /// The daylight preset's EDLC, reporting to `at_rail`.
    fn daylight(at_rail: &Arc<AtomicBool>) -> Box<dyn Storage> {
        Box::new(Self {
            cap: cap_for(DAYLIGHT_PRESET),
            at_rail: Arc::clone(at_rail),
        })
    }

    fn watch<T>(&mut self, moved: T) -> T {
        if self.cap.voltage() >= self.cap.max_voltage() {
            self.at_rail.store(true, Ordering::Relaxed);
        }
        moved
    }
}

impl Storage for RailWatch {
    fn name(&self) -> &str {
        self.cap.name()
    }
    fn kind(&self) -> StorageKind {
        self.cap.kind()
    }
    fn voltage(&self) -> Volts {
        self.cap.voltage()
    }
    fn stored_energy(&self) -> Joules {
        self.cap.stored_energy()
    }
    fn capacity(&self) -> Joules {
        self.cap.capacity()
    }
    fn min_voltage(&self) -> Volts {
        self.cap.min_voltage()
    }
    fn max_voltage(&self) -> Volts {
        self.cap.max_voltage()
    }
    fn max_charge_power(&self) -> Watts {
        self.cap.max_charge_power()
    }
    fn max_discharge_power(&self) -> Watts {
        self.cap.max_discharge_power()
    }
    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let moved = self.cap.charge(power, dt);
        self.watch(moved)
    }
    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let moved = self.cap.discharge(power, dt);
        self.watch(moved)
    }
    fn idle(&mut self, dt: Seconds) {
        self.cap.idle(dt);
        self.watch(());
    }
    fn losses(&self) -> Joules {
        self.cap.losses()
    }
}

#[test]
fn daylight_pinned_supercap_fleet_matches_boxed() {
    let preset = DAYLIGHT_PRESET;
    for cadence in CADENCES {
        for jitter in [EnvJitter::NONE, EnvJitter::relative(0.1)] {
            let at_rail = Arc::new(AtomicBool::new(false));
            let watch = Arc::clone(&at_rail);
            let run = |spec: FleetSpec| {
                let config = FleetConfig {
                    sim: daylight_sim(),
                    cadence,
                    ..FleetConfig::over(Seconds::ZERO)
                };
                run_fleet(&spec, config).summary
            };
            let mut dense = FleetSpec::new();
            let site = dense.add_site(site_for(preset, 5));
            dense.add_dense_group(
                DenseGroup::new(
                    "daylight",
                    8,
                    site,
                    SensorNode::submilliwatt_class(),
                    move || channel_for(preset, Ctl::Preset),
                    DcDcConverter::buck_boost_3v3(),
                    dense_store(preset, Store::Supercap),
                    two_percent,
                )
                .with_seed(0xDA7)
                .with_jitter(jitter)
                .with_monitoring(MonitoringLevel::Full),
            );
            let mut boxed = FleetSpec::new();
            let site = boxed.add_site(site_for(preset, 5));
            boxed.add_group(
                FleetGroup::new(
                    "daylight",
                    8,
                    site,
                    SensorNode::submilliwatt_class(),
                    move |_| {
                        let store = RailWatch::daylight(&watch);
                        Box::new(unit_with(preset, Ctl::Preset, store))
                    },
                    two_percent,
                )
                .with_seed(0xDA7)
                .with_jitter(jitter),
            );
            let (dense, boxed) = (run(dense), run(boxed));
            let cell = format!("{cadence:?}, {jitter:?}");
            assert!(at_rail.load(Ordering::Relaxed), "{cell}: never at the rail");
            assert_eq!(modulo_cache(dense), modulo_cache(boxed), "{cell}");
        }
    }
}

#[test]
fn daylight_pinned_supercap_arena_matches_boxed() {
    // Arenas sample every step: one cadence.
    let at_rail = Arc::new(AtomicBool::new(false));
    let watch = Arc::clone(&at_rail);
    let (mut dense, mut boxed) = arena_pair_with(
        DAYLIGHT_PRESET,
        Ctl::Preset,
        Store::Supercap,
        move || unit_with(DAYLIGHT_PRESET, Ctl::Preset, RailWatch::daylight(&watch)),
        ArenaConfig {
            sim: daylight_sim(),
            ..ArenaConfig::over(Seconds::ZERO)
        },
    );
    assert!(at_rail.load(Ordering::Relaxed), "never at the rail");
    assert_eq!(dense.lane_results, boxed.lane_results);
    dense.summary.kernel_cache = Default::default();
    boxed.summary.kernel_cache = Default::default();
    assert_eq!(dense.summary, boxed.summary);
}

#[test]
fn perturb_and_observe_runs_boxed_under_per_window_cadence() {
    // Perturb-and-observe has no window-lane rule, so a jittered group
    // runs boxed under either cadence and agrees with the boxed
    // reference in full. An un-jittered group takes the lanes: one
    // driver channel steps the shared harvest table exactly as each
    // member's channel would, so it agrees modulo the lanes' synthesized
    // cache counters.
    assert!(!channel_for(3, Ctl::PerturbObserve).supports_window_lanes(Seconds::new(60.0)));
    for store in STORES {
        for cadence in CADENCES {
            for jitter in [EnvJitter::NONE, EnvJitter::relative(0.25)] {
                let cell = Cell {
                    ctl: Ctl::PerturbObserve,
                    cadence,
                    ..Cell::preset(3, store, 7, jitter)
                };
                let (dense, boxed) = cell.run();
                if jitter.is_none() {
                    assert_ne!(dense.kernel_cache, boxed.kernel_cache, "{cell:?} ran boxed");
                    assert_eq!(modulo_cache(dense), modulo_cache(boxed), "{cell:?}");
                } else {
                    assert_eq!(dense, boxed, "{cell:?}");
                }
            }
        }
    }
}

#[test]
fn battery_batched_tier_is_invariant_to_run_geometry() {
    let spec = Cell::preset(1, Store::Battery, 31, EnvJitter::relative(0.2)).dense(13);
    let reference = run_fleet(
        &spec,
        FleetConfig::over(horizon())
            .with_threads(1)
            .with_shard_size(13),
    )
    .summary;
    for (threads, shard) in [(2usize, 1usize), (4, 3), (3, 1024), (1, 5)] {
        let got = run_fleet(
            &spec,
            FleetConfig::over(horizon())
                .with_threads(threads)
                .with_shard_size(shard),
        )
        .summary;
        assert_eq!(got, reference, "{threads} threads, shard {shard}");
    }
}

#[test]
fn batched_tier_is_invariant_to_run_geometry() {
    // Shard size 1 forces single-lane runs, 3 splits the group mid-run,
    // 1024 gives one run for the whole group: the lane population's
    // composition must never leak into any lane's bits.
    let spec = Cell::preset(0, Store::Supercap, 31, EnvJitter::relative(0.2)).dense(13);
    let reference = run_fleet(
        &spec,
        FleetConfig::over(horizon())
            .with_threads(1)
            .with_shard_size(13),
    )
    .summary;
    for (threads, shard) in [(2usize, 1usize), (4, 3), (3, 1024), (1, 5)] {
        let got = run_fleet(
            &spec,
            FleetConfig::over(horizon())
                .with_threads(threads)
                .with_shard_size(shard),
        )
        .summary;
        assert_eq!(got, reference, "{threads} threads, shard {shard}");
    }
}

#[test]
fn percentiles_and_stragglers_stay_ordered_on_every_tier() {
    let spec = Cell::preset(0, Store::Supercap, 23, EnvJitter::relative(0.3)).dense(17);
    let s = run_fleet(&spec, FleetConfig::over(horizon())).summary;
    let u = &s.uptime;
    let ladder = [u.min, u.p05, u.p25, u.p50, u.p75, u.p95, u.max];
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "percentile ladder not monotone: {ladder:?}"
    );
    assert!(u.min <= u.mean && u.mean <= u.max);
    // The fleet lists its eight worst nodes.
    assert_eq!(s.stragglers.len(), 8);
    assert!(
        s.stragglers
            .windows(2)
            .all(|w| (w[0].uptime, w[0].node) < (w[1].uptime, w[1].node)
                || (w[0].uptime == w[1].uptime && w[0].node < w[1].node)),
        "stragglers must be sorted by (uptime, node index)"
    );
    assert_eq!(s.stragglers[0].uptime, u.min);
}
