//! Determinism contracts of the simulation engine.
//!
//! Two families of guarantees live here:
//!
//! 1. **Parallel-engine determinism** — fanning a seed sweep across
//!    worker threads, through the pool or as a one-contender arena,
//!    must be observationally invisible: bit-for-bit the same
//!    `SimResult`s, in the same seed order, as a sequential loop.
//! 2. **Held-snapshot memos** — the input channels' solve memos (the
//!    step memo and the open-circuit-voltage memo) answer only steps
//!    whose snapshot the walk holds for a whole control window, and
//!    must be bit-exact replay, never approximation: for every surveyed
//!    system a per-window run equals a per-step run over a table that
//!    repeats each window's snapshot, which memoizes nothing; hot-swap
//!    and wrap flush both memos, and fault wrappers are never memoized,
//!    so no stale answer survives a hardware or fault transition.

use mseh::core::{PortRequirement, PowerUnit, StepReport, StoreRole};
use mseh::env::{EnvSampler, Environment};
use mseh::harvesters::{CacheStats, FlowTurbine, HarvesterKind, PvModule};
use mseh::node::{FixedDuty, SensorNode};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{
    par_map_with, run_arena, run_fleet, run_simulation, run_simulation_observed, ArenaConfig,
    ArenaSpec, ConservationAuditor, Contender, FaultSchedule, FleetConfig, FleetGroup, FleetResult,
    FleetSpec, GlitchingHarvester, HeldWindows, SimConfig, SimResult, Spread,
};
use mseh::storage::Supercap;
use mseh::systems::{system_b, SystemId};
use mseh::units::{DutyCycle, Seconds, Volts, Watts};

const SEEDS: [u64; 8] = [1, 7, 42, 300, 4096, 65535, 123456, 987654321];

fn rig() -> PowerUnit {
    let pv = InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    let wind = InputChannel::new(
        Box::new(FlowTurbine::micro_wind()),
        Box::new(FractionalVoc::thevenin_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    PowerUnit::builder("determinism rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv),
            true,
        )
        .harvester_port(
            PortRequirement::any_in_window("wind", Volts::ZERO, Volts::new(12.0)),
            Some(wind),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(cap)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

fn five_percent() -> FixedDuty {
    FixedDuty::new(DutyCycle::saturating(0.05))
}

/// One seed's run of the rig at its own site.
fn run_seed(seed: u64, config: SimConfig) -> SimResult {
    run_simulation(
        &mut rig(),
        &Environment::outdoor_temperate(seed),
        &SensorNode::submilliwatt_class(),
        &mut five_percent(),
        config,
    )
}

/// The reference every parallel path must match: one run per seed, in
/// seed order, on the calling thread.
fn sequential(config: SimConfig) -> Vec<SimResult> {
    SEEDS.iter().map(|&seed| run_seed(seed, config)).collect()
}

/// The seed sweep as a one-contender arena on `threads` workers (`0` =
/// the default pool), every lane kept in seed order.
fn arena_sweep(threads: usize, horizon: Seconds) -> Vec<SimResult> {
    let spec = ArenaSpec::boxed(
        "determinism",
        SensorNode::submilliwatt_class(),
        |_| Box::new(rig()),
        Environment::outdoor_temperate,
    )
    .with_contender(Contender::new("fixed-5%", |_| Box::new(five_percent())))
    .with_seeds(&SEEDS);
    let config = ArenaConfig::over(horizon)
        .with_threads(threads)
        .keep_lane_results();
    run_arena(&spec, config).lane_results.expect("kept")
}

/// Different seeds genuinely differ, so an equality over the sweep is
/// not vacuous: at least two runs harvested different totals.
fn assert_seeds_differ(runs: &[SimResult]) {
    assert_eq!(runs.len(), SEEDS.len());
    let joules: Vec<f64> = runs.iter().map(|r| r.harvested.value()).collect();
    let harvested = Spread::of(&joules);
    assert!(harvested.max > harvested.min, "{harvested:?}");
}

/// Runs fanned out over the pool return bit-for-bit the same
/// `SimResult`s as the sequential loop for the same seeds, at every
/// worker count — including full recorded traces.
#[test]
fn parallel_ensemble_is_bit_identical_to_sequential() {
    let config = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_hours(18.0))
    };
    let sequential = sequential(config);
    assert_eq!(sequential.len(), SEEDS.len());
    assert!(sequential.iter().all(|r| r.traces.is_some()));
    for threads in [1, 2, 3, 4, 8] {
        let parallel = par_map_with(threads, &SEEDS, |&seed| run_seed(seed, config));
        // Whole-result equality covers every SimResult field: energy
        // books, uptime, outage stats and traces.
        assert_eq!(parallel, sequential, "threads = {threads}");
    }
}

/// One worker equals many workers: `MSEH_THREADS=1`-style execution is
/// not a special case.
#[test]
fn single_thread_equals_multi_thread() {
    let horizon = Seconds::from_hours(18.0);
    let one = arena_sweep(1, horizon);
    let many = arena_sweep(8, horizon);
    assert_eq!(one, many);
    assert_eq!(one, sequential(SimConfig::over(horizon)));
    assert_seeds_differ(&one);
}

/// The default pool (sized by `MSEH_THREADS` / `available_parallelism`)
/// agrees with the sequential reference too.
#[test]
fn default_pool_matches_sequential() {
    let horizon = Seconds::from_hours(6.0);
    let default = arena_sweep(0, horizon);
    assert_eq!(default, sequential(SimConfig::over(horizon)));
    assert_seeds_differ(&default);
}

// ---------------------------------------------------------------------
// Held-snapshot memos
// ---------------------------------------------------------------------

/// A one-node fleet of `unit`s at `site` under per-window cadence, the
/// node's result kept.
fn held_fleet(
    unit: impl Fn() -> PowerUnit + Send + Sync + 'static,
    site: Environment,
    config: FleetConfig,
) -> FleetResult {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(site);
    spec.add_group(FleetGroup::new(
        "held windows",
        1,
        site,
        SensorNode::submilliwatt_class(),
        move |_| Box::new(unit()),
        |_| Box::new(five_percent()),
    ));
    run_fleet(
        &spec,
        FleetConfig {
            keep_node_results: true,
            ..config
        },
    )
}

/// The held-snapshot contract, system by system: for every
/// surveyed platform (Table I, Systems A–G) a per-window fleet node,
/// whose held windows replay through the memos (the step memo on
/// environment-pure controllers, the open-circuit-voltage memo under
/// perturb-and-observe), equals a per-step run over the same held
/// snapshots on every physical quantity, and the per-step run replays
/// nothing. The group is un-jittered: a node's jitter factors come from
/// a seed private to the fleet.
#[test]
fn held_window_replays_match_per_step_runs_for_all_seven_systems() {
    let config = FleetConfig::over(Seconds::from_hours(12.0));
    for id in SystemId::ALL {
        let fleet = held_fleet(
            move || id.build(),
            Environment::outdoor_temperate(42),
            config,
        );
        let mut unit = id.build();
        let per_step = run_simulation(
            &mut unit,
            &HeldWindows::new(Environment::outdoor_temperate(42), config.sim),
            &SensorNode::submilliwatt_class(),
            &mut five_percent(),
            config.sim,
        );
        assert_eq!(
            fleet.node_results.expect("kept")[0],
            per_step,
            "{id}: held node diverged from the per-step run"
        );
        let stats = unit.kernel_cache_stats();
        assert_eq!(stats.hits, 0, "{id}: per-step run replayed: {stats:?}");
        assert!(
            fleet.summary.kernel_cache.hits > 0,
            "{id}: held fleet never replayed: {:?}",
            fleet.summary.kernel_cache
        );
    }
}

/// Steps System B through twelve hours of 10-minute snapshots of its
/// site, each held for ten 60 s steps, harvesting through
/// `harvest_held` (held) or `harvest` (per step) and settling a fixed
/// load. At the halfway window the wind module leaves the
/// plug-and-play port for a fresh PV module, and the surviving channel
/// is rebuilt through the wrap path, which must flush its memos.
fn hot_swap_sequence(held: bool) -> (Vec<StepReport>, CacheStats) {
    let mut b = SystemId::B.build();
    let env = Environment::outdoor_temperate(99);
    let (dt, load, windows) = (Seconds::new(60.0), Watts::from_micro(50.0), 72);
    let mut reports = Vec::new();
    for window in 0..windows {
        if window == windows / 2 {
            // The wind module leaves, and its channel's warmed memos
            // leave with it; a fresh (cold) PV module takes the port.
            b.detach_harvester(1).expect("wind module attached");
            let (channel, sheet) = system_b::harvester_module(HarvesterKind::Photovoltaic);
            b.attach_harvester(1, channel, Volts::new(4.1), Some(&sheet))
                .expect("plug-and-play port accepts the module");
            // Same device, but the wrap must flush its memos (an
            // invalidation the counters make observable).
            assert!(b.instrument_harvester(0, |h| h));
        }
        let snapshot = env.conditions(Seconds::from_minutes(10.0 * window as f64));
        for _ in 0..10 {
            let harvest = if held {
                b.harvest_held(&snapshot, dt)
            } else {
                b.harvest(&snapshot, dt)
            };
            reports.push(b.settle(&harvest, dt, load));
        }
    }
    (reports, b.kernel_cache_stats())
}

/// Hot-swapping a harvester mid-run leaves no memo of the old device
/// behind: held steps on both sides of the swap equal the per-step
/// solves bit for bit, and the wrap path's flush shows up in the
/// invalidation counters.
#[test]
fn hot_swap_mid_run_flushes_memos_and_matches_cold_run() {
    let (held, held_stats) = hot_swap_sequence(true);
    let (per_step, per_step_stats) = hot_swap_sequence(false);
    assert_eq!(held, per_step, "held steps diverged from per-step solves");
    assert!(
        held_stats.hits > 0,
        "held steps never replayed: {held_stats:?}"
    );
    assert_eq!(per_step_stats.hits, 0, "{per_step_stats:?}");
    assert!(
        held_stats.invalidations >= 1,
        "wrap path must flush memos: {held_stats:?}"
    );
}

/// The two-source rig with a glitching PV harvester: one dropout firing
/// at hour 4, clearing at hour 7.
fn glitching_rig() -> PowerUnit {
    let mut unit = rig();
    let schedule =
        FaultSchedule::one_shot_recovering(Seconds::from_hours(4.0), Seconds::from_hours(3.0));
    assert!(unit.instrument_harvester(0, |inner| {
        Box::new(GlitchingHarvester::new(inner, schedule))
    }));
    unit
}

/// Runs [`glitching_rig`] per step over `env` under a conservation
/// audit.
fn glitching_run(env: &dyn EnvSampler, config: SimConfig) -> (SimResult, (u64, u64), f64) {
    let mut unit = glitching_rig();
    let mut auditor = ConservationAuditor::new();
    let result = run_simulation_observed(
        &mut unit,
        env,
        &SensorNode::submilliwatt_class(),
        &mut five_percent(),
        config,
        &mut [&mut auditor],
    );
    (result, unit.fault_counts(), auditor.report().worst_relative)
}

/// A fault firing and clearing mid-run: the books stay closed through
/// both transitions, and the glitching wrapper reports itself
/// time-varying, so no memo answers for it on either side of an edge: a
/// per-window node of the faulted rig equals the per-step run over its
/// held windows.
#[test]
fn fault_fire_and_clear_flush_matches_cold_run() {
    let site = Environment::outdoor_temperate(7);
    let recorded = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_hours(18.0))
    };
    let (_, faults, audit) = glitching_run(&site, recorded);
    assert_eq!(faults, (1, 1), "dropout must fire and clear");
    assert!(audit < 1e-6, "audit {audit}");

    let config = FleetConfig::over(Seconds::from_hours(18.0));
    let fleet = held_fleet(glitching_rig, Environment::outdoor_temperate(7), config);
    let (per_step, faults, audit) = glitching_run(&HeldWindows::new(site, config.sim), config.sim);
    assert_eq!(fleet.node_results.expect("kept")[0], per_step);
    assert_eq!(
        faults,
        (1, 1),
        "dropout must fire and clear under held windows"
    );
    assert!(audit < 1e-6, "held audit {audit}");
}
