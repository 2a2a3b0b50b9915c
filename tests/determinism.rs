//! Determinism contracts of the simulation engine.
//!
//! Two families of guarantees live here:
//!
//! 1. **Parallel-engine determinism** — fanning an ensemble across
//!    worker threads must be observationally invisible: bit-for-bit the
//!    same `SimResult`s, in the same seed order, as the sequential path.
//! 2. **Kernel-cache transparency** — the input channels' solve memos
//!    (the step memo and the open-circuit-voltage memo) must be
//!    bit-exact replay, never approximation: a cached run equals the
//!    uncached reference for every surveyed system, per step and over
//!    held windows; hot-swap and wrap flush both memos, and fault
//!    wrappers are never memoized, so no stale answer survives a
//!    hardware or fault transition.

use mseh::core::{PortRequirement, PowerUnit, StoreRole};
use mseh::env::{EnvJitter, Environment};
use mseh::harvesters::{CacheStats, FlowTurbine, HarvesterKind, PvModule};
use mseh::node::{FixedDuty, SensorNode};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{
    run_fleet, run_seed_ensemble, run_seed_ensemble_seq, run_seed_ensemble_with_threads,
    run_simulation, run_simulation_observed, ConservationAuditor, FaultSchedule, FleetConfig,
    FleetGroup, FleetSpec, GlitchingHarvester, SimConfig, SimResult,
};
use mseh::storage::Supercap;
use mseh::systems::{system_b, SystemId};
use mseh::units::{DutyCycle, Seconds, Volts};

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

fn ensemble_at(threads: Option<usize>, record: bool) -> mseh::sim::EnsembleSummary {
    let config = SimConfig {
        record,
        ..SimConfig::over(Seconds::from_hours(18.0))
    };
    let make_platform = |_| rig();
    let make_policy = |_| FixedDuty::new(DutyCycle::saturating(0.05));
    let node = SensorNode::submilliwatt_class();
    match threads {
        Some(n) => run_seed_ensemble_with_threads(
            n,
            &SEEDS,
            make_platform,
            Environment::outdoor_temperate,
            make_policy,
            &node,
            config,
        ),
        None => run_seed_ensemble_seq(
            &SEEDS,
            make_platform,
            Environment::outdoor_temperate,
            make_policy,
            &node,
            config,
        ),
    }
}

/// The parallel ensemble returns bit-for-bit the same `SimResult`s as
/// the sequential path for the same seeds, at every worker count —
/// including full recorded traces.
#[test]
fn parallel_ensemble_is_bit_identical_to_sequential() {
    let sequential = ensemble_at(None, true);
    assert_eq!(sequential.runs.len(), SEEDS.len());
    for threads in [1, 2, 3, 4, 8] {
        let parallel = ensemble_at(Some(threads), true);
        // Whole-summary equality covers every SimResult field (energy
        // books, uptime, outage stats, traces) and the spreads.
        assert_eq!(parallel, sequential, "threads = {threads}");
    }
}

/// One worker equals many workers: `MSEH_THREADS=1`-style execution is
/// not a special case.
#[test]
fn single_thread_equals_multi_thread() {
    let one = ensemble_at(Some(1), false);
    let many = ensemble_at(Some(8), false);
    assert_eq!(one, many);
}

/// The default entry point (pool-sized by `MSEH_THREADS` /
/// `available_parallelism`) agrees with the sequential reference too.
#[test]
fn default_pool_matches_sequential() {
    let config = SimConfig::over(Seconds::from_hours(6.0));
    let node = SensorNode::submilliwatt_class();
    let default = run_seed_ensemble(
        &SEEDS,
        |_| rig(),
        Environment::outdoor_temperate,
        |_| FixedDuty::new(DutyCycle::saturating(0.05)),
        &node,
        config,
    );
    let sequential = run_seed_ensemble_seq(
        &SEEDS,
        |_| rig(),
        Environment::outdoor_temperate,
        |_| FixedDuty::new(DutyCycle::saturating(0.05)),
        &node,
        config,
    );
    assert_eq!(default, sequential);
    assert_eq!(default.seeds, SEEDS.to_vec());
    // Different seeds genuinely differ (the equality above is not
    // vacuous): at least two runs harvested different totals.
    assert!(default.harvested.max > default.harvested.min);
}

// ---------------------------------------------------------------------
// Kernel-cache transparency
// ---------------------------------------------------------------------

/// Runs `unit` for one recorded day and returns the full result
/// (traces included, so equality below is trace-deep).
fn recorded_day(unit: &mut PowerUnit, env: &Environment) -> SimResult {
    let config = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_days(1.0))
    };
    run_simulation(
        unit,
        env,
        &SensorNode::submilliwatt_class(),
        &mut FixedDuty::new(DutyCycle::saturating(0.05)),
        config,
    )
}

/// The tentpole's exactness contract, system by system: for every
/// surveyed platform (Table I, Systems A–G) a run with the kernel
/// caches enabled is bit-for-bit identical — energy books, uptime,
/// outage stats and recorded traces — to the uncached reference run.
#[test]
fn cached_runs_are_bit_identical_to_uncached_for_all_seven_systems() {
    for id in SystemId::ALL {
        let env = Environment::outdoor_temperate(42);

        let mut warm = id.build();
        let cached = recorded_day(&mut warm, &env);

        let mut cold = id.build();
        cold.set_kernel_cache_enabled(false);
        let uncached = recorded_day(&mut cold, &env);

        assert_eq!(cached, uncached, "{id}: cached run diverged");
        // The reference path really ran cache-less: disabled caches
        // count nothing.
        assert_eq!(
            cold.kernel_cache_stats(),
            CacheStats::default(),
            "{id}: uncached reference touched a cache"
        );
        // And the cached path really consulted its caches.
        let stats = warm.kernel_cache_stats();
        assert!(
            stats.hits + stats.misses > 0,
            "{id}: cached run never looked up a memo"
        );
    }
}

/// Per-step runs almost never repeat a key, so the test above cannot
/// show a replay. Held windows can: every surveyed system, as a small
/// jittered fleet under per-window cadence, equals its uncached
/// reference on every physical quantity, the reference counts nothing,
/// and the cached fleet hits (the step memo on environment-pure
/// controllers, the open-circuit-voltage memo under perturb-and-observe).
#[test]
fn held_window_replays_match_uncached_fleets_for_all_seven_systems() {
    for id in SystemId::ALL {
        let fleet = |cached: bool| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(42));
            spec.add_group(
                FleetGroup::new(
                    "held windows",
                    6,
                    site,
                    SensorNode::submilliwatt_class(),
                    move |_| {
                        let mut unit = id.build();
                        unit.set_kernel_cache_enabled(cached);
                        Box::new(unit)
                    },
                    |_| Box::new(FixedDuty::new(DutyCycle::saturating(0.05))),
                )
                .with_seed(11)
                .with_jitter(EnvJitter::relative(0.1)),
            );
            run_fleet(&spec, FleetConfig::over(Seconds::from_hours(12.0))).summary
        };
        let (mut warm, cold) = (fleet(true), fleet(false));
        assert_eq!(
            cold.kernel_cache,
            CacheStats::default(),
            "{id}: uncached reference touched a cache"
        );
        assert!(
            warm.kernel_cache.hits > 0,
            "{id}: cached fleet never replayed: {:?}",
            warm.kernel_cache
        );
        warm.kernel_cache = CacheStats::default();
        assert_eq!(warm, cold, "{id}: cached fleet diverged");
    }
}

/// Runs System B for six hours, hot-swaps the wind module for a second
/// PV module on the plug-and-play port, rebuilds the remaining channel
/// through the wrap path (which must flush its memos), then continues
/// another six hours through the environment's calendar.
fn hot_swap_sequence(cached: bool) -> (SimResult, SimResult, CacheStats) {
    let mut b = SystemId::B.build();
    if !cached {
        b.set_kernel_cache_enabled(false);
    }
    let env = Environment::outdoor_temperate(99);
    let node = SensorNode::submilliwatt_class();
    let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
    let config = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_hours(6.0))
    };
    let before = run_simulation(&mut b, &env, &node, &mut policy, config);

    // Hot-swap: the wind module leaves — and its channel's warmed memos
    // leave with it — and a fresh (cold) PV module takes the port.
    b.detach_harvester(1).expect("wind module attached");
    let (channel, sheet) = system_b::harvester_module(HarvesterKind::Photovoltaic);
    b.attach_harvester(1, channel, Volts::new(4.1), Some(&sheet))
        .expect("plug-and-play port accepts the module");
    // Rebuild the surviving channel through the wrap path: same device,
    // but the swap machinery must flush its memos (an invalidation the
    // counters make observable).
    assert!(b.instrument_harvester(0, |h| h));
    if !cached {
        // The freshly attached module arrives with its cache enabled;
        // the uncached reference must stay uncached.
        b.set_kernel_cache_enabled(false);
    }

    let after = run_simulation(
        &mut b,
        &env,
        &node,
        &mut policy,
        config.starting_at(Seconds::from_hours(6.0)),
    );
    (before, after, b.kernel_cache_stats())
}

/// Hot-swapping a harvester mid-run leaves no memo of the old device
/// behind: both the segment before and the segment after the swap are
/// bit-identical to a reference that never cached anything, and the
/// wrap path's flush shows up in the invalidation counters.
#[test]
fn hot_swap_mid_run_flushes_memos_and_matches_cold_run() {
    let (warm_before, warm_after, warm_stats) = hot_swap_sequence(true);
    let (cold_before, cold_after, _) = hot_swap_sequence(false);
    assert_eq!(warm_before, cold_before, "pre-swap segment diverged");
    assert_eq!(warm_after, cold_after, "post-swap segment diverged");
    assert!(
        warm_stats.invalidations >= 1,
        "wrap path must flush memos: {warm_stats:?}"
    );
}

/// Runs the two-source rig with a glitching PV harvester (one dropout
/// firing at hour 4, clearing at hour 7) under a conservation audit.
fn glitching_run(cached: bool) -> (SimResult, (u64, u64), f64) {
    let mut unit = rig();
    let schedule =
        FaultSchedule::one_shot_recovering(Seconds::from_hours(4.0), Seconds::from_hours(3.0));
    assert!(unit.instrument_harvester(0, |inner| {
        Box::new(GlitchingHarvester::new(inner, schedule))
    }));
    if !cached {
        unit.set_kernel_cache_enabled(false);
    }
    let mut auditor = ConservationAuditor::new();
    let config = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_hours(18.0))
    };
    let result = run_simulation_observed(
        &mut unit,
        &Environment::outdoor_temperate(7),
        &SensorNode::submilliwatt_class(),
        &mut FixedDuty::new(DutyCycle::saturating(0.05)),
        config,
        &mut [&mut auditor],
    );
    (result, unit.fault_counts(), auditor.report().worst_relative)
}

/// A fault firing and clearing mid-run: the glitching wrapper reports
/// itself time-varying, so no memo answers for it on either side of an
/// edge. The cached faulted run is bit-identical to the uncached
/// faulted run, and the books stay closed through both transitions.
#[test]
fn fault_fire_and_clear_flush_matches_cold_run() {
    let (warm, warm_faults, warm_audit) = glitching_run(true);
    let (cold, cold_faults, cold_audit) = glitching_run(false);
    assert_eq!(warm, cold, "faulted cached run diverged from uncached");
    assert_eq!(warm_faults, (1, 1), "dropout must fire and clear");
    assert_eq!(cold_faults, (1, 1));
    assert!(warm_audit < 1e-6, "cached audit {warm_audit}");
    assert!(cold_audit < 1e-6, "uncached audit {cold_audit}");
}
