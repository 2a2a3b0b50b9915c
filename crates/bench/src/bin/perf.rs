//! Std-only performance harness: measures simulator hot-loop speed
//! (steps/second), environment sampling per instant and batched,
//! observability overhead (bare vs no-op-observed vs
//! fully instrumented) and fleet-engine throughput (node-steps/second,
//! dense and mixed lanes), then writes `BENCH_sim.json` at the repo
//! root — the tracked baseline for the bench trajectory.
//!
//! ```text
//! cargo run --release -p mseh-bench --bin perf [--quick] [output-path]
//! ```
//!
//! `--quick` shrinks every budget (shorter horizons, fewer seeds) and
//! writes to `target/BENCH_sim_quick.json` instead of the tracked
//! baseline — the CI smoke mode; pass an explicit path to override
//! either default.
//!
//! The harness first asserts that a seed ensemble fanned out through
//! the [`mseh_sim::run_seed_ensemble_with_threads`] pool the experiments
//! use is bit-for-bit identical to the sequential reference. Thread
//! scaling only materializes on multi-core hosts; the JSON records the
//! host's `available_parallelism` so single-core numbers aren't misread
//! as a regression.

use std::fmt::Write as _;
use std::time::Instant;

use mseh_core::{
    IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
};
use mseh_env::{EnvConditions, EnvJitter, EnvSampler, Environment};
use mseh_harvesters::{CacheStats, PvModule};
use mseh_node::{
    DutyCyclePolicy, FixedDuty, HillClimbDuty, MonitoringLevel, SensorNode, VoltageThreshold,
};
use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh_sim::{
    default_contenders, run_arena, run_fleet, run_resilience_campaign, run_seed_ensemble_seq,
    run_seed_ensemble_with_threads, run_simulation, run_simulation_observed, ArenaConfig,
    ArenaSpec, CampaignConfig, ConservationAuditor, Contender, DenseClass, DenseGroup, DenseStore,
    FleetConfig, FleetGroup, FleetSpec, FleetSummary, HeldWindows, MetricsObserver, SimConfig,
    SimResult,
};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_systems::{resilience, SystemId};
use mseh_units::{DutyCycle, Seconds, Volts, Watts};

const SINGLE_RUN_DAYS: f64 = 7.0;
const ENSEMBLE_DAYS: f64 = 2.0;
/// Long enough that each rep spans tens of milliseconds even now that
/// the storage idle memo has pushed the bare kernel past 10⁶ steps/s —
/// shorter spans let scheduler jitter swamp the small percentage the
/// section reports.
const OVERHEAD_DAYS: f64 = 28.0;
/// Interleaved repetitions of the overhead measurement; each
/// attachment's time is the minimum across reps, which is robust to the
/// additive noise of a shared host (overhead percentages are small
/// differences of close numbers, so a single slow rep would otherwise
/// dominate them).
const OVERHEAD_REPS: usize = 15;
const SEEDS: [u64; 16] = [
    3, 17, 101, 444, 1234, 9000, 31337, 99999, 7, 21, 55, 89, 144, 233, 377, 610,
];

/// Fixed scale for the batched-tier rate rows: the same population and
/// horizon in quick and full mode, so check.sh's quick-vs-committed
/// regression gates compare identical specs. The uniform fast path
/// makes lane rates strongly scale-dependent (a homogeneous population
/// steps as one lane until duties diverge), so a quick-scale rate is
/// not comparable to the committed full-scale one; the batched tier is
/// cheap enough to time at full scale even in quick mode, while the
/// boxed `PowerUnit` references are per-node-bound, scale-robust, and
/// stay at the mode's (smaller) budget.
const BATCHED_RATE_NODES: usize = 200_000;
const BATCHED_RATE_HOURS: f64 = 24.0;

fn duty() -> FixedDuty {
    FixedDuty::new(DutyCycle::saturating(0.05))
}

/// Arena lanes per (scenario, seed) — the amortization headline's N.
const ARENA_CONTENDERS: usize = 32;
/// Fixed arena horizon in both modes, so check.sh's quick-vs-committed
/// policy-evals/s gate compares identical specs (the whole section is
/// tens of milliseconds, cheap enough for the smoke run).
const ARENA_DAYS: f64 = 7.0;

/// The dense lane's reference channel: half-watt PV panel behind an
/// FOCV MPPT front end (the same front end System C uses).
fn pv_channel() -> InputChannel {
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

/// The battery-class buffer: NiMH pair at 50 % state of charge.
fn nimh_half() -> Battery {
    let mut battery = Battery::nimh_aa_pair();
    battery.set_soc(0.5);
    battery
}

/// The battery class's policy: a fixed 5 % duty.
fn battery_class_policy(_seed: u64) -> Box<dyn DutyCyclePolicy> {
    Box::new(duty())
}

/// The supercap class's policy: the store-voltage ladder.
fn supercap_class_policy(_seed: u64) -> Box<dyn DutyCyclePolicy> {
    Box::new(VoltageThreshold::supercap_ladder())
}

/// A dense battery-class group: PV + NiMH pair at 50 % state of charge.
fn dense_battery_group(name: &'static str, count: usize, site: usize, seed: u64) -> DenseGroup {
    DenseGroup::new(
        name,
        count,
        site,
        SensorNode::submilliwatt_class(),
        pv_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Battery(nimh_half()),
        battery_class_policy,
    )
    .with_seed(seed)
}

/// A dense supercap-class group: PV + 22 F EDLC pre-charged to 1.8 V.
fn dense_supercap_group(name: &'static str, count: usize, site: usize, seed: u64) -> DenseGroup {
    DenseGroup::new(
        name,
        count,
        site,
        SensorNode::submilliwatt_class(),
        pv_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Supercap(arena_cap()),
        supercap_class_policy,
    )
    .with_seed(seed)
}

/// A hand-built `PowerUnit` of the dense classes' shape: the PV channel
/// and `store` as its primary buffer behind the buck-boost output, with
/// a zero-overhead supervisor reporting at `monitoring`.
fn pv_unit(name: &str, store: Box<dyn Storage>, monitoring: MonitoringLevel) -> PowerUnit {
    PowerUnit::builder(name)
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
            Some(store),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor {
            monitoring,
            ..Supervisor::none()
        })
        .build()
}

/// The boxed reference for a one-group dense fleet: the same group
/// (name, site, seed, policy) of hand-built [`pv_unit`]s holding
/// `store()`, with the dense group's default full monitoring.
fn boxed_twin_spec(
    name: &str,
    count: usize,
    seed: u64,
    store: impl Fn() -> Box<dyn Storage> + Send + Sync + 'static,
    policy: fn(u64) -> Box<dyn DutyCyclePolicy>,
) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(Environment::outdoor_temperate(42));
    spec.add_group(
        FleetGroup::new(
            name,
            count,
            site,
            SensorNode::submilliwatt_class(),
            move |_| Box::new(pv_unit("boxed twin", store(), MonitoringLevel::Full)),
            policy,
        )
        .with_seed(seed),
    );
    spec
}

/// Name and seed of [`dense_fleet_spec`]'s group.
const DENSE_BATTERY_GROUP: &str = "dense solar+NiMH";
const DENSE_BATTERY_SEED: u64 = 1;
/// Name and seed of [`dense_supercap_fleet_spec`]'s group.
const DENSE_SUPERCAP_GROUP: &str = "dense solar+EDLC (supercap class)";
const DENSE_SUPERCAP_SEED: u64 = 5;

/// One-group dense battery-class fleet (the throughput headline).
fn dense_fleet_spec(count: usize, jitter: Option<f64>) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(Environment::outdoor_temperate(42));
    let mut group = dense_battery_group(DENSE_BATTERY_GROUP, count, site, DENSE_BATTERY_SEED);
    if let Some(rel) = jitter {
        group = group.with_jitter(EnvJitter::relative(rel));
    }
    spec.add_dense_group(group);
    spec
}

/// One-group dense supercap-class fleet (the batched-solve headline:
/// every step runs the EDLC transfer + idle solves, so the row isolates
/// the struct-of-arrays Newton from the battery lane's memoized path).
/// With jitter, every node diverges at once, so every lane runs its own
/// solves.
fn dense_supercap_fleet_spec(count: usize, jitter: Option<f64>) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(Environment::outdoor_temperate(42));
    let mut group = dense_supercap_group(DENSE_SUPERCAP_GROUP, count, site, DENSE_SUPERCAP_SEED);
    if let Some(rel) = jitter {
        group = group.with_jitter(EnvJitter::relative(rel));
    }
    spec.add_dense_group(group);
    spec
}

/// The arena scenario's store: 22 F EDLC pre-charged to 1.8 V.
fn arena_cap() -> Supercap {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(1.8));
    cap
}

/// Full-monitoring supervisor for the arena rigs, so the adaptive
/// contenders (forecast, hill-climb) actually see the store.
fn arena_supervisor() -> Supervisor {
    Supervisor {
        location: IntelligenceLocation::PowerUnit,
        monitoring: MonitoringLevel::Full,
        interface: InterfaceKind::Digital { two_way: false },
        overhead: Watts::ZERO,
    }
}

/// The boxed equivalent of [`arena_class`]: what one independent
/// `run_simulation` of an arena lane steps.
fn arena_unit() -> PowerUnit {
    PowerUnit::builder("arena rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("buf", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(arena_cap())),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(arena_supervisor())
        .build()
}

/// The dense declaration of exactly the hardware in [`arena_unit`]
/// (DenseClass monitoring defaults to Full, matching the supervisor).
fn arena_class() -> DenseClass {
    DenseClass::new(
        pv_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Supercap(arena_cap()),
    )
}

/// Scenario seeds of the boxed arena: its bit-identity gate and its
/// rate row.
const BOXED_ARENA_SEEDS: [u64; 2] = [9, 10];

/// The boxed arena: System B lanes, each on a fresh build, settling one
/// shared harvest per seed outdoors, with the stock tournament roster —
/// the shape of the benchmark's arena-tournament.
fn boxed_arena_spec() -> ArenaSpec {
    let id = SystemId::B;
    ArenaSpec::boxed(
        "perf boxed arena",
        resilience::natural_node(id),
        move |_| Box::new(id.build()),
        Environment::outdoor_temperate,
    )
    .with_contenders(default_contenders())
    .with_seeds(&BOXED_ARENA_SEEDS)
}

/// The stock tournament roster padded to [`ARENA_CONTENDERS`] with a
/// fixed-duty ladder and independently-seeded hill-climb variants.
fn arena_roster() -> Vec<Contender> {
    let mut roster = default_contenders();
    let mut fixed_step = 0usize;
    let mut climb_step = 0u64;
    while roster.len() < ARENA_CONTENDERS {
        if roster.len().is_multiple_of(2) {
            fixed_step += 1;
            let d = 0.01 + 0.04 * fixed_step as f64;
            roster.push(Contender::new(&format!("fixed-{:.0}%", d * 100.0), {
                move |_| Box::new(FixedDuty::new(DutyCycle::saturating(d)))
            }));
        } else {
            climb_step += 1;
            roster.push(Contender::new(&format!("hill-climb-{climb_step}"), {
                move |seed| Box::new(HillClimbDuty::new(seed.wrapping_add(climb_step << 32)))
            }));
        }
    }
    roster
}

/// Mixed-lane fleet: boxed System C platforms alongside dense battery-
/// and supercap-class groups, `10 × scale` nodes total.
fn mixed_fleet_spec(scale: usize) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let field = spec.add_site(Environment::outdoor_temperate(42));
    spec.add_group(
        FleetGroup::new(
            "boxed solar MPPT (System C)",
            4 * scale,
            field,
            SensorNode::milliwatt_class(),
            |_| Box::new(SystemId::C.build()),
            |_| Box::new(duty()),
        )
        .with_seed(2)
        .with_jitter(EnvJitter::relative(0.15)),
    );
    spec.add_dense_group(dense_battery_group("dense solar+NiMH", 4 * scale, field, 3));
    spec.add_dense_group(dense_supercap_group(
        "dense solar+EDLC",
        2 * scale,
        field,
        4,
    ));
    spec
}

/// Repetitions for the gated fixed-scale rate rows: those spans are
/// only ~0.1 s each on the lane kernels, so the minimum over a few
/// extra passes is what keeps the check.sh floors out of host noise
/// (the added cost is negligible at these rates).
const RATE_ROW_REPS: usize = 5;

/// Cache counters aside — the lanes synthesize theirs, the boxed path
/// books each member channel's own — a lane run must equal its boxed
/// reference on every physical quantity.
fn modulo_cache(mut s: FleetSummary) -> FleetSummary {
    s.kernel_cache = Default::default();
    s
}

/// Two timed passes of one fleet configuration, keeping the faster;
/// asserts the repetitions are bit-identical.
fn time_fleet(spec: &FleetSpec, config: FleetConfig) -> (f64, FleetSummary) {
    time_fleet_reps(spec, config, 2)
}

/// `time_fleet` with a caller-chosen repetition count, keeping the
/// minimum; asserts every repetition is bit-identical to the first.
fn time_fleet_reps(spec: &FleetSpec, config: FleetConfig, reps: usize) -> (f64, FleetSummary) {
    let start = Instant::now();
    let first = run_fleet(spec, config).summary;
    let mut best = start.elapsed().as_secs_f64();
    for _ in 1..reps {
        let start = Instant::now();
        let again = run_fleet(spec, config).summary;
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(first, again, "fleet repetitions must be bit-identical");
    }
    (best, first)
}

/// Horizon of the `env_sampling` rows: a week of 60 s instants.
const ENV_SAMPLING_DAYS: f64 = 7.0;
/// Instants per batch in the `env_sampling` rows: the single run's
/// control window of ten 60 s steps.
const ENV_SAMPLING_BATCH: usize = 10;
/// Scenario seed of the `env_sampling` rows.
const ENV_SAMPLING_SEED: u64 = 42;

/// One preset's sampling cost: nanoseconds per instant sampled one at a
/// time (`conditions`) and batched by control window (`conditions_into`).
struct EnvSamplingRow {
    name: &'static str,
    per_instant_ns: f64,
    batched_ns: f64,
}

/// Times every preset's sampler over [`ENV_SAMPLING_DAYS`] of 60 s
/// instants, one at a time and in [`ENV_SAMPLING_BATCH`]-instant
/// batches, keeping the best of `reps` interleaved reps of each. Panics
/// unless every batched row equals its per-instant row bit for bit.
fn time_env_sampling(reps: usize) -> Vec<EnvSamplingRow> {
    type Preset = fn(u64) -> Environment;
    let presets: [(&str, Preset); 5] = [
        ("outdoor temperate", Environment::outdoor_temperate),
        ("outdoor winter", Environment::outdoor_winter),
        ("indoor industrial", Environment::indoor_industrial),
        ("indoor office", Environment::indoor_office),
        ("agricultural", Environment::agricultural),
    ];
    let times: Vec<Seconds> = (0..(ENV_SAMPLING_DAYS * 1440.0) as usize)
        .map(|i| Seconds::new(i as f64 * 60.0))
        .collect();
    let bits = |c: &EnvConditions| (c.time.value().to_bits(), c.ambient_bits());
    presets
        .into_iter()
        .map(|(name, preset)| {
            let env = preset(ENV_SAMPLING_SEED);
            let mut window = Vec::with_capacity(ENV_SAMPLING_BATCH);
            let (mut one_secs, mut batch_secs) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..reps {
                let start = Instant::now();
                for &t in &times {
                    std::hint::black_box(env.conditions(t));
                }
                one_secs = one_secs.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                for batch in times.chunks(ENV_SAMPLING_BATCH) {
                    env.conditions_into(batch, &mut window);
                    std::hint::black_box(&window);
                }
                batch_secs = batch_secs.min(start.elapsed().as_secs_f64());
            }
            for batch in times.chunks(ENV_SAMPLING_BATCH) {
                env.conditions_into(batch, &mut window);
                for (row, &t) in window.iter().zip(batch) {
                    assert_eq!(
                        bits(row),
                        bits(&env.conditions(t)),
                        "{name}: batched sample differs at t = {} s",
                        t.value()
                    );
                }
            }
            let per_ns = |secs: f64| secs * 1e9 / times.len() as f64;
            EnvSamplingRow {
                name,
                per_instant_ns: per_ns(one_secs),
                batched_ns: per_ns(batch_secs),
            }
        })
        .collect()
}

/// Step count for a config, matching the runner's truncate-plus-
/// fractional-final-step policy.
fn step_count(config: SimConfig) -> u64 {
    let full = (config.duration.value() / config.dt.value()).floor();
    let rem = config.duration.value() - full * config.dt.value();
    full as u64 + u64::from(rem > config.dt.value() * 1e-9)
}

/// How the overhead benchmark drives the kernel.
#[derive(Clone, Copy, PartialEq)]
enum Attach {
    /// `run_simulation` — the plain entry point.
    Bare,
    /// `run_simulation_observed` with an empty observer slice.
    NoopObserved,
    /// `run_simulation_observed` with metrics + conservation auditor.
    Instrumented,
}

/// Wall seconds for one run under the given attachment.
fn time_attach_once(attach: Attach, config: SimConfig, node: &SensorNode) -> (f64, SimResult) {
    let env = Environment::outdoor_temperate(42);
    let mut unit = SystemId::C.build();
    let mut policy = duty();
    let start = Instant::now();
    let result = match attach {
        Attach::Bare => run_simulation(&mut unit, &env, node, &mut policy, config),
        Attach::NoopObserved => {
            run_simulation_observed(&mut unit, &env, node, &mut policy, config, &mut [])
        }
        Attach::Instrumented => {
            let mut meter = MetricsObserver::new();
            let mut auditor = ConservationAuditor::new();
            let result = run_simulation_observed(
                &mut unit,
                &env,
                node,
                &mut policy,
                config,
                &mut [&mut meter, &mut auditor],
            );
            assert!(auditor.report().worst_relative < 1e-6);
            result
        }
    };
    (start.elapsed().as_secs_f64(), result)
}

/// Name of the Cargo profile directory the binary was built into
/// (`release`, `perf`, ...), recorded in the JSON `host` block so the
/// baseline says how it was compiled.
/// Physical core count from `/proc/cpuinfo` (unique
/// `(physical id, core id)` pairs), falling back to `fallback` where
/// the file is absent or unparsable. Recorded so per-core node-steps/s
/// claims can be checked against the host's real core budget, not its
/// SMT thread count.
fn physical_cores(fallback: usize) -> usize {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return fallback;
    };
    let mut pairs = std::collections::BTreeSet::new();
    let (mut package, mut core) = (None, None);
    let field = |line: &str| {
        line.split(':')
            .nth(1)
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    for line in info.lines() {
        if line.trim().is_empty() {
            if let (Some(p), Some(c)) = (package, core) {
                pairs.insert((p, c));
            }
            (package, core) = (None, None);
        } else if line.starts_with("physical id") {
            package = field(line);
        } else if line.starts_with("core id") {
            core = field(line);
        }
    }
    if let (Some(p), Some(c)) = (package, core) {
        pairs.insert((p, c));
    }
    if pairs.is_empty() {
        fallback
    } else {
        pairs.len()
    }
}

fn build_profile() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|dir| dir.file_name())
                .map(|name| name.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let mut quick = false;
    let mut out_arg: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => out_arg = Some(other.to_owned()),
        }
    }
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out_path = out_arg.unwrap_or_else(|| {
        if quick {
            // The smoke run must never overwrite the tracked baseline.
            format!("{repo_root}/target/BENCH_sim_quick.json")
        } else {
            format!("{repo_root}/BENCH_sim.json")
        }
    });
    // Quick keeps the ensemble/campaign budgets tiny, but the two timed
    // sections need a few milliseconds per measurement or jitter
    // swamps the percentages they report. The gated hot-loop row runs
    // at the full horizon in both modes — per-run setup cost skews the
    // steps/s of a short run, so a quick-scale rate is not comparable
    // to the committed full-scale one (same rationale as the
    // fixed-spec fleet rate rows) — and it costs only ~40 ms.
    let single_days = SINGLE_RUN_DAYS;
    let (ensemble_days, overhead_days) = if quick {
        (0.25, 10.0)
    } else {
        (ENSEMBLE_DAYS, OVERHEAD_DAYS)
    };
    let seeds: &[u64] = if quick { &SEEDS[..4] } else { &SEEDS };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let node = SensorNode::submilliwatt_class();

    // --- Hot-loop speed: one long recorded run, steps/second. -------
    let single_cfg = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_days(single_days))
    };
    let steps = step_count(single_cfg);
    let env = Environment::outdoor_temperate(42);
    // Best of a few reps: the measured span is short (milliseconds), so
    // a single shot is dominated by first-touch page faults and host
    // noise. Every rep runs a fresh unit; results are identical by
    // determinism, so only the timing varies.
    let mut single_secs = f64::INFINITY;
    let mut result = None;
    for _ in 0..5 {
        let mut unit = SystemId::C.build();
        let mut policy = duty();
        let start = Instant::now();
        let rep = run_simulation(&mut unit, &env, &node, &mut policy, single_cfg);
        single_secs = single_secs.min(start.elapsed().as_secs_f64());
        if let Some(prev) = &result {
            assert_eq!(prev, &rep, "single-run reps must be bit-identical");
        }
        result = Some(rep);
    }
    let result = result.expect("at least one rep ran");
    assert!(result.audit_residual < 1e-6);
    let steps_per_sec = steps as f64 / single_secs;
    println!(
        "single run : {single_days} days, {steps} steps in {single_secs:.3} s \
         ({steps_per_sec:.0} steps/s, recording on)"
    );

    // --- Environment sampling: per instant vs batched, bit for bit. --
    let env_reps = if quick { 5 } else { 9 };
    let env_rows = time_env_sampling(env_reps);
    for row in &env_rows {
        println!(
            "env sample : {:<17} {:>6.1} ns/instant one at a time, {:>6.1} ns batched \
             by {ENV_SAMPLING_BATCH} (bit-identical)",
            row.name, row.per_instant_ns, row.batched_ns
        );
    }

    // --- Exactness gate: held ≡ per step, bit for bit. --------------
    // The channels consult their solve memos only on held steps, so a
    // per-window fleet node must equal a single run over a table that
    // repeats each window's snapshot: that run steps per step and
    // memoizes nothing. System C's fractional-V_oc channels replay
    // through the step memo, System A's perturb-and-observe channel
    // through the open-circuit-voltage memo. The group is un-jittered,
    // since a node's jitter factors come from its private seed.
    let mut cache_stats = CacheStats::default();
    for id in [SystemId::C, SystemId::A] {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(42));
        spec.add_group(FleetGroup::new(
            "memo gate",
            4,
            site,
            node.clone(),
            move |_| Box::new(id.build()),
            |_| Box::new(duty()),
        ));
        let config = FleetConfig {
            keep_node_results: true,
            ..FleetConfig::over(Seconds::from_hours(12.0))
        };
        let fleet = run_fleet(&spec, config);
        let mut unit = id.build();
        let per_step = run_simulation(
            &mut unit,
            &HeldWindows::new(Environment::outdoor_temperate(42), config.sim),
            &node,
            &mut duty(),
            config.sim,
        );
        for held in fleet.node_results.expect("node results kept") {
            assert_eq!(
                held, per_step,
                "System {id}: held node diverged from per-step run"
            );
        }
        assert_eq!(
            unit.kernel_cache_stats().hits,
            0,
            "System {id}: per-step run replayed"
        );
        assert!(
            fleet.summary.kernel_cache.hits > 0,
            "System {id}: no memo hit"
        );
        cache_stats.merge(fleet.summary.kernel_cache);
    }
    println!(
        "kernelcache: {} hits / {} misses / {} invalidations (hit rate {:.3}); \
         per-window System C and A nodes bit-identical to per-step runs over held windows",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.invalidations,
        cache_stats.hit_rate()
    );

    // --- Observability overhead: bare vs no-op vs instrumented. -----
    // Attachments are interleaved per rep so host-load drift hits all
    // three alike, and each keeps its minimum.
    let overhead_cfg = SimConfig::over(Seconds::from_days(overhead_days));
    let overhead_steps = step_count(overhead_cfg) as f64;
    let reps = if quick { 9 } else { OVERHEAD_REPS };
    // The tracked full run enforces the real budget; the quick smoke
    // measures a much shorter span, where a couple of percent of
    // scheduler jitter survives even the interleaved minima, so it only
    // guards against gross regressions. The full budget was 3 % when
    // the bare loop ran at ~1.0 M steps/s; the storage idle memo has
    // since cut the bare step ~30 %, which inflates the same ~25-35 ns
    // of wiring cost as a percentage, so the budget is 6 % of the
    // faster loop — the same absolute ceiling it always enforced.
    let overhead_budget = if quick { 10.0 } else { 6.0 };
    let (mut bare_secs, mut noop_secs, mut inst_secs) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut bare_result, mut noop_result, mut inst_result) = (None, None, None);
    for _ in 0..reps {
        let (b, br) = time_attach_once(Attach::Bare, overhead_cfg, &node);
        let (n, nr) = time_attach_once(Attach::NoopObserved, overhead_cfg, &node);
        let (i, ir) = time_attach_once(Attach::Instrumented, overhead_cfg, &node);
        bare_secs = bare_secs.min(b);
        noop_secs = noop_secs.min(n);
        inst_secs = inst_secs.min(i);
        bare_result = Some(br);
        noop_result = Some(nr);
        inst_result = Some(ir);
    }
    let (bare_result, noop_result, inst_result) = (
        bare_result.expect("ran"),
        noop_result.expect("ran"),
        inst_result.expect("ran"),
    );
    // Observation must not perturb the physics, whatever it costs.
    assert_eq!(
        bare_result, noop_result,
        "no-op observation changed results"
    );
    assert_eq!(bare_result, inst_result, "instrumentation changed results");
    let bare_sps = overhead_steps / bare_secs;
    let noop_sps = overhead_steps / noop_secs;
    let inst_sps = overhead_steps / inst_secs;
    let noop_overhead_pct = (noop_secs / bare_secs - 1.0) * 100.0;
    let inst_overhead_pct = (inst_secs / bare_secs - 1.0) * 100.0;
    println!("overhead   : bare         {bare_sps:>9.0} steps/s");
    println!("overhead   : no observer  {noop_sps:>9.0} steps/s  ({noop_overhead_pct:+.2} %)");
    println!("overhead   : instrumented {inst_sps:>9.0} steps/s  ({inst_overhead_pct:+.2} %)");

    // --- Correctness gate: parallel ≡ sequential, bit for bit. ------
    let ens_cfg = SimConfig::over(Seconds::from_days(ensemble_days));
    let reference = run_seed_ensemble_seq(
        seeds,
        |_| SystemId::C.build(),
        Environment::outdoor_temperate,
        |_| duty(),
        &node,
        ens_cfg,
    );
    let parallel = run_seed_ensemble_with_threads(
        host_threads.max(2),
        seeds,
        |_| SystemId::C.build(),
        Environment::outdoor_temperate,
        |_| duty(),
        &node,
        ens_cfg,
    );
    assert_eq!(
        parallel, reference,
        "parallel ensemble diverged from sequential reference"
    );
    println!(
        "determinism: parallel ensemble ({} threads) bit-identical to sequential over {} seeds",
        host_threads.max(2),
        seeds.len()
    );

    // --- Fleet gates: one-node ≡ single run; geometry invariance. ---
    // Both gates run before the timed rows so every recorded fleet
    // number comes from a path whose equivalences were just verified.
    {
        let gate_horizon = Seconds::from_hours(6.0);
        let gate_env = Environment::outdoor_temperate(42);
        let mut spec = FleetSpec::new();
        let site = spec.add_site(gate_env.clone());
        spec.add_group(FleetGroup::new(
            "gate",
            1,
            site,
            node.clone(),
            |_| Box::new(SystemId::C.build()),
            |_| Box::new(duty()),
        ));
        let fleet = run_fleet(
            &spec,
            FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(gate_horizon)
            }
            .exact_env(),
        );
        let mut unit = SystemId::C.build();
        let mut policy = duty();
        let reference = run_simulation(
            &mut unit,
            &gate_env,
            &node,
            &mut policy,
            SimConfig::over(gate_horizon),
        );
        assert_eq!(
            fleet.node_results.expect("kept")[0],
            reference,
            "one-node fleet diverged from run_simulation"
        );
        println!("determinism: one-node per-step fleet bit-identical to run_simulation (System C)");
    }
    {
        let inv_spec = mixed_fleet_spec(100);
        let inv_horizon = Seconds::from_hours(2.0);
        let reference = run_fleet(
            &inv_spec,
            FleetConfig::over(inv_horizon)
                .with_threads(1)
                .with_shard_size(300),
        )
        .summary;
        for (threads, shard) in [(2, 1000), (4, 64)] {
            let got = run_fleet(
                &inv_spec,
                FleetConfig::over(inv_horizon)
                    .with_threads(threads)
                    .with_shard_size(shard),
            )
            .summary;
            assert_eq!(
                got, reference,
                "fleet summary changed at {threads} threads / {shard}-node shards"
            );
        }
        println!("determinism: 1000-node mixed fleet invariant across threads \u{d7} shard sizes");
    }

    // --- Fleet throughput: node-steps/second per lane. --------------
    // The headline row is the dense battery-class lane (shared harvest
    // table, monomorphized store loop); the jittered and mixed rows are
    // reported alongside so the headline can't be mistaken for the
    // engine's universal rate. The jittered rows run a whole day at a
    // quarter of the population: they start at midnight, and until
    // daylight tells the nodes apart every lane carries the same state,
    // so only after sunrise does each lane run its own store updates.
    // Speedups are against this run's own single-run steps/s, measured
    // above on the same host and profile.
    // The headline dense row is gated by check.sh against the committed
    // baseline, so it runs at the fixed rate scale in both modes; the
    // jittered and mixed rows step per node and stay at the mode's
    // budget.
    let (dense_n, dense_h) = (BATCHED_RATE_NODES, BATCHED_RATE_HOURS);
    let (jitter_n, mixed_scale, mixed_h) = if quick {
        (10_000, 1_000, 1.0)
    } else {
        (100_000, 10_000, 2.0)
    };
    struct FleetRow {
        name: &'static str,
        lane: &'static str,
        seconds: f64,
        summary: FleetSummary,
    }
    let mut fleet_rows = Vec::new();
    for (name, lane, spec, hours, reps) in [
        (
            "dense solar+NiMH (battery class)",
            "dense",
            dense_fleet_spec(dense_n, None),
            dense_h,
            RATE_ROW_REPS,
        ),
        (
            "dense solar+NiMH, 15% env jitter",
            "dense (jittered window lanes)",
            dense_fleet_spec(jitter_n / 4, Some(0.15)),
            24.0,
            2,
        ),
        (
            "dense solar+EDLC, 15% env jitter",
            "dense (jittered window lanes)",
            dense_supercap_fleet_spec(jitter_n / 4, Some(0.15)),
            24.0,
            2,
        ),
        (
            "mixed boxed System C + dense battery/EDLC",
            "mixed",
            mixed_fleet_spec(mixed_scale),
            mixed_h,
            2,
        ),
    ] {
        let (seconds, summary) =
            time_fleet_reps(&spec, FleetConfig::over(Seconds::from_hours(hours)), reps);
        assert!(summary.audit_relative < 1e-6);
        assert!(summary.worst_node_audit < 1e-6);
        let rate = summary.node_steps as f64 / seconds;
        println!(
            "fleet      : {name}: {} nodes \u{d7} {} steps in {seconds:.3} s \
             ({:.2} M node-steps/s, \u{d7}{:.1} vs single run, cache hit rate {:.3})",
            summary.population,
            summary.steps_per_node,
            rate / 1e6,
            rate / steps_per_sec,
            summary.kernel_cache.hit_rate(),
        );
        fleet_rows.push(FleetRow {
            name,
            lane,
            seconds,
            summary,
        });
    }

    // --- Dense supercap lane: batched vs the boxed PowerUnit. -------
    // The batched struct-of-arrays lanes must reproduce a boxed group of
    // hand-built units on every physical quantity (the check.sh identity
    // smoke rides on this assert).
    let (cap_n, cap_h) = if quick { (5_000, 2.0) } else { (10_000, 24.0) };
    let cap_horizon = Seconds::from_hours(cap_h);
    let cap_summary = run_fleet(
        &dense_supercap_fleet_spec(cap_n, None),
        FleetConfig::over(cap_horizon),
    )
    .summary;
    let (cap_boxed_secs, cap_boxed_summary) = time_fleet(
        &boxed_twin_spec(
            DENSE_SUPERCAP_GROUP,
            cap_n,
            DENSE_SUPERCAP_SEED,
            || Box::new(arena_cap()),
            supercap_class_policy,
        ),
        FleetConfig::over(cap_horizon),
    );
    assert_eq!(
        modulo_cache(cap_summary.clone()),
        modulo_cache(cap_boxed_summary.clone()),
        "batched supercap lanes diverged from the boxed PowerUnit reference"
    );
    assert!(cap_summary.audit_relative < 1e-6);
    assert!(cap_summary.worst_node_audit < 1e-6);
    // The gated rate row runs at the fixed baseline scale in both modes
    // (see BATCHED_RATE_NODES) so check.sh compares identical specs;
    // the equality assert and the boxed reference above stay at the
    // mode's budget, the boxed one being per-node-bound.
    let cap_rate_horizon = Seconds::from_hours(BATCHED_RATE_HOURS);
    let (cap_rate_secs, cap_rate_summary) = time_fleet_reps(
        &dense_supercap_fleet_spec(BATCHED_RATE_NODES, None),
        FleetConfig::over(cap_rate_horizon),
        RATE_ROW_REPS,
    );
    assert!(cap_rate_summary.audit_relative < 1e-6);
    assert!(cap_rate_summary.worst_node_audit < 1e-6);
    let cap_population = cap_rate_summary.population;
    let cap_steps_per_node = cap_rate_summary.steps_per_node;
    let cap_rate = cap_rate_summary.node_steps as f64 / cap_rate_secs;
    let cap_boxed_rate = cap_boxed_summary.node_steps as f64 / cap_boxed_secs;
    let cap_speedup = cap_rate / cap_boxed_rate;
    println!(
        "fleet      : dense solar+EDLC (supercap class): {cap_population} nodes \u{d7} \
         {cap_steps_per_node} steps, batched {:.2} M node-steps/s vs boxed {:.2} M \
         (\u{d7}{cap_speedup:.1}), batched \u{2261} boxed modulo cache counters",
        cap_rate / 1e6,
        cap_boxed_rate / 1e6,
    );
    fleet_rows.push(FleetRow {
        name: "dense solar+EDLC (supercap class)",
        lane: "dense (batched SoA)",
        seconds: cap_rate_secs,
        summary: cap_rate_summary,
    });

    // --- Dense battery lane: batched vs the boxed PowerUnit. --------
    // Same gate as the supercap lane: equality with the boxed reference
    // first, then the recorded rates. The batched battery lane shares
    // one keep-fraction powf per distinct dt across the population and
    // rides the uniform fast path while a homogeneous population's
    // duties agree.
    let (batt_n, batt_h) = if quick { (5_000, 2.0) } else { (10_000, 24.0) };
    let batt_horizon = Seconds::from_hours(batt_h);
    let batt_summary = run_fleet(
        &dense_fleet_spec(batt_n, None),
        FleetConfig::over(batt_horizon),
    )
    .summary;
    let (batt_boxed_secs, batt_boxed_summary) = time_fleet(
        &boxed_twin_spec(
            DENSE_BATTERY_GROUP,
            batt_n,
            DENSE_BATTERY_SEED,
            || Box::new(nimh_half()),
            battery_class_policy,
        ),
        FleetConfig::over(batt_horizon),
    );
    assert_eq!(
        modulo_cache(batt_summary.clone()),
        modulo_cache(batt_boxed_summary.clone()),
        "batched battery lanes diverged from the boxed PowerUnit reference"
    );
    assert!(batt_summary.audit_relative < 1e-6);
    assert!(batt_summary.worst_node_audit < 1e-6);
    // Gated rate row at the fixed baseline scale, as for the supercap
    // lane above; the boxed reference stays at the mode's budget.
    let batt_rate_horizon = Seconds::from_hours(BATCHED_RATE_HOURS);
    let (batt_rate_secs, batt_rate_summary) = time_fleet_reps(
        &dense_fleet_spec(BATCHED_RATE_NODES, None),
        FleetConfig::over(batt_rate_horizon),
        RATE_ROW_REPS,
    );
    assert!(batt_rate_summary.audit_relative < 1e-6);
    assert!(batt_rate_summary.worst_node_audit < 1e-6);
    let batt_population = batt_rate_summary.population;
    let batt_steps_per_node = batt_rate_summary.steps_per_node;
    let batt_rate = batt_rate_summary.node_steps as f64 / batt_rate_secs;
    let batt_boxed_rate = batt_boxed_summary.node_steps as f64 / batt_boxed_secs;
    let batt_speedup = batt_rate / batt_boxed_rate;
    println!(
        "fleet      : dense solar+NiMH (battery class): {batt_population} nodes \u{d7} \
         {batt_steps_per_node} steps, batched {:.2} M node-steps/s vs boxed {:.2} M \
         (\u{d7}{batt_speedup:.1}), batched \u{2261} boxed modulo cache counters",
        batt_rate / 1e6,
        batt_boxed_rate / 1e6,
    );

    // --- Policy arena: lockstep amortization over one shared trace. -
    // The headline claim: stepping 32 policy lanes against one shared
    // environment trace costs a small multiple of ONE standalone run,
    // because the environment sampling and harvest operating-point
    // solves — the dominant per-step cost — happen once per scenario
    // instead of once per policy. Bit-identity first: every lane must
    // equal its fully independent run_simulation before any number is
    // recorded.
    let arena_seed = 9u64;
    let arena_horizon = Seconds::from_days(ARENA_DAYS);
    let arena_spec = ArenaSpec::dense(
        "perf arena",
        node.clone(),
        arena_class(),
        Environment::outdoor_temperate,
    )
    .with_contenders(arena_roster())
    .with_seeds(&[arena_seed]);
    assert_eq!(arena_spec.contenders().len(), ARENA_CONTENDERS);
    let arena_cfg = ArenaConfig::over(arena_horizon);
    {
        let kept = run_arena(&arena_spec, arena_cfg.keep_lane_results());
        let lanes = kept.lane_results.expect("kept");
        for (ci, contender) in arena_spec.contenders().iter().enumerate() {
            let mut unit = arena_unit();
            let mut policy = contender.build(arena_seed);
            let reference = run_simulation(
                &mut unit,
                &Environment::outdoor_temperate(arena_seed),
                &node,
                policy.as_mut(),
                SimConfig::over(arena_horizon),
            );
            assert_eq!(
                lanes[ci],
                reference,
                "arena lane {} diverged from its independent run",
                contender.name()
            );
        }
        println!(
            "determinism: all {ARENA_CONTENDERS} arena lanes bit-identical to independent \
             run_simulation runs"
        );
    }
    // The boxed path: System B lanes settle against one shared harvest
    // per seed, and each must still equal its own independent run.
    let boxed_arena = boxed_arena_spec();
    {
        let id = SystemId::B;
        let spec = &boxed_arena;
        let horizon = Seconds::from_days(2.0);
        let kept = run_arena(spec, ArenaConfig::over(horizon).keep_lane_results());
        let lanes = kept.lane_results.expect("kept");
        for (si, &seed) in BOXED_ARENA_SEEDS.iter().enumerate() {
            for (ci, contender) in spec.contenders().iter().enumerate() {
                let mut policy = contender.build(seed);
                let reference = run_simulation(
                    &mut id.build(),
                    &Environment::outdoor_temperate(seed),
                    &resilience::natural_node(id),
                    policy.as_mut(),
                    SimConfig::over(horizon),
                );
                assert_eq!(
                    lanes[si * spec.contenders().len() + ci],
                    reference,
                    "boxed arena lane ({seed}, {}) diverged from its independent run",
                    contender.name()
                );
            }
        }
        println!(
            "determinism: all {} boxed System B arena lanes bit-identical to independent \
             run_simulation runs",
            lanes.len()
        );
    }
    let mut arena_secs = f64::INFINITY;
    let mut arena_summary = None;
    for _ in 0..RATE_ROW_REPS {
        let start = Instant::now();
        let out = run_arena(&arena_spec, arena_cfg);
        arena_secs = arena_secs.min(start.elapsed().as_secs_f64());
        if let Some(prev) = &arena_summary {
            assert_eq!(prev, &out.summary, "arena reps must be bit-identical");
        }
        arena_summary = Some(out.summary);
    }
    let arena_summary = arena_summary.expect("ran");
    assert!(arena_summary.audit_relative < 1e-6);
    // One standalone run of the same rig — the amortization reference.
    // The voltage ladder is a mid-cost contender; cheap (fixed) and
    // expensive (forecast) policies differ only in choose(), which is
    // per-window, not per-step.
    let mut single_lane_secs = f64::INFINITY;
    for _ in 0..RATE_ROW_REPS {
        let mut unit = arena_unit();
        let mut policy = VoltageThreshold::supercap_ladder();
        let start = Instant::now();
        let r = run_simulation(
            &mut unit,
            &Environment::outdoor_temperate(arena_seed),
            &node,
            &mut policy,
            SimConfig::over(arena_horizon),
        );
        single_lane_secs = single_lane_secs.min(start.elapsed().as_secs_f64());
        assert!(r.audit_residual < 1e-6);
    }
    let arena_windows =
        (arena_horizon.value() / arena_cfg.sim.control_interval.value()).ceil() as u64;
    let policy_evals = arena_summary.lanes * arena_windows;
    let policy_evals_per_sec = policy_evals as f64 / arena_secs;
    let amortization = ARENA_CONTENDERS as f64 * single_lane_secs / arena_secs;
    let arena_cost_vs_single = arena_secs / single_lane_secs;
    let arena_winner = arena_summary.standings[0].name.clone();
    println!(
        "arena      : {ARENA_CONTENDERS} policies \u{d7} 1 scenario, {} steps/lane in \
         {arena_secs:.3} s — {:.1}\u{d7} one run's {single_lane_secs:.3} s \
         (amortization \u{d7}{amortization:.1}), {policy_evals_per_sec:.0} policy-evals/s, \
         winner {arena_winner}",
        arena_summary.steps_per_lane, arena_cost_vs_single,
    );
    // The boxed arena's rate: lane-steps per second over the same fixed
    // spec in both modes, so check.sh's quick-vs-committed floor compares
    // like with like. Nearly all of a lane's time is `settle`, the store
    // step included, because each seed row harvests once for every lane.
    let boxed_arena_cfg = ArenaConfig::over(arena_horizon);
    let mut boxed_arena_secs = f64::INFINITY;
    let mut boxed_arena_summary = None;
    for _ in 0..RATE_ROW_REPS {
        let start = Instant::now();
        let out = run_arena(&boxed_arena, boxed_arena_cfg);
        boxed_arena_secs = boxed_arena_secs.min(start.elapsed().as_secs_f64());
        if let Some(prev) = &boxed_arena_summary {
            assert_eq!(prev, &out.summary, "boxed arena reps must be bit-identical");
        }
        boxed_arena_summary = Some(out.summary);
    }
    let boxed_arena_summary = boxed_arena_summary.expect("ran");
    assert!(boxed_arena_summary.audit_relative < 1e-6);
    let boxed_lane_steps = boxed_arena_summary.lanes * boxed_arena_summary.steps_per_lane;
    let boxed_lane_steps_per_sec = boxed_lane_steps as f64 / boxed_arena_secs;
    println!(
        "arena      : boxed System B, {} lanes \u{d7} {} steps in {boxed_arena_secs:.3} s \
         ({:.2} M lane-steps/s)",
        boxed_arena_summary.lanes,
        boxed_arena_summary.steps_per_lane,
        boxed_lane_steps_per_sec / 1e6,
    );

    // --- Resilience campaign: fault-injection throughput + summary. -
    // System D (MPWiNode) in its agricultural deployment, primary store
    // failing open and lead harvester glitching on seeded stochastic
    // plans, failover-wrapped voltage ladder as the policy.
    let campaign_horizon = Seconds::from_days(ensemble_days);
    let campaign_cfg = CampaignConfig::over(campaign_horizon);
    let campaign_node = resilience::natural_node(SystemId::D);
    let run_campaign = |threads: usize| {
        run_resilience_campaign(
            seeds,
            |seed| resilience::resilience_scenario(SystemId::D, seed, campaign_horizon),
            &campaign_node,
            campaign_cfg.with_threads(threads),
        )
    };
    let campaign_ref = run_campaign(1);
    let start = Instant::now();
    let campaign = run_campaign(host_threads.max(2));
    let campaign_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        campaign, campaign_ref,
        "parallel campaign diverged from single-thread reference"
    );
    assert!(
        campaign.worst_audit_relative < 1e-6,
        "campaign broke conservation: {}",
        campaign.worst_audit_relative
    );
    let scenarios_per_sec = seeds.len() as f64 / campaign_secs;
    println!(
        "campaign   : {} fault scenarios in {campaign_secs:.3} s ({scenarios_per_sec:.2} \
         scenarios/s), uptime {:.4} (min {:.4}), {} faults / {} failovers, \
         thread-count invariant",
        seeds.len(),
        campaign.uptime.mean,
        campaign.uptime.min,
        campaign.total_faults,
        campaign.total_failovers,
    );

    // --- Emit BENCH_sim.json. ---------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"mseh-bench/perf/v15\",");
    let _ = writeln!(
        json,
        "  \"scenario\": \"System C, outdoor temperate, 60 s steps, fixed 5% duty\","
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"available_parallelism\": {host_threads}, \
         \"physical_cores\": {}, \"profile\": \"{}\" }},",
        physical_cores(host_threads),
        build_profile()
    );
    let _ = writeln!(json, "  \"single_run\": {{");
    let _ = writeln!(json, "    \"days\": {single_days},");
    let _ = writeln!(json, "    \"steps\": {steps},");
    let _ = writeln!(json, "    \"seconds\": {single_secs:.6},");
    let _ = writeln!(json, "    \"steps_per_sec\": {steps_per_sec:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"env_sampling\": {{");
    let _ = writeln!(json, "    \"days\": {ENV_SAMPLING_DAYS},");
    let _ = writeln!(json, "    \"step_s\": 60,");
    let _ = writeln!(json, "    \"batch\": {ENV_SAMPLING_BATCH},");
    let _ = writeln!(json, "    \"seed\": {ENV_SAMPLING_SEED},");
    let _ = writeln!(json, "    \"reps\": {env_reps},");
    let _ = writeln!(json, "    \"batched_matches_per_instant\": true,");
    let _ = writeln!(json, "    \"presets\": [");
    for (i, row) in env_rows.iter().enumerate() {
        let comma = if i + 1 < env_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{ \"name\": \"{}\", \"per_instant_ns\": {:.1}, \"batched_ns\": {:.1}, \
             \"speedup\": {:.2} }}{comma}",
            row.name,
            row.per_instant_ns,
            row.batched_ns,
            row.per_instant_ns / row.batched_ns
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kernel_cache\": {{");
    let _ = writeln!(json, "    \"hits\": {},", cache_stats.hits);
    let _ = writeln!(json, "    \"misses\": {},", cache_stats.misses);
    let _ = writeln!(
        json,
        "    \"invalidations\": {},",
        cache_stats.invalidations
    );
    let _ = writeln!(json, "    \"hit_rate\": {:.6},", cache_stats.hit_rate());
    let _ = writeln!(json, "    \"held_matches_per_step\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"instrumentation\": {{");
    let _ = writeln!(json, "    \"days\": {overhead_days},");
    let _ = writeln!(json, "    \"bare_steps_per_sec\": {bare_sps:.1},");
    let _ = writeln!(json, "    \"observed_noop_steps_per_sec\": {noop_sps:.1},");
    let _ = writeln!(
        json,
        "    \"observed_noop_overhead_pct\": {noop_overhead_pct:.3},"
    );
    let _ = writeln!(json, "    \"instrumented_steps_per_sec\": {inst_sps:.1},");
    let _ = writeln!(
        json,
        "    \"instrumented_overhead_pct\": {inst_overhead_pct:.3},"
    );
    let _ = writeln!(
        json,
        "    \"instrumented_observers\": [\"MetricsObserver\", \"ConservationAuditor\"]"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"ensemble\": {{");
    let _ = writeln!(json, "    \"seeds\": {},", seeds.len());
    let _ = writeln!(json, "    \"days_per_run\": {ensemble_days},");
    let _ = writeln!(json, "    \"parallel_matches_sequential\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fleet\": {{");
    let _ = writeln!(
        json,
        "    \"baseline_single_run_steps_per_second\": {steps_per_sec:.1},"
    );
    let _ = writeln!(json, "    \"one_node_matches_single_run\": true,");
    let _ = writeln!(json, "    \"thread_shard_invariant\": true,");
    let _ = writeln!(json, "    \"multicore_target_node_steps_per_sec\": 1.0e8,");
    let _ = writeln!(json, "    \"rows\": [");
    for (i, row) in fleet_rows.iter().enumerate() {
        let comma = if i + 1 < fleet_rows.len() { "," } else { "" };
        let s = &row.summary;
        let rate = s.node_steps as f64 / row.seconds;
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", row.name);
        let _ = writeln!(json, "        \"lane\": \"{}\",", row.lane);
        let _ = writeln!(json, "        \"cadence\": \"per_window\",");
        let _ = writeln!(json, "        \"population\": {},", s.population);
        let _ = writeln!(json, "        \"steps_per_node\": {},", s.steps_per_node);
        let _ = writeln!(json, "        \"node_steps\": {},", s.node_steps);
        let _ = writeln!(json, "        \"threads\": {host_threads},");
        let _ = writeln!(json, "        \"seconds\": {:.6},", row.seconds);
        let _ = writeln!(json, "        \"node_steps_per_sec\": {rate:.1},");
        let _ = writeln!(
            json,
            "        \"per_core_node_steps_per_sec\": {:.1},",
            rate / host_threads as f64
        );
        let _ = writeln!(
            json,
            "        \"speedup_vs_single_run\": {:.2},",
            rate / steps_per_sec
        );
        let _ = writeln!(
            json,
            "        \"cache_hit_rate\": {:.6},",
            s.kernel_cache.hit_rate()
        );
        let _ = writeln!(
            json,
            "        \"energy_neutral_fraction\": {:.6},",
            s.energy_neutral_fraction
        );
        let _ = writeln!(json, "        \"uptime_mean\": {:.6},", s.uptime.mean);
        let _ = writeln!(json, "        \"audit_relative\": {:.3e}", s.audit_relative);
        let _ = writeln!(json, "      }}{comma}");
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"dense_supercap\": {{");
    let _ = writeln!(json, "      \"population\": {cap_population},");
    let _ = writeln!(json, "      \"steps_per_node\": {cap_steps_per_node},");
    let _ = writeln!(json, "      \"threads\": {host_threads},");
    let _ = writeln!(json, "      \"dense_supercap_matches_boxed\": true,");
    let _ = writeln!(json, "      \"boxed_population\": {cap_n},");
    let _ = writeln!(
        json,
        "      \"dense_supercap_node_steps_per_sec\": {cap_rate:.1},"
    );
    let _ = writeln!(
        json,
        "      \"dense_supercap_per_core_node_steps_per_sec\": {:.1},",
        cap_rate / host_threads as f64
    );
    let _ = writeln!(
        json,
        "      \"dense_supercap_boxed_node_steps_per_sec\": {cap_boxed_rate:.1},"
    );
    let _ = writeln!(
        json,
        "      \"dense_supercap_speedup_vs_boxed\": {cap_speedup:.2}"
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"dense_battery_batched\": {{");
    let _ = writeln!(json, "      \"population\": {batt_population},");
    let _ = writeln!(json, "      \"steps_per_node\": {batt_steps_per_node},");
    let _ = writeln!(json, "      \"threads\": {host_threads},");
    let _ = writeln!(json, "      \"dense_battery_matches_boxed\": true,");
    let _ = writeln!(json, "      \"boxed_population\": {batt_n},");
    let _ = writeln!(
        json,
        "      \"dense_battery_batched_node_steps_per_sec\": {batt_rate:.1},"
    );
    let _ = writeln!(
        json,
        "      \"dense_battery_batched_per_core_node_steps_per_sec\": {:.1},",
        batt_rate / host_threads as f64
    );
    let _ = writeln!(
        json,
        "      \"dense_battery_boxed_node_steps_per_sec\": {batt_boxed_rate:.1},"
    );
    let _ = writeln!(
        json,
        "      \"dense_battery_batched_speedup_vs_boxed\": {batt_speedup:.2}"
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"arena\": {{");
    let _ = writeln!(
        json,
        "    \"scenario\": \"dense solar+EDLC rig, outdoor temperate seed {arena_seed}, \
         full monitoring\","
    );
    let _ = writeln!(json, "    \"contenders\": {ARENA_CONTENDERS},");
    let _ = writeln!(json, "    \"seeds\": 1,");
    let _ = writeln!(json, "    \"days\": {ARENA_DAYS},");
    let _ = writeln!(
        json,
        "    \"steps_per_lane\": {},",
        arena_summary.steps_per_lane
    );
    let _ = writeln!(json, "    \"windows_per_lane\": {arena_windows},");
    let _ = writeln!(json, "    \"arena_seconds\": {arena_secs:.6},");
    let _ = writeln!(json, "    \"single_run_seconds\": {single_lane_secs:.6},");
    let _ = writeln!(
        json,
        "    \"arena_cost_vs_single_run\": {arena_cost_vs_single:.3},"
    );
    let _ = writeln!(json, "    \"amortization_factor\": {amortization:.2},");
    let _ = writeln!(
        json,
        "    \"policy_evals_per_sec\": {policy_evals_per_sec:.1},"
    );
    let _ = writeln!(json, "    \"arena_lanes_match_independent_runs\": true,");
    let _ = writeln!(
        json,
        "    \"arena_boxed_lanes_match_independent_runs\": true,"
    );
    let _ = writeln!(
        json,
        "    \"boxed_scenario\": \"System B, outdoor temperate seeds 9 and 10, default \
         roster, {ARENA_DAYS} days\","
    );
    let _ = writeln!(json, "    \"boxed_lanes\": {},", boxed_arena_summary.lanes);
    let _ = writeln!(json, "    \"boxed_lane_steps\": {boxed_lane_steps},");
    let _ = writeln!(json, "    \"boxed_seconds\": {boxed_arena_secs:.6},");
    let _ = writeln!(
        json,
        "    \"boxed_lane_steps_per_sec\": {boxed_lane_steps_per_sec:.1},"
    );
    let _ = writeln!(json, "    \"winner\": \"{arena_winner}\",");
    let _ = writeln!(
        json,
        "    \"audit_relative\": {:.3e}",
        arena_summary.audit_relative
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign\": {{");
    let _ = writeln!(
        json,
        "    \"scenario\": \"System D, agricultural, stochastic store faults + \
         harvester glitches, failover-wrapped ladder\","
    );
    let _ = writeln!(json, "    \"seeds\": {},", seeds.len());
    let _ = writeln!(json, "    \"days_per_scenario\": {ensemble_days},");
    let _ = writeln!(json, "    \"seconds\": {campaign_secs:.6},");
    let _ = writeln!(json, "    \"scenarios_per_sec\": {scenarios_per_sec:.3},");
    let _ = writeln!(json, "    \"uptime_mean\": {:.6},", campaign.uptime.mean);
    let _ = writeln!(json, "    \"uptime_min\": {:.6},", campaign.uptime.min);
    let _ = writeln!(json, "    \"total_faults\": {},", campaign.total_faults);
    let _ = writeln!(json, "    \"total_clears\": {},", campaign.total_clears);
    let _ = writeln!(
        json,
        "    \"total_failovers\": {},",
        campaign.total_failovers
    );
    let _ = writeln!(
        json,
        "    \"longest_outage_max_s\": {:.1},",
        campaign.longest_outage_s.max
    );
    let _ = writeln!(
        json,
        "    \"worst_audit_relative\": {:.3e},",
        campaign.worst_audit_relative
    );
    let _ = writeln!(json, "    \"parallel_matches_single_thread\": true");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");

    // The timing budgets are checked once the JSON is on disk, so a run
    // that trips one still leaves its numbers to read (and still exits
    // non-zero). Every bit-identity and audit check ran before the write.
    assert!(
        noop_overhead_pct <= overhead_budget,
        "observability wiring costs {noop_overhead_pct:.2} % with no observer attached \
         (budget: {overhead_budget} %)"
    );
    assert!(
        inst_overhead_pct <= overhead_budget,
        "metrics + conservation audit cost {inst_overhead_pct:.2} % (budget: {overhead_budget} %)"
    );
    assert!(
        arena_cost_vs_single <= 6.0,
        "32-lane arena cost {arena_cost_vs_single:.2}\u{d7} a single run (budget: 6\u{d7})"
    );
}
