//! Policy-evaluation arena: lockstep multi-policy tournaments over a
//! shared environment trace.
//!
//! The survey's future-work proposal is intelligence co-located with
//! the harvesting subsystem; choosing *which* intelligence means
//! evaluating N candidate policies over M seeded scenarios. Run
//! naively that is N×M full simulations — yet every one of those runs
//! re-samples the same seeded [`Environment`] and re-solves the same
//! harvest operating points, because harvest is independent of the
//! load the policy schedules. The arena amortizes that shared work:
//! per (scenario, seed) it samples the environment **once**, solves the
//! harvest **once**, and steps all N policy lanes in lockstep against
//! it. One extra platform per seed harvests each control window
//! ([`Platform::harvest`]) and every lane settles against it
//! ([`Platform::settle`]), window by window, through the same boxed
//! stepper a single run uses. A scenario declared with a dense class
//! ([`ArenaSpec::dense`]) goes further: one channel builds the per-step
//! harvest table (the fleet engine's replay machinery) and the lanes
//! step on the fleet's struct-of-arrays lane kernels
//! ([`mseh_storage::SupercapLanes`], [`mseh_storage::BatteryLanes`]) in
//! their exact batched tier, applied across policy lanes exactly as
//! across fleet nodes.
//!
//! # Bit-identity
//!
//! Lanes sample the scenario every step, so every lane's trajectory is
//! bit-identical to an independent [`run_simulation`] of that policy
//! against the same scenario — same iterate sequence, full-summary
//! equality — because the lockstep settles exactly as a standalone
//! run's `step` does, and the lane kernels run its arithmetic. Seeds fan out
//! across threads via the sharded [`par_map_with`] merge and fold in
//! seed order, so results are bit-identical at any thread count.
//! Rankings therefore reflect policy behaviour alone, never scheduling.
//!
//! # Examples
//!
//! ```
//! use mseh_sim::{run_arena, ArenaConfig, ArenaSpec, Contender, DenseClass, DenseStore};
//! use mseh_env::Environment;
//! use mseh_node::{FixedDuty, SensorNode, VoltageThreshold};
//! use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
//! use mseh_harvesters::PvModule;
//! use mseh_storage::Supercap;
//! use mseh_units::{DutyCycle, Seconds};
//!
//! let spec = ArenaSpec::dense(
//!     "pv shoot-out",
//!     SensorNode::submilliwatt_class(),
//!     DenseClass::new(
//!         || InputChannel::new(
//!             Box::new(PvModule::outdoor_panel_half_watt()),
//!             Box::new(FractionalVoc::pv_standard()),
//!             Box::new(IdealDiode::nanopower()),
//!             Box::new(DcDcConverter::mppt_front_end_5v()),
//!         ),
//!         DcDcConverter::buck_boost_3v3(),
//!         DenseStore::Supercap(Supercap::edlc_22f()),
//!     ),
//!     |seed| Environment::outdoor_temperate(seed),
//! )
//! .with_contender(Contender::new("fixed-5%", |_| {
//!     Box::new(FixedDuty::new(DutyCycle::saturating(0.05)))
//! }))
//! .with_contender(Contender::new("ladder", |_| {
//!     Box::new(VoltageThreshold::supercap_ladder())
//! }))
//! .with_seeds(&[1, 2]);
//! let out = run_arena(&spec, ArenaConfig::over(Seconds::from_hours(2.0)));
//! assert_eq!(out.summary.standings.len(), 2);
//! assert_eq!(out.summary.standings[0].rank, 1);
//! ```

use crate::cancel::{tripped, CancelToken};
use crate::fleet::dense_lanes::{run_lanes, LaneHarvest};
use crate::fleet::{
    build_harvest_table, DenseClass, EnvCadence, FleetControl, PlatformFactory, PolicyFactory,
};
use crate::parallel::{par_map_with, thread_count};
use crate::platform::Platform;
#[cfg(doc)]
use crate::runner::run_simulation;
use crate::runner::{SimConfig, SimResult};
use crate::steps::{Ambient, BoxedRun, NodeOutcome, OutcomeTotals, StepPlan, UptimePercentiles};
use mseh_core::BusHarvest;
use mseh_env::{EnvConditions, EnvSampler, Environment};
use mseh_harvesters::CacheStats;
use mseh_node::{
    DayProfileForecast, DutyCyclePolicy, EnergyNeutral, FailoverPolicy, FixedDuty,
    ForecastDutySelect, HillClimbDuty, SensorNode, VoltageThreshold,
};
use mseh_units::{DutyCycle, Joules, Seconds, Volts};
use std::sync::Arc;

/// Builds the scenario environment from a seed.
pub type EnvFactory = dyn Fn(u64) -> Environment + Send + Sync;

/// One policy entered in the tournament: a display name plus a factory
/// that builds a fresh policy instance per (scenario, seed). The
/// factory receives the scenario seed, so stochastic policies (e.g.
/// [`HillClimbDuty`]) derive their randomness deterministically per
/// seed — the bit-identity contract's requirement.
pub struct Contender {
    name: String,
    policy: Box<PolicyFactory>,
}

impl Contender {
    /// Declares a contender.
    pub fn new(
        name: &str,
        policy: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            policy: Box::new(policy),
        }
    }

    /// The contender's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the policy instance this contender enters for a scenario
    /// seed — what each arena lane runs, exposed so harnesses can
    /// reproduce a lane with an independent [`run_simulation`].
    pub fn build(&self, seed: u64) -> Box<dyn DutyCyclePolicy> {
        (self.policy)(seed)
    }
}

impl core::fmt::Debug for Contender {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Contender")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The tournament definition: one scenario (node, platform shape, and
/// seeded environment family), N contender policies, and K seeds.
/// Every (contender, seed) pair becomes one policy lane.
pub struct ArenaSpec {
    name: String,
    node: SensorNode,
    /// Builds each lane's platform, and each seed row's harvest driver,
    /// from the scenario seed.
    platform: Box<PlatformFactory>,
    /// The dense class the platforms are, for [`ArenaSpec::dense`].
    dense_class: Option<Arc<DenseClass>>,
    env: Box<EnvFactory>,
    contenders: Vec<Contender>,
    seeds: Vec<u64>,
}

impl ArenaSpec {
    /// A scenario on boxed platforms: `platform` builds each lane's
    /// unit from the scenario seed. Every call for a seed must build an
    /// identical platform — heterogeneity belongs to the policies under
    /// test, not the hardware — because one extra build solves the
    /// seed's channels and every lane settles against its harvest.
    pub fn boxed(
        name: &str,
        node: SensorNode,
        platform: impl Fn(u64) -> Box<dyn Platform> + Send + Sync + 'static,
        env: impl Fn(u64) -> Environment + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            node,
            platform: Box::new(platform),
            dense_class: None,
            env: Box::new(env),
            contenders: Vec::new(),
            seeds: vec![0],
        }
    }

    /// A scenario on the units of a dense class: the boxed scenario of
    /// the class's `PowerUnit`, declaring the class. Seed rows replay
    /// one shared harvest table on the batched lane kernels.
    pub fn dense(
        name: &str,
        node: SensorNode,
        class: DenseClass,
        env: impl Fn(u64) -> Environment + Send + Sync + 'static,
    ) -> Self {
        let class = Arc::new(class);
        let units = Arc::clone(&class);
        Self {
            dense_class: Some(class),
            ..Self::boxed(name, node, move |_| Box::new(units.unit()), env)
        }
    }

    /// Enters one contender.
    pub fn with_contender(mut self, contender: Contender) -> Self {
        self.contenders.push(contender);
        self
    }

    /// Enters a batch of contenders (e.g. [`default_contenders`]).
    pub fn with_contenders(mut self, contenders: impl IntoIterator<Item = Contender>) -> Self {
        self.contenders.extend(contenders);
        self
    }

    /// Sets the scenario seeds (default: the single seed `0`). Each
    /// seed samples its own environment trace; rankings aggregate
    /// across all of them.
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entered contenders, in declaration order.
    pub fn contenders(&self) -> &[Contender] {
        &self.contenders
    }

    /// The scenario seeds.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Total policy lanes: contenders × seeds.
    pub fn lanes(&self) -> u64 {
        self.contenders.len() as u64 * self.seeds.len() as u64
    }
}

impl core::fmt::Debug for ArenaSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ArenaSpec")
            .field("name", &self.name)
            .field("contenders", &self.contenders.len())
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

/// Configuration of one arena run. Lanes sample the scenario's
/// conditions every step, so each lane is bit-identical to a standalone
/// [`run_simulation`] of its policy.
#[derive(Debug, Clone, Copy)]
pub struct ArenaConfig {
    /// Per-lane stepping parameters. `record` is ignored: lanes never
    /// keep per-step traces.
    pub sim: SimConfig,
    /// Worker threads fanning out over seeds (`0` = [`thread_count`]).
    /// Results are bit-identical at any value.
    pub threads: usize,
    /// Also return a full [`SimResult`] per lane, in seed-major lane
    /// order (`seed_index × contenders + contender_index`).
    pub keep_lane_results: bool,
}

impl ArenaConfig {
    /// Arena defaults over `duration`: 60 s steps, 10-minute control
    /// windows, auto threads.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            threads: 0,
            keep_lane_results: false,
        }
    }

    /// Sets an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Keeps a full per-lane [`SimResult`] vector on the result.
    pub fn keep_lane_results(mut self) -> Self {
        self.keep_lane_results = true;
        self
    }
}

/// One contender's aggregate line in the final ranking, folded across
/// all scenario seeds in seed order (bit-identical at any thread
/// count).
#[derive(Debug, Clone, PartialEq)]
pub struct ContenderStanding {
    /// The contender's display name.
    pub name: String,
    /// 1-based rank after sorting (1 = winner).
    pub rank: usize,
    /// Energy-weighted served fraction across all seeds:
    /// `1 − shortfall / demanded`.
    pub served_fraction: f64,
    /// Distribution of the contender's per-seed uptimes.
    pub uptime: UptimePercentiles,
    /// Total bus energy harvested across seeds.
    pub harvested: Joules,
    /// Total energy delivered to the load.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Total load energy demanded.
    pub demanded: Joules,
    /// Total output-stage conversion loss.
    pub converter_losses: Joules,
    /// Energy stranded by active faults at run end, summed over seeds.
    pub stranded_energy: Joules,
    /// Total application samples delivered (shortfall-weighted).
    pub samples: f64,
    /// Steps with any shortfall, summed over seeds.
    pub brownout_steps: u64,
    /// Longest consecutive-shortfall run in any seed.
    pub longest_outage_steps: u64,
    /// Minimum store voltage seen in any seed.
    pub min_store_voltage: Volts,
    /// Seeds this contender finished with zero brown-out steps
    /// (energy-neutral under the survey's operating criterion).
    pub energy_neutral_seeds: u64,
    /// Failover-mode entries counted by the policy (non-zero only for
    /// [`FailoverPolicy`]-wrapped contenders).
    pub failovers: u64,
    /// Worst single-lane conservation residual for this contender.
    pub worst_audit: f64,
}

/// Aggregate results of an arena run. All totals fold per-lane results
/// in (seed, contender) order, so they are bit-identical at any thread
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaSummary {
    /// Contenders entered.
    pub contenders: u64,
    /// Scenario seeds evaluated.
    pub seeds: u64,
    /// Policy lanes simulated (`contenders × seeds`).
    pub lanes: u64,
    /// Steps each lane took (including the fractional closer, if any).
    pub steps_per_lane: u64,
    /// Simulated span per lane.
    pub duration: Seconds,
    /// Contender lines ranked best first (rank 1 at index 0): by
    /// served fraction, then mean uptime, then samples delivered, then
    /// name.
    pub standings: Vec<ContenderStanding>,
    /// Kernel-cache counters of the channel solves: one shared driver
    /// per seed row, for boxed and dense scenarios alike, since lanes
    /// only settle or replay its harvest. The arena runs per step, so
    /// that shared platform consults no memo and counts one miss per
    /// channel step. Dense lanes add one synthesized hit per table
    /// replay, as dense fleet nodes do.
    pub kernel_cache: CacheStats,
    /// Arena-aggregated conservation residual: |Σ signed per-lane
    /// residuals| over total storage throughput (≈0; a run at or above
    /// 1e-6 is an error, never a summary).
    pub audit_relative: f64,
}

/// Everything an arena run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaResult {
    /// Rankings and aggregates over all lanes.
    pub summary: ArenaSummary,
    /// Per-lane results when [`ArenaConfig::keep_lane_results`] is
    /// set, in seed-major lane order.
    pub lane_results: Option<Vec<SimResult>>,
}

/// The stock tournament roster: the survey's incumbent fixed ladders
/// and reactive controllers plus the adaptive extensions — forecast
/// budgeting and selection over a learned diurnal profile, seeded
/// hill-climbing duty search, and a failover-wrapped incumbent.
pub fn default_contenders() -> Vec<Contender> {
    vec![
        Contender::new("fixed-2%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.02)))
        }),
        Contender::new("fixed-10%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.10)))
        }),
        Contender::new("fixed-50%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.50)))
        }),
        Contender::new("voltage-ladder", |_| {
            Box::new(VoltageThreshold::supercap_ladder())
        }),
        Contender::new("energy-neutral", |_| Box::new(EnergyNeutral::new())),
        Contender::new("failover(energy-neutral)", |_| {
            Box::new(FailoverPolicy::new(Box::new(EnergyNeutral::new())))
        }),
        Contender::new("forecast-budget-12h", |_| {
            Box::new(DayProfileForecast::new(Seconds::from_hours(12.0)))
        }),
        Contender::new("forecast-select-12h", |_| {
            Box::new(ForecastDutySelect::new(Seconds::from_hours(12.0)))
        }),
        Contender::new("hill-climb", |seed| Box::new(HillClimbDuty::new(seed))),
    ]
}

/// Runs the tournament described by `spec` under `config`.
///
/// # Panics
///
/// Panics on an empty roster or seed list, a non-positive `dt`, a
/// duration shorter than one step, or a run whose energy books do not
/// close. Long-running embeddings that must survive a malformed spec
/// (the `mseh serve` daemon) use [`run_arena_controlled`], which reports
/// those as `Err` instead.
pub fn run_arena(spec: &ArenaSpec, config: ArenaConfig) -> ArenaResult {
    match run_arena_controlled(spec, config, FleetControl::default()) {
        Ok(Some(result)) => result,
        Ok(None) => unreachable!("no cancel token was installed"),
        Err(message) => panic!("{message}"),
    }
}

/// [`run_arena`] as a daemon-facing entry point: spec/config validation
/// errors and energy books that fail the 1e-6 conservation audit come
/// back as `Err` instead of panicking, and a
/// [`FleetControl`] supplies optional cooperative cancellation
/// (`Ok(None)` when the token trips — partial results are discarded,
/// never returned torn) and progress reporting (counts are lanes). An
/// un-cancelled run returns exactly [`run_arena`]'s result, bit for
/// bit.
pub fn run_arena_controlled(
    spec: &ArenaSpec,
    config: ArenaConfig,
    control: FleetControl<'_>,
) -> Result<Option<ArenaResult>, String> {
    let cancel = control.cancel;
    let n = spec.contenders.len();
    if n == 0 {
        return Err("arena needs at least one contender".into());
    }
    if spec.seeds.is_empty() {
        return Err("arena needs at least one seed".into());
    }
    let plan = StepPlan::new(config.sim, EnvCadence::PerStep)?;
    let times = plan.table_times();
    let lanes_total = spec.lanes();
    let threads = if config.threads == 0 {
        thread_count()
    } else {
        config.threads
    };

    // One shard per scenario seed: the row samples its environment
    // trace once, solves its harvest once, and steps all N policy lanes
    // against it. Rows fold back in seed order, so thread count never
    // touches a bit.
    let done_lanes = std::sync::atomic::AtomicU64::new(0);
    let seed_indices: Vec<usize> = (0..spec.seeds.len()).collect();
    let run_row = |&si: &usize| -> Option<RowOutcome> {
        if tripped(cancel) {
            return None;
        }
        let seed = spec.seeds[si];
        let env = (spec.env)(seed);
        let mut rows: Vec<EnvConditions> = Vec::new();
        env.conditions_into(&times, &mut rows);
        let mut policies: Vec<Box<dyn DutyCyclePolicy>> =
            spec.contenders.iter().map(|c| (c.policy)(seed)).collect();
        let (lanes, driver_cache) = run_seed_row(spec, seed, &rows, &mut policies, &plan, cancel)?;
        if let Some(report) = control.progress {
            let done =
                n as u64 + done_lanes.fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
            report(done, lanes_total);
        }
        Some(RowOutcome {
            lanes,
            // Read failover counts back from the policies themselves.
            failovers: policies.iter().map(|p| p.failover_count()).collect(),
            driver_cache,
        })
    };

    // A tripped token may have left rows unfinished; partial results
    // are discarded wholesale rather than folded torn.
    let rows_out: Option<Vec<RowOutcome>> = par_map_with(threads.max(1), &seed_indices, run_row)
        .into_iter()
        .collect();
    let Some(rows_out) = rows_out.filter(|_| !tripped(cancel)) else {
        return Ok(None);
    };

    // Per-contender folds across seeds in seed order, and the
    // arena-wide totals in seed-major lane order.
    let mut contenders: Vec<(OutcomeTotals, u64)> =
        (0..n).map(|_| (OutcomeTotals::new(), 0)).collect();
    let mut arena = OutcomeTotals::new();
    let mut lane_results = config
        .keep_lane_results
        .then(|| Vec::with_capacity(lanes_total as usize));
    for row in &rows_out {
        for ((o, failovers), (totals, contender_failovers)) in
            row.lanes.iter().zip(&row.failovers).zip(&mut contenders)
        {
            totals.add(o);
            *contender_failovers += failovers;
            arena.add(o);
            if let Some(results) = lane_results.as_mut() {
                results.push(o.to_sim_result(plan.duration));
            }
        }
        arena.cache.merge(row.driver_cache);
    }
    let audit_relative = arena.audit("arena")?;

    let mut standings: Vec<ContenderStanding> = contenders
        .into_iter()
        .zip(&spec.contenders)
        .map(|((a, failovers), c)| ContenderStanding {
            name: c.name.clone(),
            rank: 0,
            served_fraction: a.served_fraction(),
            uptime: a.uptime(),
            harvested: a.harvested,
            delivered: a.delivered,
            shortfall: a.shortfall,
            demanded: a.demanded,
            converter_losses: a.converter_losses,
            stranded_energy: a.stranded,
            samples: a.samples,
            brownout_steps: a.brownout_steps,
            longest_outage_steps: a.longest_outage_steps,
            min_store_voltage: a.min_store_voltage,
            energy_neutral_seeds: a.energy_neutral,
            failovers,
            worst_audit: a.worst_audit,
        })
        .collect();

    // Rank: served fraction, then mean uptime, then samples delivered,
    // then name — all total orders, so the ranking is deterministic.
    standings.sort_by(|a, b| {
        b.served_fraction
            .total_cmp(&a.served_fraction)
            .then(b.uptime.mean.total_cmp(&a.uptime.mean))
            .then(b.samples.total_cmp(&a.samples))
            .then(a.name.cmp(&b.name))
    });
    for (i, s) in standings.iter_mut().enumerate() {
        s.rank = i + 1;
    }

    Ok(Some(ArenaResult {
        summary: ArenaSummary {
            contenders: n as u64,
            seeds: spec.seeds.len() as u64,
            lanes: lanes_total,
            steps_per_lane: plan.steps,
            duration: plan.duration,
            standings,
            kernel_cache: arena.cache,
            audit_relative,
        },
        lane_results,
    }))
}

/// One seed row's finished lanes, the policies' failover counts, and
/// the cache counters of the row's harvest driver.
struct RowOutcome {
    lanes: Vec<NodeOutcome>,
    failovers: Vec<u64>,
    driver_cache: CacheStats,
}

/// Steps one seed row's lanes against the row's conditions: on the lane
/// kernels over one shared harvest table when the spec declares a dense
/// class, else boxed in lockstep. Returns the lanes' outcomes and the
/// harvest driver's cache counters, or `None` when `cancel` trips.
///
/// The boxed lockstep solves the channels once: per control window one
/// more platform, built like every lane ([`ArenaSpec::boxed`]'s rule),
/// harvests every step into a window-sized buffer, then each lane picks
/// its duty and settles the window against that buffer. A lane's harvest
/// never depends on its load, so every lane ends exactly where stepping
/// its own channels would have left it.
fn run_seed_row(
    spec: &ArenaSpec,
    seed: u64,
    rows: &[EnvConditions],
    policies: &mut [Box<dyn DutyCyclePolicy>],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
) -> Option<(Vec<NodeOutcome>, CacheStats)> {
    if let Some(class) = spec.dense_class.as_deref() {
        let (table, driver_cache) = build_harvest_table(class, rows, plan, cancel)?;
        let mut out = Vec::with_capacity(policies.len());
        let harvest = LaneHarvest::Shared(&table);
        return run_lanes(class, &spec.node, policies, harvest, plan, cancel, &mut out)
            .then_some((out, driver_cache));
    }
    let mut driver = (spec.platform)(seed);
    let mut lanes: Vec<Box<dyn Platform>> =
        (0..policies.len()).map(|_| (spec.platform)(seed)).collect();
    let mut runs: Vec<BoxedRun<'_, '_>> = lanes
        .iter_mut()
        .zip(policies.iter_mut())
        .map(|(lane, policy)| {
            BoxedRun::open(lane.as_mut(), policy.as_mut(), &spec.node, plan, &mut [])
        })
        .collect();
    let mut harvests: Vec<BusHarvest> = Vec::with_capacity(plan.max_window_len());
    for window in plan.windows() {
        if tripped(cancel) {
            return None;
        }
        harvests.clear();
        for step in window.steps() {
            harvests.push(driver.harvest(window.row(rows, &step), step.dt));
        }
        for run in &mut runs {
            let load = run.decide(&window);
            run.step(&window, &load, Ambient::Settle(&harvests), |_, _| {});
        }
    }
    Some((
        runs.into_iter().map(BoxedRun::close).collect(),
        driver.kernel_cache_stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::fleet::DenseStore;
    use crate::runner::run_simulation;
    use mseh_core::{
        IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
    };
    use mseh_harvesters::PvModule;
    use mseh_node::MonitoringLevel;
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::Volts;

    fn solar_channel() -> InputChannel {
        InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }

    fn solar_cap() -> Supercap {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.8));
        cap
    }

    fn full_supervisor() -> Supervisor {
        Supervisor {
            location: IntelligenceLocation::PowerUnit,
            monitoring: MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: false },
            overhead: mseh_units::Watts::ZERO,
        }
    }

    fn solar_unit() -> PowerUnit {
        PowerUnit::builder("arena node")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(solar_channel()),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(solar_cap())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .supervisor(full_supervisor())
            .build()
    }

    /// The dense declaration of exactly the hardware in [`solar_unit`].
    fn solar_class() -> DenseClass {
        DenseClass::new(
            solar_channel,
            DcDcConverter::buck_boost_3v3(),
            DenseStore::Supercap(solar_cap()),
        )
        .with_monitoring(MonitoringLevel::Full)
    }

    fn mixed_roster() -> Vec<Contender> {
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

    fn boxed_spec() -> ArenaSpec {
        ArenaSpec::boxed(
            "boxed",
            SensorNode::submilliwatt_class(),
            |_| Box::new(solar_unit()),
            Environment::outdoor_temperate,
        )
        .with_contenders(mixed_roster())
        .with_seeds(&[11, 12, 13])
    }

    fn dense_spec() -> ArenaSpec {
        ArenaSpec::dense(
            "dense",
            SensorNode::submilliwatt_class(),
            solar_class(),
            Environment::outdoor_temperate,
        )
        .with_contenders(mixed_roster())
        .with_seeds(&[11, 12, 13])
    }

    #[test]
    fn every_lane_matches_its_independent_run() {
        let horizon = Seconds::from_hours(3.0);
        let out = run_arena(
            &boxed_spec(),
            ArenaConfig::over(horizon).keep_lane_results(),
        );
        let lanes = out.lane_results.expect("kept");
        let spec = boxed_spec();
        for (si, &seed) in spec.seeds().iter().enumerate() {
            for (ci, contender) in spec.contenders().iter().enumerate() {
                let mut platform = solar_unit();
                let mut policy = (contender.policy)(seed);
                let reference = run_simulation(
                    &mut platform,
                    &Environment::outdoor_temperate(seed),
                    &SensorNode::submilliwatt_class(),
                    policy.as_mut(),
                    SimConfig::over(horizon),
                );
                assert_eq!(
                    lanes[si * spec.contenders().len() + ci],
                    reference,
                    "lane ({seed}, {})",
                    contender.name()
                );
            }
        }
    }

    #[test]
    fn dense_lanes_match_boxed_lanes_bitwise() {
        let horizon = Seconds::from_hours(3.0);
        let config = ArenaConfig::over(horizon).keep_lane_results();
        let dense = run_arena(&dense_spec(), config);
        let boxed = run_arena(&boxed_spec(), config);
        assert_eq!(dense.lane_results, boxed.lane_results);
        assert_eq!(dense.summary.standings, boxed.summary.standings);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let reference = run_arena(
            &dense_spec(),
            ArenaConfig::over(Seconds::from_hours(2.0)).with_threads(1),
        );
        for threads in [2, 3, 7] {
            let out = run_arena(
                &dense_spec(),
                ArenaConfig::over(Seconds::from_hours(2.0)).with_threads(threads),
            );
            assert_eq!(out.summary, reference.summary, "{threads} threads");
        }
    }

    #[test]
    fn standings_rank_by_served_fraction() {
        // A starving load: the big fixed duty must brown out, the tiny
        // one serves nearly everything.
        let spec = ArenaSpec::boxed(
            "starved",
            SensorNode::milliwatt_class(),
            |_| Box::new(solar_unit()),
            Environment::indoor_office,
        )
        .with_contender(Contender::new("greedy", |_| {
            Box::new(FixedDuty::new(DutyCycle::ONE))
        }))
        .with_contender(Contender::new("frugal", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.01)))
        }))
        .with_seeds(&[5]);
        let out = run_arena(&spec, ArenaConfig::over(Seconds::from_hours(6.0)));
        let s = &out.summary.standings;
        assert_eq!(s[0].name, "frugal");
        assert_eq!(s[0].rank, 1);
        assert_eq!(s[1].name, "greedy");
        assert_eq!(s[1].rank, 2);
        assert!(s[0].served_fraction > s[1].served_fraction);
    }

    #[test]
    fn cancellation_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        let out = run_arena_controlled(
            &dense_spec(),
            ArenaConfig::over(Seconds::from_hours(2.0)),
            FleetControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec");
        assert!(out.is_none());
    }

    #[test]
    fn rejects_empty_roster_and_seeds() {
        let no_contenders = ArenaSpec::dense(
            "empty",
            SensorNode::submilliwatt_class(),
            solar_class(),
            Environment::outdoor_temperate,
        );
        assert!(run_arena_controlled(
            &no_contenders,
            ArenaConfig::over(Seconds::from_hours(1.0)),
            FleetControl::default(),
        )
        .is_err());
        let no_seeds = dense_spec().with_seeds(&[]);
        assert!(run_arena_controlled(
            &no_seeds,
            ArenaConfig::over(Seconds::from_hours(1.0)),
            FleetControl::default(),
        )
        .is_err());
        // More 60 s steps than a u64 counts: no silent zero-step run.
        let err = run_arena_controlled(
            &dense_spec(),
            ArenaConfig::over(Seconds::new(1e22)),
            FleetControl::default(),
        )
        .expect_err("step count overflows");
        assert!(err.contains("more than a run can count"), "{err}");
    }

    /// A unit whose books claim twice the energy its stores hold.
    struct Misreporting(PowerUnit);

    impl Platform for Misreporting {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn harvest(&mut self, env: &EnvConditions, dt: Seconds) -> BusHarvest {
            self.0.harvest(env, dt)
        }
        fn settle(
            &mut self,
            harvest: &BusHarvest,
            dt: Seconds,
            load: mseh_units::Watts,
        ) -> mseh_core::StepReport {
            self.0.settle(harvest, dt, load)
        }
        fn energy_status(&self) -> mseh_node::EnergyStatus {
            self.0.energy_status()
        }
        fn total_stored_energy(&self) -> Joules {
            self.0.total_stored_energy() * 2.0
        }
        fn storage_losses(&self) -> Joules {
            self.0.storage_losses()
        }
        fn storage_capacity(&self) -> Joules {
            self.0.storage_capacity()
        }
    }

    #[test]
    fn books_that_do_not_close_are_an_error() {
        let spec = ArenaSpec::boxed(
            "misreporting",
            SensorNode::submilliwatt_class(),
            |_| Box::new(Misreporting(solar_unit())),
            Environment::outdoor_temperate,
        )
        .with_contender(Contender::new("fixed-2%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.02)))
        }));
        let err = run_arena_controlled(
            &spec,
            ArenaConfig::over(Seconds::from_hours(12.0)),
            FleetControl::default(),
        )
        .expect_err("a 2x stored-energy misreport breaks conservation");
        assert!(err.contains("do not close"), "{err}");
    }

    #[test]
    fn default_roster_is_adaptive_and_distinct() {
        let roster = default_contenders();
        assert!(roster.len() >= 8);
        let mut names: Vec<&str> = roster.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), roster.len(), "duplicate contender names");
        for want in [
            "forecast-budget-12h",
            "forecast-select-12h",
            "hill-climb",
            "failover(energy-neutral)",
        ] {
            assert!(roster.iter().any(|c| c.name() == want), "missing {want}");
        }
    }

    #[test]
    fn failover_counts_surface_in_standings() {
        // A harsh indoor scenario collapses the store under an
        // aggressive inner policy; the wrapper's trips must surface.
        let spec = ArenaSpec::boxed(
            "failover probe",
            SensorNode::milliwatt_class(),
            |_| Box::new(solar_unit()),
            Environment::indoor_office,
        )
        .with_contender(Contender::new("failover(greedy)", |_| {
            Box::new(FailoverPolicy::new(Box::new(FixedDuty::new(
                DutyCycle::ONE,
            ))))
        }))
        .with_seeds(&[3]);
        let out = run_arena(&spec, ArenaConfig::over(Seconds::from_hours(12.0)));
        let standing = &out.summary.standings[0];
        assert!(
            standing.failovers > 0,
            "expected failover trips, got {standing:?}"
        );
    }
}
