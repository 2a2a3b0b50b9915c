//! Fleet-scale simulation: thousands-to-millions of heterogeneous nodes
//! stepped in one run.
//!
//! The survey's deployments are not single nodes: a structural-health or
//! agricultural network (System D's MPWiNode, System G's Enviromote) is a
//! *population* of harvesting platforms scattered over a handful of sites,
//! each node seeing slightly different conditions. The fleet engine models
//! exactly that:
//!
//! * a small set of **sites** (seeded [`Environment`]s), whose condition
//!   fields are sampled once per site into a contiguous table and shared
//!   read-only by every member node;
//! * **groups** of nodes per site (platform class × policy × load),
//!   each node built from a per-node seed so populations can be
//!   heterogeneous;
//! * optional per-node **jitter** ([`EnvJitter`]): seeded multiplicative
//!   spread on each ambient channel, so co-sited nodes decorrelate the
//!   way shaded/sun-struck panels on neighbouring poles do.
//!
//! Nodes never interact, so the engine shards the population across the
//! crate's scoped worker pool and merges per-shard results in shard
//! order. Every per-node trajectory is a pure function of the spec and
//! config, which makes the whole run **bit-identical at any thread count
//! and any shard size** — the same guarantee campaigns and arenas give
//! across seeds, extended to populations.
//!
//! # Environment cadence
//!
//! [`EnvCadence::PerStep`] gives each step its own snapshot and is
//! bit-identical to running [`crate::run_simulation`] once per node.
//! [`EnvCadence::PerWindow`] samples each site once per control window
//! and holds that snapshot (including its `time` field) for every step in
//! the window — the fleet-scale semantic: condition fields move at
//! control cadence. The walk picks the channels' solve path from the
//! cadence: a held window's steps go through
//! [`Platform::harvest_held`], whose input channels' memos answer the
//! window's remaining steps from its first solve, and a per-step
//! window's through [`Platform::harvest`], which consults no memo. The
//! two return the same harvest bit for bit, so a node of an
//! un-jittered group equals [`crate::run_simulation`] over
//! [`HeldWindows`] of its site.
//!
//! # The dense lane
//!
//! Most survey deployments are populations of one *shape*: a single
//! harvester channel feeding a single buffer through one output
//! converter. A [`DenseClass`] declares that shape with concrete types.
//! It is a declaration, not a second platform model: the class builds
//! the boxed [`mseh_core::PowerUnit`] it describes, and every group is a
//! boxed [`FleetGroup`]. A [`DenseGroup`] is the group of its class's
//! units, and the one way into the lanes.
//!
//! A dense group's members borrow the **lane kernels**
//! while the gate is open. Contiguous runs of members become lanes of
//! one [`mseh_storage::SupercapLanes`] or
//! [`mseh_storage::BatteryLanes`] population, whose per-step store
//! updates run as masked whole-lane passes over contiguous `f64`
//! arrays. The operating-point solve leaves the per-node loop too: an
//! un-jittered group replays one group-wide harvest table, stepped by
//! one driver channel exactly as each member's channel would step (so
//! it is exact for any controller), and a jittered group solves each
//! window across every lane's snapshot at once. The kernels share the
//! `PowerUnit`'s arithmetic rather than copy it: each lane-step
//! balances its bus through [`mseh_core::BusBalance`], the store lanes
//! run the scalar stores' per-cell functions, and the batched solves
//! run the scalar iterate sequence (see [`mseh_units::BatchSolve`]). So
//! the lanes only remove redundant work: every physical result equals
//! the boxed path's, and only the kernel-cache counters are synthesized
//! ([`FleetSummary::kernel_cache`]).
//! With the gate closed the group runs its units on the boxed path,
//! where each node steps one window at a time like a single run: a
//! jittered group under per-step cadence, and a jittered group whose
//! channel has no window-lane support (such as perturb-and-observe, or
//! fractional-V_oc on a harvester without a batched V_oc kernel).
//!
//! # Examples
//!
//! ```
//! use mseh_sim::{run_fleet, FleetConfig, FleetGroup, FleetSpec};
//! use mseh_core::{PortRequirement, PowerUnit, StoreRole};
//! use mseh_env::Environment;
//! use mseh_node::{FixedDuty, SensorNode};
//! use mseh_power::DcDcConverter;
//! use mseh_storage::Supercap;
//! use mseh_units::{DutyCycle, Seconds, Volts};
//!
//! let mut spec = FleetSpec::new();
//! let site = spec.add_site(Environment::indoor_office(42));
//! spec.add_group(
//!     FleetGroup::new(
//!         "buffered nodes",
//!         100,
//!         site,
//!         SensorNode::submilliwatt_class(),
//!         |_seed| {
//!             let mut cap = Supercap::edlc_22f();
//!             cap.set_voltage(Volts::new(2.5));
//!             Box::new(
//!                 PowerUnit::builder("node")
//!                     .store_port(
//!                         PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
//!                         Some(Box::new(cap)),
//!                         StoreRole::PrimaryBuffer,
//!                         true,
//!                     )
//!                     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
//!                     .build(),
//!             )
//!         },
//!         |_seed| Box::new(FixedDuty::new(DutyCycle::saturating(0.05))),
//!     )
//!     .with_seed(7),
//! );
//! let out = run_fleet(&spec, FleetConfig::over(Seconds::from_hours(2.0)));
//! assert_eq!(out.summary.population, 100);
//! assert!(out.summary.audit_relative < 1e-6);
//! ```

use crate::cancel::{tripped, uncontrolled, CancelToken, RunControl};
use crate::parallel::{par_map_with, resolve_threads};
use crate::platform::Platform;
use crate::runner::{SimConfig, SimResult};
use crate::steps::{Ambient, BoxedRun, NodeOutcome, OutcomeTotals, StepPlan, UptimePercentiles};
use dense_lanes::LaneHarvest;
use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_env::rng::{Noise, StreamId};
use mseh_env::{EnvConditions, EnvJitter, EnvSampler, Environment, JitterFactors};
use mseh_harvesters::CacheStats;
use mseh_node::{DutyCyclePolicy, MonitoringLevel, SensorNode};
use mseh_power::{DcDcConverter, HarvestStep, InputChannel};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_units::{Joules, Seconds, Volts};
use std::sync::Arc;

pub(crate) mod dense_lanes;

/// Stream on each group's seed from which per-node seeds are drawn
/// (disjoint from the environment's reserved streams and the jitter
/// streams 100+, which run on the *node* seed).
const NODE_SEED_STREAM: StreamId = StreamId(90);

/// How many worst-uptime nodes [`FleetSummary::stragglers`] lists.
const STRAGGLERS: usize = 8;

/// How often member nodes re-sample their site's conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvCadence {
    /// A fresh snapshot every step — bit-identical to running
    /// [`crate::run_simulation`] once per node against the site.
    PerStep,
    /// One snapshot per control window, held (including its `time`
    /// field) for every step in the window. This is the fleet-scale
    /// semantic: conditions move at control cadence and the kernel
    /// caches replay the window's first operating-point solve for the
    /// remaining steps. An un-jittered node's run equals
    /// [`crate::run_simulation`] over [`HeldWindows`] of its site.
    PerWindow,
}

/// A site as an [`EnvCadence::PerWindow`] node of an un-jittered group
/// sees it, for a single run: `site`'s snapshot at the first step of
/// each control window of `sim`, held (its `time` field included) for
/// every step of the window.
///
/// A [`crate::run_simulation`] over it with the same `sim` steps
/// per step, so its channels memoize nothing, yet it must equal the
/// per-window node bit for bit: it is the reference for the channels'
/// held-snapshot memos.
#[derive(Debug, Clone)]
pub struct HeldWindows<S> {
    site: S,
    sim: SimConfig,
}

impl<S: EnvSampler> HeldWindows<S> {
    /// `site` held over the control windows of `sim`.
    pub fn new(site: S, sim: SimConfig) -> Self {
        Self { site, sim }
    }
}

impl<S: EnvSampler> EnvSampler for HeldWindows<S> {
    fn conditions(&self, t: Seconds) -> EnvConditions {
        // The run's own step and window arithmetic (see `StepPlan`).
        let (dt, control) = (self.sim.dt.value(), self.sim.control_interval.value());
        let step = ((t - self.sim.start_at).value() / dt).round() as u64;
        let every = (control / dt).round().max(1.0) as u64;
        let start = self.sim.start_at + Seconds::new((step - step % every) as f64 * dt);
        self.site.conditions(start)
    }
}

/// Builds one node's platform from its per-node seed.
pub type PlatformFactory = dyn Fn(u64) -> Box<dyn Platform> + Send + Sync;
/// Builds one node's duty-cycle policy from its per-node seed.
pub type PolicyFactory = dyn Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync;

/// A homogeneous slice of the fleet: `count` nodes of one platform class
/// at one site, sharing a load model and policy kind. Per-node seeds let
/// the factories introduce intra-group heterogeneity.
pub struct FleetGroup {
    name: String,
    count: usize,
    site: usize,
    seed: u64,
    jitter: EnvJitter,
    node: SensorNode,
    platform: Box<PlatformFactory>,
    policy: Box<PolicyFactory>,
    dense_class: Option<Arc<DenseClass>>,
}

impl FleetGroup {
    /// A group of `count` nodes at site index `site`, with no jitter and
    /// group seed 0. The factories receive each node's derived seed.
    pub fn new(
        name: &str,
        count: usize,
        site: usize,
        node: SensorNode,
        platform: impl Fn(u64) -> Box<dyn Platform> + Send + Sync + 'static,
        policy: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            count,
            site,
            seed: 0,
            jitter: EnvJitter::NONE,
            node,
            platform: Box::new(platform),
            policy: Box::new(policy),
            dense_class: None,
        }
    }

    /// Sets the group seed from which per-node seeds are derived.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-node environment jitter applied to the site's
    /// conditions (seeded per node; [`EnvJitter::NONE`] is bit-exact
    /// pass-through).
    pub fn with_jitter(mut self, jitter: EnvJitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// The group's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the group.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Member `within`'s node seed.
    fn node_seed(&self, within: u64) -> u64 {
        Noise::new(self.seed).bits(NODE_SEED_STREAM, within)
    }
}

impl core::fmt::Debug for FleetGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetGroup")
            .field("name", &self.name)
            .field("count", &self.count)
            .field("site", &self.site)
            .field("seed", &self.seed)
            .field("jitter", &self.jitter)
            .field("dense_class", &self.dense_class)
            .finish_non_exhaustive()
    }
}

/// Builds a dense class's input channel. Every member shares one
/// channel definition (that homogeneity is what lets the lanes hoist
/// the operating-point solve out of the per-node loop); intra-group
/// spread comes from [`EnvJitter`], not the factory.
pub type ChannelFactory = dyn Fn() -> InputChannel + Send + Sync;

/// The concrete storage buffer of a dense class, cloned per node from
/// the template (including its initial state of charge).
#[derive(Debug, Clone)]
pub enum DenseStore {
    /// A supercapacitor buffer.
    Supercap(Supercap),
    /// A battery buffer.
    Battery(Battery),
}

/// The dense class: the survey's most common shape — one harvester
/// channel, one buffer, one output converter — declared with concrete
/// types, plus the monitoring tier. The class stands for the boxed
/// [`mseh_core::PowerUnit`] of exactly those parts with a default
/// supervisor (no standing draw) reporting at that tier. A
/// [`DenseGroup`] of the class's units, or an arena scenario declared
/// with it ([`crate::ArenaSpec::dense`]), borrows the batched
/// struct-of-arrays lane kernels.
///
/// The tier defaults to [`MonitoringLevel::Full`], as in
/// [`DenseGroup::new`]; override it with
/// [`with_monitoring`](Self::with_monitoring).
pub struct DenseClass {
    pub(crate) channel: Box<ChannelFactory>,
    pub(crate) output: DcDcConverter,
    pub(crate) store: DenseStore,
    pub(crate) monitoring: MonitoringLevel,
}

impl DenseClass {
    /// Declares a class from its concrete parts. Every unit of the class
    /// gets a fresh channel from the factory and a copy of the store
    /// template, initial state of charge included.
    pub fn new(
        channel: impl Fn() -> InputChannel + Send + Sync + 'static,
        output: DcDcConverter,
        store: DenseStore,
    ) -> Self {
        Self {
            channel: Box::new(channel),
            output,
            store,
            monitoring: MonitoringLevel::Full,
        }
    }

    /// Sets the monitoring tier (the units' `Supervisor::monitoring`;
    /// the units carry no sense ADC, so their status is never
    /// quantized).
    pub fn with_monitoring(mut self, monitoring: MonitoringLevel) -> Self {
        self.monitoring = monitoring;
        self
    }

    /// The unit the class declares: one harvester port with the class
    /// channel, one primary-buffer store port holding a copy of the
    /// template, the output converter, and a default supervisor at the
    /// class's monitoring tier.
    pub(crate) fn unit(&self) -> PowerUnit {
        let store: Box<dyn Storage> = match &self.store {
            DenseStore::Supercap(cap) => Box::new(cap.clone()),
            DenseStore::Battery(battery) => Box::new(battery.clone()),
        };
        let any_voltage =
            |label| PortRequirement::any_in_window(label, Volts::ZERO, Volts::new(f64::MAX));
        PowerUnit::builder("dense class")
            .harvester_port(any_voltage("harvester"), Some((self.channel)()), false)
            .store_port(
                any_voltage("buffer"),
                Some(store),
                StoreRole::PrimaryBuffer,
                false,
            )
            .output_stage(Box::new(self.output.clone()))
            .supervisor(Supervisor {
                monitoring: self.monitoring,
                ..Supervisor::none()
            })
            .build()
    }
}

impl core::fmt::Debug for DenseClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DenseClass")
            .field("store", &self.store)
            .field("monitoring", &self.monitoring)
            .finish_non_exhaustive()
    }
}

/// `count` nodes of one [`DenseClass`]: a [`FleetGroup`] whose factory
/// builds the class's [`mseh_core::PowerUnit`] and which declares the
/// class, so its members step on the lane kernels whenever the gate is
/// open.
///
/// The supervisor is a default one with no standing draw and
/// [`MonitoringLevel::Full`] reporting; override the tier with
/// [`with_monitoring`](Self::with_monitoring).
pub struct DenseGroup {
    name: String,
    count: usize,
    site: usize,
    seed: u64,
    jitter: EnvJitter,
    node: SensorNode,
    class: DenseClass,
    policy: Box<PolicyFactory>,
}

impl DenseGroup {
    /// A dense group of `count` nodes at site index `site`, with no
    /// jitter, group seed 0 and [`MonitoringLevel::Full`] energy
    /// reporting.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        count: usize,
        site: usize,
        node: SensorNode,
        channel: impl Fn() -> InputChannel + Send + Sync + 'static,
        output: DcDcConverter,
        store: DenseStore,
        policy: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            count,
            site,
            seed: 0,
            jitter: EnvJitter::NONE,
            node,
            class: DenseClass::new(channel, output, store),
            policy: Box::new(policy),
        }
    }

    /// Sets the group seed from which per-node seeds are derived.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-node environment jitter (jittered lanes solve their
    /// own snapshots each window instead of sharing the group table).
    pub fn with_jitter(mut self, jitter: EnvJitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the monitoring tier the policy's energy status is clamped
    /// to (no sense-ADC quantization).
    pub fn with_monitoring(mut self, monitoring: MonitoringLevel) -> Self {
        self.class = self.class.with_monitoring(monitoring);
        self
    }

    /// The group's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the group.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl core::fmt::Debug for DenseGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DenseGroup")
            .field("name", &self.name)
            .field("count", &self.count)
            .field("site", &self.site)
            .field("seed", &self.seed)
            .field("jitter", &self.jitter)
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

/// The fleet's population: sites plus node groups assigned to them.
/// Global node indices run in group declaration order (group 0's nodes
/// first), which fixes the deterministic merge order.
#[derive(Debug, Default)]
pub struct FleetSpec {
    sites: Vec<Environment>,
    groups: Vec<FleetGroup>,
}

impl FleetSpec {
    /// An empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a site environment, returning its index for
    /// [`FleetGroup::new`]'s `site` argument.
    pub fn add_site(&mut self, env: Environment) -> usize {
        self.sites.push(env);
        self.sites.len() - 1
    }

    /// Appends a node group. Panics if the group references an unknown
    /// site.
    pub fn add_group(&mut self, group: FleetGroup) -> &mut Self {
        assert!(
            group.site < self.sites.len(),
            "group '{}' references site {} but only {} site(s) exist",
            group.name,
            group.site,
            self.sites.len()
        );
        self.groups.push(group);
        self
    }

    /// Appends a dense group as the boxed group of its class's units,
    /// declaring the class. Panics if the group references an unknown
    /// site.
    pub fn add_dense_group(&mut self, group: DenseGroup) -> &mut Self {
        let DenseGroup {
            name,
            count,
            site,
            seed,
            jitter,
            node,
            class,
            policy,
        } = group;
        let class = Arc::new(class);
        let units = Arc::clone(&class);
        self.add_group(FleetGroup {
            name,
            count,
            site,
            seed,
            jitter,
            node,
            platform: Box::new(move |_| Box::new(units.unit())),
            policy,
            dense_class: Some(class),
        })
    }

    /// Total node count across all groups.
    pub fn population(&self) -> u64 {
        self.groups.iter().map(|g| g.count as u64).sum()
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Registered groups, in declaration (= global node) order.
    pub fn groups(&self) -> &[FleetGroup] {
        &self.groups
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-node stepping parameters. `record` is ignored: fleets never
    /// keep per-step traces.
    pub sim: SimConfig,
    /// Worker threads (`0` = [`crate::thread_count`], which honours
    /// `MSEH_THREADS`). Results are bit-identical at any value.
    pub threads: usize,
    /// Nodes per shard (`0` = 1024). Results are bit-identical at any
    /// value; smaller shards balance heterogeneous groups better.
    pub shard_size: usize,
    /// How often member nodes re-sample site conditions.
    pub cadence: EnvCadence,
    /// Also return a full [`SimResult`] per node (memory scales with
    /// population).
    pub keep_node_results: bool,
}

impl FleetConfig {
    /// Fleet defaults over `duration`: 60 s steps, 10-minute control
    /// windows, per-window cadence, auto threads, 1024-node shards.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            threads: 0,
            shard_size: 0,
            cadence: EnvCadence::PerWindow,
            keep_node_results: false,
        }
    }

    /// Switches to per-step sampling (bit-identical to per-node
    /// [`crate::run_simulation`] runs).
    pub fn exact_env(mut self) -> Self {
        self.cadence = EnvCadence::PerStep;
        self
    }

    /// Sets an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard width in nodes.
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }
}

/// One entry in the worst-uptime straggler list.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Global node index (group declaration order).
    pub node: u64,
    /// Name of the node's group.
    pub group: String,
    /// The node's site index.
    pub site: usize,
    /// The node's uptime (fraction of load energy served).
    pub uptime: f64,
    /// Steps with any shortfall.
    pub brownout_steps: u64,
}

/// Aggregate results of a fleet run. All totals fold per-node results in
/// global node order, so they are bit-identical at any thread count and
/// shard size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Nodes simulated.
    pub population: u64,
    /// Steps each node took (including the fractional closer, if any).
    pub steps_per_node: u64,
    /// `population × steps_per_node` — the run's total work.
    pub node_steps: u64,
    /// Simulated span.
    pub duration: Seconds,
    /// Fraction of nodes with zero brown-out steps (energy-neutral under
    /// the survey's operating criterion).
    pub energy_neutral_fraction: f64,
    /// Distribution of per-node uptimes.
    pub uptime: UptimePercentiles,
    /// Fleet-level served fraction: `1 − shortfall / demanded`
    /// (energy-weighted, unlike the per-node mean).
    pub served_fraction: f64,
    /// Total bus energy harvested across the fleet.
    pub harvested: Joules,
    /// Total energy delivered to loads.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Total load energy demanded.
    pub demanded: Joules,
    /// Total output-stage conversion loss.
    pub converter_losses: Joules,
    /// Energy stranded by active faults at run end, fleet-wide.
    pub stranded_energy: Joules,
    /// Minimum store voltage seen by any node.
    pub min_store_voltage: Volts,
    /// Fleet-aggregated conservation residual: |Σ signed per-node
    /// residuals| over total storage throughput (≈0; a run at or above
    /// 1e-6 is an error, never a summary).
    pub audit_relative: f64,
    /// Worst single node's relative audit residual.
    pub worst_node_audit: f64,
    /// Kernel-cache counters summed across all node platforms. Cache
    /// state never crosses nodes, so these are deterministic too. Under
    /// per-window cadence the channels' memos answer each held window's
    /// repeat steps; under per-step cadence every channel step counts
    /// one miss and nothing hits. Lane groups count the solves of the
    /// one channel that steps their harvest table and synthesize each
    /// lane's replays, so a dense group's counters differ from a boxed
    /// group of the same units while every physical quantity agrees.
    pub kernel_cache: CacheStats,
    /// The eight worst-uptime nodes (all of a smaller fleet), worst
    /// first (ties by node index).
    pub stragglers: Vec<Straggler>,
}

/// Everything a fleet run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Aggregates over the whole population.
    pub summary: FleetSummary,
    /// Per-node results when [`FleetConfig::keep_node_results`] is set
    /// (global node order; `traces` always `None`).
    pub node_results: Option<Vec<SimResult>>,
}

/// Drives one channel of `class` through the run's full step sequence,
/// materializing the per-step [`HarvestStep`] table every lane replays,
/// with the driver channel's cache counters; `None` when `cancel` trips
/// (checked once per control window).
///
/// The driver performs exactly a member's step sequence, so the table
/// is exact for any controller: a held window's steps go through
/// [`InputChannel::step_held`], as a member's would, and a per-step
/// window's through [`InputChannel::step`].
pub(crate) fn build_harvest_table(
    class: &DenseClass,
    rows: &[EnvConditions],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
) -> Option<(Vec<HarvestStep>, CacheStats)> {
    let mut channel = (class.channel)();
    let mut table = Vec::with_capacity(plan.steps as usize);
    for window in plan.windows() {
        if tripped(cancel) {
            return None;
        }
        let held = matches!(window.ambient(rows), Ambient::Held(_));
        for step in window.steps() {
            let env = window.row(rows, &step);
            table.push(if held {
                channel.step_held(env, step.dt)
            } else {
                channel.step(env, step.dt)
            });
        }
    }
    Some((table, channel.kernel_cache_stats()))
}

/// Runs the whole fleet described by `spec` under `config`.
///
/// Per-node trajectories are pure functions of the spec (group seed →
/// node seed → platform, policy, jitter) and the shared per-site
/// condition tables, and the summary folds per-node outcomes in global
/// node order — so the output is bit-identical at any
/// [`FleetConfig::threads`] and [`FleetConfig::shard_size`].
///
/// # Panics
///
/// Panics on an empty population, a non-positive `dt`, a duration
/// shorter than one step, or a run whose energy books do not close.
/// Long-running embeddings that must survive a malformed spec (the
/// `mseh serve` daemon) use [`run_fleet_controlled`], which reports
/// those as `Err` instead.
pub fn run_fleet(spec: &FleetSpec, config: FleetConfig) -> FleetResult {
    uncontrolled(run_fleet_controlled(spec, config, RunControl::default()))
}

/// How a group's members step.
enum GroupLanes<'a> {
    /// One boxed platform per node.
    Boxed,
    /// The class's lane kernels, every lane replaying one group-wide
    /// harvest table; the cache counters are the table driver's.
    Shared(&'a DenseClass, Vec<HarvestStep>, CacheStats),
    /// The class's lane kernels, each window solved across the lanes'
    /// jittered snapshots.
    Jittered(&'a DenseClass),
}

/// [`run_fleet`] as a daemon-facing entry point: spec/config validation
/// errors and energy books that fail the 1e-6 conservation audit come
/// back as `Err` instead of panicking, and a
/// [`RunControl`] supplies optional cooperative cancellation
/// (`Ok(None)` when the token trips — partial results are discarded,
/// never returned torn) and progress reporting. An un-cancelled run
/// returns exactly [`run_fleet`]'s result, bit for bit.
pub fn run_fleet_controlled(
    spec: &FleetSpec,
    config: FleetConfig,
    control: RunControl<'_>,
) -> Result<Option<FleetResult>, String> {
    let cancel = control.cancel;
    let population = spec.population();
    if population == 0 {
        return Err("fleet population must be non-empty".into());
    }
    let plan = StepPlan::new(config.sim, config.cadence)?;

    // One contiguous condition table per site, sampled through the same
    // batched `conditions_into` contract the single-run kernel uses
    // (bit-identical to per-instant sampling), shared read-only by every
    // shard.
    let times = plan.table_times();
    let tables: Vec<Vec<EnvConditions>> = spec
        .sites
        .iter()
        .map(|site| {
            let mut rows = Vec::new();
            site.conditions_into(&times, &mut rows);
            rows
        })
        .collect();

    // Group spans in global node order.
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(spec.groups.len());
    let mut cursor = 0u64;
    for g in &spec.groups {
        spans.push((cursor, cursor + g.count as u64));
        cursor += g.count as u64;
    }

    // The lane gate. A group with a dense class steps on the lane
    // kernels when un-jittered — its driver channel solves the shared
    // harvest table once for the whole group — or when jittered under
    // per-window cadence on a window-batchable channel. Every other
    // group runs boxed.
    let mut lanes: Vec<GroupLanes<'_>> = Vec::with_capacity(spec.groups.len());
    for g in &spec.groups {
        let class = g.dense_class.as_deref().filter(|class| {
            g.jitter.is_none()
                || (plan.cadence == EnvCadence::PerWindow
                    && (class.channel)().supports_window_lanes(plan.dt))
        });
        lanes.push(match class {
            None => GroupLanes::Boxed,
            Some(class) if !g.jitter.is_none() => GroupLanes::Jittered(class),
            Some(class) => match build_harvest_table(class, &tables[g.site], &plan, cancel) {
                Some((table, driver)) => GroupLanes::Shared(class, table, driver),
                None => return Ok(None),
            },
        });
    }

    let shard_size = if config.shard_size == 0 {
        1024
    } else {
        config.shard_size
    } as u64;
    let shards: Vec<(u64, u64)> = (0..population)
        .step_by(shard_size as usize)
        .map(|lo| (lo, (lo + shard_size).min(population)))
        .collect();

    let done_nodes = std::sync::atomic::AtomicU64::new(0);
    let run_shard = |&(lo, hi): &(u64, u64)| -> Vec<NodeOutcome> {
        let mut out = Vec::with_capacity((hi - lo) as usize);
        // First group containing `lo`, advanced linearly as the shard
        // walks the global index range.
        let mut gi = spans.partition_point(|&(_, end)| end <= lo);
        let mut cursor = lo;
        while cursor < hi {
            // A tripped token makes the shard bail with a short vector;
            // the caller discards everything and returns `Ok(None)`.
            if tripped(cancel) {
                return out;
            }
            while spans[gi].1 <= cursor {
                gi += 1;
            }
            let run_end = hi.min(spans[gi].1);
            let g = &spec.groups[gi];
            let node_seeds = (cursor - spans[gi].0..run_end - spans[gi].0).map(|n| g.node_seed(n));
            // The shard's contiguous run of a lane group steps as one
            // lane population. Run composition never changes results —
            // every lane's arithmetic is independent of its companions —
            // so shard and thread geometry stay bit-irrelevant.
            let (class, harvest) = match &lanes[gi] {
                GroupLanes::Boxed => {
                    // Jittered snapshots: one per window under per-window
                    // cadence, one per step (staged per window) otherwise.
                    let jittered = !g.jitter.is_none();
                    let mut staged = Vec::new();
                    for node_seed in node_seeds {
                        let factors = JitterFactors::derive(g.jitter, node_seed);
                        let mut platform = (g.platform)(node_seed);
                        let mut policy = (g.policy)(node_seed);
                        let mut run = BoxedRun::open(
                            platform.as_mut(),
                            policy.as_mut(),
                            &g.node,
                            &plan,
                            &mut [],
                        );
                        for window in plan.windows() {
                            if tripped(cancel) {
                                return out;
                            }
                            let load = run.decide(&window);
                            let held;
                            let ambient = match window.ambient(&tables[g.site]) {
                                Ambient::Held(row) if jittered => {
                                    held = factors.apply(row);
                                    Ambient::Held(&held)
                                }
                                Ambient::PerStep(rows) if jittered => {
                                    staged.clear();
                                    staged.extend(rows.iter().map(|row| factors.apply(row)));
                                    Ambient::PerStep(&staged)
                                }
                                ambient => ambient,
                            };
                            run.step(&window, &load, ambient, |_, _| {});
                        }
                        out.push(run.close());
                    }
                    cursor = run_end;
                    continue;
                }
                GroupLanes::Shared(class, table, _) => (*class, LaneHarvest::Shared(table)),
                GroupLanes::Jittered(class) => (
                    *class,
                    LaneHarvest::Jittered {
                        channel: Box::new((class.channel)()),
                        factors: node_seeds
                            .clone()
                            .map(|node_seed| JitterFactors::derive(g.jitter, node_seed))
                            .collect(),
                        rows: &tables[g.site],
                    },
                ),
            };
            let mut policies: Vec<Box<dyn DutyCyclePolicy>> = node_seeds.map(&g.policy).collect();
            if !dense_lanes::run_lanes(
                class,
                &g.node,
                &mut policies,
                harvest,
                &plan,
                cancel,
                &mut out,
            ) {
                return out;
            }
            cursor = run_end;
        }
        if let Some(report) = control.progress {
            let done =
                hi - lo + done_nodes.fetch_add(hi - lo, std::sync::atomic::Ordering::Relaxed);
            report(done, population);
        }
        out
    };
    let shard_outcomes = par_map_with(resolve_threads(config.threads), &shards, run_shard);

    // A tripped token may have left some shards short; partial results
    // are discarded wholesale rather than folded torn.
    let completed: u64 = shard_outcomes.iter().map(|s| s.len() as u64).sum();
    if tripped(cancel) || completed != population {
        return Ok(None);
    }

    // Fold in global node order (shard order = node order), so the
    // floating-point accumulation is independent of shard boundaries.
    let mut totals = OutcomeTotals::new();
    let mut node_results = config
        .keep_node_results
        .then(|| Vec::with_capacity(population as usize));
    for outcome in shard_outcomes.iter().flatten() {
        totals.add(outcome);
        if let Some(results) = node_results.as_mut() {
            results.push(outcome.to_sim_result(plan.duration));
        }
    }
    // Shared-table groups: the driver's actual solve counters enter the
    // books once per group (member lanes counted only replays).
    for lane in &lanes {
        if let GroupLanes::Shared(_, _, driver) = lane {
            totals.cache.merge(*driver);
        }
    }
    let audit_relative = totals.audit("fleet")?;

    // Worst-uptime stragglers, ties broken by node index.
    let mut ranked: Vec<(f64, u64)> = totals
        .uptimes
        .iter()
        .enumerate()
        .map(|(i, &u)| (u, i as u64))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let stragglers = ranked
        .iter()
        .take(STRAGGLERS)
        .map(|&(u, n)| {
            let g = &spec.groups[spans.partition_point(|&(_, end)| end <= n)];
            let outcome = &shard_outcomes[(n / shard_size) as usize][(n % shard_size) as usize];
            Straggler {
                node: n,
                group: g.name.clone(),
                site: g.site,
                uptime: u,
                brownout_steps: outcome.brownout_steps,
            }
        })
        .collect();

    Ok(Some(FleetResult {
        summary: FleetSummary {
            population,
            steps_per_node: plan.steps,
            node_steps: population * plan.steps,
            duration: plan.duration,
            energy_neutral_fraction: totals.energy_neutral as f64 / population as f64,
            uptime: totals.uptime(),
            served_fraction: totals.served_fraction(),
            harvested: totals.harvested,
            delivered: totals.delivered,
            shortfall: totals.shortfall,
            demanded: totals.demanded,
            converter_losses: totals.converter_losses,
            stranded_energy: totals.stranded,
            min_store_voltage: totals.min_store_voltage,
            audit_relative,
            worst_node_audit: totals.worst_audit,
            kernel_cache: totals.cache,
            stragglers,
        },
        node_results,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_simulation;
    use mseh_core::{BusHarvest, StepReport};
    use mseh_env::JitteredEnv;
    use mseh_harvesters::PvModule;
    use mseh_node::{EnergyStatus, FixedDuty, VoltageThreshold};
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::{DutyCycle, Volts, Watts};

    fn duty() -> DutyCycle {
        DutyCycle::saturating(0.05)
    }

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

    fn solar_unit_supervised(supervisor: Option<Supervisor>) -> PowerUnit {
        let mut builder = PowerUnit::builder("fleet node")
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
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()));
        if let Some(s) = supervisor {
            builder = builder.supervisor(s);
        }
        builder.build()
    }

    fn solar_unit() -> PowerUnit {
        solar_unit_supervised(None)
    }

    /// [`solar_unit`] with a battery for the buffer.
    fn solar_battery_unit(battery: &Battery) -> PowerUnit {
        PowerUnit::builder("fleet battery node")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(solar_channel()),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(battery.clone())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    }

    /// The dense-lane declaration of exactly the hardware in
    /// [`solar_unit`] (default supervisor: zero overhead, no
    /// monitoring).
    fn solar_dense(name: &str, count: usize, site: usize, node: SensorNode) -> DenseGroup {
        DenseGroup::new(
            name,
            count,
            site,
            node,
            solar_channel,
            DcDcConverter::buck_boost_3v3(),
            DenseStore::Supercap(solar_cap()),
            |_| Box::new(FixedDuty::new(duty())),
        )
        .with_monitoring(MonitoringLevel::None)
    }

    fn small_spec(count: usize, jitter: EnvJitter) -> FleetSpec {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_group(
            FleetGroup::new(
                "pv",
                count,
                site,
                SensorNode::submilliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(5)
            .with_jitter(jitter),
        );
        spec
    }

    #[test]
    fn one_node_per_step_fleet_matches_run_simulation() {
        let horizon = Seconds::from_hours(3.0);
        let out = run_fleet(
            &small_spec(1, EnvJitter::NONE),
            FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(horizon)
            }
            .exact_env(),
        );
        let mut platform = solar_unit();
        let mut policy = FixedDuty::new(duty());
        let reference = run_simulation(
            &mut platform,
            &Environment::outdoor_temperate(11),
            &SensorNode::submilliwatt_class(),
            &mut policy,
            SimConfig::over(horizon),
        );
        let node = &out.node_results.expect("kept")[0];
        assert_eq!(*node, reference);
        assert_eq!(out.summary.harvested, reference.harvested);
        assert_eq!(out.summary.uptime.mean, reference.uptime);
    }

    #[test]
    fn jittered_per_window_node_matches_an_independent_run() {
        let horizon = Seconds::from_hours(12.0);
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.5);
        for battery in [false, true] {
            let unit = {
                let nimh = nimh.clone();
                move || -> PowerUnit {
                    if battery {
                        solar_battery_unit(&nimh)
                    } else {
                        solar_unit()
                    }
                }
            };
            for jitter in [
                EnvJitter::NONE,
                EnvJitter::relative(0.15),
                EnvJitter::relative(0.3),
            ] {
                for seed in [1, 7, 42] {
                    let group = {
                        let unit = unit.clone();
                        FleetGroup::new(
                            "pv",
                            1,
                            0,
                            SensorNode::submilliwatt_class(),
                            move |_| Box::new(unit()),
                            |_| Box::new(VoltageThreshold::supercap_ladder()),
                        )
                        .with_seed(seed)
                        .with_jitter(jitter)
                    };
                    let factors = JitterFactors::derive(jitter, group.node_seed(0));
                    let mut spec = FleetSpec::new();
                    spec.add_site(Environment::outdoor_temperate(seed));
                    spec.add_group(group);
                    let config = FleetConfig {
                        keep_node_results: true,
                        ..FleetConfig::over(horizon)
                    };
                    let out = run_fleet(&spec, config);
                    let site = Environment::outdoor_temperate(seed);
                    let reference = run_simulation(
                        &mut unit(),
                        &HeldWindows::new(JitteredEnv::new(&site, factors), config.sim),
                        &SensorNode::submilliwatt_class(),
                        &mut VoltageThreshold::supercap_ladder(),
                        config.sim,
                    );
                    assert_eq!(
                        out.node_results.expect("kept")[0],
                        reference,
                        "battery {battery}, {jitter:?}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_identical_across_threads_and_shard_sizes() {
        let run = |threads: usize, shard: usize| {
            run_fleet(
                &small_spec(37, EnvJitter::relative(0.2)),
                FleetConfig {
                    threads,
                    shard_size: shard,
                    ..FleetConfig::over(Seconds::from_hours(2.0))
                },
            )
            .summary
        };
        let reference = run(1, 37);
        for (threads, shard) in [(2, 5), (4, 64), (3, 1)] {
            assert_eq!(run(threads, shard), reference, "{threads}t/{shard}s");
        }
    }

    #[test]
    fn per_window_cadence_audits_and_hits_the_cache() {
        let out = run_fleet(
            &small_spec(4, EnvJitter::NONE),
            FleetConfig::over(Seconds::from_hours(4.0)),
        );
        assert!(out.summary.audit_relative < 1e-6);
        // Conditions are held within each 10-minute window, so the
        // channel memo replays at least the window's repeat steps.
        assert!(
            out.summary.kernel_cache.hits > 0,
            "{:?}",
            out.summary.kernel_cache
        );
    }

    #[test]
    fn stragglers_are_worst_uptime_nodes() {
        let mut spec = FleetSpec::new();
        let dark = spec.add_site(Environment::indoor_office(3));
        let sunny = spec.add_site(Environment::outdoor_temperate(3));
        // Milliwatt loads indoors brown out; submilliwatt outdoors don't.
        spec.add_group(FleetGroup::new(
            "starved",
            STRAGGLERS,
            dark,
            SensorNode::milliwatt_class(),
            |_| Box::new(solar_unit()),
            |_| Box::new(FixedDuty::new(DutyCycle::ONE)),
        ));
        spec.add_group(FleetGroup::new(
            "healthy",
            3,
            sunny,
            SensorNode::submilliwatt_class(),
            |_| Box::new(solar_unit()),
            |_| Box::new(FixedDuty::new(duty())),
        ));
        let out = run_fleet(&spec, FleetConfig::over(Seconds::from_hours(6.0)));
        assert_eq!(out.summary.stragglers.len(), STRAGGLERS);
        for s in &out.summary.stragglers {
            assert_eq!(s.group, "starved", "{s:?}");
            assert!(s.uptime < 1.0);
        }
        assert!(out.summary.energy_neutral_fraction <= 0.5);
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn rejects_empty_fleet() {
        let mut spec = FleetSpec::new();
        spec.add_site(Environment::indoor_office(1));
        run_fleet(&spec, FleetConfig::over(Seconds::from_hours(1.0)));
    }

    #[test]
    fn one_node_dense_fleet_matches_run_simulation() {
        let horizon = Seconds::from_hours(3.0);
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_dense_group(solar_dense(
            "pv dense",
            1,
            site,
            SensorNode::submilliwatt_class(),
        ));
        let out = run_fleet(
            &spec,
            FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(horizon)
            }
            .exact_env(),
        );
        let mut platform = solar_unit();
        let mut policy = FixedDuty::new(duty());
        let reference = run_simulation(
            &mut platform,
            &Environment::outdoor_temperate(11),
            &SensorNode::submilliwatt_class(),
            &mut policy,
            SimConfig::over(horizon),
        );
        let node = &out.node_results.expect("kept")[0];
        assert_eq!(*node, reference);
    }

    /// Summaries with the cache counters zeroed out: the dense lane
    /// necessarily books fewer solves, every physical quantity must
    /// still agree bit for bit.
    fn modulo_cache(mut s: FleetSummary) -> FleetSummary {
        s.kernel_cache = CacheStats::default();
        s
    }

    #[test]
    fn dense_lane_is_bit_identical_to_boxed_lane() {
        let horizon = Seconds::from_hours(4.0);
        let build = |dense: bool| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(11));
            if dense {
                spec.add_dense_group(
                    solar_dense("pv", 6, site, SensorNode::submilliwatt_class())
                        .with_seed(5)
                        .with_jitter(EnvJitter::relative(0.2)),
                );
            } else {
                spec.add_group(
                    FleetGroup::new(
                        "pv",
                        6,
                        site,
                        SensorNode::submilliwatt_class(),
                        |_| Box::new(solar_unit()),
                        |_| Box::new(FixedDuty::new(duty())),
                    )
                    .with_seed(5)
                    .with_jitter(EnvJitter::relative(0.2)),
                );
            }
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        assert_eq!(modulo_cache(build(true)), modulo_cache(build(false)));
    }

    #[test]
    fn dense_status_replication_drives_policies_like_boxed() {
        // Full monitoring: a voltage-threshold policy must see an
        // identical EnergyStatus on both lanes.
        let horizon = Seconds::from_hours(4.0);
        let dense = {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(23));
            spec.add_dense_group(DenseGroup::new(
                "pv supervised",
                3,
                site,
                SensorNode::submilliwatt_class(),
                solar_channel,
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Supercap(solar_cap()),
                |_| Box::new(VoltageThreshold::supercap_ladder()),
            ));
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        let boxed = {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(23));
            let mut supervisor = Supervisor::none();
            supervisor.monitoring = MonitoringLevel::Full;
            spec.add_group(FleetGroup::new(
                "pv supervised",
                3,
                site,
                SensorNode::submilliwatt_class(),
                move |_| Box::new(solar_unit_supervised(Some(supervisor))),
                |_| Box::new(VoltageThreshold::supercap_ladder()),
            ));
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        assert_eq!(modulo_cache(dense), modulo_cache(boxed));
    }

    #[test]
    fn dense_battery_group_runs_and_audits() {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(31));
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.5);
        spec.add_dense_group(
            DenseGroup::new(
                "pv + nimh",
                50,
                site,
                SensorNode::submilliwatt_class(),
                solar_channel,
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Battery(nimh),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(9)
            .with_jitter(EnvJitter::relative(0.1)),
        );
        let out = run_fleet(&spec, FleetConfig::over(Seconds::from_hours(24.0)));
        assert_eq!(out.summary.population, 50);
        assert!(out.summary.audit_relative < 1e-6);
        assert!(out.summary.worst_node_audit < 1e-6);
        assert!(out.summary.harvested.value() > 0.0);
    }

    #[test]
    fn mixed_lane_fleet_is_bit_identical_across_geometry() {
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.6);
        let build = || {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(17));
            spec.add_group(
                FleetGroup::new(
                    "boxed pv",
                    7,
                    site,
                    SensorNode::submilliwatt_class(),
                    |_| Box::new(solar_unit()),
                    |_| Box::new(FixedDuty::new(duty())),
                )
                .with_seed(1)
                .with_jitter(EnvJitter::relative(0.15)),
            );
            spec.add_dense_group(
                solar_dense("dense pv", 9, site, SensorNode::submilliwatt_class())
                    .with_seed(2)
                    .with_jitter(EnvJitter::relative(0.15)),
            );
            spec
        };
        let nimh_group = |spec: &mut FleetSpec, nimh: &Battery| {
            spec.add_dense_group(DenseGroup::new(
                "dense nimh",
                5,
                0,
                SensorNode::submilliwatt_class(),
                solar_channel,
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Battery(nimh.clone()),
                |_| Box::new(FixedDuty::new(duty())),
            ));
        };
        let run = |threads: usize, shard: usize| {
            let mut spec = build();
            nimh_group(&mut spec, &nimh);
            run_fleet(
                &spec,
                FleetConfig {
                    threads,
                    shard_size: shard,
                    ..FleetConfig::over(Seconds::from_hours(2.0))
                },
            )
            .summary
        };
        let reference = run(1, 21);
        for (threads, shard) in [(2, 4), (4, 1024), (3, 1)] {
            assert_eq!(run(threads, shard), reference, "{threads}t/{shard}s");
        }
    }

    #[test]
    fn dense_battery_batched_matches_scalar_bitwise() {
        // The scalar reference: the same hardware built by hand, one
        // boxed `PowerUnit` per node.
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.5);
        // Heterogeneous duties: the uniform fast path must materialize
        // the full population on divergence.
        let policy = |seed: u64| -> Box<dyn DutyCyclePolicy> {
            let d = 0.02 + 0.06 * (seed % 5) as f64 / 5.0;
            Box::new(FixedDuty::new(DutyCycle::saturating(d)))
        };
        let run = |dense: bool, jitter: EnvJitter| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(31));
            let node = SensorNode::submilliwatt_class();
            if dense {
                spec.add_dense_group(
                    DenseGroup::new(
                        "pv + nimh",
                        23,
                        site,
                        node,
                        solar_channel,
                        DcDcConverter::buck_boost_3v3(),
                        DenseStore::Battery(nimh.clone()),
                        policy,
                    )
                    .with_monitoring(MonitoringLevel::None)
                    .with_seed(9)
                    .with_jitter(jitter),
                );
            } else {
                let nimh = nimh.clone();
                spec.add_group(
                    FleetGroup::new(
                        "pv + nimh",
                        23,
                        site,
                        node,
                        move |_| Box::new(solar_battery_unit(&nimh)),
                        policy,
                    )
                    .with_seed(9)
                    .with_jitter(jitter),
                );
            }
            run_fleet(&spec, FleetConfig::over(Seconds::from_hours(3.0))).summary
        };
        for jitter in [EnvJitter::NONE, EnvJitter::relative(0.2)] {
            assert_eq!(
                modulo_cache(run(true, jitter)),
                modulo_cache(run(false, jitter)),
                "{jitter:?}"
            );
        }
    }

    #[test]
    fn mid_run_fault_fire_cannot_replay_stale_battery_keep_fraction() {
        use crate::fault::{FaultSchedule, IntermittentStorage};
        use mseh_storage::{BatteryLanes, StoreLanes};

        // Sim level: a battery-store node whose cell fails open mid-run
        // and recovers. The battery's memoized idle keep fraction is
        // exercised on both sides of the FaultFire/FaultClear edges —
        // the books must close and the fault must actually bite.
        let horizon = Seconds::from_hours(6.0);
        let build = |faulted: bool| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::indoor_office(7));
            spec.add_group(FleetGroup::new(
                "battery node",
                1,
                site,
                SensorNode::milliwatt_class(),
                move |_| {
                    let mut nimh = Battery::nimh_aa_pair();
                    nimh.set_soc(0.8);
                    let store: Box<dyn Storage> = if faulted {
                        Box::new(IntermittentStorage::new(
                            Box::new(nimh),
                            FaultSchedule::one_shot_recovering(
                                Seconds::from_hours(2.0),
                                Seconds::from_hours(1.0),
                            ),
                        ))
                    } else {
                        Box::new(nimh)
                    };
                    Box::new(
                        PowerUnit::builder("battery node")
                            .harvester_port(
                                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                                Some(solar_channel()),
                                true,
                            )
                            .store_port(
                                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                                Some(store),
                                StoreRole::PrimaryBuffer,
                                true,
                            )
                            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                            .build(),
                    )
                },
                |_| Box::new(FixedDuty::new(DutyCycle::saturating(0.5))),
            ));
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        let faulted = build(true);
        let healthy = build(false);
        assert!(faulted.audit_relative < 1e-6, "{}", faulted.audit_relative);
        assert!(healthy.audit_relative < 1e-6, "{}", healthy.audit_relative);
        assert_ne!(faulted.delivered, healthy.delivered, "fault must bite");

        // Lane level: the FaultFire edge contract for the lane-shared
        // keep memo — an edge that degrades the cell's self-discharge
        // must never replay the pre-fault keep fraction. The embedding
        // flushes at the edge (`invalidate_idle_memo`) and the re-key on
        // the new rate covers the rest.
        let mut template = Battery::nimh_aa_pair();
        template.set_soc(0.8);
        let n = 3;
        let mut lanes = BatteryLanes::from_template(&template, n);
        let zeros = vec![0.0; n];
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let dt = 60.0;
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b); // warm the memo
        let degraded = 0.45;
        lanes.invalidate_idle_memo(); // the FaultFire edge flush
        lanes.set_self_discharge_month(degraded);
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b);
        let mut reference = template.clone();
        reference.idle(Seconds::new(dt));
        reference.set_self_discharge_month(degraded);
        reference.idle(Seconds::new(dt));
        for i in 0..n {
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                reference.stored_energy().value().to_bits(),
                "lane {i} replayed a stale keep fraction"
            );
        }
    }

    #[test]
    fn controlled_run_matches_plain_run_and_honours_the_token() {
        let spec = small_spec(5, EnvJitter::relative(0.2));
        let config = FleetConfig::over(Seconds::from_hours(2.0));
        let plain = run_fleet(&spec, config).summary;
        let token = CancelToken::new();
        let controlled = run_fleet_controlled(
            &spec,
            config,
            RunControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec")
        .expect("token never tripped");
        assert_eq!(controlled.summary, plain);

        token.cancel();
        let cancelled = run_fleet_controlled(
            &spec,
            config,
            RunControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec");
        assert!(cancelled.is_none(), "tripped token must yield Ok(None)");
    }

    #[test]
    fn controlled_run_reports_errors_instead_of_panicking() {
        let empty = FleetSpec::new();
        let config = FleetConfig::over(Seconds::from_hours(1.0));
        let err =
            run_fleet_controlled(&empty, config, RunControl::default()).expect_err("empty fleet");
        assert!(err.contains("population must be non-empty"), "{err}");

        let spec = small_spec(1, EnvJitter::NONE);
        let bad_duration = FleetConfig::over(Seconds::new(-5.0));
        let err = run_fleet_controlled(&spec, bad_duration, RunControl::default())
            .expect_err("negative duration");
        assert!(err.contains("duration"), "{err}");

        let mut bad_dt = FleetConfig::over(Seconds::from_hours(1.0));
        bad_dt.sim.dt = Seconds::new(0.0);
        let err = run_fleet_controlled(&spec, bad_dt, RunControl::default()).expect_err("zero dt");
        assert!(err.contains("dt must be positive"), "{err}");

        // More 60 s steps than a u64 counts: no silent zero-step run.
        let endless = FleetConfig::over(Seconds::new(1e22));
        let err = run_fleet_controlled(&spec, endless, RunControl::default())
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
        fn settle(&mut self, harvest: &BusHarvest, dt: Seconds, load: Watts) -> StepReport {
            self.0.settle(harvest, dt, load)
        }
        fn energy_status(&self) -> EnergyStatus {
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
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_group(FleetGroup::new(
            "misreporting",
            2,
            site,
            SensorNode::submilliwatt_class(),
            |_| Box::new(Misreporting(solar_unit())),
            |_| Box::new(FixedDuty::new(duty())),
        ));
        let err = run_fleet_controlled(
            &spec,
            FleetConfig::over(Seconds::from_hours(12.0)),
            RunControl::default(),
        )
        .expect_err("a 2x stored-energy misreport breaks conservation");
        assert!(err.contains("do not close"), "{err}");
    }

    #[test]
    fn cancelling_a_dense_fleet_mid_run_yields_none() {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_dense_group(solar_dense(
            "pv dense",
            16,
            site,
            SensorNode::submilliwatt_class(),
        ));
        let token = CancelToken::new();
        let hits = std::sync::atomic::AtomicU64::new(0);
        // Trip the token from the progress hook after the first shard —
        // remaining shards must bail and the run must report Ok(None).
        let trip = |_done: u64, _total: u64| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            token.cancel();
        };
        let out = run_fleet_controlled(
            &spec,
            FleetConfig {
                threads: 2,
                shard_size: 4,
                ..FleetConfig::over(Seconds::from_hours(2.0))
            },
            RunControl {
                cancel: Some(&token),
                progress: Some(&trip),
            },
        )
        .expect("valid spec");
        assert!(out.is_none(), "cancelled fleet must yield Ok(None)");
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }
}
