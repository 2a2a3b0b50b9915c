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
//! and any shard size** — the same guarantee the ensemble runner gives,
//! extended to populations.
//!
//! # Environment cadence
//!
//! [`EnvCadence::PerStep`] gives each step its own snapshot and is
//! bit-identical to running [`crate::run_simulation`] once per node.
//! [`EnvCadence::PerWindow`] samples each site once per control window
//! and holds that snapshot (including its `time` field) for every step in
//! the window — the fleet-scale semantic from the issue: condition fields
//! move at control cadence, and the operating-point kernel caches replay
//! the window's first solve for the remaining steps.
//!
//! # The dense lane
//!
//! Most survey deployments are populations of one *shape*: a single
//! harvester channel feeding a single buffer through one output
//! converter. [`DenseGroup`] declares that shape with concrete types, and
//! the engine runs it on a monomorphized fast path: the expensive
//! operating-point solve is hoisted out of the per-node loop (one
//! representative channel is driven once per control window and its
//! [`HarvestStep`]s fanned out to every member — exact because a member
//! channel's repeat steps are memo replays, see
//! [`InputChannel::is_replayable`]), while the per-step store balance
//! runs over the concrete storage type with no dynamic dispatch. A dense
//! node is bit-identical to the same hardware built as a
//! [`mseh_core::PowerUnit`] in a boxed [`FleetGroup`] — the tests assert
//! it — the lane only removes redundant work, never changes arithmetic.
//!
//! Dense groups additionally step on a **batched struct-of-arrays
//! tier** ([`DenseSolveTier`]): contiguous runs of member nodes become
//! lanes of one [`mseh_storage::SupercapLanes`] or
//! [`mseh_storage::BatteryLanes`] population, and the per-step store
//! updates run as masked whole-lane passes over contiguous `f64`
//! arrays instead of one call per node (supercap energy→voltage Newton
//! inversions as fixed-iteration batch passes, battery self-discharge
//! as one `powf` per distinct idle `dt` lane-wide). The batch kernels
//! replicate the scalar iterate sequence exactly (see
//! [`mseh_units::BatchSolve`]), so the batched tier is bit-identical to
//! the scalar one; an opt-in interpolation tier trades exact supercap
//! voltages for a table lookup with a recorded deviation bound
//! ([`FleetSummary::interp_max_deviation`]). Boxed [`FleetGroup`]s
//! whose members match a monomorphized class can borrow the same
//! kernels via [`FleetGroup::with_dense_class`].
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

use crate::cancel::{tripped, CancelToken};
use crate::parallel::{par_map_with, thread_count};
use crate::platform::Platform;
use crate::runner::{SimConfig, SimResult};
use crate::steps::{NodeBooks, NodeOutcome, StepPlan};
use mseh_core::StepReport;
use mseh_env::rng::{Noise, StreamId};
use mseh_env::{EnvConditions, EnvJitter, EnvSampler, Environment, JitterFactors};
use mseh_harvesters::CacheStats;
use mseh_node::{DutyCyclePolicy, EnergyStatus, MonitoringLevel, SensorNode};
use mseh_power::{DcDcConverter, HarvestStep, InputChannel, PowerStage};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_units::{Joules, Ratio, Seconds, Volts, Watts};

pub(crate) mod dense_lanes;

/// Stream on each group's seed from which per-node seeds are drawn
/// (disjoint from the environment's reserved streams and the jitter
/// streams 100+, which run on the *node* seed).
const NODE_SEED_STREAM: StreamId = StreamId(90);

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
    /// remaining steps.
    PerWindow,
}

/// How the dense lane solves its per-node storage updates.
///
/// [`Scalar`](Self::Scalar) and [`Batched`](Self::Batched) are
/// bit-identical by contract: the batch kernels replicate the scalar
/// iterate sequence under a convergence mask instead of inventing a new
/// numerical scheme (see [`mseh_units::BatchSolve`]), and the tests
/// assert full [`FleetSummary`] equality between the tiers.
/// [`Interpolated`](Self::Interpolated) trades exact supercap voltages
/// for a per-run interpolation table sampled from the exact solver; its
/// recorded worst-case voltage deviation surfaces as
/// [`FleetSummary::interp_max_deviation`], and the conservation audit
/// still closes exactly (table residuals are charged to losses).
///
/// The tier governs every [`DenseGroup`] — supercap-store *and*
/// battery-store — plus boxed [`FleetGroup`]s opted in via
/// [`FleetGroup::with_dense_class`]. Battery lanes have no iterative
/// inversion to interpolate, so they step the exact batched kernels
/// under [`Interpolated`](Self::Interpolated) too. Groups the gate
/// cannot cover (jittered under per-step cadence, or a channel without
/// window-lane support) fall back to the scalar path — same results,
/// scalar speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseSolveTier {
    /// Per-node scalar [`mseh_storage::Storage`] calls — the reference
    /// path.
    Scalar,
    /// Struct-of-arrays Newton passes over contiguous lanes (fixed
    /// iteration schedule under a convergence mask, no per-node early
    /// exit). Bit-identical to [`Scalar`](Self::Scalar).
    Batched,
    /// Batched stepping with the supercap energy→voltage inversion
    /// replaced by a per-run interpolation table.
    Interpolated {
        /// Number of equally-spaced energy knots (min 2); deviation
        /// shrinks quadratically with the count.
        samples: usize,
    },
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
    // Boxed: the class template embeds a full store and would otherwise
    // dominate every FleetGroup's footprint (clippy: large_enum_variant
    // on GroupEntry).
    dense_class: Option<Box<DenseClass>>,
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

    /// Opts the group's members into the dense lane kernels by
    /// declaring the monomorphized class they all match (see
    /// [`DenseClass`]). When the batched gate is open
    /// ([`DenseSolveTier`] other than scalar; jittered groups
    /// additionally need per-window cadence and a window-batchable
    /// channel) the engine solves the members on the struct-of-arrays
    /// kernels instead of boxed [`Platform::step`] calls, keeping boxed
    /// per-node bookkeeping (per-node seeds, policies and jitter
    /// factors are derived exactly as the boxed path derives them).
    ///
    /// The declaration is a contract: every member the factory builds
    /// must match the class. The engine verifies the first member at
    /// run start — the platform must report
    /// [`Platform::supports_dense_kernels`] and its storage books must
    /// match the declared template bit for bit — and rejects the run
    /// otherwise; heterogeneity beyond member 0 is the caller's
    /// responsibility. Kernel-cache counters are synthesized from the
    /// lane replay pattern rather than read from member channels, so
    /// summaries match the plain boxed path everywhere except
    /// [`FleetSummary::kernel_cache`].
    pub fn with_dense_class(mut self, class: DenseClass) -> Self {
        self.dense_class = Some(Box::new(class));
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

impl core::fmt::Debug for FleetGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetGroup")
            .field("name", &self.name)
            .field("count", &self.count)
            .field("site", &self.site)
            .field("seed", &self.seed)
            .field("jitter", &self.jitter)
            .finish_non_exhaustive()
    }
}

/// Builds a dense-lane group's input channel. Every member node shares
/// one channel definition (that homogeneity is what lets the engine
/// hoist the operating-point solve out of the per-node loop);
/// intra-group spread comes from [`EnvJitter`], not the factory.
pub type ChannelFactory = dyn Fn() -> InputChannel + Send + Sync;

/// The concrete storage buffer of a dense-lane group, cloned per node
/// from the template (including its initial state of charge).
#[derive(Debug, Clone)]
pub enum DenseStore {
    /// A supercapacitor buffer.
    Supercap(Supercap),
    /// A battery buffer.
    Battery(Battery),
}

/// The monomorphized dense-lane class a boxed [`FleetGroup`] declares
/// its members match so they may borrow the batched struct-of-arrays
/// kernels ([`FleetGroup::with_dense_class`]): the concrete channel,
/// output converter and store template plus the supervisor overhead and
/// monitoring tier — the same parts a [`DenseGroup`] declares directly.
///
/// Defaults match [`DenseGroup::new`]: zero supervisor overhead and
/// [`MonitoringLevel::Full`] reporting; override with the builders to
/// mirror the members' actual supervisor.
pub struct DenseClass {
    pub(crate) channel: Box<ChannelFactory>,
    pub(crate) output: DcDcConverter,
    pub(crate) store: DenseStore,
    pub(crate) supervisor_overhead: Watts,
    pub(crate) monitoring: MonitoringLevel,
}

impl DenseClass {
    /// Declares a class from its concrete parts. The channel factory
    /// must build the same channel every member's platform carries;
    /// the store template must match each member's device bit for bit
    /// (the engine cross-checks capacity, stored energy and losses
    /// against member 0 at run start).
    pub fn new(
        channel: impl Fn() -> InputChannel + Send + Sync + 'static,
        output: DcDcConverter,
        store: DenseStore,
    ) -> Self {
        Self {
            channel: Box::new(channel),
            output,
            store,
            supervisor_overhead: Watts::ZERO,
            monitoring: MonitoringLevel::Full,
        }
    }

    /// Sets the supervisory standing draw (the members'
    /// `Supervisor::overhead`).
    pub fn with_supervisor_overhead(mut self, overhead: Watts) -> Self {
        self.supervisor_overhead = overhead;
        self
    }

    /// Sets the monitoring tier (the members' `Supervisor::monitoring`;
    /// the lane kernels model no sense-ADC quantization, which the
    /// platform probe enforces).
    pub fn with_monitoring(mut self, monitoring: MonitoringLevel) -> Self {
        self.monitoring = monitoring;
        self
    }
}

impl core::fmt::Debug for DenseClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DenseClass")
            .field("store", &self.store)
            .field("supervisor_overhead", &self.supervisor_overhead)
            .field("monitoring", &self.monitoring)
            .finish_non_exhaustive()
    }
}

/// A homogeneous platform class on the fleet's **dense lane**: `count`
/// nodes of the survey's most common shape — one harvester channel, one
/// buffer, one output converter — stepped by a monomorphized kernel with
/// the channel solve shared across the group.
///
/// Semantics are identical to a [`FleetGroup`] whose platform is a
/// [`mseh_core::PowerUnit`] with the same parts and a default supervisor
/// (override the overhead and monitoring tier with
/// [`with_supervisor_overhead`](Self::with_supervisor_overhead) /
/// [`with_monitoring`](Self::with_monitoring)). Under
/// [`EnvCadence::PerWindow`] the channel must be replayable
/// ([`InputChannel::is_replayable`]) — true for the gated controllers
/// (fixed-point, fractional-V_oc with its sample interval inside `dt`)
/// with the kernel cache on; the engine asserts it at run start.
pub struct DenseGroup {
    name: String,
    count: usize,
    site: usize,
    seed: u64,
    jitter: EnvJitter,
    node: SensorNode,
    channel: Box<ChannelFactory>,
    output: DcDcConverter,
    store: DenseStore,
    supervisor_overhead: Watts,
    monitoring: MonitoringLevel,
    policy: Box<PolicyFactory>,
}

impl DenseGroup {
    /// A dense group of `count` nodes at site index `site`, with no
    /// jitter, group seed 0, zero supervisor overhead and
    /// [`MonitoringLevel::Full`] energy reporting.
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
            channel: Box::new(channel),
            output,
            store,
            supervisor_overhead: Watts::ZERO,
            monitoring: MonitoringLevel::Full,
            policy: Box::new(policy),
        }
    }

    /// Sets the group seed from which per-node seeds are derived.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-node environment jitter (jittered dense nodes drive
    /// their own channel once per window instead of sharing the group
    /// table).
    pub fn with_jitter(mut self, jitter: EnvJitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the supervisory standing draw (the boxed equivalent's
    /// `Supervisor::overhead`).
    pub fn with_supervisor_overhead(mut self, overhead: Watts) -> Self {
        self.supervisor_overhead = overhead;
        self
    }

    /// Sets the monitoring tier the policy's [`EnergyStatus`] is clamped
    /// to (the boxed equivalent's `Supervisor::monitoring`; no sense-ADC
    /// quantization on the dense lane).
    pub fn with_monitoring(mut self, monitoring: MonitoringLevel) -> Self {
        self.monitoring = monitoring;
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
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

/// One population entry of a [`FleetSpec`]: either lane.
#[derive(Debug)]
pub enum GroupEntry {
    /// Arbitrary platforms behind dynamic dispatch ([`FleetGroup`]).
    Boxed(FleetGroup),
    /// The monomorphized single-channel/single-store lane
    /// ([`DenseGroup`], boxed: its inline store model dwarfs the
    /// boxed lane's pointers, and entries are per-group, not per-node).
    Dense(Box<DenseGroup>),
}

impl GroupEntry {
    /// The group's display name.
    pub fn name(&self) -> &str {
        match self {
            GroupEntry::Boxed(g) => &g.name,
            GroupEntry::Dense(g) => &g.name,
        }
    }

    /// Number of nodes in the group.
    pub fn count(&self) -> usize {
        match self {
            GroupEntry::Boxed(g) => g.count,
            GroupEntry::Dense(g) => g.count,
        }
    }

    /// The group's site index.
    pub fn site(&self) -> usize {
        match self {
            GroupEntry::Boxed(g) => g.site,
            GroupEntry::Dense(g) => g.site,
        }
    }
}

/// The fleet's population: sites plus node groups assigned to them.
/// Global node indices run in group declaration order (group 0's nodes
/// first), which fixes the deterministic merge order.
#[derive(Debug, Default)]
pub struct FleetSpec {
    sites: Vec<Environment>,
    groups: Vec<GroupEntry>,
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

    /// Appends a boxed-lane node group. Panics if the group references
    /// an unknown site.
    pub fn add_group(&mut self, group: FleetGroup) -> &mut Self {
        self.check_site(&group.name, group.site);
        self.groups.push(GroupEntry::Boxed(group));
        self
    }

    /// Appends a dense-lane node group. Panics if the group references
    /// an unknown site.
    pub fn add_dense_group(&mut self, group: DenseGroup) -> &mut Self {
        self.check_site(&group.name, group.site);
        self.groups.push(GroupEntry::Dense(Box::new(group)));
        self
    }

    fn check_site(&self, name: &str, site: usize) {
        assert!(
            site < self.sites.len(),
            "group '{}' references site {} but only {} site(s) exist",
            name,
            site,
            self.sites.len()
        );
    }

    /// Total node count across all groups.
    pub fn population(&self) -> u64 {
        self.groups.iter().map(|g| g.count() as u64).sum()
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Registered groups, in declaration (= global node) order.
    pub fn groups(&self) -> &[GroupEntry] {
        &self.groups
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-node stepping parameters. `record` is ignored: fleets never
    /// keep per-step traces.
    pub sim: SimConfig,
    /// Worker threads (`0` = [`thread_count`], which honours
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
    /// How many worst-uptime nodes to list in
    /// [`FleetSummary::stragglers`].
    pub stragglers: usize,
    /// Solve tier for dense groups and opted-in boxed groups (default
    /// [`DenseSolveTier::Batched`], bit-identical to
    /// [`DenseSolveTier::Scalar`]).
    pub dense_tier: DenseSolveTier,
}

impl FleetConfig {
    /// Fleet defaults over `duration`: 60 s steps, 10-minute control
    /// windows, per-window cadence, auto threads, 1024-node shards,
    /// 8 stragglers.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            threads: 0,
            shard_size: 0,
            cadence: EnvCadence::PerWindow,
            keep_node_results: false,
            stragglers: 8,
            dense_tier: DenseSolveTier::Batched,
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

    /// Sets the dense-lane solve tier.
    pub fn with_dense_tier(mut self, tier: DenseSolveTier) -> Self {
        self.dense_tier = tier;
        self
    }
}

/// Percentiles of the per-node uptime distribution (nearest-rank over
/// the population).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UptimePercentiles {
    /// Worst node.
    pub min: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Best node.
    pub max: f64,
    /// Population mean.
    pub mean: f64,
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
    /// state never crosses nodes, so these are deterministic too.
    pub kernel_cache: CacheStats,
    /// Worst interpolation-table voltage deviation recorded by any
    /// batched run (`0` unless [`DenseSolveTier::Interpolated`] is
    /// active): the maximum |exact − interpolated| terminal voltage
    /// probed when each run's table was built.
    pub interp_max_deviation: f64,
    /// The `config.stragglers` worst-uptime nodes, worst first (ties by
    /// node index).
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

/// Runs one node's full trajectory: `run_simulation`'s unobserved hot
/// path over a pre-sampled condition table, so a per-step-cadence fleet
/// node is bit-identical to a standalone run. Returns `None` when
/// `cancel` trips, checked once per control window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_node(
    platform: &mut dyn Platform,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    rows: &[EnvConditions],
    factors: &JitterFactors,
    jittered: bool,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
) -> Option<NodeOutcome> {
    let mut books = NodeBooks::open(platform.total_stored_energy(), platform.storage_losses());
    for window in plan.windows() {
        if tripped(cancel) {
            return None;
        }
        let duty = policy.choose(
            node,
            &platform.energy_status().at(plan.time_at(window.start)),
        );
        let load = window.load(node, duty);
        for step in window.steps() {
            let base = window.row(rows, &step);
            let local;
            let env = if jittered {
                local = factors.apply(base);
                &local
            } else {
                base
            };
            let report = platform.step(env, step.dt, load.power);
            books.record(&report, &load, &step);
        }
    }

    Some(books.close(
        platform.total_stored_energy(),
        platform.storage_losses(),
        platform.stranded_energy(),
        platform.kernel_cache_stats(),
    ))
}

/// Drives one representative channel through the run's full step
/// sequence, materializing the per-step [`HarvestStep`] table a dense
/// node replays. Returns the number of `channel.step` calls made; the
/// remaining `plan.steps − calls` table reads are replays of solves the
/// channel memoized.
///
/// Soundness: under [`EnvCadence::PerStep`] the driver performs exactly
/// the member step sequence. Under [`EnvCadence::PerWindow`] a member
/// channel's within-window repeat steps are memo hits (asserted via
/// [`InputChannel::is_replayable`] once the controller has settled after
/// its first solve), and a hit leaves controller state exactly where the
/// window's first solve left it — so skipping the repeats preserves both
/// the per-step outputs and the channel state bit for bit. The
/// fractional closing step always gets its own call (its `dt` differs).
/// Returns `None` when `cancel` trips, checked once per control window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_harvest_table(
    channel: &mut InputChannel,
    rows: &[EnvConditions],
    factors: &JitterFactors,
    jittered: bool,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<HarvestStep>,
) -> Option<u64> {
    out.clear();
    out.reserve(plan.steps as usize);
    let mut calls = 0u64;
    let mut probed = false;
    for window in plan.windows() {
        if tripped(cancel) {
            return None;
        }
        for step in window.steps() {
            let replay = plan.cadence == EnvCadence::PerWindow
                && step.index > window.start
                && step.dt == plan.dt;
            if replay {
                out.push(out[window.start as usize]);
                continue;
            }
            let base = window.row(rows, &step);
            let local;
            let env = if jittered {
                local = factors.apply(base);
                &local
            } else {
                base
            };
            out.push(channel.step(env, step.dt));
            calls += 1;
            if !probed && plan.cadence == EnvCadence::PerWindow {
                probed = true;
                assert!(
                    channel.is_replayable(plan.dt),
                    "dense group requires a replayable channel under per-window \
                     cadence (kernel cache on, env-pure controller with its sample \
                     interval inside dt); use EnvCadence::PerStep or a boxed \
                     FleetGroup for this platform"
                );
            }
        }
    }
    Some(calls)
}

/// Runs one dense-lane node: the per-step arithmetic of
/// `PowerUnit::step` specialized to the one-channel/one-store shape,
/// monomorphized over the concrete storage type, with the channel's
/// work already materialized in `harvest`. It keeps the same books as
/// [`simulate_node`], so lane choice never changes a result.
/// Returns `None` when `cancel` trips, checked once per control window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_node_dense<S: Storage + Clone>(
    template: &S,
    output: &DcDcConverter,
    supervisor_overhead: Watts,
    monitoring: MonitoringLevel,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    harvest: &[HarvestStep],
    plan: &StepPlan,
    cache: CacheStats,
    cancel: Option<&CancelToken>,
) -> Option<NodeOutcome> {
    let mut store = template.clone();
    // The boxed path's recognized capacity defaults to the device's
    // datasheet capacity at attach time.
    let recognized = store.capacity();
    let mut books = NodeBooks::open(store.stored_energy(), store.losses());
    let mut last_harvest = Watts::ZERO;

    for window in plan.windows() {
        if tripped(cancel) {
            return None;
        }
        // `PowerUnit::energy_status` for a single primary store: actual
        // SoC over the device capacity, believed stored energy over the
        // recognized capacity, clamped to the monitoring tier.
        let status = {
            let cap = store.capacity();
            let soc_actual = if cap.value() > 0.0 {
                store.stored_energy().value() / cap.value()
            } else {
                0.0
            };
            EnergyStatus::full(
                store.voltage(),
                Ratio::new(soc_actual),
                recognized * soc_actual,
                last_harvest,
            )
            .clamped_to(monitoring)
        };
        let duty = policy.choose(node, &status.at(plan.time_at(window.start)));
        let load = window.load(node, duty);

        for step in window.steps() {
            let step_dt = step.dt;
            let hs = &harvest[step.index as usize];

            // --- PowerUnit::step, specialized ---
            let harvested_w = hs.delivered;
            let overhead_w = supervisor_overhead + output.quiescent() + hs.overhead;
            last_harvest = harvested_w;

            let store_v = store.voltage();
            let (load_in_w, servable) = if load.power.value() > 0.0 {
                if output.accepts_input_voltage(store_v) {
                    (output.input_for_output(load.power, store_v), true)
                } else {
                    (Watts::ZERO, false)
                }
            } else {
                (Watts::ZERO, true)
            };

            let e_h = harvested_w * step_dt;
            let e_load_in = load_in_w * step_dt;
            let e_ov = overhead_w * step_dt;
            let step_demand = e_load_in + e_ov;

            let mut step_charged = Joules::ZERO;
            let mut step_discharged = Joules::ZERO;
            let mut unmet = Joules::ZERO;
            if e_h >= step_demand {
                let surplus = e_h - step_demand;
                if surplus.value() > 0.0 {
                    step_charged = store.charge(surplus / step_dt, step_dt);
                }
            } else {
                let deficit = step_demand - e_h;
                if deficit.value() > 0.0 {
                    step_discharged = store.discharge(deficit / step_dt, step_dt);
                }
                unmet = (deficit - step_discharged).max(Joules::ZERO);
            }

            let (step_delivered, step_shortfall, step_conv_loss) = if !servable {
                (Joules::ZERO, load.power * step_dt, Joules::ZERO)
            } else if e_load_in.value() > 0.0 {
                let load_unmet = unmet.min(e_load_in);
                let served_in = e_load_in - load_unmet;
                let served = (served_in / e_load_in).clamp(0.0, 1.0);
                let full_load = load.power * step_dt;
                let step_delivered = full_load * served;
                (
                    step_delivered,
                    full_load * (1.0 - served),
                    (served_in - step_delivered).max(Joules::ZERO),
                )
            } else {
                (Joules::ZERO, Joules::ZERO, Joules::ZERO)
            };

            store.idle(step_dt);
            // --- end PowerUnit::step ---

            let report = StepReport {
                harvested: e_h,
                delivered: step_delivered,
                shortfall: step_shortfall,
                charged: step_charged,
                discharged: step_discharged,
                converter_loss: step_conv_loss,
                store_voltage: store.voltage(),
                ..StepReport::default()
            };
            books.record(&report, &load, &step);
        }
    }

    Some(books.close(store.stored_energy(), store.losses(), Joules::ZERO, cache))
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// External control of a [`run_fleet_controlled`] run: a cooperative
/// cancellation token and a progress callback, both optional. The
/// default value is "no control" — exactly [`run_fleet`]'s behaviour.
#[derive(Default, Clone, Copy)]
pub struct FleetControl<'a> {
    /// Checked at control-window granularity by every lane; a tripped
    /// token makes the run return `Ok(None)` within one control window
    /// of compute per in-flight node.
    pub cancel: Option<&'a CancelToken>,
    /// Called with `(nodes_completed, population)` as shards finish.
    /// Completion order is scheduling-dependent, but the reported
    /// counts are monotone and the final call always reports the full
    /// population.
    pub progress: Option<&'a (dyn Fn(u64, u64) + Sync)>,
}

impl core::fmt::Debug for FleetControl<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetControl")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.map(|_| "Fn"))
            .finish()
    }
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
    match run_fleet_controlled(spec, config, FleetControl::default()) {
        Ok(Some(result)) => result,
        Ok(None) => unreachable!("no cancel token was installed"),
        Err(message) => panic!("{message}"),
    }
}

/// Verifies a boxed group's declared [`DenseClass`] against its
/// member-0 platform before the batched gate opens: the platform must
/// report the dense-kernel shape
/// ([`Platform::supports_dense_kernels`]) and its storage books must
/// match the declared template bit for bit. Factories receive per-node
/// seeds, so the engine can only spot-check the first member cheaply;
/// the opt-in contract is that every member matches the class.
fn validate_dense_class(g: &FleetGroup, class: &DenseClass) -> Result<(), String> {
    let node_seed = Noise::new(g.seed).bits(NODE_SEED_STREAM, 0);
    let platform = (g.platform)(node_seed);
    if !platform.supports_dense_kernels() {
        return Err(format!(
            "group '{}': platform '{}' cannot borrow the dense kernels (the class needs exactly \
             one channel-backed harvester port, one primary-buffer store, no shared ports and no \
             sense-ADC status quantization)",
            g.name,
            platform.name(),
        ));
    }
    let store: &dyn Storage = match &class.store {
        DenseStore::Supercap(s) => s,
        DenseStore::Battery(b) => b,
    };
    let checks = [
        ("capacity", platform.storage_capacity(), store.capacity()),
        (
            "stored energy",
            platform.total_stored_energy(),
            store.stored_energy(),
        ),
        ("losses", platform.storage_losses(), store.losses()),
    ];
    for (what, got, want) in checks {
        if got.value().to_bits() != want.value().to_bits() {
            return Err(format!(
                "group '{}': declared dense-class store {what} {want} does not match the member \
                 platform's {got}",
                g.name,
            ));
        }
    }
    if platform.fault_counts() != (0, 0) || platform.stranded_energy() != Joules::ZERO {
        return Err(format!(
            "group '{}': platforms with active fault-injection wrappers cannot borrow the dense \
             kernels",
            g.name,
        ));
    }
    Ok(())
}

/// [`run_fleet`] as a daemon-facing entry point: spec/config validation
/// errors and energy books that fail the 1e-6 conservation audit come
/// back as `Err` instead of panicking, and a
/// [`FleetControl`] supplies optional cooperative cancellation
/// (`Ok(None)` when the token trips — partial results are discarded,
/// never returned torn) and progress reporting. An un-cancelled run
/// returns exactly [`run_fleet`]'s result, bit for bit.
pub fn run_fleet_controlled(
    spec: &FleetSpec,
    config: FleetConfig,
    control: FleetControl<'_>,
) -> Result<Option<FleetResult>, String> {
    let cancel = control.cancel;
    let population = spec.population();
    if population == 0 {
        return Err("fleet population must be non-empty".into());
    }
    let sim = config.sim;
    if !(sim.dt.value().is_finite() && sim.dt.value() > 0.0) {
        return Err(format!("dt must be positive and finite, got {}", sim.dt));
    }
    if !sim.duration.value().is_finite() || sim.duration < sim.dt {
        return Err(format!(
            "duration must cover at least one step and be finite, got {} at dt {}",
            sim.duration, sim.dt
        ));
    }
    if !(sim.control_interval.value().is_finite() && sim.control_interval.value() > 0.0) {
        return Err(format!(
            "control interval must be positive and finite, got {}",
            sim.control_interval
        ));
    }
    if let DenseSolveTier::Interpolated { samples } = config.dense_tier {
        if samples < 2 {
            return Err(format!(
                "interpolation tier needs at least 2 knots, got {samples}"
            ));
        }
    }
    let plan = StepPlan::from_sim(sim, config.cadence);

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
        spans.push((cursor, cursor + g.count() as u64));
        cursor += g.count() as u64;
    }

    // Dense groups — supercap- and battery-store — step on the
    // struct-of-arrays batched tier unless the config pins `Scalar`,
    // and boxed groups with a declared [`DenseClass`] borrow the same
    // kernels. Unjittered groups always qualify (their lanes replay the
    // shared harvest table); jittered groups need a window-batchable
    // channel under per-window cadence — probed once per group — and
    // otherwise fall back to their scalar path. An opted-in boxed group
    // whose member platform contradicts its declared class is a spec
    // error, caught here before any node steps.
    let mut batched: Vec<bool> = Vec::with_capacity(spec.groups.len());
    for entry in &spec.groups {
        let open = match entry {
            GroupEntry::Dense(g) if config.dense_tier != DenseSolveTier::Scalar => {
                g.jitter.is_none()
                    || (plan.cadence == EnvCadence::PerWindow
                        && (g.channel)().supports_window_lanes(plan.dt))
            }
            GroupEntry::Boxed(g) if config.dense_tier != DenseSolveTier::Scalar => {
                match &g.dense_class {
                    Some(class) => {
                        let open = g.jitter.is_none()
                            || (plan.cadence == EnvCadence::PerWindow
                                && (class.channel)().supports_window_lanes(plan.dt));
                        if open {
                            validate_dense_class(g, class)?;
                        }
                        open
                    }
                    None => false,
                }
            }
            _ => false,
        };
        batched.push(open);
    }

    // Un-jittered dense classes share one harvest table group-wide: the
    // driver channel solves each control window once and every member
    // replays it. Jittered dense nodes drive their own channel inside
    // the shard (their conditions differ), still once per window. The
    // driver's solve counters are folded into the summary once per
    // group, after the per-node fold. Opted-in boxed groups get a table
    // only when their batched gate is open — otherwise they run plain
    // boxed and a table would skew the cache fold.
    let build_group_table =
        |factory: &ChannelFactory, site: usize| -> Option<(Vec<HarvestStep>, CacheStats)> {
            let mut channel = factory();
            let mut table = Vec::new();
            build_harvest_table(
                &mut channel,
                &tables[site],
                &JitterFactors::IDENTITY,
                false,
                &plan,
                cancel,
                &mut table,
            )
            .map(|_| (table, channel.kernel_cache_stats()))
        };
    let mut dense_tables: Vec<Option<(Vec<HarvestStep>, CacheStats)>> =
        Vec::with_capacity(spec.groups.len());
    for (gi, entry) in spec.groups.iter().enumerate() {
        dense_tables.push(match entry {
            GroupEntry::Dense(g) if g.jitter.is_none() => {
                match build_group_table(g.channel.as_ref(), g.site) {
                    Some(built) => Some(built),
                    None => return Ok(None),
                }
            }
            GroupEntry::Boxed(g) if batched[gi] && g.jitter.is_none() => {
                let class = g
                    .dense_class
                    .as_ref()
                    .expect("batched boxed group declared a dense class");
                match build_group_table(class.channel.as_ref(), g.site) {
                    Some(built) => Some(built),
                    None => return Ok(None),
                }
            }
            _ => None,
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
    let threads = if config.threads == 0 {
        thread_count()
    } else {
        config.threads
    };

    let done_nodes = std::sync::atomic::AtomicU64::new(0);
    let run_shard = |&(lo, hi): &(u64, u64)| -> Vec<NodeOutcome> {
        let mut out = Vec::with_capacity((hi - lo) as usize);
        // Scratch harvest table reused by jittered dense nodes.
        let mut scratch: Vec<HarvestStep> = Vec::new();
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
            // Batched struct-of-arrays tier: the shard's contiguous run
            // of this dense class — a dense group of either store kind,
            // or a boxed group opted in via its declared class — steps
            // as one lane population. Run composition never changes
            // results — every lane's arithmetic is independent of its
            // companions — so shard and thread geometry stay
            // bit-irrelevant.
            if batched[gi] {
                let (view, store) = match &spec.groups[gi] {
                    GroupEntry::Dense(g) => (
                        dense_lanes::DenseView {
                            seed: g.seed,
                            jitter: g.jitter,
                            node: &g.node,
                            channel: g.channel.as_ref(),
                            output: &g.output,
                            supervisor_overhead: g.supervisor_overhead,
                            monitoring: g.monitoring,
                            policy: g.policy.as_ref(),
                        },
                        &g.store,
                    ),
                    GroupEntry::Boxed(g) => {
                        let class = g
                            .dense_class
                            .as_ref()
                            .expect("batched boxed group declared a dense class");
                        (
                            dense_lanes::DenseView {
                                seed: g.seed,
                                jitter: g.jitter,
                                node: &g.node,
                                channel: class.channel.as_ref(),
                                output: &class.output,
                                supervisor_overhead: class.supervisor_overhead,
                                monitoring: class.monitoring,
                                policy: g.policy.as_ref(),
                            },
                            &class.store,
                        )
                    }
                };
                let site = spec.groups[gi].site();
                let shared = dense_tables[gi].as_ref().map(|(t, _)| t.as_slice());
                let ok = match store {
                    DenseStore::Supercap(template) => dense_lanes::simulate_supercap_run(
                        &view,
                        template,
                        spans[gi].0,
                        cursor,
                        run_end,
                        &tables[site],
                        shared,
                        &plan,
                        config.dense_tier,
                        cancel,
                        &mut out,
                    ),
                    DenseStore::Battery(template) => dense_lanes::simulate_battery_run(
                        &view,
                        template,
                        spans[gi].0,
                        cursor,
                        run_end,
                        &tables[site],
                        shared,
                        &plan,
                        cancel,
                        &mut out,
                    ),
                };
                if !ok {
                    return out;
                }
                cursor = run_end;
                continue;
            }
            for n in cursor..run_end {
                let within = n - spans[gi].0;
                match &spec.groups[gi] {
                    GroupEntry::Boxed(g) => {
                        let node_seed = Noise::new(g.seed).bits(NODE_SEED_STREAM, within);
                        let factors = JitterFactors::derive(g.jitter, node_seed);
                        let jittered = !g.jitter.is_none();
                        let mut platform = (g.platform)(node_seed);
                        let mut policy = (g.policy)(node_seed);
                        match simulate_node(
                            platform.as_mut(),
                            &g.node,
                            policy.as_mut(),
                            &tables[g.site],
                            &factors,
                            jittered,
                            &plan,
                            cancel,
                        ) {
                            Some(outcome) => out.push(outcome),
                            None => return out,
                        }
                    }
                    GroupEntry::Dense(g) => {
                        let node_seed = Noise::new(g.seed).bits(NODE_SEED_STREAM, within);
                        let mut policy = (g.policy)(node_seed);
                        // Per-node cache view: table reads beyond the
                        // driver's own calls are replays of memoized solves.
                        let mut cache = CacheStats::default();
                        let mut calls = 0u64;
                        let table: &[HarvestStep] = match &dense_tables[gi] {
                            Some((table, _)) => table,
                            None => {
                                let factors = JitterFactors::derive(g.jitter, node_seed);
                                let mut channel = (g.channel)();
                                calls = match build_harvest_table(
                                    &mut channel,
                                    &tables[g.site],
                                    &factors,
                                    true,
                                    &plan,
                                    cancel,
                                    &mut scratch,
                                ) {
                                    Some(calls) => calls,
                                    None => return out,
                                };
                                cache = channel.kernel_cache_stats();
                                &scratch
                            }
                        };
                        cache.hits += plan.steps - calls;
                        let outcome = match &g.store {
                            DenseStore::Supercap(s) => simulate_node_dense(
                                s,
                                &g.output,
                                g.supervisor_overhead,
                                g.monitoring,
                                &g.node,
                                policy.as_mut(),
                                table,
                                &plan,
                                cache,
                                cancel,
                            ),
                            DenseStore::Battery(b) => simulate_node_dense(
                                b,
                                &g.output,
                                g.supervisor_overhead,
                                g.monitoring,
                                &g.node,
                                policy.as_mut(),
                                table,
                                &plan,
                                cache,
                                cancel,
                            ),
                        };
                        match outcome {
                            Some(outcome) => out.push(outcome),
                            None => return out,
                        }
                    }
                }
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
    let shard_outcomes = par_map_with(threads.max(1), &shards, run_shard);

    // A tripped token may have left some shards short; partial results
    // are discarded wholesale rather than folded torn.
    let completed: u64 = shard_outcomes.iter().map(|s| s.len() as u64).sum();
    if tripped(cancel) || completed != population {
        return Ok(None);
    }

    // Fold in global node order (shard order = node order), so the
    // floating-point accumulation is independent of shard boundaries.
    let mut harvested = Joules::ZERO;
    let mut delivered = Joules::ZERO;
    let mut shortfall = Joules::ZERO;
    let mut demanded = Joules::ZERO;
    let mut converter_losses = Joules::ZERO;
    let mut stranded = Joules::ZERO;
    let mut residual_signed = 0.0;
    let mut throughput = 0.0;
    let mut worst_node_audit = 0.0f64;
    let mut min_v = Volts::new(f64::INFINITY);
    let mut neutral = 0u64;
    let mut interp_max_deviation = 0.0f64;
    let mut cache = CacheStats::default();
    let mut uptimes: Vec<f64> = Vec::with_capacity(population as usize);
    let mut node_results = config
        .keep_node_results
        .then(|| Vec::with_capacity(population as usize));

    for outcome in shard_outcomes.iter().flatten() {
        harvested += outcome.harvested;
        delivered += outcome.delivered;
        shortfall += outcome.shortfall;
        demanded += outcome.demanded;
        converter_losses += outcome.converter_losses;
        stranded += outcome.stranded;
        residual_signed += outcome.residual_signed;
        throughput += outcome.throughput;
        worst_node_audit = worst_node_audit.max(outcome.audit_residual);
        min_v = min_v.min(outcome.min_store_voltage);
        neutral += u64::from(outcome.brownout_steps == 0);
        interp_max_deviation = interp_max_deviation.max(outcome.interp_deviation);
        cache.hits += outcome.cache.hits;
        cache.misses += outcome.cache.misses;
        cache.invalidations += outcome.cache.invalidations;
        uptimes.push(outcome.uptime);
        if let Some(results) = node_results.as_mut() {
            results.push(outcome.to_sim_result(plan.duration));
        }
    }
    // Shared-table dense groups: the driver's actual solve counters enter
    // the books once per group (member nodes counted only replays).
    for driver in dense_tables.iter().flatten() {
        cache.hits += driver.1.hits;
        cache.misses += driver.1.misses;
        cache.invalidations += driver.1.invalidations;
    }

    let mean = uptimes.iter().sum::<f64>() / population as f64;
    let mut sorted = uptimes.clone();
    sorted.sort_by(f64::total_cmp);
    let uptime = UptimePercentiles {
        min: sorted[0],
        p05: percentile(&sorted, 0.05),
        p25: percentile(&sorted, 0.25),
        p50: percentile(&sorted, 0.50),
        p75: percentile(&sorted, 0.75),
        p95: percentile(&sorted, 0.95),
        max: sorted[sorted.len() - 1],
        mean,
    };

    // Worst-uptime stragglers, ties broken by node index.
    let mut ranked: Vec<(f64, u64)> = uptimes
        .iter()
        .enumerate()
        .map(|(i, &u)| (u, i as u64))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let stragglers = ranked
        .iter()
        .take(config.stragglers.min(population as usize))
        .map(|&(u, n)| {
            let gi = spans.partition_point(|&(_, end)| end <= n);
            let outcome = {
                let shard = (n / shard_size) as usize;
                &shard_outcomes[shard][(n % shard_size) as usize]
            };
            Straggler {
                node: n,
                group: spec.groups[gi].name().to_string(),
                site: spec.groups[gi].site(),
                uptime: u,
                brownout_steps: outcome.brownout_steps,
            }
        })
        .collect();

    let audit_relative = residual_signed.abs() / throughput.max(1.0);
    if audit_relative.is_nan() || audit_relative >= 1e-6 {
        return Err(format!(
            "fleet energy books do not close: conservation residual {residual_signed} J \
             ({audit_relative:.3e} of storage throughput, limit 1e-6)"
        ));
    }
    let served_fraction = if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    };

    Ok(Some(FleetResult {
        summary: FleetSummary {
            population,
            steps_per_node: plan.steps,
            node_steps: population * plan.steps,
            duration: plan.duration,
            energy_neutral_fraction: neutral as f64 / population as f64,
            uptime,
            served_fraction,
            harvested,
            delivered,
            shortfall,
            demanded,
            converter_losses,
            stranded_energy: stranded,
            min_store_voltage: min_v,
            audit_relative,
            worst_node_audit,
            kernel_cache: cache,
            interp_max_deviation,
            stragglers,
        },
        node_results,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_simulation;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
    use mseh_harvesters::PvModule;
    use mseh_node::{FixedDuty, VoltageThreshold};
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::{DutyCycle, Volts};

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
            3,
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
        let out = run_fleet(
            &spec,
            FleetConfig {
                stragglers: 3,
                ..FleetConfig::over(Seconds::from_hours(6.0))
            },
        );
        assert_eq!(out.summary.stragglers.len(), 3);
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
        // Full monitoring plus supervisor overhead: a voltage-threshold
        // policy must see an identical EnergyStatus on both lanes, and
        // the overhead must drain the books identically.
        let horizon = Seconds::from_hours(4.0);
        let overhead = Watts::new(40e-6);
        let dense = {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(23));
            spec.add_dense_group(
                DenseGroup::new(
                    "pv supervised",
                    3,
                    site,
                    SensorNode::submilliwatt_class(),
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Supercap(solar_cap()),
                    |_| Box::new(VoltageThreshold::supercap_ladder()),
                )
                .with_supervisor_overhead(overhead),
            );
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        let boxed = {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(23));
            let mut supervisor = Supervisor::none();
            supervisor.monitoring = MonitoringLevel::Full;
            supervisor.overhead = overhead;
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
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.5);
        let build = |jitter: EnvJitter| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(31));
            spec.add_dense_group(
                DenseGroup::new(
                    "pv + nimh",
                    23,
                    site,
                    SensorNode::submilliwatt_class(),
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Battery(nimh.clone()),
                    // Heterogeneous duties: the uniform fast path must
                    // materialize the full population on divergence.
                    |seed| {
                        let d = 0.02 + 0.06 * (seed % 5) as f64 / 5.0;
                        Box::new(FixedDuty::new(DutyCycle::saturating(d)))
                    },
                )
                .with_seed(9)
                .with_jitter(jitter),
            );
            spec
        };
        let run = |spec: &FleetSpec, tier: DenseSolveTier| {
            run_fleet(
                spec,
                FleetConfig {
                    dense_tier: tier,
                    ..FleetConfig::over(Seconds::from_hours(3.0))
                },
            )
            .summary
        };
        let plain = build(EnvJitter::NONE);
        assert_eq!(
            run(&plain, DenseSolveTier::Batched),
            run(&plain, DenseSolveTier::Scalar)
        );
        let jittered = build(EnvJitter::relative(0.2));
        assert_eq!(
            modulo_cache(run(&jittered, DenseSolveTier::Batched)),
            modulo_cache(run(&jittered, DenseSolveTier::Scalar))
        );
    }

    #[test]
    fn boxed_group_with_dense_class_matches_plain_boxed() {
        let horizon = Seconds::from_hours(4.0);
        let build = |opt_in: bool, jitter: EnvJitter| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(11));
            let mut group = FleetGroup::new(
                "pv",
                6,
                site,
                SensorNode::submilliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(5)
            .with_jitter(jitter);
            if opt_in {
                group = group.with_dense_class(
                    DenseClass::new(
                        solar_channel,
                        DcDcConverter::buck_boost_3v3(),
                        DenseStore::Supercap(solar_cap()),
                    )
                    .with_monitoring(MonitoringLevel::None),
                );
            }
            spec.add_group(group);
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        for jitter in [EnvJitter::NONE, EnvJitter::relative(0.2)] {
            assert_eq!(
                modulo_cache(build(true, jitter)),
                modulo_cache(build(false, jitter)),
                "{jitter:?}"
            );
        }
        // Non-vacuity: the un-jittered opted-in group really took the
        // lane kernels — its synthesized cache counters differ from the
        // boxed channels' real ones.
        assert_ne!(
            build(true, EnvJitter::NONE).kernel_cache,
            build(false, EnvJitter::NONE).kernel_cache
        );
    }

    #[test]
    fn boxed_battery_opt_in_matches_plain_boxed() {
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.6);
        let horizon = Seconds::from_hours(3.0);
        let build = |opt_in: bool| {
            let template = nimh.clone();
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(17));
            let mut group = FleetGroup::new(
                "pv + nimh",
                5,
                site,
                SensorNode::submilliwatt_class(),
                move |_| {
                    Box::new(
                        PowerUnit::builder("fleet battery node")
                            .harvester_port(
                                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                                Some(solar_channel()),
                                true,
                            )
                            .store_port(
                                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                                Some(Box::new(template.clone())),
                                StoreRole::PrimaryBuffer,
                                true,
                            )
                            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                            .build(),
                    )
                },
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(3);
            if opt_in {
                let template = nimh.clone();
                group = group.with_dense_class(
                    DenseClass::new(
                        solar_channel,
                        DcDcConverter::buck_boost_3v3(),
                        DenseStore::Battery(template),
                    )
                    .with_monitoring(MonitoringLevel::None),
                );
            }
            spec.add_group(group);
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        assert_eq!(modulo_cache(build(true)), modulo_cache(build(false)));
        assert_ne!(build(true).kernel_cache, build(false).kernel_cache);
    }

    #[test]
    fn dense_class_contradictions_are_spec_errors() {
        let config = FleetConfig::over(Seconds::from_hours(1.0));
        // Probe failure: a store-only unit has no channel-backed
        // harvester port, so it cannot match any dense class.
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_group(
            FleetGroup::new(
                "no harvester",
                2,
                site,
                SensorNode::submilliwatt_class(),
                |_| {
                    Box::new(
                        PowerUnit::builder("store only")
                            .store_port(
                                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                                Some(Box::new(solar_cap())),
                                StoreRole::PrimaryBuffer,
                                true,
                            )
                            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                            .build(),
                    )
                },
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_dense_class(
                DenseClass::new(
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Supercap(solar_cap()),
                )
                .with_monitoring(MonitoringLevel::None),
            ),
        );
        let err = run_fleet_controlled(&spec, config, FleetControl::default())
            .expect_err("probe must reject the shape");
        assert!(err.contains("cannot borrow the dense kernels"), "{err}");

        // Book mismatch: a declared template at a different state of
        // charge than the members' actual device.
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        let mut wrong = solar_cap();
        wrong.set_voltage(Volts::new(2.5));
        spec.add_group(
            FleetGroup::new(
                "pv",
                2,
                site,
                SensorNode::submilliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_dense_class(
                DenseClass::new(
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Supercap(wrong),
                )
                .with_monitoring(MonitoringLevel::None),
            ),
        );
        let err = run_fleet_controlled(&spec, config, FleetControl::default())
            .expect_err("book mismatch must reject");
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn mid_run_fault_fire_cannot_replay_stale_battery_keep_fraction() {
        use crate::fault::{FaultSchedule, IntermittentStorage};
        use mseh_storage::BatteryLanes;

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
            FleetControl {
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
            FleetControl {
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
            run_fleet_controlled(&empty, config, FleetControl::default()).expect_err("empty fleet");
        assert!(err.contains("population must be non-empty"), "{err}");

        let spec = small_spec(1, EnvJitter::NONE);
        let bad_duration = FleetConfig::over(Seconds::new(-5.0));
        let err = run_fleet_controlled(&spec, bad_duration, FleetControl::default())
            .expect_err("negative duration");
        assert!(err.contains("duration"), "{err}");

        let mut bad_dt = FleetConfig::over(Seconds::from_hours(1.0));
        bad_dt.sim.dt = Seconds::new(0.0);
        let err =
            run_fleet_controlled(&spec, bad_dt, FleetControl::default()).expect_err("zero dt");
        assert!(err.contains("dt must be positive"), "{err}");
    }

    /// A unit whose books claim twice the energy its stores hold.
    struct Misreporting(PowerUnit);

    impl Platform for Misreporting {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
            self.0.step(env, dt, load)
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
            FleetControl::default(),
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
            FleetControl {
                cancel: Some(&token),
                progress: Some(&trip),
            },
        )
        .expect("valid spec");
        assert!(out.is_none(), "cancelled fleet must yield Ok(None)");
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }
}
