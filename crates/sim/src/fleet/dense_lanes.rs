//! Struct-of-arrays stepping for contiguous runs of dense nodes.
//!
//! A shard-local run of one dense class's members becomes a lane
//! population: stored state, losses and staged energy targets live in
//! contiguous `Vec<f64>`s ([`SupercapLanes`] for supercap buffers,
//! [`BatteryLanes`] for battery buffers) and the per-step store updates
//! execute as masked whole-lane passes instead of one `Storage` call
//! per node. Harvest solves batch the same way: un-jittered runs replay
//! the group-wide harvest table, jittered runs drive the group
//! channel's [`mseh_power::InputChannel::window_lanes`] once per
//! control window across every lane's jittered snapshot.
//!
//! The runner is generic over the store lane type ([`StoreLanes`]) and
//! over where its class parameters come from ([`DenseView`]): a
//! [`DenseGroup`](super::DenseGroup) on the dense lane, or a boxed
//! [`FleetGroup`](super::FleetGroup) whose members opted into the
//! kernels via [`DenseClass`](super::DenseClass). The policy arena
//! drives the same core through [`run_lane_population`], supplying one
//! policy per lane instead of seeding them from a factory.
//!
//! # Uniform fast path
//!
//! An un-jittered run starts with every lane in the template state,
//! reading the same shared harvest table. While every lane's policy
//! returns bit-identical duties the trajectories cannot diverge, so the
//! runner steps a single representative lane (every policy is still
//! driven each window — policy state must evolve exactly as scalar) and
//! materializes the full population from it on the first divergent
//! duty ([`SupercapLanes::replicate_lane0`]). Homogeneous-policy groups
//! collapse to one lane of arithmetic; heterogeneous groups pay at most
//! one window of single-lane work before falling back to full-width
//! stepping. Jittered runs never take the fast path (their harvests
//! differ per lane from the first window).
//!
//! # Bit-identity
//!
//! Every pass replicates the scalar path's exact arithmetic — same
//! operation order, same guard branches, same books as
//! [`simulate_node_dense`](super::simulate_node_dense) — and each
//! lane's iterates are independent of its companions, so the result is
//! bit-identical to the scalar tier *and* independent of how shards
//! split a group into runs. The uniform fast path preserves this: a
//! one-lane population's iterates equal any lane of a wider one. The
//! fleet tests assert all of it.

use super::{ChannelFactory, DenseSolveTier, PolicyFactory, NODE_SEED_STREAM};
use crate::cancel::{tripped, CancelToken};
use crate::steps::{NodeBooks, NodeOutcome, StepPlan, WindowLoad};
use mseh_core::StepReport;
use mseh_env::rng::Noise;
use mseh_env::{EnvConditions, EnvJitter, JitterFactors};
use mseh_harvesters::CacheStats;
use mseh_node::{DutyCyclePolicy, EnergyStatus, MonitoringLevel, SensorNode};
use mseh_power::{DcDcConverter, HarvestStep, InputChannel, PowerStage};
use mseh_storage::{Battery, BatteryLanes, Storage, Supercap, SupercapLanes};
use mseh_units::{DutyCycle, Joules, Ratio, Volts, Watts};

/// The class parameters the generic runner needs, borrowed from either
/// a [`DenseGroup`](super::DenseGroup) or a boxed
/// [`FleetGroup`](super::FleetGroup) + [`DenseClass`](super::DenseClass)
/// pair — the two lanes share the kernels verbatim.
pub(super) struct DenseView<'a> {
    pub(super) seed: u64,
    pub(super) jitter: EnvJitter,
    pub(super) node: &'a SensorNode,
    pub(super) channel: &'a ChannelFactory,
    pub(super) output: &'a DcDcConverter,
    pub(super) supervisor_overhead: Watts,
    pub(super) monitoring: MonitoringLevel,
    pub(super) policy: &'a PolicyFactory,
}

/// The node-side parameters of one lane population, with one policy
/// per lane. The fleet derives the policies from a class factory and
/// per-node seeds; the arena supplies one per contender. Policies are
/// borrowed mutably so callers can read post-run policy state (e.g.
/// failover counts) after the population finishes.
pub(crate) struct LanePopulation<'a> {
    pub(crate) node: &'a SensorNode,
    pub(crate) output: &'a DcDcConverter,
    pub(crate) supervisor_overhead: Watts,
    pub(crate) monitoring: MonitoringLevel,
    pub(crate) policies: &'a mut [Box<dyn DutyCyclePolicy>],
}

/// Where a lane population's harvests come from.
pub(crate) enum LaneHarvest<'a> {
    /// Every lane replays one class-wide per-step harvest table; cache
    /// counters are synthesized exactly as the scalar dense path does
    /// (every table read is a memoized replay). Populations in this
    /// mode start on the uniform fast path.
    Shared(&'a [HarvestStep]),
    /// Each lane sees its own jittered snapshot of the window's base
    /// conditions; the channel is driven once per window via
    /// `window_lanes` across all lanes. The caller has verified
    /// [`mseh_power::InputChannel::supports_window_lanes`] for the
    /// plan's `dt`.
    Jittered {
        channel: Box<InputChannel>,
        factors: Vec<JitterFactors>,
        rows: &'a [EnvConditions],
    },
}

/// The store-side lane kernel the generic runner drives: one whole-lane
/// masked step plus per-lane state reads, bit-identical to the scalar
/// `Storage` sequence by each implementation's contract.
trait StoreLanes: Sized {
    fn voltage(&self, i: usize) -> f64;
    fn stored_energy(&self, i: usize) -> f64;
    fn losses(&self, i: usize) -> f64;
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    );
    fn replicate_lane0(&self, lanes: usize) -> Self;
}

impl StoreLanes for SupercapLanes {
    fn voltage(&self, i: usize) -> f64 {
        SupercapLanes::voltage(self, i)
    }
    fn stored_energy(&self, i: usize) -> f64 {
        SupercapLanes::stored_energy(self, i)
    }
    fn losses(&self, i: usize) -> f64 {
        SupercapLanes::losses(self, i)
    }
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        SupercapLanes::step(self, charge_w, discharge_w, dt, charged, discharged)
    }
    fn replicate_lane0(&self, lanes: usize) -> Self {
        SupercapLanes::replicate_lane0(self, lanes)
    }
}

impl StoreLanes for BatteryLanes {
    fn voltage(&self, i: usize) -> f64 {
        BatteryLanes::voltage(self, i)
    }
    fn stored_energy(&self, i: usize) -> f64 {
        BatteryLanes::stored_energy(self, i)
    }
    fn losses(&self, i: usize) -> f64 {
        BatteryLanes::losses(self, i)
    }
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        BatteryLanes::step(self, charge_w, discharge_w, dt, charged, discharged)
    }
    fn replicate_lane0(&self, lanes: usize) -> Self {
        BatteryLanes::replicate_lane0(self, lanes)
    }
}

/// Steps global nodes `lo..hi` of a supercap-store dense class as one
/// lane population, pushing their [`NodeOutcome`]s onto `out` in node
/// order. See [`run_lane_population`] for the shared semantics.
#[allow(clippy::too_many_arguments)]
pub(super) fn simulate_supercap_run(
    view: &DenseView<'_>,
    template: &Supercap,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    shared: Option<&[HarvestStep]>,
    plan: &StepPlan,
    tier: DenseSolveTier,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let mut solo = SupercapLanes::from_template(template, 1);
    let interp_deviation = match tier {
        DenseSolveTier::Interpolated { samples } => solo.set_interpolation(samples),
        _ => 0.0,
    };
    simulate_dense_run(
        view,
        solo,
        template.capacity(),
        NodeBooks::open(template.stored_energy(), template.losses()),
        interp_deviation,
        group_start,
        lo,
        hi,
        rows,
        shared,
        plan,
        cancel,
        out,
    )
}

/// Steps global nodes `lo..hi` of a battery-store dense class as one
/// lane population, pushing their [`NodeOutcome`]s onto `out` in node
/// order. Batteries have no iterative inversion to interpolate, so
/// every non-`Scalar` tier steps the exact [`BatteryLanes`] kernels
/// (the one lane-wide `powf` per distinct idle `dt` is already the
/// cheap path) and `interp_deviation` stays zero. See
/// [`run_lane_population`] for the shared semantics.
#[allow(clippy::too_many_arguments)]
pub(super) fn simulate_battery_run(
    view: &DenseView<'_>,
    template: &Battery,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    shared: Option<&[HarvestStep]>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let solo = BatteryLanes::from_template(template, 1);
    simulate_dense_run(
        view,
        solo,
        template.capacity(),
        NodeBooks::open(template.stored_energy(), template.losses()),
        0.0,
        group_start,
        lo,
        hi,
        rows,
        shared,
        plan,
        cancel,
        out,
    )
}

/// Fleet-facing wrapper: derives per-node seeds, policies, and (for
/// jittered runs) the group channel + per-lane jitter factors, then
/// hands the population to [`run_lane_population`].
#[allow(clippy::too_many_arguments)]
fn simulate_dense_run<L: StoreLanes>(
    view: &DenseView<'_>,
    solo: L,
    cap: Joules,
    books: NodeBooks,
    interp_deviation: f64,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    shared: Option<&[HarvestStep]>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let lanes_n = (hi - lo) as usize;
    let node_seed = |i: usize| {
        let within = lo - group_start + i as u64;
        Noise::new(view.seed).bits(NODE_SEED_STREAM, within)
    };

    let mut policies: Vec<Box<dyn DutyCyclePolicy>> =
        (0..lanes_n).map(|i| (view.policy)(node_seed(i))).collect();

    // Jittered runs drive the group channel once per window over every
    // lane's jittered snapshot; the per-lane factors replicate the
    // scalar path's per-node derivation.
    let harvest = match shared {
        Some(table) => LaneHarvest::Shared(table),
        None => {
            let factors: Vec<JitterFactors> = (0..lanes_n)
                .map(|i| JitterFactors::derive(view.jitter, node_seed(i)))
                .collect();
            LaneHarvest::Jittered {
                channel: Box::new((view.channel)()),
                factors,
                rows,
            }
        }
    };

    let mut pop = LanePopulation {
        node: view.node,
        output: view.output,
        supervisor_overhead: view.supervisor_overhead,
        monitoring: view.monitoring,
        policies: &mut policies,
    };
    run_lane_population(
        &mut pop,
        solo,
        cap,
        books,
        interp_deviation,
        harvest,
        plan,
        cancel,
        out,
    )
}

/// Steps a policy-lane population of a supercap-store class against a
/// shared harvest table, pushing one [`NodeOutcome`] per lane onto
/// `out` in lane order. Arena-facing analogue of
/// [`simulate_supercap_run`]: lanes are one-per-policy rather than
/// one-per-node.
pub(crate) fn run_supercap_lanes(
    pop: &mut LanePopulation<'_>,
    template: &Supercap,
    tier: DenseSolveTier,
    table: &[HarvestStep],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let mut solo = SupercapLanes::from_template(template, 1);
    let interp_deviation = match tier {
        DenseSolveTier::Interpolated { samples } => solo.set_interpolation(samples),
        _ => 0.0,
    };
    run_lane_population(
        pop,
        solo,
        template.capacity(),
        NodeBooks::open(template.stored_energy(), template.losses()),
        interp_deviation,
        LaneHarvest::Shared(table),
        plan,
        cancel,
        out,
    )
}

/// Steps a policy-lane population of a battery-store class against a
/// shared harvest table. Arena-facing analogue of
/// [`simulate_battery_run`].
pub(crate) fn run_battery_lanes(
    pop: &mut LanePopulation<'_>,
    template: &Battery,
    table: &[HarvestStep],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let solo = BatteryLanes::from_template(template, 1);
    run_lane_population(
        pop,
        solo,
        template.capacity(),
        NodeBooks::open(template.stored_energy(), template.losses()),
        0.0,
        LaneHarvest::Shared(table),
        plan,
        cancel,
        out,
    )
}

/// The generic lane runner: steps one [`LanePopulation`] as a
/// [`StoreLanes`] population, one lane per policy, each lane keeping
/// its own copy of the freshly opened `books`.
///
/// [`LaneHarvest::Shared`] populations replay the class-wide table
/// (cache counters are synthesized exactly as the scalar dense path
/// does: every table read is a replay) and start on the uniform fast
/// path (see the module docs). [`LaneHarvest::Jittered`] populations
/// drive the channel once per window over per-lane jittered snapshots.
///
/// Returns `false` — with no outcomes pushed — when `cancel` trips,
/// checked once per control window.
#[allow(clippy::too_many_arguments)]
fn run_lane_population<L: StoreLanes>(
    pop: &mut LanePopulation<'_>,
    solo: L,
    cap: Joules,
    books: NodeBooks,
    interp_deviation: f64,
    harvest: LaneHarvest<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let lanes_n = pop.policies.len();
    let (node, output, monitoring) = (pop.node, pop.output, pop.monitoring);
    let overhead_w = pop.supervisor_overhead + output.quiescent();

    let empty_rows: &[EnvConditions] = &[];
    let (shared, mut channel, factors, rows) = match harvest {
        LaneHarvest::Shared(table) => (Some(table), None, Vec::new(), empty_rows),
        LaneHarvest::Jittered {
            channel,
            factors,
            rows,
        } => (None, Some(channel), factors, rows),
    };

    // Uniform fast path: un-jittered lanes all start in the template
    // state and read the same table, so step one lane until the
    // policies produce a divergent duty.
    let mut uniform = shared.is_some();
    let mut lanes = if uniform {
        solo
    } else {
        solo.replicate_lane0(lanes_n)
    };
    // Lanes actually stepped this window (1 while uniform).
    let mut active = if uniform { 1 } else { lanes_n };

    let mut books = vec![books; lanes_n];
    // Each lane's latest bus harvest, for its policy's energy status.
    let mut last_harvest = vec![Watts::ZERO; lanes_n];
    // The exact `EnergyStatus` the scalar dense path composes from its
    // store.
    let status = |lanes: &L, i: usize, last_harvest: Watts| {
        let soc_actual = if cap.value() > 0.0 {
            lanes.stored_energy(i) / cap.value()
        } else {
            0.0
        };
        EnergyStatus::full(
            Volts::new(lanes.voltage(i)),
            Ratio::new(soc_actual),
            cap * soc_actual,
            last_harvest,
        )
        .clamped_to(monitoring)
    };

    let mut jenvs: Vec<EnvConditions> = Vec::new();
    let mut whs: Vec<HarvestStep> = vec![HarvestStep::default(); lanes_n];
    let mut fhs: Vec<HarvestStep> = vec![HarvestStep::default(); lanes_n];
    // Each lane's current window operating voltage, held across the
    // fractional closer exactly as a scalar controller holds its last
    // resample.
    let mut held: Vec<Volts> = vec![Volts::ZERO; lanes_n];
    // Channel solves per node (identical for every lane of the run);
    // the remaining `plan.steps − calls` harvest reads are replays.
    let mut calls = 0u64;

    // Per-window scratch from the policy prologue.
    let mut duties: Vec<DutyCycle> = vec![DutyCycle::ZERO; lanes_n];
    let mut loads: Vec<WindowLoad> = Vec::with_capacity(lanes_n);
    // Per-step staging for the batched store transfer.
    let mut e_h_l = vec![Joules::ZERO; lanes_n];
    let mut charge_w = vec![0.0f64; lanes_n];
    let mut discharge_w = vec![0.0f64; lanes_n];
    let mut charged_o = vec![0.0f64; lanes_n];
    let mut discharged_o = vec![0.0f64; lanes_n];
    let mut deficit_l = vec![Joules::ZERO; lanes_n];
    let mut e_load_in_l = vec![Joules::ZERO; lanes_n];
    let mut servable_l = vec![true; lanes_n];

    for window in plan.windows() {
        if tripped(cancel) {
            return false;
        }
        let t_win = plan.time_at(window.start);

        // Policy prologue, per lane. While uniform, every lane's state
        // bit-equals lane 0's, so one status serves all policies — each
        // of which is still driven, so stateful policies evolve exactly
        // as scalar — and the population materializes on the first
        // divergent duty.
        if uniform {
            let timed = status(&lanes, 0, last_harvest[0]).at(t_win);
            let mut diverged = false;
            for i in 0..lanes_n {
                duties[i] = pop.policies[i].choose(node, &timed);
                if duties[i].value().to_bits() != duties[0].value().to_bits() {
                    diverged = true;
                }
            }
            if diverged {
                lanes = lanes.replicate_lane0(lanes_n);
                let (first, rest) = books.split_at_mut(1);
                rest.fill(first[0].clone());
                let first_harvest = last_harvest[0];
                last_harvest.fill(first_harvest);
                active = lanes_n;
                uniform = false;
            }
        } else {
            for i in 0..lanes_n {
                let timed = status(&lanes, i, last_harvest[i]).at(t_win);
                duties[i] = pop.policies[i].choose(node, &timed);
            }
        }
        loads.clear();
        loads.extend(duties[..active].iter().map(|&duty| window.load(node, duty)));

        // Harvest for the window: batched channel solve across lanes
        // (jittered) — the shared-table case reads per step below.
        if let Some(ch) = channel.as_mut() {
            let base = &rows[window.index];
            jenvs.clear();
            jenvs.extend(factors.iter().map(|f| f.apply(base)));
            if window.has_whole_step() {
                ch.window_lanes(&jenvs, plan.dt, &mut whs);
                calls += 1;
                for i in 0..lanes_n {
                    held[i] = whs[i].operating_voltage;
                }
            }
        }

        for step in window.steps() {
            let step_dt = step.dt;
            if step.closer {
                if let Some(ch) = channel.as_mut() {
                    ch.frac_lanes(&jenvs, &held, step_dt, &mut fhs);
                    calls += 1;
                }
            }

            // Pass A — the pre-transfer half of the scalar step: resolve
            // the lane's harvest, read the store voltage, stage the
            // charge/discharge request.
            for i in 0..active {
                let hs: &HarvestStep = match shared {
                    Some(table) => &table[step.index as usize],
                    None if step.closer => &fhs[i],
                    None => &whs[i],
                };
                let load = loads[i].power;

                let harvested_w = hs.delivered;
                let overhead_w = overhead_w + hs.overhead;
                last_harvest[i] = harvested_w;

                let store_v = Volts::new(lanes.voltage(i));
                let (load_in_w, servable) = if load.value() > 0.0 {
                    if output.accepts_input_voltage(store_v) {
                        (output.input_for_output(load, store_v), true)
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

                charge_w[i] = 0.0;
                discharge_w[i] = 0.0;
                deficit_l[i] = Joules::ZERO;
                if e_h >= step_demand {
                    let surplus = e_h - step_demand;
                    if surplus.value() > 0.0 {
                        charge_w[i] = (surplus / step_dt).value();
                    }
                } else {
                    let deficit = step_demand - e_h;
                    if deficit.value() > 0.0 {
                        discharge_w[i] = (deficit / step_dt).value();
                    }
                    deficit_l[i] = deficit;
                }
                e_h_l[i] = e_h;
                e_load_in_l[i] = e_load_in;
                servable_l[i] = servable;
            }

            // Batched transfer + idle: masked passes over the lanes,
            // bit-identical to per-lane `charge`/`discharge`/`idle`
            // (see `SupercapLanes::step` / `BatteryLanes::step`).
            lanes.step(
                &charge_w[..active],
                &discharge_w[..active],
                step_dt.value(),
                &mut charged_o[..active],
                &mut discharged_o[..active],
            );

            // Pass B — the post-transfer half: the shortfall split, then
            // the lane's books.
            for i in 0..active {
                let load = loads[i].power;
                let step_discharged = Joules::new(discharged_o[i]);
                let unmet = (deficit_l[i] - step_discharged).max(Joules::ZERO);
                let e_load_in = e_load_in_l[i];

                let (step_delivered, step_shortfall, step_conv_loss) = if !servable_l[i] {
                    (Joules::ZERO, load * step_dt, Joules::ZERO)
                } else if e_load_in.value() > 0.0 {
                    let load_unmet = unmet.min(e_load_in);
                    let served_in = e_load_in - load_unmet;
                    let served = (served_in / e_load_in).clamp(0.0, 1.0);
                    let full_load = load * step_dt;
                    let step_delivered = full_load * served;
                    (
                        step_delivered,
                        full_load * (1.0 - served),
                        (served_in - step_delivered).max(Joules::ZERO),
                    )
                } else {
                    (Joules::ZERO, Joules::ZERO, Joules::ZERO)
                };

                let report = StepReport {
                    harvested: e_h_l[i],
                    delivered: step_delivered,
                    shortfall: step_shortfall,
                    charged: Joules::new(charged_o[i]),
                    discharged: step_discharged,
                    converter_loss: step_conv_loss,
                    store_voltage: Volts::new(lanes.voltage(i)),
                    ..StepReport::default()
                };
                books[i].record(&report, &loads[i], &step);
            }
        }
    }

    // Per-lane cache synthesis mirrors the scalar dense path: every
    // harvest read beyond the run's own solves is a memoized replay.
    let cache = CacheStats {
        misses: calls,
        hits: plan.steps - calls,
        ..CacheStats::default()
    };
    let close = |books: NodeBooks, i: usize| {
        let mut outcome = books.close(
            Joules::new(lanes.stored_energy(i)),
            Joules::new(lanes.losses(i)),
            Joules::ZERO,
            cache,
        );
        debug_assert!(
            outcome.audit_residual < 1e-6,
            "dense fleet node violated storage conservation: residual {} J",
            outcome.residual_signed
        );
        outcome.interp_deviation = interp_deviation;
        outcome
    };

    if uniform {
        // Never diverged: every member's trajectory is lane 0's.
        out.extend(std::iter::repeat_n(close(books.swap_remove(0), 0), lanes_n));
    } else {
        out.extend(books.into_iter().enumerate().map(|(i, b)| close(b, i)));
    }
    true
}
