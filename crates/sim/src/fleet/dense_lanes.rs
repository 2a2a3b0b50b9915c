//! Struct-of-arrays stepping for lane populations of one dense class.
//!
//! A shard-local run of a class's fleet members, or an arena seed row's
//! policy lanes, becomes a lane population: stored state, losses and
//! staged energy targets live in contiguous `Vec<f64>`s
//! ([`SupercapLanes`] for supercap buffers, [`BatteryLanes`] for battery
//! buffers) and the per-step store updates execute as masked whole-lane
//! passes instead of one `Storage` call per node. Harvest solves batch
//! the same way: un-jittered populations replay the class-wide harvest
//! table ([`super::build_harvest_table`]), jittered ones drive the class
//! channel's [`mseh_power::InputChannel::window_lanes`] once per control
//! window across every lane's jittered snapshot.
//!
//! [`run_lanes`] is the one entry: it takes the [`DenseClass`], one
//! policy per lane and a [`LaneHarvest`], and steps the lanes
//! generically over the store lane type ([`StoreLanes`]). The
//! fleet derives the policies from a group factory and per-node seeds;
//! the arena supplies one per contender.
//!
//! # Uniform fast path
//!
//! An un-jittered run starts with every lane in the template state,
//! reading the same shared harvest table. While every lane's policy
//! returns bit-identical duties the trajectories cannot diverge, so the
//! runner steps a single representative lane (every policy is still
//! driven each window — policy state must evolve exactly as it would
//! alone) and materializes the full population from it on the first
//! divergent duty ([`StoreLanes::replicate_lane0`]). Homogeneous-policy
//! groups collapse to one lane of arithmetic; heterogeneous groups pay at
//! most one window of single-lane work before falling back to full-width
//! stepping. Jittered runs never take the fast path (their harvests
//! differ per lane from the first window).
//!
//! # Bit-identity
//!
//! The lanes keep only the window walk and the batching; every energy
//! they book comes from a function the boxed `PowerUnit` also calls.
//! The bus balance of each lane-step is a [`BusBalance`], the type
//! `PowerUnit::settle` balances with, and the store passes run the same
//! per-cell arithmetic as the scalar `Storage` calls (see
//! [`StoreLanes`]). Each lane's iterates are independent of its
//! companions, so the result is bit-identical to the boxed `PowerUnit`
//! *and* independent of how shards split a group into runs. The uniform
//! fast path preserves this: a one-lane population's iterates equal any
//! lane of a wider one. The fleet and differential tests assert all of
//! it.

use super::{DenseClass, DenseStore};
use crate::cancel::{tripped, CancelToken};
use crate::steps::{NodeBooks, NodeOutcome, StepPlan, WindowLoad};
use mseh_core::{BusBalance, StoreReading};
use mseh_env::{EnvConditions, JitterFactors};
use mseh_harvesters::CacheStats;
use mseh_node::{DutyCyclePolicy, SensorNode};
use mseh_power::{HarvestStep, InputChannel, PowerStage};
use mseh_storage::{BatteryLanes, Storage, StoreLanes, SupercapLanes};
use mseh_units::{DutyCycle, Joules, Volts, Watts};

/// Where a lane population's harvests come from.
pub(crate) enum LaneHarvest<'a> {
    /// Every lane replays one class-wide per-step harvest table; each
    /// lane books every table read as a memoized replay. Populations in
    /// this mode start on the uniform fast path.
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

/// The one entry to the lane kernels: steps one lane per policy of
/// `class`, pushing one [`NodeOutcome`] per lane onto `out` in lane
/// order.
///
/// Returns `false` — with no outcomes pushed — when `cancel` trips,
/// checked once per control window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_lanes(
    class: &DenseClass,
    node: &SensorNode,
    policies: &mut [Box<dyn DutyCyclePolicy>],
    harvest: LaneHarvest<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    match &class.store {
        DenseStore::Supercap(template) => run_lane_population(
            class,
            node,
            policies,
            harvest,
            plan,
            cancel,
            out,
            SupercapLanes::from_template(template, 1),
            template,
        ),
        DenseStore::Battery(template) => run_lane_population(
            class,
            node,
            policies,
            harvest,
            plan,
            cancel,
            out,
            BatteryLanes::from_template(template, 1),
            template,
        ),
    }
}

/// The generic lane runner behind [`run_lanes`]: steps the lanes as a
/// [`StoreLanes`] population cloned from the store template (`solo`
/// holds one lane of it), one lane per policy, each keeping its own
/// books.
///
/// [`LaneHarvest::Shared`] populations replay the class-wide table
/// (every table read books a replay hit) and start on the uniform fast
/// path (see the module docs). [`LaneHarvest::Jittered`] populations
/// drive the channel once per window over per-lane jittered snapshots.
#[allow(clippy::too_many_arguments)]
fn run_lane_population<L: StoreLanes>(
    class: &DenseClass,
    node: &SensorNode,
    policies: &mut [Box<dyn DutyCyclePolicy>],
    harvest: LaneHarvest<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
    solo: L,
    template: &dyn Storage,
) -> bool {
    let lanes_n = policies.len();
    let (output, monitoring) = (&class.output, class.monitoring);
    // The class's supervisor draws nothing, so the unit's housekeeping
    // is the output stage's quiescent draw plus the channel's overhead.
    let quiescent_w = output.quiescent();
    let cap = template.capacity();

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

    let mut books = vec![NodeBooks::open(template.stored_energy(), template.losses()); lanes_n];
    // Each lane's latest bus harvest, for its policy's energy status.
    let mut last_harvest = vec![Watts::ZERO; lanes_n];
    // The status the class's `PowerUnit` reports for its one primary
    // store, whose recognized (commissioning) capacity is the device's,
    // read with no sense ADC, which a class never has.
    let reading = |lanes: &L, i: usize, harvest: Watts| StoreReading {
        voltage: Volts::new(lanes.voltage(i)),
        stored: Joules::new(lanes.stored_energy(i)),
        capacity: cap,
        recognized_capacity: cap,
        harvest,
        monitoring,
        sense_adc: None,
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
    // Per-step staging for the batched store transfer: each lane's bus
    // balance, and the store requests and answers as plain slices.
    let mut balances: Vec<BusBalance> = Vec::with_capacity(lanes_n);
    let mut charge_w = vec![0.0f64; lanes_n];
    let mut discharge_w = vec![0.0f64; lanes_n];
    let mut charged_o = vec![0.0f64; lanes_n];
    let mut discharged_o = vec![0.0f64; lanes_n];

    for window in plan.windows() {
        if tripped(cancel) {
            return false;
        }
        let t_win = plan.time_at(window.start);

        // Policy prologue, per lane. While uniform, every lane's state
        // bit-equals lane 0's, so one status serves all policies — each
        // of which is still driven, so stateful policies evolve exactly
        // as they would alone — and the population materializes on the
        // first divergent duty.
        if uniform {
            let timed = reading(&lanes, 0, last_harvest[0]).status().at(t_win);
            let mut diverged = false;
            for i in 0..lanes_n {
                duties[i] = policies[i].choose(node, &timed);
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
                let timed = reading(&lanes, i, last_harvest[i]).status().at(t_win);
                duties[i] = policies[i].choose(node, &timed);
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

            // Pass A — `PowerUnit::settle` up to the store transfer:
            // resolve the lane's harvest, balance it on the bus, stage
            // the store request.
            balances.clear();
            for i in 0..active {
                let hs: &HarvestStep = match shared {
                    Some(table) => &table[step.index as usize],
                    None if step.closer => &fhs[i],
                    None => &whs[i],
                };
                last_harvest[i] = hs.delivered;
                let bus = BusBalance::new(
                    output,
                    hs.delivered,
                    quiescent_w + hs.overhead,
                    loads[i].power,
                    Volts::new(lanes.voltage(i)),
                    step_dt,
                );
                charge_w[i] = bus.charge_request().map_or(0.0, Watts::value);
                discharge_w[i] = bus.discharge_request().map_or(0.0, Watts::value);
                balances.push(bus);
            }

            // Batched transfer + idle: masked passes over the lanes.
            lanes.step(
                &charge_w[..active],
                &discharge_w[..active],
                step_dt.value(),
                &mut charged_o[..active],
                &mut discharged_o[..active],
            );

            // Pass B — the rest of `settle`: book the store's answer
            // (one of the two is zero), report, then the lane's books.
            for (i, &bus) in balances.iter().enumerate() {
                let mut bus = bus;
                bus.book(Joules::new(charged_o[i]));
                bus.book(Joules::new(discharged_o[i]));
                let report = bus.report(Volts::new(lanes.voltage(i)));
                books[i].record(&report, &loads[i], &step);
            }
        }
    }

    // Every harvest read beyond the run's own solves is a memoized
    // replay.
    let cache = CacheStats {
        misses: calls,
        hits: plan.steps - calls,
        ..CacheStats::default()
    };
    let close = |books: NodeBooks, i: usize| {
        let outcome = books.close(
            Joules::new(lanes.stored_energy(i)),
            Joules::new(lanes.losses(i)),
            Joules::ZERO,
            cache,
        );
        debug_assert!(
            outcome.audit_residual < 1e-6,
            "dense lane violated storage conservation: residual {} J",
            outcome.residual_signed
        );
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
