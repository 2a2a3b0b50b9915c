//! The step arithmetic, the control-window walk and the energy books
//! that every step loop shares, plus the one fold that sums closed books
//! into fleet and arena summaries.
//!
//! A run is whole `dt` steps plus, when the horizon is not a multiple
//! of `dt`, one fractional closing step, grouped into control windows
//! of `control_interval / dt` steps (rounded, at least one). Each
//! window's policy decision fixes its load; the books record every
//! step's power flow and close with the storage conservation audit.
//!
//! A boxed platform steps through one [`BoxedRun`]: the single-run
//! kernel ([`crate::run_simulation`], which also runs each campaign
//! scenario) steps one over its sampled conditions, each boxed fleet
//! node steps one over its site's condition table, and each boxed arena
//! lane settles one against its seed row's shared harvests. A run
//! opened with observers also reports its window edges and window books
//! to them. The dense lane populations keep one [`NodeBooks`] per lane
//! instead.

use crate::fleet::EnvCadence;
use crate::observe::{SimEvent, SimObserver, WindowBooks};
use crate::platform::Platform;
use crate::runner::{SimConfig, SimResult};
use mseh_core::{BusHarvest, StepReport};
use mseh_env::EnvConditions;
use mseh_harvesters::CacheStats;
use mseh_node::{DutyCyclePolicy, SensorNode};
use mseh_units::{DutyCycle, Joules, Seconds, Volts, Watts};

/// The step and window geometry of one run, derived from its
/// [`SimConfig`] and the condition-sampling cadence.
pub(crate) struct StepPlan {
    pub(crate) dt: Seconds,
    pub(crate) duration: Seconds,
    /// Steps per run, the fractional closer included.
    pub(crate) steps: u64,
    pub(crate) cadence: EnvCadence,
    pub(crate) start_at: Seconds,
    full_steps: u64,
    frac_dt: Option<Seconds>,
    control_every: u64,
}

impl StepPlan {
    /// The plan of `sim` under `cadence`, or why `sim` cannot run: a
    /// `dt` that is not positive and finite, a duration that is not
    /// finite or shorter than one step, a control interval that is not
    /// positive and finite, or more whole steps than fit in a `u64`.
    pub(crate) fn new(sim: SimConfig, cadence: EnvCadence) -> Result<Self, String> {
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
        // Truncate to whole steps and close the horizon with an explicit
        // fractional step: rounding the count would simulate up to half a
        // step past (or short of) the requested span, and ceiling always
        // overshoots. The dust guard keeps exact multiples (e.g. one day of
        // 60 s steps) from growing a ~1e-13 s ghost step.
        let whole = (sim.duration.value() / sim.dt.value()).floor();
        // `u64::MAX as f64` is 2^64; anything below it converts exactly
        // and leaves room for the closer.
        if whole >= u64::MAX as f64 {
            return Err(format!(
                "duration {} at dt {} is {whole:e} whole steps, more than a run can count",
                sim.duration, sim.dt
            ));
        }
        let full_steps = whole as u64;
        let frac_dt = {
            let rem = sim.duration.value() - full_steps as f64 * sim.dt.value();
            (rem > sim.dt.value() * 1e-9).then(|| Seconds::new(rem))
        };
        let control_every = (sim.control_interval.value() / sim.dt.value())
            .round()
            .max(1.0) as u64;
        Ok(Self {
            dt: sim.dt,
            start_at: sim.start_at,
            duration: sim.duration,
            steps: full_steps + u64::from(frac_dt.is_some()),
            cadence,
            full_steps,
            frac_dt,
            control_every,
        })
    }

    #[inline]
    pub(crate) fn time_at(&self, i: u64) -> Seconds {
        self.start_at + Seconds::new(i as f64 * self.dt.value())
    }

    /// The most steps any one window holds.
    pub(crate) fn max_window_len(&self) -> usize {
        self.control_every.min(self.steps) as usize
    }

    /// Sample times for one site's condition table under the plan's
    /// cadence.
    pub(crate) fn table_times(&self) -> Vec<Seconds> {
        match self.cadence {
            EnvCadence::PerStep => (0..self.steps).map(|i| self.time_at(i)).collect(),
            EnvCadence::PerWindow => self.windows().map(|w| self.time_at(w.start)).collect(),
        }
    }

    /// How many control windows [`StepPlan::windows`] yields.
    pub(crate) fn window_count(&self) -> u64 {
        self.steps.div_ceil(self.control_every)
    }

    /// The control windows, in order.
    pub(crate) fn windows(&self) -> impl Iterator<Item = Window> + '_ {
        (0..self.steps)
            .step_by(self.control_every as usize)
            .enumerate()
            .map(move |(index, start)| {
                let end = (start + self.control_every).min(self.steps);
                Window {
                    index,
                    start,
                    end,
                    dt: self.dt,
                    closer: self
                        .frac_dt
                        .filter(|_| end > self.full_steps)
                        .map(|frac| (self.full_steps, frac)),
                    cadence: self.cadence,
                }
            })
    }

    /// When `window` ends: the next window's start, or the horizon.
    pub(crate) fn window_end_time(&self, window: &Window) -> Seconds {
        if window.end == self.steps {
            self.end_time()
        } else {
            self.time_at(window.end)
        }
    }

    /// The horizon: when the run ends.
    pub(crate) fn end_time(&self) -> Seconds {
        self.start_at + self.duration
    }
}

/// One control window: steps `start..end`, whose load the policy fixes
/// at the window's first step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    /// Position in the run: the window's row in a per-window table.
    pub(crate) index: usize,
    pub(crate) start: u64,
    pub(crate) end: u64,
    dt: Seconds,
    /// Index and width of the fractional closer, when it is in here.
    closer: Option<(u64, Seconds)>,
    cadence: EnvCadence,
}

/// One step of a [`Window`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// Step index within the run.
    pub(crate) index: u64,
    pub(crate) dt: Seconds,
    /// Whether this is the fractional closing step.
    pub(crate) closer: bool,
}

impl Window {
    #[inline]
    pub(crate) fn steps(&self) -> impl Iterator<Item = Step> {
        let (dt, closer) = (self.dt, self.closer);
        (self.start..self.end).map(move |index| match closer {
            Some((k, frac)) if k == index => Step {
                index,
                dt: frac,
                closer: true,
            },
            _ => Step {
                index,
                dt,
                closer: false,
            },
        })
    }

    /// Whether the window holds at least one whole `dt` step (only a
    /// window holding nothing but the closer does not).
    pub(crate) fn has_whole_step(&self) -> bool {
        self.closer.is_none_or(|(k, _)| self.start < k)
    }

    /// The conditions row `step` reads from a condition table sampled
    /// at the plan's cadence.
    #[inline]
    pub(crate) fn row<'r>(&self, rows: &'r [EnvConditions], step: &Step) -> &'r EnvConditions {
        match self.cadence {
            EnvCadence::PerStep => &rows[step.index as usize],
            EnvCadence::PerWindow => &rows[self.index],
        }
    }

    /// The conditions this window's steps run on, from a condition
    /// table sampled at the plan's cadence.
    pub(crate) fn ambient<'r>(&self, rows: &'r [EnvConditions]) -> Ambient<'r> {
        match self.cadence {
            EnvCadence::PerStep => Ambient::PerStep(&rows[self.start as usize..self.end as usize]),
            EnvCadence::PerWindow => Ambient::Held(&rows[self.index]),
        }
    }

    /// What `duty` draws in this window.
    pub(crate) fn load(&self, node: &SensorNode, duty: DutyCycle) -> WindowLoad {
        let power = node.average_power(duty);
        WindowLoad {
            duty,
            power,
            samples: node.step(duty, self.dt).samples,
            energy: power * self.dt,
            closer: self
                .closer
                .map(|(_, frac)| (node.step(duty, frac).samples, power * frac)),
        }
    }
}

/// One window's load: its duty, the power that duty draws, and the
/// samples and load energy of a fully served whole step and closer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowLoad {
    pub(crate) duty: DutyCycle,
    pub(crate) power: Watts,
    samples: f64,
    energy: Joules,
    closer: Option<(f64, Joules)>,
}

impl WindowLoad {
    #[inline]
    fn at(&self, step: &Step) -> (f64, Joules) {
        match self.closer {
            Some(closer) if step.closer => closer,
            _ => (self.samples, self.energy),
        }
    }
}

/// The conditions a window's steps run on.
#[derive(Clone, Copy)]
pub(crate) enum Ambient<'a> {
    /// One snapshot per step.
    PerStep(&'a [EnvConditions]),
    /// One snapshot held for every step.
    Held(&'a EnvConditions),
    /// One harvest per step, solved by an identically built platform,
    /// to [`Platform::settle`] against.
    Settle(&'a [BusHarvest]),
}

/// One boxed platform stepped window by window over its plan:
/// [`decide`](Self::decide) opens a window and fixes its load,
/// [`step`](Self::step) runs the window's steps, books them and closes
/// the window, [`close`](Self::close) closes the books. Between windows,
/// [`edit`](Self::edit) hands the platform, as the caller's own type, to
/// a repair.
///
/// A run opened with observers also reports to them: `RunStart`; each
/// window's `WindowStart`, `PolicyChange`, fault poll and
/// `FailoverEngaged` when it opens; the per-step events to the
/// observers that ask; the window's [`WindowBooks`] and `WindowEnd`
/// when it closes; and the run-end fault poll, `FailoverEngaged` and
/// `RunEnd`. A run opened with none builds no events and no window
/// books.
pub(crate) struct BoxedRun<'a, 'o, P: Platform + ?Sized = dyn Platform> {
    platform: &'a mut P,
    policy: &'a mut dyn DutyCyclePolicy,
    node: &'a SensorNode,
    plan: &'a StepPlan,
    books: NodeBooks,
    watch: Option<Watch<'a, 'o>>,
}

impl<'a, 'o, P: Platform + ?Sized> BoxedRun<'a, 'o, P> {
    /// Opens the books on `platform` as it stands, reporting to
    /// `observers` (none for a bare run).
    pub(crate) fn open(
        platform: &'a mut P,
        policy: &'a mut dyn DutyCyclePolicy,
        node: &'a SensorNode,
        plan: &'a StepPlan,
        observers: &'a mut [&'o mut dyn SimObserver],
    ) -> Self {
        let books = NodeBooks::open(platform.total_stored_energy(), platform.storage_losses());
        let watch = (!observers.is_empty()).then(|| {
            Watch::open(
                observers,
                &*platform,
                policy.failover_count(),
                plan.start_at,
            )
        });
        Self {
            platform,
            policy,
            node,
            plan,
            books,
            watch,
        }
    }

    /// Runs `edit` on the platform between windows, before `window`
    /// opens, with the window's start time. Faults accrued up to this
    /// edge are reported before the edit, and what the edit changes is
    /// not reported as one. Stored energy and losses that the edit adds
    /// or removes (a store swapped out, say) move the books' opening
    /// balance, so the audit still closes.
    pub(crate) fn edit(&mut self, window: &Window, edit: impl FnOnce(&mut P, Seconds)) {
        let t = self.plan.time_at(window.start);
        if let Some(watch) = self.watch.as_mut() {
            watch.poll_faults(&*self.platform, t);
        }
        let (stored, losses) = (
            self.platform.total_stored_energy(),
            self.platform.storage_losses(),
        );
        edit(self.platform, t);
        self.books.initial_stored += self.platform.total_stored_energy() - stored;
        self.books.initial_losses += self.platform.storage_losses() - losses;
        if let Some(watch) = self.watch.as_mut() {
            watch.rebaseline(&*self.platform);
        }
    }

    /// The policy's duty for `window`, from the platform's energy status
    /// at the window's first step, and the load it draws.
    pub(crate) fn decide(&mut self, window: &Window) -> WindowLoad {
        let t = self.plan.time_at(window.start);
        let status = self.platform.energy_status().at(t);
        let load = window.load(self.node, self.policy.choose(self.node, &status));
        if let Some(watch) = self.watch.as_mut() {
            watch.open_window(&*self.platform, self.policy.failover_count(), t, &load);
        }
        load
    }

    /// Steps `window` under `load` on `ambient`, booking each step and
    /// then handing its report to `hook`, and closes the window.
    #[inline]
    pub(crate) fn step(
        &mut self,
        window: &Window,
        load: &WindowLoad,
        ambient: Ambient<'_>,
        mut hook: impl FnMut(&Step, &StepReport),
    ) {
        let Self {
            platform,
            plan,
            books,
            watch,
            ..
        } = self;
        // The watch is tested once per window, so an unobserved step
        // pays nothing for it.
        match watch {
            None => step_window(&mut **platform, window, load, ambient, |step, report| {
                books.record(report, load, step);
                hook(step, report);
            }),
            Some(watch) => {
                step_window(&mut **platform, window, load, ambient, |step, report| {
                    books.record(report, load, step);
                    watch.record(plan.time_at(step.index), report);
                    hook(step, report);
                });
                watch.close_window(&**platform, plan.window_end_time(window));
            }
        }
    }

    /// Closes the books against the platform's final state.
    pub(crate) fn close(mut self) -> NodeOutcome {
        if let Some(watch) = self.watch.as_mut() {
            watch.close_run(
                &*self.platform,
                self.policy.failover_count(),
                self.plan.end_time(),
            );
        }
        let platform = self.platform;
        self.books.close(
            platform.total_stored_energy(),
            platform.storage_losses(),
            platform.stranded_energy(),
            platform.kernel_cache_stats(),
        )
    }
}

/// Steps `window` under `load` on `ambient`, handing each step's report
/// to `book`.
#[inline]
fn step_window<P: Platform + ?Sized>(
    platform: &mut P,
    window: &Window,
    load: &WindowLoad,
    ambient: Ambient<'_>,
    mut book: impl FnMut(&Step, &StepReport),
) {
    match ambient {
        Ambient::PerStep(rows) => {
            for (step, env) in window.steps().zip(rows) {
                book(&step, &platform.step(env, step.dt, load.power));
            }
        }
        Ambient::Held(env) => {
            for step in window.steps() {
                let harvest = platform.harvest_held(env, step.dt);
                book(&step, &platform.settle(&harvest, step.dt, load.power));
            }
        }
        Ambient::Settle(harvests) => {
            for (step, harvest) in window.steps().zip(harvests) {
                book(&step, &platform.settle(harvest, step.dt, load.power));
            }
        }
    }
}

/// A [`BoxedRun`]'s observers, the open window's books, and what the
/// window edge compares against: the previous window's duty, and the
/// platform's storage capacity, fault counts and the policy's failover
/// count at the last poll.
struct Watch<'a, 'o> {
    observers: &'a mut [&'o mut dyn SimObserver],
    /// The observers that take per-step events, by position.
    stepped: Vec<usize>,
    window: WindowBooks,
    duty: Option<DutyCycle>,
    capacity: Joules,
    faults: (u64, u64),
    failovers: u64,
}

impl<'a, 'o> Watch<'a, 'o> {
    /// Baselines the polls on `platform` and reports `RunStart`. The
    /// fire count's baseline is the clear count, so every fault still
    /// down as the run opens (one whose window opens at its first
    /// instant, or one left open by an earlier run of the platform)
    /// fires at the first window edge.
    fn open<P: Platform + ?Sized>(
        observers: &'a mut [&'o mut dyn SimObserver],
        platform: &P,
        failovers: u64,
        start: Seconds,
    ) -> Self {
        let stepped = (0..observers.len())
            .filter(|&i| observers[i].wants_step_events())
            .collect();
        let (_, cleared) = platform.fault_counts();
        let mut watch = Self {
            observers,
            stepped,
            window: WindowBooks::open(start, DutyCycle::ZERO, Joules::ZERO, Joules::ZERO),
            duty: None,
            capacity: platform.storage_capacity(),
            faults: (cleared, cleared),
            failovers,
        };
        watch.emit(SimEvent::RunStart { time: start });
        watch
    }

    fn emit(&mut self, event: SimEvent) {
        for obs in self.observers.iter_mut() {
            obs.on_event(&event);
        }
    }

    /// Reports the `FaultFire` and `FaultClear` events accrued since the
    /// last poll, from the platform's fault counters, with its storage
    /// capacity as a fallback signal for unscheduled degradation.
    /// Count-based reporting catches faults that fire *and* clear
    /// inside one control window, which a capacity-drop check alone
    /// cannot see.
    fn poll_faults<P: Platform + ?Sized>(&mut self, platform: &P, t: Seconds) {
        let capacity = platform.storage_capacity();
        let (fires, clears) = platform.fault_counts();
        let lost = (self.capacity - capacity).max(Joules::ZERO);
        let restored = (capacity - self.capacity).max(Joules::ZERO);
        if fires > self.faults.0 {
            // The capacity drop (if any) is attributed to the first new
            // firing; a same-window fire+clear nets to zero capacity
            // change and reports zero.
            for k in 0..fires - self.faults.0 {
                let lost_capacity = if k == 0 { lost } else { Joules::ZERO };
                self.emit(SimEvent::FaultFire {
                    time: t,
                    lost_capacity,
                });
            }
        } else if capacity.value() < self.capacity.value() {
            // No counter moved but capacity still fell: unscheduled
            // degradation that no fault counter reports.
            self.emit(SimEvent::FaultFire {
                time: t,
                lost_capacity: lost,
            });
        }
        for k in 0..clears.saturating_sub(self.faults.1) {
            let restored_capacity = if k == 0 { restored } else { Joules::ZERO };
            self.emit(SimEvent::FaultClear {
                time: t,
                restored_capacity,
            });
        }
        self.capacity = capacity;
        self.faults = (fires, clears);
    }

    /// Takes the platform as it stands as the next poll's baseline.
    fn rebaseline<P: Platform + ?Sized>(&mut self, platform: &P) {
        self.capacity = platform.storage_capacity();
        self.faults = platform.fault_counts();
    }

    /// Reports a window opening at `t` under `load`, and opens its
    /// books.
    fn open_window<P: Platform + ?Sized>(
        &mut self,
        platform: &P,
        failovers: u64,
        t: Seconds,
        load: &WindowLoad,
    ) {
        let duty = load.duty;
        let (stored, losses) = (platform.total_stored_energy(), platform.storage_losses());
        self.emit(SimEvent::WindowStart {
            time: t,
            duty,
            load: load.power,
            stored,
            losses,
        });
        if let Some(from) = self.duty.filter(|&from| from != duty) {
            self.emit(SimEvent::PolicyChange {
                time: t,
                from,
                to: duty,
            });
        }
        self.poll_faults(platform, t);
        if failovers > self.failovers {
            self.emit(SimEvent::FailoverEngaged { time: t, duty });
            self.failovers = failovers;
        }
        self.duty = Some(duty);
        self.window = WindowBooks::open(t, duty, stored, losses);
    }

    /// Books one step that began at `time`, and reports its events to
    /// the observers that take them.
    #[inline]
    fn record(&mut self, time: Seconds, report: &StepReport) {
        self.window.record(report);
        for &i in &self.stepped {
            for event in SimEvent::of_step(time, report) {
                self.observers[i].on_event(&event);
            }
        }
    }

    /// Closes the open window at `end` against the platform's storage.
    fn close_window<P: Platform + ?Sized>(&mut self, platform: &P, end: Seconds) {
        let books = &mut self.window;
        books.stored_end = platform.total_stored_energy();
        books.losses_end = platform.storage_losses();
        let event = SimEvent::WindowEnd {
            time: end,
            stored: books.stored_end,
            losses: books.losses_end,
        };
        for obs in self.observers.iter_mut() {
            obs.on_window(books);
            obs.on_event(&event);
        }
    }

    /// Reports the faults and failovers of the final window, then
    /// `RunEnd`.
    fn close_run<P: Platform + ?Sized>(&mut self, platform: &P, failovers: u64, end: Seconds) {
        self.poll_faults(platform, end);
        if failovers > self.failovers {
            let duty = self.duty.unwrap_or(DutyCycle::ZERO);
            self.emit(SimEvent::FailoverEngaged { time: end, duty });
        }
        self.emit(SimEvent::RunEnd { time: end });
    }
}

/// Everything the summary folds need from one node or lane, in plain
/// scalars so shards stay cheap to ship back.
#[derive(Clone)]
pub(crate) struct NodeOutcome {
    pub(crate) uptime: f64,
    pub(crate) samples: f64,
    pub(crate) harvested: Joules,
    pub(crate) delivered: Joules,
    pub(crate) shortfall: Joules,
    pub(crate) demanded: Joules,
    pub(crate) converter_losses: Joules,
    pub(crate) brownout_steps: u64,
    pub(crate) longest_outage_steps: u64,
    pub(crate) min_store_voltage: Volts,
    pub(crate) audit_residual: f64,
    pub(crate) residual_signed: f64,
    pub(crate) throughput: f64,
    pub(crate) stranded: Joules,
    pub(crate) cache: CacheStats,
}

impl NodeOutcome {
    pub(crate) fn to_sim_result(&self, duration: Seconds) -> SimResult {
        SimResult {
            duration,
            uptime: self.uptime,
            samples: self.samples,
            harvested: self.harvested,
            delivered: self.delivered,
            shortfall: self.shortfall,
            converter_losses: self.converter_losses,
            brownout_steps: self.brownout_steps,
            longest_outage_steps: self.longest_outage_steps,
            min_store_voltage: self.min_store_voltage,
            audit_residual: self.audit_residual,
            traces: None,
        }
    }
}

/// One node's energy books, kept step by step: energy totals,
/// served-fraction-weighted samples, brown-out and outage runs and the
/// minimum store voltage; closed with the storage conservation audit
/// and uptime.
#[derive(Clone)]
pub(crate) struct NodeBooks {
    initial_stored: Joules,
    initial_losses: Joules,
    samples: f64,
    harvested: Joules,
    delivered: Joules,
    shortfall: Joules,
    demanded: Joules,
    charged: Joules,
    discharged: Joules,
    converter_losses: Joules,
    brownout_steps: u64,
    outage_run: u64,
    longest_outage: u64,
    min_v: Volts,
}

impl NodeBooks {
    /// Opens the books on a node holding `stored` (every store, backups
    /// included) with `losses` dissipated so far.
    pub(crate) fn open(stored: Joules, losses: Joules) -> Self {
        Self {
            initial_stored: stored,
            initial_losses: losses,
            samples: 0.0,
            harvested: Joules::ZERO,
            delivered: Joules::ZERO,
            shortfall: Joules::ZERO,
            demanded: Joules::ZERO,
            charged: Joules::ZERO,
            discharged: Joules::ZERO,
            converter_losses: Joules::ZERO,
            brownout_steps: 0,
            outage_run: 0,
            longest_outage: 0,
            min_v: Volts::new(f64::INFINITY),
        }
    }

    /// Books `step`'s report under its window's `load`.
    #[inline]
    pub(crate) fn record(&mut self, report: &StepReport, load: &WindowLoad, step: &Step) {
        let (step_samples, load_energy) = load.at(step);
        self.harvested += report.harvested;
        self.delivered += report.delivered;
        self.shortfall += report.shortfall;
        self.charged += report.charged;
        self.discharged += report.discharged;
        self.converter_losses += report.converter_loss;
        self.demanded += load_energy;

        let served_fraction = if report.shortfall.value() > 0.0 {
            let full = (report.delivered + report.shortfall).value();
            if full > 0.0 {
                report.delivered.value() / full
            } else {
                0.0
            }
        } else {
            1.0
        };
        self.samples += step_samples * served_fraction;

        if !report.fully_served() {
            self.brownout_steps += 1;
            self.outage_run += 1;
            self.longest_outage = self.longest_outage.max(self.outage_run);
        } else {
            self.outage_run = 0;
        }
        self.min_v = self.min_v.min(report.store_voltage);
    }

    /// Closes the books against the node's final stored energy and
    /// losses. The audit residual is reported, not asserted: callers
    /// check it.
    pub(crate) fn close(
        self,
        stored: Joules,
        losses: Joules,
        stranded: Joules,
        cache: CacheStats,
    ) -> NodeOutcome {
        let d_stored = stored - self.initial_stored;
        let d_losses = losses - self.initial_losses;
        let residual_signed = (self.charged - self.discharged - d_losses - d_stored).value();
        let throughput = (self.harvested + self.discharged + self.charged)
            .value()
            .max(1.0);
        NodeOutcome {
            uptime: served_fraction(self.shortfall, self.demanded),
            samples: self.samples,
            harvested: self.harvested,
            delivered: self.delivered,
            shortfall: self.shortfall,
            demanded: self.demanded,
            converter_losses: self.converter_losses,
            brownout_steps: self.brownout_steps,
            longest_outage_steps: self.longest_outage,
            min_store_voltage: self.min_v,
            audit_residual: residual_signed.abs() / throughput,
            residual_signed,
            throughput,
            stranded,
            cache,
        }
    }
}

/// The energy-weighted served fraction `1 − shortfall / demanded`
/// (clamped; `1` when nothing was demanded): a node's uptime, and the
/// served fraction of any total.
pub(crate) fn served_fraction(shortfall: Joules, demanded: Joules) -> f64 {
    if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Percentiles of a per-node (or per-seed) uptime distribution,
/// nearest-rank.
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

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Closed books summed in the order they are added: a fleet's
/// population in node order, one arena contender across its seeds, or
/// a whole arena in seed-major lane order. Floating-point totals depend
/// on that order, so callers fix it.
pub(crate) struct OutcomeTotals {
    pub(crate) harvested: Joules,
    pub(crate) delivered: Joules,
    pub(crate) shortfall: Joules,
    pub(crate) demanded: Joules,
    pub(crate) converter_losses: Joules,
    pub(crate) stranded: Joules,
    pub(crate) samples: f64,
    pub(crate) brownout_steps: u64,
    pub(crate) longest_outage_steps: u64,
    pub(crate) min_store_voltage: Volts,
    /// Outcomes with no brown-out step.
    pub(crate) energy_neutral: u64,
    pub(crate) worst_audit: f64,
    pub(crate) cache: CacheStats,
    /// Each outcome's uptime, in order.
    pub(crate) uptimes: Vec<f64>,
    residual_signed: f64,
    throughput: f64,
}

impl OutcomeTotals {
    pub(crate) fn new() -> Self {
        Self {
            harvested: Joules::ZERO,
            delivered: Joules::ZERO,
            shortfall: Joules::ZERO,
            demanded: Joules::ZERO,
            converter_losses: Joules::ZERO,
            stranded: Joules::ZERO,
            samples: 0.0,
            brownout_steps: 0,
            longest_outage_steps: 0,
            min_store_voltage: Volts::new(f64::INFINITY),
            energy_neutral: 0,
            worst_audit: 0.0,
            cache: CacheStats::default(),
            uptimes: Vec::new(),
            residual_signed: 0.0,
            throughput: 0.0,
        }
    }

    pub(crate) fn add(&mut self, o: &NodeOutcome) {
        self.harvested += o.harvested;
        self.delivered += o.delivered;
        self.shortfall += o.shortfall;
        self.demanded += o.demanded;
        self.converter_losses += o.converter_losses;
        self.stranded += o.stranded;
        self.samples += o.samples;
        self.brownout_steps += o.brownout_steps;
        self.longest_outage_steps = self.longest_outage_steps.max(o.longest_outage_steps);
        self.min_store_voltage = self.min_store_voltage.min(o.min_store_voltage);
        self.energy_neutral += u64::from(o.brownout_steps == 0);
        self.worst_audit = self.worst_audit.max(o.audit_residual);
        self.cache.merge(o.cache);
        self.uptimes.push(o.uptime);
        self.residual_signed += o.residual_signed;
        self.throughput += o.throughput;
    }

    /// Energy-weighted served fraction of the totals.
    pub(crate) fn served_fraction(&self) -> f64 {
        served_fraction(self.shortfall, self.demanded)
    }

    /// The uptime percentile ladder and mean. Needs at least one
    /// outcome.
    pub(crate) fn uptime(&self) -> UptimePercentiles {
        let mut sorted = self.uptimes.clone();
        sorted.sort_by(f64::total_cmp);
        UptimePercentiles {
            min: sorted[0],
            p05: percentile(&sorted, 0.05),
            p25: percentile(&sorted, 0.25),
            p50: percentile(&sorted, 0.50),
            p75: percentile(&sorted, 0.75),
            p95: percentile(&sorted, 0.95),
            max: sorted[sorted.len() - 1],
            mean: self.uptimes.iter().sum::<f64>() / self.uptimes.len() as f64,
        }
    }

    /// The aggregate conservation audit: |Σ signed residuals| over total
    /// storage throughput. `Err` when `what`'s books do not close below
    /// 1e-6 (or the audit is NaN).
    pub(crate) fn audit(&self, what: &str) -> Result<f64, String> {
        let audit_relative = self.residual_signed.abs() / self.throughput.max(1.0);
        if audit_relative.is_nan() || audit_relative >= 1e-6 {
            return Err(format!(
                "{what} energy books do not close: conservation residual {} J \
                 ({audit_relative:.3e} of storage throughput, limit 1e-6)",
                self.residual_signed
            ));
        }
        Ok(audit_relative)
    }
}
