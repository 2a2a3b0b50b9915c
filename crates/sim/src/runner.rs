//! The simulation runner: drives a [`Platform`] + node + policy against an
//! environment, sampling its conditions window by window, recording time
//! series and enforcing energy conservation. The stepping, the books and
//! the observers' window edge belong to [`crate::steps`]'s `BoxedRun`;
//! the runner adds the condition sampling, the traces, run control
//! (cancellation and per-window progress) and the campaign's edge hook.

use crate::cancel::{tripped, uncontrolled, RunControl};
use crate::fleet::EnvCadence;
use crate::observe::SimObserver;
use crate::platform::Platform;
use crate::steps::{Ambient, BoxedRun, StepPlan};
use mseh_env::{EnvConditions, EnvSampler, Trace};
use mseh_node::{DutyCyclePolicy, SensorNode};
use mseh_units::{Joules, Seconds, Volts};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Step width (quasi-static power-flow per step).
    pub dt: Seconds,
    /// Total simulated span.
    pub duration: Seconds,
    /// Simulation time at which the run begins (lets consecutive runs on
    /// the same platform continue through the environment's calendar
    /// instead of replaying day zero).
    pub start_at: Seconds,
    /// How often the node's policy re-decides its duty cycle.
    pub control_interval: Seconds,
    /// Whether to record full time series (store voltage, harvest, duty).
    pub record: bool,
}

impl SimConfig {
    /// One week at 60 s steps, 10-minute control windows, no recording.
    pub fn week() -> Self {
        Self::over(Seconds::from_days(7.0))
    }

    /// Custom span at 60 s steps, starting at simulation time zero.
    pub fn over(duration: Seconds) -> Self {
        Self {
            dt: Seconds::new(60.0),
            duration,
            start_at: Seconds::ZERO,
            control_interval: Seconds::from_minutes(10.0),
            record: false,
        }
    }

    /// Shifts the run's start time (continuing a platform through the
    /// environment's calendar across multiple runs).
    pub fn starting_at(mut self, start: Seconds) -> Self {
        self.start_at = start;
        self
    }

    /// Why this config cannot run, if it cannot: a `dt` that is not
    /// positive and finite, a duration that is not finite or shorter
    /// than one step, a control interval that is not positive and
    /// finite, or more whole steps than fit in a `u64`. Every run kind
    /// applies this check.
    pub fn check(&self) -> Result<(), String> {
        StepPlan::new(*self, EnvCadence::PerStep).map(|_| ())
    }
}

/// Recorded time series from a run (present when
/// [`SimConfig::record`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTraces {
    /// Store terminal voltage over time.
    pub store_voltage: Trace,
    /// Harvested bus power over time (per-step average).
    pub harvest_power: Trace,
    /// Duty cycle chosen by the policy over time.
    pub duty: Trace,
}

/// Aggregate results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total simulated time.
    pub duration: Seconds,
    /// Fraction of load energy actually served.
    pub uptime: f64,
    /// Data samples produced (scaled by served fraction per step).
    pub samples: f64,
    /// Total bus energy harvested.
    pub harvested: Joules,
    /// Total energy delivered to the load.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Total output-stage conversion loss while serving the load.
    pub converter_losses: Joules,
    /// Number of steps with any shortfall.
    pub brownout_steps: u64,
    /// Longest run of consecutive brown-out steps.
    pub longest_outage_steps: u64,
    /// Minimum store voltage seen.
    pub min_store_voltage: Volts,
    /// Residual of the storage conservation audit, as a fraction of
    /// total throughput (should be ≈0; asserted below 1e-6 in debug).
    pub audit_residual: f64,
    /// Recorded traces, when enabled.
    pub traces: Option<SimTraces>,
}

impl SimResult {
    /// Whether the run had zero unserved load.
    pub fn zero_downtime(&self) -> bool {
        self.brownout_steps == 0
    }
}

/// Runs `platform` + `node` + `policy` against `env` under `config`.
///
/// Each step: (control window edge) the policy reads the platform's
/// energy status and picks a duty cycle → the node's average power at
/// that duty becomes the load → the platform moves power.
///
/// # Energy conservation
///
/// The runner audits the storage identity
/// `charged − discharged − losses = Δstored` accumulated over the whole
/// run. The residual, relative to storage throughput, is returned in
/// [`SimResult::audit_residual`] and asserted small when debug
/// assertions are on.
///
/// # Panics
///
/// With [`SimConfig::check`]'s message when `config` cannot run;
/// [`run_simulation_controlled`] returns it as `Err` instead.
///
/// # Examples
///
/// ```
/// use mseh_sim::{run_simulation, SimConfig};
/// use mseh_core::{PowerUnit, StoreRole, PortRequirement};
/// use mseh_power::DcDcConverter;
/// use mseh_storage::Supercap;
/// use mseh_node::{SensorNode, FixedDuty};
/// use mseh_env::Environment;
/// use mseh_units::{DutyCycle, Seconds, Volts};
///
/// let mut cap = Supercap::edlc_22f();
/// cap.set_voltage(Volts::new(2.5));
/// let mut unit = PowerUnit::builder("quick")
///     .store_port(
///         PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
///         Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
///     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///     .build();
/// let result = run_simulation(
///     &mut unit,
///     &Environment::indoor_office(1),
///     &SensorNode::submilliwatt_class(),
///     &mut FixedDuty::new(DutyCycle::saturating(0.05)),
///     SimConfig::over(Seconds::from_hours(2.0)),
/// );
/// assert!(result.uptime > 0.9);
/// ```
pub fn run_simulation(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
) -> SimResult {
    run_simulation_observed(platform, env, node, policy, config, &mut [])
}

/// [`run_simulation`] with an attached set of [`SimObserver`]s.
///
/// Every observer receives the edge events through
/// [`on_event`](SimObserver::on_event): run and control-window
/// boundaries, a `PolicyChange` whenever the duty choice moves between
/// windows, `FaultFire`/`FaultClear` from the platform's fault counters
/// and storage capacity, and `FailoverEngaged` when the policy's
/// failover count moves (all polled at window granularity, so a
/// mid-window fault is reported at the next window edge or at run end).
/// Each closed window's flows arrive once, summed, through
/// [`on_window`](SimObserver::on_window). Observers whose
/// [`wants_step_events`](SimObserver::wants_step_events) is `true` also
/// receive each step's `Harvest`/`ConversionLoss`, and
/// `StoreCharge`/`StoreDischarge`/`Shortfall` when non-zero, as the step
/// happens.
///
/// Passing an empty slice is exactly [`run_simulation`]: the kernel
/// builds no events and no window books, so the bare hot loop pays
/// nothing for observability. It panics as [`run_simulation`] does.
pub fn run_simulation_observed(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
    observers: &mut [&mut dyn SimObserver],
) -> SimResult {
    let control = RunControl::default();
    let result = run_simulation_controlled(platform, env, node, policy, config, observers, control);
    uncontrolled(result)
}

/// [`run_simulation_observed`] as a daemon-facing entry point: a config
/// that [`SimConfig::check`] rejects comes back as `Err` with that
/// message instead of a panic, and a [`RunControl`] supplies optional
/// cooperative cancellation and progress reporting.
///
/// The token is checked once per control window; a tripped token makes
/// the kernel stop before starting the next window and return
/// `Ok(None)` (partial results are discarded, never returned torn).
/// Progress is reported once per window as `(windows closed, windows
/// in the run)`, so the last report is the run's window count. An
/// un-cancelled run returns exactly what [`run_simulation_observed`]
/// would: both checkpoints are read-only branches, so results are
/// bit-identical.
pub fn run_simulation_controlled(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
    observers: &mut [&mut dyn SimObserver],
    control: RunControl<'_>,
) -> Result<Option<SimResult>, String> {
    run_simulation_core(
        platform, env, node, policy, config, observers, control, None,
    )
}

/// The kernel behind every single run and campaign scenario: `Err` when
/// `config` cannot run, `Ok(None)` when `control`'s token trips. `edge`,
/// when given, runs at every control-window edge with the platform, as
/// the caller's own type, and the edge's time: after the edge's fault
/// poll, before the policy decides. The poll is then re-baselined on
/// the platform the hook leaves, so a repair is not reported as a fault.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn run_simulation_core<P: Platform + ?Sized>(
    platform: &mut P,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
    observers: &mut [&mut dyn SimObserver],
    control: RunControl<'_>,
    mut edge: Option<&mut dyn FnMut(&mut P, Seconds)>,
) -> Result<Option<SimResult>, String> {
    let plan = StepPlan::new(config, EnvCadence::PerStep)?;
    let windows = plan.window_count();
    let mut run = BoxedRun::open(platform, policy, node, &plan, observers);

    let mut traces = config.record.then(|| SimTraces {
        store_voltage: Trace::with_capacity("store_voltage_v", plan.steps as usize),
        harvest_power: Trace::with_capacity("harvest_power_w", plan.steps as usize),
        duty: Trace::with_capacity("duty_cycle", plan.steps as usize),
    });

    // The loop advances one control window at a time: the policy's duty
    // choice — and everything derived purely from it (the node's average
    // load and per-step demand) — is loop-invariant inside a window, so
    // it is computed once on the window edge instead of every step.
    // Ambient conditions for the whole window are sampled in one
    // batched `conditions_into` call so samplers can amortize per-step
    // trig/noise setup.
    let window_cap = plan.max_window_len();
    let mut times: Vec<Seconds> = Vec::with_capacity(window_cap);
    let mut conditions: Vec<EnvConditions> = Vec::with_capacity(window_cap);

    for window in plan.windows() {
        // Cancellation checkpoint: at most one control window of work
        // happens after the token trips, and a cancelled run never
        // returns a torn partial result.
        if tripped(control.cancel) {
            return Ok(None);
        }
        if let Some(edge) = edge.as_mut() {
            run.edit(&window, edge);
        }
        let load = run.decide(&window);

        times.clear();
        times.extend(window.steps().map(|step| plan.time_at(step.index)));
        env.conditions_into(&times, &mut conditions);

        run.step(
            &window,
            &load,
            Ambient::PerStep(&conditions),
            |step, report| {
                if let Some(tr) = traces.as_mut() {
                    let t = plan.time_at(step.index);
                    tr.store_voltage.push(t, report.store_voltage.value());
                    tr.harvest_power
                        .push(t, (report.harvested / step.dt).value());
                    tr.duty.push(t, load.duty.value());
                }
            },
        );
        if let Some(report) = control.progress {
            report(window.index as u64 + 1, windows);
        }
    }

    let outcome = run.close();
    debug_assert!(
        outcome.audit_residual < 1e-6,
        "storage conservation violated: residual {} J",
        outcome.residual_signed
    );
    Ok(Some(SimResult {
        traces,
        ..outcome.to_sim_result(config.duration)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole};
    use mseh_env::Environment;
    use mseh_harvesters::PvModule;
    use mseh_node::FixedDuty;
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::DutyCycle;

    fn solar_unit() -> PowerUnit {
        let channel = InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        );
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.8));
        PowerUnit::builder("solar test")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(channel),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(cap)),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    }

    #[test]
    fn day_run_harvests_and_serves() {
        let mut unit = solar_unit();
        let env = Environment::outdoor_temperate(3);
        let node = SensorNode::submilliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let result = run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig::over(Seconds::from_days(1.0)),
        );
        assert!(result.harvested.value() > 10.0, "{:?}", result.harvested);
        assert!(result.uptime > 0.9, "uptime {}", result.uptime);
        assert!(result.samples > 0.0);
        assert!(result.audit_residual < 1e-6);
    }

    #[test]
    fn recording_produces_traces() {
        let mut unit = solar_unit();
        let env = Environment::outdoor_temperate(3);
        let node = SensorNode::submilliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let result = run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig {
                record: true,
                ..SimConfig::over(Seconds::from_days(1.0))
            },
        );
        let traces = result.traces.expect("recording enabled");
        assert_eq!(traces.store_voltage.len(), 1440);
        assert_eq!(traces.harvest_power.len(), 1440);
        // Noon harvest exceeds midnight harvest.
        let noon = traces.harvest_power.sample(Seconds::from_hours(12.5));
        let night = traces.harvest_power.sample(Seconds::from_hours(1.0));
        assert!(noon > night, "noon {noon} vs night {night}");
    }

    #[test]
    fn over_demanding_load_causes_brownouts() {
        let mut unit = solar_unit();
        let env = Environment::indoor_office(3); // nearly no PV energy
        let node = SensorNode::milliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::ONE);
        let result = run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig::over(Seconds::from_days(1.0)),
        );
        assert!(result.brownout_steps > 0);
        assert!(!result.zero_downtime());
        assert!(result.uptime < 1.0);
        assert!(result.longest_outage_steps > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let env = Environment::outdoor_temperate(9);
        let node = SensorNode::submilliwatt_class();
        let run = || {
            let mut unit = solar_unit();
            let mut policy = FixedDuty::new(DutyCycle::saturating(0.1));
            run_simulation(
                &mut unit,
                &env,
                &node,
                &mut policy,
                SimConfig::over(Seconds::from_hours(6.0)),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.harvested, b.harvested);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.uptime, b.uptime);
    }

    #[test]
    fn fractional_final_step_closes_the_horizon() {
        // duration = 10.5 dt must simulate exactly 10.5 dt of load — 10
        // full steps plus one half step — not 11 dt (the old ceil) or a
        // rounded count.
        let dt = Seconds::new(60.0);
        let node = SensorNode::submilliwatt_class();
        let run = |duration: Seconds| {
            let mut cap = Supercap::edlc_22f();
            cap.set_voltage(Volts::new(2.5));
            let mut unit = PowerUnit::builder("frac horizon")
                .store_port(
                    PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                    Some(Box::new(cap)),
                    StoreRole::PrimaryBuffer,
                    true,
                )
                .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                .build();
            let mut policy = FixedDuty::new(DutyCycle::ONE);
            run_simulation(
                &mut unit,
                &Environment::indoor_office(1),
                &node,
                &mut policy,
                SimConfig {
                    dt,
                    duration,
                    start_at: Seconds::ZERO,
                    control_interval: Seconds::from_minutes(10.0),
                    record: true,
                },
            )
        };

        let frac = run(Seconds::new(60.0 * 10.5));
        let whole = run(Seconds::new(60.0 * 10.0));
        assert_eq!(frac.uptime, 1.0, "store-fed load must be fully served");
        assert_eq!(whole.uptime, 1.0);

        // 10 full steps + 1 fractional step.
        let traces = frac.traces.expect("recording enabled");
        assert_eq!(traces.store_voltage.len(), 11);
        let last_t = traces.store_voltage.iter().last().unwrap().0;
        assert_eq!(last_t, Seconds::new(60.0 * 10.0));

        // Served energy scales with the true horizon: exactly 5% more
        // than the 10-step run, not 10% (which ceil would give).
        let ratio = frac.delivered.value() / whole.delivered.value();
        assert!((ratio - 1.05).abs() < 1e-9, "delivered ratio {ratio}");
        let sample_ratio = frac.samples / whole.samples;
        assert!(
            (sample_ratio - 1.05).abs() < 1e-9,
            "samples ratio {sample_ratio}"
        );

        // Exact multiples grow no ghost step.
        let exact = run(Seconds::from_days(1.0));
        assert_eq!(exact.traces.expect("recording").store_voltage.len(), 1440);
    }

    #[test]
    fn cancellable_run_matches_plain_run_and_honours_the_token() {
        let env = Environment::outdoor_temperate(5);
        let node = SensorNode::submilliwatt_class();
        let config = SimConfig::over(Seconds::from_hours(4.0));

        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let plain = run_simulation(&mut unit, &env, &node, &mut policy, config);

        let token = CancelToken::new();
        let control = RunControl {
            cancel: Some(&token),
            progress: None,
        };
        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let cancellable = run_simulation_controlled(
            &mut unit,
            &env,
            &node,
            &mut policy,
            config,
            &mut [],
            control,
        )
        .expect("a valid config")
        .expect("token never tripped");
        assert_eq!(plain, cancellable);

        // A pre-tripped token stops the run before any window.
        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        token.cancel();
        let cancelled = run_simulation_controlled(
            &mut unit,
            &env,
            &node,
            &mut policy,
            config,
            &mut [],
            control,
        );
        assert_eq!(cancelled, Ok(None));
    }

    #[test]
    fn controlled_run_reports_every_window_once_and_matches_the_plain_run() {
        let env = Environment::outdoor_temperate(5);
        let node = SensorNode::submilliwatt_class();
        // A dust remainder that grows no closer (1440 steps), a
        // fractional closer (14 whole steps and 0.4 of one) and a whole
        // horizon, at ten steps per window.
        for (days, windows) in [(1.000_000_000_000_1, 144), (0.01, 2), (1.0, 144)] {
            let config = SimConfig::over(Seconds::from_days(days));
            let mut unit = solar_unit();
            let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
            let plain = run_simulation(&mut unit, &env, &node, &mut policy, config);

            let reports = std::sync::Mutex::new(Vec::new());
            let record = |done, total| reports.lock().unwrap().push((done, total));
            let control = RunControl {
                cancel: None,
                progress: Some(&record),
            };
            let mut unit = solar_unit();
            let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
            let controlled = run_simulation_controlled(
                &mut unit,
                &env,
                &node,
                &mut policy,
                config,
                &mut [],
                control,
            )
            .expect("a valid config")
            .expect("no token");
            // `Debug` prints each float's shortest round trip, so equal
            // text is equal bits (where `==` lets 0.0 match -0.0).
            assert_eq!(format!("{plain:?}"), format!("{controlled:?}"), "{days} d");
            let expected: Vec<(u64, u64)> = (1..=windows).map(|k| (k, windows)).collect();
            assert_eq!(reports.into_inner().unwrap(), expected, "{days} d");
        }
    }

    #[test]
    fn controlled_run_returns_the_message_the_plain_run_panics_with() {
        let env = Environment::outdoor_temperate(1);
        let node = SensorNode::submilliwatt_class();
        let short = SimConfig::over(Seconds::new(30.0));
        let zero_dt = SimConfig {
            dt: Seconds::ZERO,
            ..SimConfig::over(Seconds::new(600.0))
        };
        for config in [short, zero_dt] {
            let mut unit = solar_unit();
            let mut policy = FixedDuty::new(DutyCycle::ZERO);
            let err = run_simulation_controlled(
                &mut unit,
                &env,
                &node,
                &mut policy,
                config,
                &mut [],
                RunControl::default(),
            )
            .expect_err("a config that cannot run");
            assert_eq!(Err(err.clone()), config.check());
            let panic = std::panic::catch_unwind(|| {
                let mut unit = solar_unit();
                let mut policy = FixedDuty::new(DutyCycle::ZERO);
                run_simulation(&mut unit, &env, &node, &mut policy, config)
            })
            .expect_err("the plain run panics");
            assert_eq!(panic.downcast_ref::<String>(), Some(&err));
        }
    }

    #[test]
    #[should_panic(expected = "duration must cover at least one step and be finite")]
    fn rejects_an_endless_horizon() {
        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::ZERO);
        run_simulation(
            &mut unit,
            &Environment::outdoor_temperate(1),
            &SensorNode::submilliwatt_class(),
            &mut policy,
            SimConfig::over(Seconds::new(f64::INFINITY)),
        );
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_zero_dt() {
        let mut unit = solar_unit();
        let env = Environment::outdoor_temperate(1);
        let node = SensorNode::submilliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::ZERO);
        run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig {
                dt: Seconds::ZERO,
                duration: Seconds::new(10.0),
                start_at: Seconds::ZERO,
                control_interval: Seconds::new(1.0),
                record: false,
            },
        );
    }
}
