//! Resilience campaigns: run a platform through N seeded fault
//! scenarios and measure availability.
//!
//! [`run_resilience_campaign`] is the fault-injection counterpart of
//! the seed ensemble: each seed builds a [`FaultScenario`] (platform
//! with injected fault wrappers + environment + policy + the injected
//! [`FaultSchedule`]), the scenarios fan out across the thread pool,
//! and the summary reports the metrics the survey's redundancy argument
//! actually turns on — uptime under k faults, time-to-detect,
//! time-to-recover, energy stranded, longest outage — bit-identical at
//! any thread count.
//!
//! Each scenario is one kernel run, booked like a single run: its
//! uptime, totals and longest outage (one definition, the step books')
//! are exactly what [`crate::run_simulation`] reports for the same
//! scenario, and a horizon that is not a whole number of steps closes
//! with the same fractional step. Every
//! [`CampaignConfig::check_interval`] an optional recovery hook can
//! repair the platform (hot-swap a spare store through the management
//! path), modelling a maintenance visit or an autonomous re-route. Check
//! boundaries fall on control-window edges: the hook runs at the first
//! edge at or after each boundary, before the policy decides that
//! window.

use crate::cancel::{tripped, uncontrolled, CancelToken, RunControl};
use crate::ensemble::Spread;
use crate::fault::FaultSchedule;
use crate::observe::{worst_relative, AuditReport, ConservationAuditor, SimEvent, SimObserver};
use crate::parallel::{par_map_with, resolve_threads};
use crate::platform::Platform;
use crate::runner::{run_simulation_core, SimConfig};
use mseh_env::Environment;
use mseh_node::{DutyCyclePolicy, SensorNode};
use mseh_units::{Joules, Seconds};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a resilience campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// The per-scenario simulation configuration (shared by all seeds).
    pub sim: SimConfig,
    /// Time between recovery checks. Checks fall on control-window
    /// edges: each runs at the first edge at or after its boundary, at
    /// most once per edge, so an interval shorter than a window checks
    /// at every edge. No check runs at the horizon end.
    pub check_interval: Seconds,
    /// Worker threads (`0` = [`crate::thread_count`], which honours
    /// `MSEH_THREADS`). Results are bit-identical at any value.
    pub threads: usize,
}

impl CampaignConfig {
    /// A campaign over `duration` with the default step/control widths,
    /// hourly recovery checks and auto threads.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            check_interval: Seconds::from_hours(1.0),
            threads: 0,
        }
    }

    /// Sets an explicit worker-thread count (`1` runs inline on the
    /// calling thread).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the time between recovery checks.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn with_check_interval(mut self, interval: Seconds) -> Self {
        check_interval(interval).unwrap_or_else(|message| panic!("{message}"));
        self.check_interval = interval;
        self
    }

    /// Why the campaign cannot run, if it cannot: `sim` fails
    /// [`SimConfig::check`] or the check interval is not positive and
    /// finite.
    fn check(&self) -> Result<(), String> {
        self.sim.check()?;
        check_interval(self.check_interval)
    }
}

fn check_interval(interval: Seconds) -> Result<(), String> {
    if interval.value().is_finite() && interval.value() > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "check interval must be positive and finite, got {interval}"
        ))
    }
}

/// One seeded fault scenario: a prepared platform (fault wrappers
/// already injected), its environment and policy, the injected fault
/// timeline (for detection-latency metrics), and an optional recovery
/// hook.
pub struct FaultScenario<P> {
    /// The platform under test, with fault wrappers installed.
    pub platform: P,
    /// The environment driving the scenario.
    pub env: Environment,
    /// The duty-cycle policy (possibly a `FailoverPolicy` wrapper).
    pub policy: Box<dyn DutyCyclePolicy>,
    /// The injected fault timeline, counted from the run start: its
    /// first fault is the one time-to-detect measures (the platform
    /// wrappers hold clones of it).
    pub schedule: FaultSchedule,
    /// Invoked at each recovery check with the platform and the current
    /// simulation time; returns `true` when it performed a repair
    /// (counted as a recovery and as a recovery signal for
    /// time-to-recover).
    #[allow(clippy::type_complexity)]
    pub recovery: Option<Box<dyn FnMut(&mut P, Seconds) -> bool>>,
}

impl<P> FaultScenario<P> {
    /// A scenario with no recovery hook.
    pub fn new(
        platform: P,
        env: Environment,
        policy: Box<dyn DutyCyclePolicy>,
        schedule: FaultSchedule,
    ) -> Self {
        Self {
            platform,
            env,
            policy,
            schedule,
            recovery: None,
        }
    }

    /// Attaches a recovery hook, run at each recovery check.
    pub fn with_recovery(mut self, hook: impl FnMut(&mut P, Seconds) -> bool + 'static) -> Self {
        self.recovery = Some(Box::new(hook));
        self
    }
}

/// Availability metrics from one fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's seed.
    pub seed: u64,
    /// Fraction of demanded load energy served across the horizon.
    pub uptime: f64,
    /// Total energy delivered to the load.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Faults fired across the platform's devices.
    pub faults_fired: u64,
    /// Fired faults that cleared (devices recovered on their own).
    pub faults_cleared: u64,
    /// Times the policy engaged its failover path.
    pub failovers: u64,
    /// Times the recovery hook reported a repair.
    pub recoveries: u64,
    /// Delay from the first injected fault to its detection: the first
    /// `FaultFire` at or after the fault's fire time, which the runner
    /// reports at the first control-window edge (or the run end) at or
    /// after it. Earlier `FaultFire`s come from other wrappers and are
    /// ignored. `None` when the schedule is empty or nothing was
    /// detected.
    pub time_to_detect: Option<Seconds>,
    /// Delay from the detection to the first recovery signal at or after
    /// it (`FaultClear`, `FailoverEngaged`, or a hook repair); `None`
    /// when nothing recovered.
    pub time_to_recover: Option<Seconds>,
    /// Peak energy stranded by active faults, sampled at each recovery
    /// check (before the hook runs) and at the horizon end.
    pub energy_stranded: Joules,
    /// Longest run of brown-out steps times `dt`: the single run's
    /// `longest_outage_steps`, where a step browns out when its
    /// shortfall exceeds 1e-12 J. The fractional closing step, when the
    /// horizon has one, counts as one step.
    pub longest_outage: Seconds,
    /// The per-window conservation audit across the whole scenario,
    /// held through every fault and recovery.
    pub audit: AuditReport,
}

/// Aggregate results of a resilience campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// The seeds, in the order their outcomes appear.
    pub seeds: Vec<u64>,
    /// Per-seed outcomes, seed-aligned.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Uptime across seeds.
    pub uptime: Spread,
    /// Longest outage (seconds) across seeds.
    pub longest_outage_s: Spread,
    /// Peak stranded energy (joules) across seeds.
    pub stranded_j: Spread,
    /// Mean time-to-detect over the seeds where a fault was detected.
    pub mean_time_to_detect: Option<Seconds>,
    /// Mean time-to-recover over the seeds where recovery happened.
    pub mean_time_to_recover: Option<Seconds>,
    /// Faults fired, summed over all scenarios.
    pub total_faults: u64,
    /// Fault clears, summed over all scenarios.
    pub total_clears: u64,
    /// Failover engagements, summed over all scenarios.
    pub total_failovers: u64,
    /// Hook repairs, summed over all scenarios.
    pub total_recoveries: u64,
    /// The worst per-window audit residual across all scenarios (NaN
    /// when any window's books could not be closed).
    pub worst_audit_relative: f64,
}

/// The detection of the injected fault — the first `FaultFire` at or
/// after `injected`, its absolute fire time — and the first recovery
/// signal after it (`FaultClear` or `FailoverEngaged`), from the event
/// stream.
#[derive(Default)]
struct FaultEdges {
    injected: f64,
    detected: Option<f64>,
    first_recovery: Option<f64>,
}

impl SimObserver for FaultEdges {
    fn on_event(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::FaultFire { time, .. } if time.value() >= self.injected => {
                self.detected.get_or_insert(time.value());
            }
            SimEvent::FaultClear { time, .. } | SimEvent::FailoverEngaged { time, .. }
                if self.detected.is_some() =>
            {
                self.first_recovery.get_or_insert(time.value());
            }
            _ => {}
        }
    }
}

/// Runs one prepared scenario as one kernel run, sampling stranded
/// energy and calling the recovery hook at each check edge. Returns
/// `None` when `cancel` trips mid-scenario (checked once per control
/// window); `config` has passed [`CampaignConfig::check`].
fn run_scenario<P: Platform>(
    seed: u64,
    mut scenario: FaultScenario<P>,
    node: &SensorNode,
    config: CampaignConfig,
    cancel: Option<&CancelToken>,
) -> Option<ScenarioOutcome> {
    let sim = config.sim;
    let check = config.check_interval.value();
    let injected = scenario
        .schedule
        .first_fault()
        .map_or(f64::INFINITY, |fire| (sim.start_at + fire).value());
    let mut edges = FaultEdges {
        injected,
        ..FaultEdges::default()
    };
    let mut auditor = ConservationAuditor::new();
    let mut next_check = check;
    let mut peak_stranded = Joules::ZERO;
    let mut repairs: Vec<f64> = Vec::new();
    let recovery = &mut scenario.recovery;
    let result = run_simulation_core(
        &mut scenario.platform,
        &scenario.env,
        node,
        scenario.policy.as_mut(),
        sim,
        &mut [&mut edges, &mut auditor],
        RunControl {
            cancel,
            progress: None,
        },
        Some(&mut |platform: &mut P, now: Seconds| {
            let elapsed = (now - sim.start_at).value();
            if elapsed < next_check {
                return;
            }
            // The first boundary after this edge: one edge serves every
            // boundary it passed.
            next_check = elapsed - elapsed % check + check;
            peak_stranded = peak_stranded.max(platform.stranded_energy());
            if let Some(hook) = recovery.as_mut() {
                if hook(platform, now) {
                    repairs.push(now.value());
                }
            }
        }),
    )
    .expect("the campaign checks its config before any scenario runs")?;
    peak_stranded = peak_stranded.max(scenario.platform.stranded_energy());

    let (faults_fired, faults_cleared) = scenario.platform.fault_counts();
    let time_to_detect = edges.detected.map(|seen| Seconds::new(seen - injected));
    // A repair is a recovery signal once the fault has been detected:
    // the hook runs after its edge's fault poll.
    let first_repair = edges
        .detected
        .and_then(|seen| repairs.iter().copied().find(|&t| t >= seen));
    let first_recovery = edges
        .first_recovery
        .into_iter()
        .chain(first_repair)
        .reduce(f64::min);
    let time_to_recover = edges
        .detected
        .zip(first_recovery)
        .map(|(seen, rec)| Seconds::new(rec - seen));

    Some(ScenarioOutcome {
        seed,
        uptime: result.uptime,
        delivered: result.delivered,
        shortfall: result.shortfall,
        faults_fired,
        faults_cleared,
        failovers: scenario.policy.failover_count(),
        recoveries: repairs.len() as u64,
        time_to_detect,
        time_to_recover,
        energy_stranded: peak_stranded,
        longest_outage: Seconds::new(result.longest_outage_steps as f64 * sim.dt.value()),
        audit: auditor.report(),
    })
}

/// Runs `make_scenario(seed)` for every seed, fanned across
/// [`CampaignConfig::threads`] workers, and aggregates availability
/// metrics.
///
/// Scenarios are pure functions of their seed and every draw is
/// precomputed (the stochastic [`FaultSchedule`] draws at
/// construction), so the summary is bit-for-bit identical at any
/// thread count.
///
/// # Panics
///
/// Panics, before any scenario runs, if `seeds` is empty, `config.sim`
/// cannot run (see [`SimConfig::check`]) or the check interval is not
/// positive and finite. [`run_resilience_campaign_controlled`] returns
/// those as `Err` instead.
///
/// # Examples
///
/// ```
/// use mseh_sim::{
///     run_resilience_campaign, CampaignConfig, FaultScenario, FaultSchedule,
///     IntermittentStorage,
/// };
/// use mseh_core::{PowerUnit, StoreRole, PortRequirement};
/// use mseh_power::DcDcConverter;
/// use mseh_storage::Supercap;
/// use mseh_node::{SensorNode, FixedDuty};
/// use mseh_env::Environment;
/// use mseh_units::{DutyCycle, Seconds, Volts};
///
/// let summary = run_resilience_campaign(
///     &[1, 2, 3],
///     |seed| {
///         let mut cap = Supercap::edlc_22f();
///         cap.set_voltage(Volts::new(2.5));
///         let schedule = FaultSchedule::stochastic(
///             seed,
///             Seconds::from_hours(2.0),
///             Seconds::from_minutes(30.0),
///             Seconds::from_hours(6.0),
///         );
///         let mut unit = PowerUnit::builder("campaign demo")
///             .store_port(
///                 PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
///                 Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
///             .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///             .build();
///         unit.instrument_store(0, |inner| {
///             Box::new(IntermittentStorage::new(inner, schedule.clone()))
///         });
///         FaultScenario::new(
///             unit,
///             Environment::indoor_office(seed),
///             Box::new(FixedDuty::new(DutyCycle::saturating(0.02))),
///             schedule,
///         )
///     },
///     &SensorNode::submilliwatt_class(),
///     CampaignConfig::over(Seconds::from_hours(6.0)),
/// );
/// assert_eq!(summary.outcomes.len(), 3);
/// assert!(summary.total_faults > 0);
/// assert!(summary.worst_audit_relative < 1e-6);
/// ```
pub fn run_resilience_campaign<P, F>(
    seeds: &[u64],
    make_scenario: F,
    node: &SensorNode,
    config: CampaignConfig,
) -> CampaignSummary
where
    P: Platform,
    F: Fn(u64) -> FaultScenario<P> + Sync,
{
    let control = RunControl::default();
    let result = run_resilience_campaign_controlled(seeds, make_scenario, node, config, control);
    uncontrolled(result)
}

/// [`run_resilience_campaign`] as a daemon-facing entry point:
/// validation errors come back as `Err` instead of panicking, and a
/// [`RunControl`] supplies optional cooperative cancellation (`Ok(None)`
/// within one control window of compute per in-flight scenario) and
/// progress reporting (`(completed, total)` scenario counts as workers
/// finish them). An un-cancelled campaign returns exactly
/// [`run_resilience_campaign`]'s summary, bit for bit, at any thread
/// count.
pub fn run_resilience_campaign_controlled<P, F>(
    seeds: &[u64],
    make_scenario: F,
    node: &SensorNode,
    config: CampaignConfig,
    control: RunControl<'_>,
) -> Result<Option<CampaignSummary>, String>
where
    P: Platform,
    F: Fn(u64) -> FaultScenario<P> + Sync,
{
    if seeds.is_empty() {
        return Err("campaign needs at least one seed".into());
    }
    config.check()?;
    let done = AtomicU64::new(0);
    let total = seeds.len() as u64;
    let outcomes = par_map_with(resolve_threads(config.threads), seeds, |&seed| {
        if tripped(control.cancel) {
            return None;
        }
        let outcome = run_scenario(seed, make_scenario(seed), node, config, control.cancel)?;
        if let Some(report) = control.progress {
            report(done.fetch_add(1, Ordering::Relaxed) + 1, total);
        }
        Some(outcome)
    });
    let outcomes: Option<Vec<ScenarioOutcome>> = outcomes.into_iter().collect();
    Ok(outcomes.map(|outcomes| summarize_campaign(seeds, outcomes)))
}

fn summarize_campaign(seeds: &[u64], outcomes: Vec<ScenarioOutcome>) -> CampaignSummary {
    let uptimes: Vec<f64> = outcomes.iter().map(|o| o.uptime).collect();
    let outages: Vec<f64> = outcomes.iter().map(|o| o.longest_outage.value()).collect();
    let stranded: Vec<f64> = outcomes.iter().map(|o| o.energy_stranded.value()).collect();
    let mean_of = |values: Vec<f64>| -> Option<Seconds> {
        if values.is_empty() {
            None
        } else {
            Some(Seconds::new(
                values.iter().sum::<f64>() / values.len() as f64,
            ))
        }
    };
    let detects: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.time_to_detect.map(|t| t.value()))
        .collect();
    let recovers: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.time_to_recover.map(|t| t.value()))
        .collect();
    CampaignSummary {
        seeds: seeds.to_vec(),
        uptime: Spread::of(&uptimes),
        longest_outage_s: Spread::of(&outages),
        stranded_j: Spread::of(&stranded),
        mean_time_to_detect: mean_of(detects),
        mean_time_to_recover: mean_of(recovers),
        total_faults: outcomes.iter().map(|o| o.faults_fired).sum(),
        total_clears: outcomes.iter().map(|o| o.faults_cleared).sum(),
        total_failovers: outcomes.iter().map(|o| o.failovers).sum(),
        total_recoveries: outcomes.iter().map(|o| o.recoveries).sum(),
        worst_audit_relative: worst_relative(outcomes.iter().map(|o| &o.audit)),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::IntermittentStorage;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole};
    use mseh_power::DcDcConverter;
    use mseh_storage::Supercap;
    use mseh_units::{DutyCycle, Volts};

    fn unit_with_fault(schedule: FaultSchedule) -> PowerUnit {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let mut unit = PowerUnit::builder("campaign test")
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(cap)),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
        assert!(unit.instrument_store(0, |inner| {
            Box::new(IntermittentStorage::new(inner, schedule))
        }));
        unit
    }

    fn scenario(seed: u64) -> FaultScenario<PowerUnit> {
        let schedule = FaultSchedule::stochastic(
            seed,
            Seconds::from_hours(1.5),
            Seconds::from_minutes(40.0),
            Seconds::from_hours(6.0),
        );
        FaultScenario::new(
            unit_with_fault(schedule.clone()),
            Environment::indoor_office(seed),
            Box::new(mseh_node::FixedDuty::new(DutyCycle::saturating(0.05))),
            schedule,
        )
    }

    #[test]
    fn campaign_reports_faults_and_stays_conserved() {
        let summary = run_resilience_campaign(
            &[7, 8, 9],
            scenario,
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(6.0)).with_threads(1),
        );
        assert_eq!(summary.outcomes.len(), 3);
        assert!(summary.total_faults > 0, "{summary:?}");
        assert!(summary.worst_audit_relative < 1e-6, "{summary:?}");
        // Detection happens at the window edge after the injected time.
        let detect = summary.mean_time_to_detect.expect("faults detected");
        assert!(detect.value() >= 0.0);
        for outcome in &summary.outcomes {
            assert!(outcome.uptime >= 0.0 && outcome.uptime <= 1.0);
            assert_eq!(
                outcome.faults_fired,
                outcome.faults_cleared + u64::from(outcome.faults_fired > outcome.faults_cleared)
            );
        }
    }

    #[test]
    fn worst_audit_is_nan_when_any_scenario_is() {
        let summary = run_resilience_campaign(
            &[7, 8, 9],
            scenario,
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(2.0)).with_threads(1),
        );
        assert!(summary.worst_audit_relative < 1e-6);
        for poisoned in 0..3 {
            let mut outcomes = summary.outcomes.clone();
            outcomes[poisoned].audit.worst_relative = f64::NAN;
            let summary = summarize_campaign(&summary.seeds, outcomes);
            assert!(summary.worst_audit_relative.is_nan(), "seed {poisoned}");
        }
    }

    #[test]
    fn recovery_hook_runs_between_segments() {
        let mut summary_recoveries = 0;
        // A hook that always claims a repair: one call per check
        // boundary before the horizon end.
        let summary = run_resilience_campaign(
            &[3],
            |seed| scenario(seed).with_recovery(|_unit, _now| true),
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(3.0))
                .with_check_interval(Seconds::from_hours(1.0))
                .with_threads(1),
        );
        summary_recoveries += summary.total_recoveries;
        assert_eq!(summary_recoveries, 2);
    }

    #[test]
    fn cancellable_campaign_matches_plain_and_honours_the_token() {
        let node = SensorNode::submilliwatt_class();
        let config = CampaignConfig::over(Seconds::from_hours(3.0)).with_threads(1);
        let run = |seeds: &[u64], config, control| {
            run_resilience_campaign_controlled(seeds, scenario, &node, config, control)
        };
        let plain = run_resilience_campaign(&[7, 8], scenario, &node, config);
        let token = CancelToken::new();
        let reports = std::sync::Mutex::new(Vec::new());
        let record = |done, total| reports.lock().unwrap().push((done, total));
        let control = RunControl {
            cancel: Some(&token),
            progress: Some(&record),
        };
        let same = run(&[7, 8], config, control)
            .expect("valid config")
            .expect("token never tripped");
        assert_eq!(plain, same);
        assert_eq!(reports.lock().unwrap()[..], [(1, 2), (2, 2)]);

        // A tripped token gives `Ok(None)` at any thread count.
        token.cancel();
        for threads in [1, 2] {
            let cancelled = run(&[7, 8], config.with_threads(threads), control);
            assert_eq!(cancelled, Ok(None), "{threads} threads");
        }

        let empty = run(&[], config, RunControl::default());
        assert!(empty.is_err());

        let endless = run(
            &[7],
            CampaignConfig::over(Seconds::new(f64::INFINITY)),
            RunControl::default(),
        )
        .expect_err("an endless horizon cannot run");
        assert!(endless.contains("be finite"), "{endless}");

        // An interval shorter than a window checks at every window edge
        // after the first: 17 of a 3 h run's 18 ten-minute windows.
        let every_edge = CampaignConfig {
            check_interval: Seconds::new(30.0),
            ..config
        };
        let repaired = |seed| scenario(seed).with_recovery(|_unit, _now| true);
        let summary = run_resilience_campaign_controlled(
            &[7],
            repaired,
            &node,
            every_edge,
            RunControl::default(),
        )
        .expect("a sub-window interval is valid")
        .expect("token never tripped");
        assert_eq!(summary.total_recoveries, 17);
        assert_eq!(
            summary,
            run_resilience_campaign(&[7], repaired, &node, every_edge)
        );

        // Invalid configs are refused before any scenario runs: as an
        // `Err` here, as a panic from the plain entry point.
        let bad_sim = [
            SimConfig::over(Seconds::new(30.0)),
            SimConfig {
                dt: Seconds::ZERO,
                ..config.sim
            },
        ];
        for bad in bad_sim {
            let config = CampaignConfig { sim: bad, ..config };
            let err = run(&[7], config, RunControl::default()).expect_err("a sim that cannot run");
            assert_eq!(Err(err), bad.check());
        }
        for bad in [0.0, -60.0, f64::NAN, f64::INFINITY] {
            let config = CampaignConfig {
                check_interval: Seconds::new(bad),
                ..config
            };
            let err = run(&[7], config, RunControl::default()).expect_err("invalid check interval");
            assert!(
                err.contains("check interval must be positive and finite"),
                "{err}"
            );
            let panic =
                std::panic::catch_unwind(|| run_resilience_campaign(&[7], scenario, &node, config))
                    .expect_err("invalid check interval");
            assert_eq!(panic.downcast_ref::<String>(), Some(&err));
            assert!(
                std::panic::catch_unwind(|| config.with_check_interval(Seconds::new(bad))).is_err()
            );
        }
    }

    #[test]
    #[should_panic(expected = "duration must cover at least one step and be finite")]
    fn rejects_an_endless_horizon() {
        run_resilience_campaign(
            &[3],
            scenario,
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::new(f64::INFINITY)).with_threads(1),
        );
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_list() {
        run_resilience_campaign(
            &[],
            scenario,
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(1.0)).with_threads(1),
        );
    }
}
