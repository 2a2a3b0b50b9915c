//! Seed ensembles: run the same scenario across many environment seeds
//! and summarize the spread — the robustness check behind every claim in
//! `EXPERIMENTS.md`.

use crate::metrics::MetricsRegistry;
use crate::observe::{worst_relative, AuditReport, ConservationAuditor, MetricsObserver};
use crate::parallel::{par_map_instrumented, par_map_with, thread_count};
use crate::platform::Platform;
use crate::runner::{run_simulation, run_simulation_observed, SimConfig, SimResult};
use mseh_env::Environment;
use mseh_node::{DutyCyclePolicy, SensorNode};

/// Summary statistics of one metric across an ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Ensemble mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample standard deviation (0 for a single observation).
    pub std_dev: f64,
    /// Median (mean of the two central observations for even counts).
    pub median: f64,
}

impl Spread {
    /// Summarizes a non-empty slice of observations.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = mseh_sim::Spread::of(&[1.0, 2.0, 3.0, 10.0]);
    /// assert_eq!(s.mean, 4.0);
    /// assert_eq!(s.median, 2.5);
    /// assert!(s.std_dev > 0.0);
    /// ```
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one observation");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let std_dev = if values.len() < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            0.5 * (sorted[mid - 1] + sorted[mid])
        };
        Self {
            mean,
            min,
            max,
            std_dev,
            median,
        }
    }
}

/// Ensemble results across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSummary {
    /// Seeds used.
    pub seeds: Vec<u64>,
    /// Harvested energy (J) across seeds.
    pub harvested: Spread,
    /// Uptime fraction across seeds.
    pub uptime: Spread,
    /// Data samples across seeds.
    pub samples: Spread,
    /// The individual runs, seed-aligned.
    pub runs: Vec<SimResult>,
}

/// Runs the scenario once per seed — fanned out across the worker pool
/// ([`thread_count`] threads; `MSEH_THREADS` overrides) — and
/// summarizes.
///
/// `make_platform` builds a fresh platform per run (state must not leak
/// between seeds); `make_env` maps a seed to its environment;
/// `make_policy` builds a fresh policy per run. The factories are
/// shared by reference across workers, hence the `Fn + Sync` bounds.
///
/// Results are seed-aligned and bit-for-bit identical to the sequential
/// path ([`run_seed_ensemble_seq`]) at any thread count: every run is a
/// pure function of its seed, and [`crate::par_map`] preserves order.
///
/// # Panics
///
/// Panics if `seeds` is empty.
///
/// # Examples
///
/// ```
/// use mseh_sim::{run_seed_ensemble, SimConfig};
/// use mseh_core::{PowerUnit, StoreRole, PortRequirement};
/// use mseh_power::DcDcConverter;
/// use mseh_storage::Supercap;
/// use mseh_node::{SensorNode, FixedDuty};
/// use mseh_env::Environment;
/// use mseh_units::{DutyCycle, Seconds, Volts};
///
/// let summary = run_seed_ensemble(
///     &[1, 2, 3],
///     |_seed| {
///         let mut cap = Supercap::edlc_22f();
///         cap.set_voltage(Volts::new(2.5));
///         PowerUnit::builder("ensemble demo")
///             .store_port(
///                 PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
///                 Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
///             .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///             .build()
///     },
///     Environment::indoor_office,
///     |_seed| FixedDuty::new(DutyCycle::saturating(0.02)),
///     &SensorNode::submilliwatt_class(),
///     SimConfig::over(Seconds::from_hours(2.0)),
/// );
/// assert_eq!(summary.runs.len(), 3);
/// assert!(summary.uptime.min > 0.9);
/// ```
pub fn run_seed_ensemble<P, F, E, G, Q>(
    seeds: &[u64],
    make_platform: F,
    make_env: E,
    make_policy: G,
    node: &SensorNode,
    config: SimConfig,
) -> EnsembleSummary
where
    P: Platform,
    F: Fn(u64) -> P + Sync,
    E: Fn(u64) -> Environment + Sync,
    G: Fn(u64) -> Q + Sync,
    Q: DutyCyclePolicy,
{
    run_seed_ensemble_with_threads(
        thread_count(),
        seeds,
        make_platform,
        make_env,
        make_policy,
        node,
        config,
    )
}

/// [`run_seed_ensemble`] with an explicit worker count (`1` runs inline
/// on the calling thread).
///
/// # Panics
///
/// Panics if `seeds` is empty or `threads` is zero.
pub fn run_seed_ensemble_with_threads<P, F, E, G, Q>(
    threads: usize,
    seeds: &[u64],
    make_platform: F,
    make_env: E,
    make_policy: G,
    node: &SensorNode,
    config: SimConfig,
) -> EnsembleSummary
where
    P: Platform,
    F: Fn(u64) -> P + Sync,
    E: Fn(u64) -> Environment + Sync,
    G: Fn(u64) -> Q + Sync,
    Q: DutyCyclePolicy,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let runs = par_map_with(threads, seeds, |&seed| {
        let mut platform = make_platform(seed);
        let env = make_env(seed);
        let mut policy = make_policy(seed);
        run_simulation(&mut platform, &env, node, &mut policy, config)
    });
    summarize(seeds, runs)
}

/// The sequential reference implementation of [`run_seed_ensemble`]:
/// same contract, one run at a time on the calling thread. Accepts
/// `FnMut` factories (they are never shared), so stateful builders that
/// cannot be `Sync` still have an entry point.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn run_seed_ensemble_seq<P, F, E, G, Q>(
    seeds: &[u64],
    mut make_platform: F,
    mut make_env: E,
    mut make_policy: G,
    node: &SensorNode,
    config: SimConfig,
) -> EnsembleSummary
where
    P: Platform,
    F: FnMut(u64) -> P,
    E: FnMut(u64) -> Environment,
    G: FnMut(u64) -> Q,
    Q: DutyCyclePolicy,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let runs: Vec<SimResult> = seeds
        .iter()
        .map(|&seed| {
            let mut platform = make_platform(seed);
            let env = make_env(seed);
            let mut policy = make_policy(seed);
            run_simulation(&mut platform, &env, node, &mut policy, config)
        })
        .collect();
    summarize(seeds, runs)
}

/// An ensemble run with its observability artifacts: the usual
/// [`EnsembleSummary`] plus the merged [`MetricsRegistry`] across all
/// seeds and a per-seed conservation [`AuditReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedEnsemble {
    /// The ordinary ensemble summary (seed-aligned runs + spreads).
    pub summary: EnsembleSummary,
    /// All seeds' metrics merged in seed order (counters and histograms
    /// sum; gauges keep the last seed's value), so the registry is
    /// identical at any thread count.
    pub metrics: MetricsRegistry,
    /// Conservation audit per seed, seed-aligned.
    pub audits: Vec<AuditReport>,
}

impl InstrumentedEnsemble {
    /// The worst per-window conservation residual across every seed,
    /// as a fraction of that window's energy turnover (NaN when any
    /// window's books could not be closed).
    pub fn worst_audit_relative(&self) -> f64 {
        worst_relative(&self.audits)
    }
}

/// [`run_seed_ensemble_with_threads`] with full observability: every
/// run carries a [`MetricsObserver`] and a [`ConservationAuditor`];
/// per-seed registries are merged in seed order (deterministic at any
/// thread count) and the audits come back seed-aligned.
///
/// # Panics
///
/// Panics if `seeds` is empty or `threads` is zero.
///
/// # Examples
///
/// ```
/// use mseh_sim::{run_seed_ensemble_instrumented, SimConfig};
/// use mseh_core::{PowerUnit, StoreRole, PortRequirement};
/// use mseh_power::DcDcConverter;
/// use mseh_storage::Supercap;
/// use mseh_node::{SensorNode, FixedDuty};
/// use mseh_env::Environment;
/// use mseh_units::{DutyCycle, Seconds, Volts};
///
/// let out = run_seed_ensemble_instrumented(
///     2,
///     &[1, 2, 3],
///     |_seed| {
///         let mut cap = Supercap::edlc_22f();
///         cap.set_voltage(Volts::new(2.5));
///         PowerUnit::builder("instrumented demo")
///             .store_port(
///                 PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
///                 Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
///             .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///             .build()
///     },
///     Environment::indoor_office,
///     |_seed| FixedDuty::new(DutyCycle::saturating(0.02)),
///     &SensorNode::submilliwatt_class(),
///     SimConfig::over(Seconds::from_hours(2.0)),
/// );
/// assert_eq!(out.audits.len(), 3);
/// assert!(out.worst_audit_relative() < 1e-6);
/// assert!(out.metrics.counter("sim_steps_total", &[]).unwrap() > 0.0);
/// ```
pub fn run_seed_ensemble_instrumented<P, F, E, G, Q>(
    threads: usize,
    seeds: &[u64],
    make_platform: F,
    make_env: E,
    make_policy: G,
    node: &SensorNode,
    config: SimConfig,
) -> InstrumentedEnsemble
where
    P: Platform,
    F: Fn(u64) -> P + Sync,
    E: Fn(u64) -> Environment + Sync,
    G: Fn(u64) -> Q + Sync,
    Q: DutyCyclePolicy,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let (pairs, metrics) = par_map_instrumented(threads, seeds, |&seed, registry| {
        let mut platform = make_platform(seed);
        let env = make_env(seed);
        let mut policy = make_policy(seed);
        let mut meter = MetricsObserver::new();
        let mut auditor = ConservationAuditor::new();
        let result = run_simulation_observed(
            &mut platform,
            &env,
            node,
            &mut policy,
            config,
            &mut [&mut meter, &mut auditor],
        );
        registry.merge(meter.registry());
        (result, auditor.report())
    });
    let (runs, audits): (Vec<SimResult>, Vec<AuditReport>) = pairs.into_iter().unzip();
    InstrumentedEnsemble {
        summary: summarize(seeds, runs),
        metrics,
        audits,
    }
}

fn summarize(seeds: &[u64], runs: Vec<SimResult>) -> EnsembleSummary {
    let harvested: Vec<f64> = runs.iter().map(|r| r.harvested.value()).collect();
    let uptime: Vec<f64> = runs.iter().map(|r| r.uptime).collect();
    let samples: Vec<f64> = runs.iter().map(|r| r.samples).collect();
    EnsembleSummary {
        seeds: seeds.to_vec(),
        harvested: Spread::of(&harvested),
        uptime: Spread::of(&uptime),
        samples: Spread::of(&samples),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole};
    use mseh_node::FixedDuty;
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::{DutyCycle, Seconds, Volts};

    fn solar_rig() -> PowerUnit {
        let channel = InputChannel::new(
            Box::new(mseh_harvesters::PvModule::outdoor_panel_half_watt()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        );
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.0));
        PowerUnit::builder("ensemble rig")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(channel),
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

    #[test]
    fn ensemble_spreads_are_consistent() {
        let summary = run_seed_ensemble(
            &[1, 2, 3, 4, 5],
            |_| solar_rig(),
            Environment::outdoor_temperate,
            |_| FixedDuty::new(DutyCycle::saturating(0.05)),
            &mseh_node::SensorNode::submilliwatt_class(),
            SimConfig::over(Seconds::from_hours(12.0)),
        );
        assert_eq!(summary.runs.len(), 5);
        assert!(summary.harvested.min <= summary.harvested.mean);
        assert!(summary.harvested.mean <= summary.harvested.max);
        // Different seeds give different weather, hence different
        // harvests.
        assert!(summary.harvested.max > summary.harvested.min);
        // Every run's books balance.
        for run in &summary.runs {
            assert!(run.audit_residual < 1e-6);
        }
    }

    #[test]
    fn worst_audit_is_nan_when_any_seed_is() {
        let out = run_seed_ensemble_instrumented(
            1,
            &[1, 2, 3],
            |_| solar_rig(),
            Environment::outdoor_temperate,
            |_| FixedDuty::new(DutyCycle::saturating(0.05)),
            &mseh_node::SensorNode::submilliwatt_class(),
            SimConfig::over(Seconds::from_hours(2.0)),
        );
        assert!(out.worst_audit_relative() < 1e-6);
        for poisoned in 0..3 {
            let mut out = out.clone();
            out.audits[poisoned].worst_relative = f64::NAN;
            assert!(out.worst_audit_relative().is_nan(), "seed {poisoned}");
        }
    }

    #[test]
    fn spread_reports_dispersion() {
        let s = Spread::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
        // Known sample std-dev of this set ≈ 2.138.
        assert!((s.std_dev - 2.138).abs() < 0.01, "{}", s.std_dev);

        let odd = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median, 2.0);

        let single = Spread::of(&[7.5]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.median, 7.5);
        assert_eq!(single.mean, 7.5);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn spread_rejects_empty() {
        Spread::of(&[]);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let seeds = [11u64, 22, 33, 44, 55, 66];
        let node = mseh_node::SensorNode::submilliwatt_class();
        let config = SimConfig::over(Seconds::from_hours(6.0));
        let seq = run_seed_ensemble_seq(
            &seeds,
            |_| solar_rig(),
            Environment::outdoor_temperate,
            |_| FixedDuty::new(DutyCycle::saturating(0.05)),
            &node,
            config,
        );
        for threads in [1, 2, 4] {
            let par = run_seed_ensemble_with_threads(
                threads,
                &seeds,
                |_| solar_rig(),
                Environment::outdoor_temperate,
                |_| FixedDuty::new(DutyCycle::saturating(0.05)),
                &node,
                config,
            );
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn instrumented_ensemble_is_deterministic_and_conserved() {
        let seeds = [7u64, 8, 9, 10];
        let node = mseh_node::SensorNode::submilliwatt_class();
        let config = SimConfig::over(Seconds::from_hours(6.0));
        let run = |threads| {
            run_seed_ensemble_instrumented(
                threads,
                &seeds,
                |_| solar_rig(),
                Environment::outdoor_temperate,
                |_| FixedDuty::new(DutyCycle::saturating(0.05)),
                &node,
                config,
            )
        };
        let seq = run(1);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(par, seq, "threads = {threads}");
        }

        // Instrumentation must not perturb the physics.
        let bare = run_seed_ensemble_with_threads(
            1,
            &seeds,
            |_| solar_rig(),
            Environment::outdoor_temperate,
            |_| FixedDuty::new(DutyCycle::saturating(0.05)),
            &node,
            config,
        );
        assert_eq!(seq.summary, bare);

        // Metrics agree with the summed run results.
        let harvested: f64 = seq.summary.runs.iter().map(|r| r.harvested.value()).sum();
        let metered = seq
            .metrics
            .counter("sim_harvested_joules_total", &[])
            .unwrap();
        assert!((metered - harvested).abs() <= 1e-9 * harvested.abs().max(1.0));
        let steps = seq.metrics.counter("sim_steps_total", &[]).unwrap();
        assert_eq!(steps, (seeds.len() * 360) as f64);

        // Every seed's books balance window by window.
        assert_eq!(seq.audits.len(), seeds.len());
        assert!(
            seq.worst_audit_relative() < 1e-6,
            "worst residual {:e}",
            seq.worst_audit_relative()
        );
        for audit in &seq.audits {
            assert_eq!(audit.windows, 36);
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_set() {
        run_seed_ensemble(
            &[],
            |_| solar_rig(),
            Environment::outdoor_temperate,
            |_| FixedDuty::new(DutyCycle::ZERO),
            &mseh_node::SensorNode::submilliwatt_class(),
            SimConfig::over(Seconds::from_hours(1.0)),
        );
    }
}
