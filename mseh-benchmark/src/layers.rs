//! Layer replays for the traced run: each operation's runs are replayed
//! in-process with the calls into the environment, power-flow and policy
//! layers timed from outside, one clock read per control window per
//! layer (never per step).
//!
//! A replay follows the simulation runner's window loop — the policy
//! decides once per window, the window's conditions are sampled in one
//! batch, then the platform steps through them — so it makes the same
//! layer calls a run makes. What a run does between those calls (energy
//! books, audit, lane merges) is left untimed; `layers_sum_vs_wall` shows
//! how much of the wall the timed layers explain.

use crate::report::Metric;
use crate::stats;
use mseh::env::{EnvConditions, EnvJitter, EnvSampler, JitterFactors};
use mseh::node::{DutyCyclePolicy, SensorNode};
use mseh::sim::{Contender, Platform, SimConfig};
use mseh::systems::resilience::natural_node;
use mseh::systems::SystemId;
use mseh::units::Seconds;
use std::hint::black_box;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Busy time and work count per layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTimes {
    /// Environment sampling and per-node jitter.
    pub env_ns: f64,
    pub env_samples: f64,
    /// Power flow: `Platform::step` (and, for fleets, the dense lanes).
    pub core_ns: f64,
    pub core_steps: f64,
    /// Duty-cycle decisions: `DutyCyclePolicy::choose`.
    pub node_ns: f64,
    pub node_calls: f64,
}

impl AddAssign for LayerTimes {
    fn add_assign(&mut self, o: Self) {
        self.env_ns += o.env_ns;
        self.env_samples += o.env_samples;
        self.core_ns += o.core_ns;
        self.core_steps += o.core_steps;
        self.node_ns += o.node_ns;
        self.node_calls += o.node_calls;
    }
}

impl LayerTimes {
    /// Every figure multiplied by `k` (a sampled subset standing for a
    /// whole group).
    pub fn scaled(self, k: f64) -> Self {
        LayerTimes {
            env_ns: self.env_ns * k,
            env_samples: self.env_samples * k,
            core_ns: self.core_ns * k,
            core_steps: self.core_steps * k,
            node_ns: self.node_ns * k,
            node_calls: self.node_calls * k,
        }
    }

    /// The span attributes of a replay.
    pub fn attrs(&self) -> Vec<(&'static str, f64)> {
        [
            "env_ns",
            "env_samples",
            "core_ns",
            "core_steps",
            "node_ns",
            "node_calls",
        ]
        .into_iter()
        .zip(self.to_fields())
        .collect()
    }

    /// Every figure in field order (the child's `layers` reply).
    pub fn to_fields(self) -> [f64; 6] {
        [
            self.env_ns,
            self.env_samples,
            self.core_ns,
            self.core_steps,
            self.node_ns,
            self.node_calls,
        ]
    }

    /// Reads [`LayerTimes::to_fields`] back.
    pub fn from_fields(f: &[f64]) -> Option<Self> {
        let [env_ns, env_samples, core_ns, core_steps, node_ns, node_calls] = *f else {
            return None;
        };
        Some(LayerTimes {
            env_ns,
            env_samples,
            core_ns,
            core_steps,
            node_ns,
            node_calls,
        })
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Where a lane's per-step conditions come from.
pub enum Rows<'a> {
    /// Sampled window by window, as a single run samples them.
    Sample(&'a dyn EnvSampler),
    /// A shared trace sampled once beforehand (an arena seed row).
    PerStep(&'a [EnvConditions]),
    /// One site snapshot per window, jittered for this node and held for
    /// the window (the fleet's per-window cadence).
    PerWindow(&'a [EnvConditions], JitterFactors),
}

/// Replays one lane — platform, load and policy — over `config`'s span.
pub fn replay_lane(
    platform: &mut dyn Platform,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    rows: Rows<'_>,
    config: SimConfig,
    t: &mut LayerTimes,
) {
    let dt = config.dt;
    let steps = (config.duration.value() / dt.value()).floor() as usize;
    let every = ((config.control_interval.value() / dt.value()).round() as usize).max(1);
    let time_at = |i: usize| config.start_at + Seconds::new(i as f64 * dt.value());
    let mut times: Vec<Seconds> = Vec::with_capacity(every);
    let mut buf: Vec<EnvConditions> = Vec::with_capacity(every);
    for (window, start) in (0..steps).step_by(every).enumerate() {
        let end = (start + every).min(steps);
        let t0 = Instant::now();
        let duty = policy.choose(node, &platform.energy_status().at(time_at(start)));
        let t1 = Instant::now();
        let load = node.average_power(duty);
        let conditions: &[EnvConditions] = match rows {
            Rows::Sample(env) => {
                times.clear();
                times.extend((start..end).map(time_at));
                env.conditions_into(&times, &mut buf);
                t.env_samples += (end - start) as f64;
                &buf
            }
            Rows::PerStep(all) => &all[start..end],
            Rows::PerWindow(site, factors) => {
                let c = factors.apply(&site[window]);
                buf.clear();
                buf.resize(end - start, c);
                t.env_samples += 1.0;
                &buf
            }
        };
        let t2 = Instant::now();
        for c in conditions {
            black_box(platform.step(c, dt, load));
        }
        let t3 = Instant::now();
        t.node_ns += ns(t1 - t0);
        t.node_calls += 1.0;
        t.env_ns += ns(t2 - t1);
        t.core_ns += ns(t3 - t2);
        t.core_steps += (end - start) as f64;
    }
}

/// Samples `env` at every step of `config` in one batch (an arena seed
/// row), timed as environment work.
pub fn sample_all(
    env: &dyn EnvSampler,
    config: SimConfig,
    t: &mut LayerTimes,
) -> Vec<EnvConditions> {
    let steps = (config.duration.value() / config.dt.value()).floor() as usize;
    sample_at(env, config, steps, 1, t)
}

/// Samples `env` once per control window of `config` (a fleet site).
pub fn sample_windows(
    env: &dyn EnvSampler,
    config: SimConfig,
    t: &mut LayerTimes,
) -> Vec<EnvConditions> {
    let steps = (config.duration.value() / config.dt.value()).floor() as usize;
    let every = ((config.control_interval.value() / config.dt.value()).round() as usize).max(1);
    sample_at(env, config, steps, every, t)
}

fn sample_at(
    env: &dyn EnvSampler,
    config: SimConfig,
    steps: usize,
    every: usize,
    t: &mut LayerTimes,
) -> Vec<EnvConditions> {
    let times: Vec<Seconds> = (0..steps)
        .step_by(every)
        .map(|i| config.start_at + Seconds::new(i as f64 * config.dt.value()))
        .collect();
    let mut rows = Vec::with_capacity(times.len());
    let t0 = Instant::now();
    env.conditions_into(&times, &mut rows);
    t.env_ns += ns(t0.elapsed());
    t.env_samples += times.len() as f64;
    rows
}

/// A boxed arena: per scenario seed, one shared trace and every
/// contender's lane against it.
pub fn replay_arena(
    system: SystemId,
    env_for: impl Fn(u64) -> mseh::env::Environment,
    seeds: &[u64],
    contenders: &[Contender],
    config: SimConfig,
    t: &mut LayerTimes,
) {
    let node = natural_node(system);
    for &seed in seeds {
        let rows = sample_all(&env_for(seed), config, t);
        for contender in contenders {
            let mut unit = system.build();
            let mut policy = contender.build(seed);
            replay_lane(
                &mut unit,
                &node,
                policy.as_mut(),
                Rows::PerStep(&rows),
                config,
                t,
            );
        }
    }
}

/// Boxed fleet members at one site: each node's jitter and policy come
/// from its seed, and it steps the site's window snapshots.
pub fn replay_fleet_nodes(
    system: SystemId,
    site: &[EnvConditions],
    jitter: EnvJitter,
    node_seeds: impl Iterator<Item = u64>,
    policy_for: impl Fn(u64) -> Box<dyn DutyCyclePolicy>,
    config: SimConfig,
    t: &mut LayerTimes,
) {
    let node = natural_node(system);
    for seed in node_seeds {
        let t0 = Instant::now();
        let factors = JitterFactors::derive(jitter, seed);
        t.env_ns += ns(t0.elapsed());
        let mut unit = system.build();
        let mut policy = policy_for(seed);
        replay_lane(
            &mut unit,
            &node,
            policy.as_mut(),
            Rows::PerWindow(site, factors),
            config,
            t,
        );
    }
}

/// One replayed operation: its measured wall, the in-process time of the
/// same kernel call, its layer times and its kernel-cache counters.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    pub wall_ms: f64,
    pub service_ms: f64,
    pub layers: LayerTimes,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// The per-layer metrics over the replayed operations.
pub fn layer_metrics(replayed: &[Replayed], trace_overhead_pct: f64) -> Vec<Metric> {
    let n = replayed.len();
    let service: Vec<f64> = replayed.iter().map(|r| r.service_ms).collect();
    let outside: Vec<f64> = replayed.iter().map(|r| r.wall_ms - r.service_ms).collect();
    let mut sum = LayerTimes::default();
    for r in replayed {
        sum += r.layers;
    }
    let per_op = |busy_ns: f64| busy_ns / 1e6 / n as f64;
    let hits: u64 = replayed.iter().map(|r| r.cache_hits).sum();
    let lookups = hits + replayed.iter().map(|r| r.cache_misses).sum::<u64>();
    let wall: f64 = replayed.iter().map(|r| r.wall_ms).sum();
    let explained = outside.iter().sum::<f64>() + (sum.env_ns + sum.core_ns + sum.node_ns) / 1e6;
    let nan = f64::NAN;
    vec![
        Metric::new(
            "service.ms_p50",
            stats::percentile(&service, 50.0).unwrap_or(nan),
            n,
        ),
        Metric::new(
            "outside.ms_p50",
            stats::percentile(&outside, 50.0).unwrap_or(nan),
            n,
        ),
        Metric::new("env.sample_ns", sum.env_ns / sum.env_samples, n)
            .note(format!("{:.0} samples", sum.env_samples)),
        Metric::new("env.ms_per_op", per_op(sum.env_ns), n),
        Metric::new("core.step_ns", sum.core_ns / sum.core_steps, n)
            .note(format!("{:.0} steps", sum.core_steps)),
        Metric::new("core.ms_per_op", per_op(sum.core_ns), n),
        Metric::new("node.choose_ns", sum.node_ns / sum.node_calls, n)
            .note(format!("{:.0} decisions", sum.node_calls)),
        Metric::new("node.ms_per_op", per_op(sum.node_ns), n),
        Metric::new("harvesters.cache_hit_rate", hits as f64 / lookups as f64, n)
            .note(format!("{hits} hits of {lookups} lookups")),
        Metric::new("layers_sum_vs_wall", explained / wall, n)
            .note("(outside + env + core + node) / op wall"),
        Metric::new("trace.overhead_pct", trace_overhead_pct, n),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh::daemon::make_policy;
    use mseh::env::Environment;

    #[test]
    fn a_replay_takes_the_runs_steps_and_decisions() {
        let config = SimConfig::over(Seconds::from_days(1.0));
        let env = Environment::outdoor_temperate(3);
        let mut t = LayerTimes::default();
        let mut unit = SystemId::B.build();
        let mut policy = make_policy("ladder").unwrap();
        replay_lane(
            &mut unit,
            &natural_node(SystemId::B),
            policy.as_mut(),
            Rows::Sample(&env),
            config,
            &mut t,
        );
        // One day of 60 s steps in 10-minute windows.
        assert_eq!(
            (t.core_steps, t.env_samples, t.node_calls),
            (1440.0, 1440.0, 144.0)
        );
        assert!(t.core_ns > 0.0 && t.env_ns > 0.0 && t.node_ns > 0.0);

        let mut w = LayerTimes::default();
        let site = sample_windows(&env, config, &mut w);
        assert_eq!(site.len(), 144);
        replay_fleet_nodes(
            SystemId::C,
            &site,
            EnvJitter::relative(0.1),
            [1, 2].into_iter(),
            |_| make_policy("neutral").unwrap(),
            config,
            &mut w,
        );
        assert_eq!((w.core_steps, w.node_calls), (2880.0, 288.0));
        assert_eq!(LayerTimes::from_fields(&w.to_fields()), Some(w));
    }
}
