//! The job grammar of `mseh serve` and the CLI, and the daemon's job
//! catalog: one parser turns a declarative, datasheet-style
//! `key=value` spec into a typed [`Job`] over the surveyed reference
//! systems, and one [`Job::run`] runs it.
//!
//! The daemon machinery itself (TCP listener, bounded queue,
//! subscriber streams) lives in [`mseh_sim::serve`] and is generic
//! over a [`JobRunner`]; this module supplies the runner that knows
//! the survey's catalog — [`SystemId`] platforms, the named
//! environments, and the duty-cycle policies — so new rigs load over
//! the wire without recompiling.
//!
//! # Job kinds
//!
//! | kind | spec fields | wire defaults | CLI defaults | runs |
//! |---|---|---|---|---|
//! | `single` | `system`, `env`, `days`, `seed`, `policy` | `days=2`, `seed=42` | `mseh simulate`: `system=A`, `days=7`, `seed=42` | one [`run_simulation`] |
//! | `campaign` | `system`, `days`, `seed`, `seeds` | `days=1`, `seed=1` | no subcommand | a resilience campaign |
//! | `fleet` | `system`, `env`, `days`, `seed`, `population`, `policy`, `jitter`, `shard_size` | `days=1`, `seed=7`, `population=64`, `jitter=0`, `shard_size=16` | no subcommand | a fleet run |
//! | `arena` | `system`, `env`, `days`, `seed`, `seeds`, `roster` | `days=1`, `seed=17` | `mseh arena`: `system=B`, `days=2`, `seed=42` | a policy arena |
//!
//! Both front ends share the grammar's own defaults, `env=outdoor`,
//! `policy=ladder`, `seeds=4` and `roster=default`; a wire spec must
//! name its `system`. The daemon runs a job with its cancel token and a
//! reporter that streams one `event` line per eighth of the work, the
//! CLI with [`RunControl::default`]. The serve layer rejects a spec that
//! names a field twice; [`Job::parse`] checks the rest, so a malformed
//! spec becomes an `err code=bad_spec` reply and never reaches a worker.
//!
//! [`run_simulation`]: mseh_sim::run_simulation

use mseh_env::{EnvJitter, Environment};
use mseh_node::{
    DayProfileForecast, DutyCyclePolicy, EnergyNeutral, FixedDuty, ForecastDutySelect,
    HillClimbDuty, VoltageThreshold,
};
use mseh_sim::serve::protocol::Digest;
use mseh_sim::serve::{JobContext, JobOutput, JobRunner, JobSpec, PreparedJob};
use mseh_sim::{
    default_contenders, run_arena_controlled, run_fleet_controlled,
    run_resilience_campaign_controlled, run_simulation_controlled, ArenaConfig, ArenaSpec,
    ArenaSummary, CampaignConfig, CampaignSummary, Contender, FleetConfig, FleetGroup, FleetSpec,
    FleetSummary, RunControl, SimConfig, SimResult, Spread,
};
use mseh_systems::resilience::{natural_node, resilience_scenario};
use mseh_systems::SystemId;
use mseh_units::{DutyCycle, Seconds};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::atomic::{AtomicU16, Ordering};

/// Longest accepted job horizon, days — a guard against jobs sized to
/// occupy a worker forever.
const MAX_DAYS: f64 = 3660.0;
/// Largest accepted fleet population per job.
const MAX_POPULATION: u64 = 1_000_000;
/// Largest accepted campaign or arena seed count.
const MAX_SEEDS: u64 = 4096;
/// Largest accepted fleet shard size (one shard is one worker task; a
/// larger value degrades progress streaming, not correctness).
const MAX_SHARD_SIZE: u64 = 1 << 20;
/// Largest accepted arena roster.
const MAX_CONTENDERS: usize = 256;
/// The defaults the grammar holds for every front end.
const GRAMMAR_DEFAULTS: &str = "env=outdoor;policy=ladder;seeds=4;roster=default";

/// Parses a surveyed system id (`A`..`G`, case-insensitive).
fn parse_system(s: &str) -> Result<SystemId, String> {
    Ok(match s {
        "A" | "a" => SystemId::A,
        "B" | "b" => SystemId::B,
        "C" | "c" => SystemId::C,
        "D" | "d" => SystemId::D,
        "E" | "e" => SystemId::E,
        "F" | "f" => SystemId::F,
        "G" | "g" => SystemId::G,
        other => return Err(format!("unknown system {other:?} (use A..G)")),
    })
}

/// Builds a named deployment environment with `seed`.
pub fn make_env(kind: &str, seed: u64) -> Result<Environment, String> {
    Ok(match kind {
        "outdoor" => Environment::outdoor_temperate(seed),
        "winter" => Environment::outdoor_winter(seed),
        "indoor" => Environment::indoor_industrial(seed),
        "office" => Environment::indoor_office(seed),
        "agricultural" | "agri" => Environment::agricultural(seed),
        other => return Err(format!("unknown env {other:?}")),
    })
}

/// Builds a duty-cycle policy from its CLI/wire spelling
/// (`ladder | neutral | forecast | fixed:<duty 0..1>`).
pub fn make_policy(spec: &str) -> Result<Box<dyn DutyCyclePolicy>, String> {
    if let Some(duty) = spec.strip_prefix("fixed:") {
        let d: f64 = duty.parse().map_err(|e| format!("fixed duty: {e}"))?;
        if !(0.0..=1.0).contains(&d) {
            return Err(format!("duty {d} outside 0..1"));
        }
        return Ok(Box::new(FixedDuty::new(DutyCycle::saturating(d))));
    }
    Ok(match spec {
        "ladder" => Box::new(VoltageThreshold::supercap_ladder()),
        "neutral" => Box::new(EnergyNeutral::new()),
        "forecast" => Box::new(DayProfileForecast::new(Seconds::from_hours(14.0))),
        other => return Err(format!("unknown policy {other:?}")),
    })
}

/// Builds one arena contender from its CLI/wire spelling: every
/// [`make_policy`] spelling works, plus `select` (forecast-driven duty
/// selection) and `hillclimb` (seeded duty search, reseeded per
/// scenario seed so rankings average over its exploration noise).
fn make_contender(spec: &str) -> Result<Contender, String> {
    match spec {
        "select" => Ok(Contender::new("select", |_| {
            Box::new(ForecastDutySelect::new(Seconds::from_hours(14.0)))
        })),
        "hillclimb" => Ok(Contender::new("hillclimb", |seed| {
            Box::new(HillClimbDuty::new(seed))
        })),
        other => {
            make_policy(other)?;
            let spelling = other.to_string();
            Ok(Contender::new(other, move |_| {
                make_policy(&spelling).expect("validated spelling")
            }))
        }
    }
}

/// Builds an arena roster from its CLI/wire spelling: `default` (the
/// stock [`default_contenders`] tournament) or a comma-separated list
/// of [`make_contender`] spellings with no duplicates.
fn make_roster(spec: &str) -> Result<Vec<Contender>, String> {
    if spec == "default" {
        return Ok(default_contenders());
    }
    let mut roster = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err("empty contender in roster".into());
        }
        if roster.iter().any(|c: &Contender| c.name() == entry) {
            return Err(format!("duplicate contender {entry:?} in roster"));
        }
        roster.push(make_contender(entry)?);
    }
    if roster.len() > MAX_CONTENDERS {
        return Err(format!(
            "roster must have at most {MAX_CONTENDERS} contenders, got {}",
            roster.len()
        ));
    }
    Ok(roster)
}

/// Bit-exact digest of a single run's summary — the `digest` in a
/// `single` job's determinism receipt. Two digests agree iff the runs
/// are bit-identical on every summarized quantity.
pub fn digest_single(result: &SimResult) -> u64 {
    Digest::new()
        .f64(result.duration.value())
        .f64(result.uptime)
        .f64(result.samples)
        .f64(result.harvested.value())
        .f64(result.delivered.value())
        .f64(result.shortfall.value())
        .f64(result.converter_losses.value())
        .u64(result.brownout_steps)
        .u64(result.longest_outage_steps)
        .f64(result.min_store_voltage.value())
        .f64(result.audit_residual)
        .finish()
}

/// Bit-exact digest of a campaign summary (receipt `digest` for
/// `campaign` jobs): every field of the summary and of each outcome,
/// audit reports included. A time that never happened folds in as NaN
/// bits.
pub fn digest_campaign(summary: &CampaignSummary) -> u64 {
    let time = |t: Option<Seconds>| t.map_or(f64::NAN, Seconds::value);
    let spread = |d: Digest, s: &Spread| {
        d.f64(s.mean)
            .f64(s.min)
            .f64(s.max)
            .f64(s.std_dev)
            .f64(s.median)
    };
    let mut digest = Digest::new();
    for s in [
        &summary.uptime,
        &summary.longest_outage_s,
        &summary.stranded_j,
    ] {
        digest = spread(digest, s);
    }
    digest = digest
        .f64(time(summary.mean_time_to_detect))
        .f64(time(summary.mean_time_to_recover))
        .u64(summary.total_faults)
        .u64(summary.total_clears)
        .u64(summary.total_failovers)
        .u64(summary.total_recoveries)
        .f64(summary.worst_audit_relative);
    for outcome in &summary.outcomes {
        digest = digest
            .u64(outcome.seed)
            .f64(outcome.uptime)
            .f64(outcome.delivered.value())
            .f64(outcome.shortfall.value())
            .u64(outcome.faults_fired)
            .u64(outcome.faults_cleared)
            .u64(outcome.failovers)
            .u64(outcome.recoveries)
            .f64(time(outcome.time_to_detect))
            .f64(time(outcome.time_to_recover))
            .f64(outcome.energy_stranded.value())
            .f64(outcome.longest_outage.value())
            .u64(outcome.audit.windows)
            .f64(outcome.audit.worst_residual.value())
            .f64(outcome.audit.worst_relative)
            .f64(outcome.audit.worst_at.value());
    }
    digest.finish()
}

/// Bit-exact digest of a fleet summary (receipt `digest` for `fleet`
/// jobs).
pub fn digest_fleet(summary: &FleetSummary) -> u64 {
    Digest::new()
        .u64(summary.population)
        .u64(summary.steps_per_node)
        .f64(summary.duration.value())
        .f64(summary.energy_neutral_fraction)
        .f64(summary.uptime.mean)
        .f64(summary.uptime.min)
        .f64(summary.uptime.p50)
        .f64(summary.uptime.max)
        .f64(summary.served_fraction)
        .f64(summary.harvested.value())
        .f64(summary.delivered.value())
        .f64(summary.shortfall.value())
        .f64(summary.demanded.value())
        .f64(summary.converter_losses.value())
        .f64(summary.min_store_voltage.value())
        .f64(summary.audit_relative)
        .finish()
}

/// Bit-exact digest of an arena summary (receipt `digest` for `arena`
/// jobs): run geometry plus every standing, in rank order.
pub fn digest_arena(summary: &ArenaSummary) -> u64 {
    let mut digest = Digest::new()
        .u64(summary.contenders)
        .u64(summary.seeds)
        .u64(summary.lanes)
        .u64(summary.steps_per_lane)
        .f64(summary.duration.value())
        .f64(summary.audit_relative);
    for s in &summary.standings {
        digest = digest
            .str(&s.name)
            .u64(s.rank as u64)
            .f64(s.served_fraction)
            .f64(s.uptime.mean)
            .f64(s.uptime.min)
            .f64(s.uptime.max)
            .f64(s.harvested.value())
            .f64(s.delivered.value())
            .f64(s.shortfall.value())
            .f64(s.samples)
            .u64(s.brownout_steps)
            .u64(s.energy_neutral_seeds)
            .u64(s.failovers);
    }
    digest.finish()
}

/// One job of the grammar, parsed and checked: a surveyed `system` run
/// for `days` from scenario `seed`, as its `kind` says.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// What runs, with the fields only that kind has.
    pub kind: JobKind,
    /// The surveyed platform.
    pub system: SystemId,
    /// The horizon, in days.
    pub days: f64,
    /// The scenario seed; a campaign or an arena counts up from it,
    /// wrapping past `u64::MAX`.
    pub seed: u64,
}

/// A [`Job`]'s kind: one variant per `kind=` of the grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// One run under one duty-cycle policy.
    Single {
        /// The [`make_env`] spelling of the deployment.
        env: String,
        /// The [`make_policy`] spelling of the policy.
        policy: String,
    },
    /// A resilience campaign.
    Campaign {
        /// How many scenario seeds.
        seeds: u64,
    },
    /// A fleet of nodes at one site.
    Fleet {
        /// The [`make_env`] spelling of the site.
        env: String,
        /// How many nodes.
        population: u64,
        /// Every node's [`make_policy`] spelling.
        policy: String,
        /// Each node's relative environment jitter, in `[0, 1)`.
        jitter: f64,
        /// Nodes per shard, the unit of work a worker takes.
        shard_size: u64,
    },
    /// A policy arena.
    Arena {
        /// The [`make_env`] spelling of the scenarios.
        env: String,
        /// How many scenario seeds.
        seeds: u64,
        /// `default`, or a comma-separated list of [`make_policy`]
        /// spellings, `select` and `hillclimb`.
        roster: String,
    },
}

/// What a [`Job`] run returns: its kind's summary.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSummary {
    /// A `single` job's result.
    Single(SimResult),
    /// A `campaign` job's summary.
    Campaign(CampaignSummary),
    /// A `fleet` job's summary.
    Fleet(FleetSummary),
    /// An `arena` job's summary, standings in rank order.
    Arena(ArenaSummary),
}

/// A spec over its front end's defaults.
struct Fields<'a>(&'a JobSpec, &'a str);

impl Fields<'_> {
    /// The value of `key`: the spec's, else the front end's default,
    /// else the grammar's.
    fn get<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        let Fields(spec, defaults) = *self;
        let default = [defaults, GRAMMAR_DEFAULTS]
            .into_iter()
            .flat_map(|pairs| pairs.split(';'))
            .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='));
        let text = spec.get(key).or(default);
        let text = text.ok_or_else(|| format!("{key}: missing"))?;
        text.parse().map_err(|e| format!("{key}: {e}"))
    }
}

/// Prefixes an error with the field it is about.
fn about(key: &'static str) -> impl Fn(String) -> String {
    move |e| format!("{key}: {e}")
}

impl Job {
    /// Parses and checks a spec of the grammar. A field the spec leaves
    /// out takes its value from `defaults` (`key=value` pairs joined by
    /// `;`, as on the wire), else from the grammar's own. Every error
    /// but an unknown kind names its field first, so a front end can
    /// spell the field its own way (the CLI adds `--`).
    pub fn parse(spec: &JobSpec, defaults: &str) -> Result<Job, String> {
        let own: &[&str] = match spec.kind.as_str() {
            "single" => &["env", "policy"],
            "campaign" => &["seeds"],
            "fleet" => &["env", "population", "policy", "jitter", "shard_size"],
            "arena" => &["env", "seeds", "roster"],
            other => {
                return Err(format!(
                    "unknown job kind {other:?} (use single, campaign, fleet, or arena)"
                ))
            }
        };
        let allowed = [&["system", "days", "seed"], own].concat();
        let mut keys = spec.fields.iter().map(|(key, _)| key.as_str());
        if let Some(key) = keys.find(|key| !allowed.contains(key)) {
            return Err(format!(
                "{key}: unknown field for kind {} (allowed: {})",
                spec.kind,
                allowed.join(", ")
            ));
        }
        let f = Fields(spec, defaults);
        let system = parse_system(&f.get::<String>("system")?).map_err(about("system"))?;
        let kind = match spec.kind.as_str() {
            "single" => JobKind::Single {
                env: f.get("env")?,
                policy: f.get("policy")?,
            },
            "campaign" => JobKind::Campaign {
                seeds: f.get("seeds")?,
            },
            "fleet" => JobKind::Fleet {
                env: f.get("env")?,
                population: f.get("population")?,
                policy: f.get("policy")?,
                jitter: f.get("jitter")?,
                shard_size: f.get("shard_size")?,
            },
            // "arena": the kind was checked above.
            _ => JobKind::Arena {
                env: f.get("env")?,
                seeds: f.get("seeds")?,
                roster: f.get("roster")?,
            },
        };
        let job = Job {
            kind,
            system,
            days: f.get("days")?,
            seed: f.get("seed")?,
        };
        job.check()?;
        Ok(job)
    }

    /// Checks the values a parse cannot: ranges, and the spellings of
    /// environments, policies and rosters.
    fn check(&self) -> Result<(), String> {
        check_days(self.days, SimConfig::week().dt)?;
        let check_env = |env: &str| make_env(env, self.seed).map(drop).map_err(about("env"));
        let check_policy = |policy: &str| make_policy(policy).map(drop).map_err(about("policy"));
        match &self.kind {
            JobKind::Single { env, policy } => check_env(env).and(check_policy(policy)),
            JobKind::Campaign { seeds } => check_count("seeds", *seeds, MAX_SEEDS),
            JobKind::Fleet {
                env,
                population,
                policy,
                jitter,
                shard_size,
            } => {
                check_count("population", *population, MAX_POPULATION)?;
                check_env(env)?;
                check_policy(policy)?;
                EnvJitter::try_relative(*jitter).map_err(about("jitter"))?;
                check_count("shard_size", *shard_size, MAX_SHARD_SIZE)
            }
            JobKind::Arena { env, seeds, roster } => {
                build_arena_spec(self.system, env, self.seed, *seeds, roster).map(drop)
            }
        }
    }

    /// Runs the job under `control`: `Ok(None)` when its cancel token
    /// trips, `Err` when the job cannot run. The job is checked again
    /// first, so one built by hand fails here rather than in a kernel.
    /// `record` keeps a single run's traces (the CLI's `--record`); the
    /// other kinds ignore it.
    pub fn run(&self, control: RunControl<'_>, record: bool) -> Result<Option<JobSummary>, String> {
        self.check()?;
        let (system, days, seed) = (self.system, self.days, self.seed);
        let horizon = Seconds::from_days(days);
        Ok(match &self.kind {
            JobKind::Single { env, policy } => run_simulation_controlled(
                &mut system.build(),
                &make_env(env, seed)?,
                &natural_node(system),
                make_policy(policy)?.as_mut(),
                SimConfig {
                    record,
                    ..SimConfig::over(horizon)
                },
                &mut [],
                control,
            )?
            .map(JobSummary::Single),
            JobKind::Campaign { seeds } => run_resilience_campaign_controlled(
                &consecutive_seeds(seed, *seeds),
                |s| resilience_scenario(system, s, horizon),
                &natural_node(system),
                CampaignConfig::over(horizon),
                control,
            )?
            .map(JobSummary::Campaign),
            JobKind::Fleet {
                env,
                population,
                policy,
                jitter,
                shard_size,
            } => run_fleet_controlled(
                &build_fleet_spec(system, env, seed, *population, policy, *jitter),
                fleet_config(days, *shard_size as usize),
                control,
            )?
            .map(|result| JobSummary::Fleet(result.summary)),
            JobKind::Arena { env, seeds, roster } => run_arena_controlled(
                &build_arena_spec(system, env, seed, *seeds, roster)?,
                ArenaConfig::over(horizon),
                control,
            )?
            .map(|result| JobSummary::Arena(result.summary)),
        })
    }
}

impl JobSummary {
    /// The summary's bit-exact digest, the `digest` of its job's
    /// receipt: [`digest_single`], [`digest_campaign`], [`digest_fleet`]
    /// or [`digest_arena`].
    pub fn digest(&self) -> u64 {
        match self {
            JobSummary::Single(result) => digest_single(result),
            JobSummary::Campaign(summary) => digest_campaign(summary),
            JobSummary::Fleet(summary) => digest_fleet(summary),
            JobSummary::Arena(summary) => digest_arena(summary),
        }
    }

    /// The fields a `done` or `result` reply carries after the receipt.
    fn reply_fields(&self) -> Vec<(&'static str, String)> {
        match self {
            JobSummary::Single(r) => vec![
                ("uptime", format!("{:.6}", r.uptime)),
                ("samples", format!("{:.1}", r.samples)),
                ("harvested_j", format!("{:.6}", r.harvested.value())),
                ("delivered_j", format!("{:.6}", r.delivered.value())),
                ("shortfall_j", format!("{:.6}", r.shortfall.value())),
                ("brownout_steps", r.brownout_steps.to_string()),
                ("min_store_v", format!("{:.4}", r.min_store_voltage.value())),
                ("audit", format!("{:.3e}", r.audit_residual)),
            ],
            JobSummary::Campaign(s) => vec![
                ("scenarios", s.outcomes.len().to_string()),
                ("uptime_mean", format!("{:.6}", s.uptime.mean)),
                ("uptime_min", format!("{:.6}", s.uptime.min)),
                ("faults", s.total_faults.to_string()),
                ("clears", s.total_clears.to_string()),
                ("failovers", s.total_failovers.to_string()),
                ("recoveries", s.total_recoveries.to_string()),
                ("worst_audit", format!("{:.3e}", s.worst_audit_relative)),
            ],
            JobSummary::Fleet(s) => vec![
                ("population", s.population.to_string()),
                ("uptime_mean", format!("{:.6}", s.uptime.mean)),
                ("uptime_min", format!("{:.6}", s.uptime.min)),
                (
                    "neutral_fraction",
                    format!("{:.6}", s.energy_neutral_fraction),
                ),
                ("harvested_j", format!("{:.6}", s.harvested.value())),
                ("delivered_j", format!("{:.6}", s.delivered.value())),
                ("audit", format!("{:.3e}", s.audit_relative)),
            ],
            JobSummary::Arena(s) => {
                let top = &s.standings[0];
                vec![
                    ("contenders", s.contenders.to_string()),
                    ("seeds", s.seeds.to_string()),
                    ("lanes", s.lanes.to_string()),
                    ("winner", top.name.clone()),
                    ("winner_served", format!("{:.6}", top.served_fraction)),
                    ("winner_uptime", format!("{:.6}", top.uptime.mean)),
                    ("audit", format!("{:.3e}", s.audit_relative)),
                ]
            }
        }
    }
}

/// The survey's [`JobRunner`]: parses wire specs against the reference
/// catalog and builds cancellable runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemCatalog;

impl SystemCatalog {
    /// Parses a wire spec: [`Job::parse`] over its kind's wire defaults
    /// (see the module docs).
    pub fn job(&self, spec: &JobSpec) -> Result<Job, String> {
        let defaults = match spec.kind.as_str() {
            "single" => "days=2;seed=42",
            "campaign" => "days=1;seed=1",
            "fleet" => "days=1;seed=7;population=64;jitter=0;shard_size=16",
            "arena" => "days=1;seed=17",
            _ => "",
        };
        Job::parse(spec, defaults)
    }
}

impl JobRunner for SystemCatalog {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String> {
        let job = self.job(spec)?;
        let (done_key, total_key) = match job.kind {
            JobKind::Single { .. } => ("windows", "total_windows"),
            JobKind::Campaign { .. } => ("scenarios", "total_scenarios"),
            JobKind::Fleet { .. } => ("nodes", "total_nodes"),
            JobKind::Arena { .. } => ("lanes", "total_lanes"),
        };
        Ok(PreparedJob {
            seed: job.seed,
            run: Box::new(move |ctx| {
                let control = RunControl {
                    cancel: Some(ctx.cancel_token()),
                    progress: Some(&eighths(ctx, done_key, total_key)),
                };
                Ok(job.run(control, false)?.map(|summary| JobOutput {
                    digest: summary.digest(),
                    fields: summary.reply_fields(),
                }))
            }),
        })
    }
}

/// Checks a horizon of `days` run at step `dt`: one the run can take
/// (see [`SimConfig::check`]), and at most 3660 days, so that neither a
/// job nor a CLI run occupies a worker or allocates its tables for ever.
pub fn check_days(days: f64, dt: Seconds) -> Result<(), String> {
    if days > MAX_DAYS {
        return Err(format!("days must be at most {MAX_DAYS}, got {days}"));
    }
    SimConfig {
        dt,
        ..SimConfig::over(Seconds::from_days(days))
    }
    .check()
    .map_err(|e| format!("days {days}: {e}"))
}

/// Checks a count field: at least one, and at most `max`, so that a
/// job's seed list, population and shards stay bounded.
fn check_count(key: &str, count: u64, max: u64) -> Result<(), String> {
    if count == 0 || count > max {
        return Err(format!("{key} must be in 1..={max}, got {count}"));
    }
    Ok(())
}

/// A job's progress reporter: it emits `done_key=<done>;total_key=<total>`
/// for the first count that lands in each eighth of the total. So a job
/// streams at most eight `event` lines, however many windows, shards,
/// seed rows or scenarios it has, one per eighth its counts reach, and
/// the final count is always sent. Workers report at once: `fetch_or`
/// on one bit per eighth sends each eighth once. Two reports that race
/// may still leave out of order, since the kernels number a report
/// before they make it. The bits publish no other data, so `Relaxed`
/// suffices.
fn eighths<'a>(
    ctx: &'a JobContext,
    done_key: &'static str,
    total_key: &'static str,
) -> impl Fn(u64, u64) + Sync + 'a {
    // Eighth 0 (less than an eighth done) is never sent.
    let sent = AtomicU16::new(1);
    move |done, total| {
        let bit = 1 << (done.saturating_mul(8) / total.max(1)).min(8);
        if sent.fetch_or(bit, Ordering::Relaxed) & bit == 0 {
            ctx.emit(&[(done_key, done.to_string()), (total_key, total.to_string())]);
        }
    }
}

/// The `count` consecutive seeds from `seed` that a campaign or arena
/// job runs, wrapping past `u64::MAX` to 0.
fn consecutive_seeds(seed: u64, count: u64) -> Vec<u64> {
    (0..count).map(|i| seed.wrapping_add(i)).collect()
}

/// The exact [`ArenaSpec`] an `arena` job runs — public so tests and
/// the benchmark can reproduce a wire job via [`mseh_sim::run_arena`]
/// directly and assert digest equality. Scenario seeds are the `count`
/// consecutive values from `seed`, wrapping past `u64::MAX` (at most
/// 4096 of them); each lane's platform is a fresh build of the surveyed
/// system.
pub fn build_arena_spec(
    system: SystemId,
    env_kind: &str,
    seed: u64,
    count: u64,
    roster: &str,
) -> Result<ArenaSpec, String> {
    check_count("seeds", count, MAX_SEEDS)?;
    let contenders = make_roster(roster).map_err(about("roster"))?;
    make_env(env_kind, seed).map_err(about("env"))?;
    let env_kind = env_kind.to_string();
    let seeds = consecutive_seeds(seed, count);
    Ok(ArenaSpec::boxed(
        &format!("{system}"),
        natural_node(system),
        move |_| Box::new(system.build()),
        move |s| make_env(&env_kind, s).expect("validated env"),
    )
    .with_contenders(contenders)
    .with_seeds(&seeds))
}

/// The exact [`FleetSpec`] a `fleet` job runs — public so tests can
/// reproduce a wire job via [`mseh_sim::run_fleet`] directly and
/// assert digest equality.
pub fn build_fleet_spec(
    system: SystemId,
    env_kind: &str,
    seed: u64,
    population: u64,
    policy_spec: &str,
    jitter: f64,
) -> FleetSpec {
    let mut fleet = FleetSpec::new();
    let site = fleet.add_site(make_env(env_kind, seed).expect("validated env"));
    let policy_spec = policy_spec.to_string();
    let mut group = FleetGroup::new(
        &format!("{system}"),
        population as usize,
        site,
        natural_node(system),
        move |_| Box::new(system.build()),
        move |_| make_policy(&policy_spec).expect("validated policy"),
    )
    .with_seed(seed);
    if jitter > 0.0 {
        group = group.with_jitter(EnvJitter::relative(jitter));
    }
    fleet.add_group(group);
    fleet
}

/// The exact [`FleetConfig`] a `fleet` job runs under (the wire
/// default shard size of 16 is kept small so progress events arrive
/// while the job streams).
pub fn fleet_config(days: f64, shard_size: usize) -> FleetConfig {
    FleetConfig::over(Seconds::from_days(days)).with_shard_size(shard_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: &str, fields: &[(&str, &str)]) -> JobSpec {
        JobSpec {
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        }
    }

    #[test]
    fn validates_specs_eagerly() {
        let catalog = SystemCatalog;
        assert!(catalog.prepare(&spec("single", &[("system", "B")])).is_ok());
        assert!(catalog.prepare(&spec("single", &[])).is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "Z")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("days", "-1")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("days", "nan")]))
            .is_err());
        // Shorter than one 60 s step.
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("days", "0.0001")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("env", "mars")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("policy", "wat")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("dys", "3")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("population", "0")]))
            .is_err());
        // `EnvJitter::relative`'s bound: 1 would panic the worker.
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("jitter", "1")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("campaign", &[("system", "A"), ("seeds", "0")]))
            .is_err());
        assert!(catalog.prepare(&spec("mystery", &[])).is_err());
        // Shard geometry: fleet-only, range-checked.
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("shard_size", "8")]))
            .is_ok());
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("shard_size", "0")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("shard_size", "8")]))
            .is_err());
        // Daemon fleets are boxed-only, so there is no solve tier to pick.
        assert!(catalog
            .prepare(&spec(
                "fleet",
                &[("system", "A"), ("dense_tier", "batched")]
            ))
            .is_err());
    }

    #[test]
    fn validates_arena_specs_eagerly() {
        let catalog = SystemCatalog;
        assert!(catalog.prepare(&spec("arena", &[("system", "B")])).is_ok());
        assert!(catalog
            .prepare(&spec(
                "arena",
                &[("system", "B"), ("roster", "ladder,neutral,hillclimb")]
            ))
            .is_ok());
        assert!(catalog.prepare(&spec("arena", &[])).is_err());
        assert!(catalog
            .prepare(&spec("arena", &[("system", "B"), ("seeds", "0")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("arena", &[("system", "B"), ("roster", "warp")]))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "arena",
                &[("system", "B"), ("roster", "ladder,ladder")]
            ))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "arena",
                &[("system", "B"), ("roster", "ladder,,neutral")]
            ))
            .is_err());
        // Fleet-only knobs stay fleet-only.
        assert!(catalog
            .prepare(&spec("arena", &[("system", "B"), ("population", "8")]))
            .is_err());
    }

    #[test]
    fn rosters_construct() {
        assert!(make_roster("default").unwrap().len() >= 8);
        let roster = make_roster("ladder,fixed:0.1,select,hillclimb").unwrap();
        assert_eq!(roster.len(), 4);
        assert_eq!(roster[1].name(), "fixed:0.1");
        assert!(make_roster("").is_err());
        assert!(make_roster("fixed:2").is_err());
    }

    #[test]
    fn arena_digest_is_value_sensitive() {
        let arena = build_arena_spec(SystemId::B, "indoor", 3, 2, "ladder,fixed:0.05").unwrap();
        let out = mseh_sim::run_arena(&arena, ArenaConfig::over(Seconds::from_hours(2.0)));
        let d1 = digest_arena(&out.summary);
        let mut tweaked = out.summary;
        tweaked.standings[0].served_fraction += 1e-12;
        assert_ne!(d1, digest_arena(&tweaked));
    }

    #[test]
    fn campaign_digest_covers_every_field() {
        let horizon = Seconds::from_hours(2.0);
        let summary = mseh_sim::run_resilience_campaign(
            &[3, 4],
            |seed| resilience_scenario(SystemId::A, seed, horizon),
            &natural_node(SystemId::A),
            CampaignConfig::over(horizon).with_threads(1),
        );
        fn ulp(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        fn time(t: &mut Option<Seconds>) {
            *t = match *t {
                Some(_) => None,
                None => Some(Seconds::ZERO),
            };
        }
        fn joules(j: &mut mseh_units::Joules) {
            let mut v = j.value();
            ulp(&mut v);
            *j = mseh_units::Joules::new(v);
        }
        fn seconds(t: &mut Seconds) {
            let mut v = t.value();
            ulp(&mut v);
            *t = Seconds::new(v);
        }
        type Tweak = fn(&mut CampaignSummary);
        let tweaks: [Tweak; 40] = [
            |s| ulp(&mut s.uptime.mean),
            |s| ulp(&mut s.uptime.min),
            |s| ulp(&mut s.uptime.max),
            |s| ulp(&mut s.uptime.std_dev),
            |s| ulp(&mut s.uptime.median),
            |s| ulp(&mut s.longest_outage_s.mean),
            |s| ulp(&mut s.longest_outage_s.min),
            |s| ulp(&mut s.longest_outage_s.max),
            |s| ulp(&mut s.longest_outage_s.std_dev),
            |s| ulp(&mut s.longest_outage_s.median),
            |s| ulp(&mut s.stranded_j.mean),
            |s| ulp(&mut s.stranded_j.min),
            |s| ulp(&mut s.stranded_j.max),
            |s| ulp(&mut s.stranded_j.std_dev),
            |s| ulp(&mut s.stranded_j.median),
            |s| time(&mut s.mean_time_to_detect),
            |s| time(&mut s.mean_time_to_recover),
            |s| s.total_faults += 1,
            |s| s.total_clears += 1,
            |s| s.total_failovers += 1,
            |s| s.total_recoveries += 1,
            |s| ulp(&mut s.worst_audit_relative),
            |s| s.outcomes[1].seed += 1,
            |s| ulp(&mut s.outcomes[1].uptime),
            |s| joules(&mut s.outcomes[1].delivered),
            |s| joules(&mut s.outcomes[1].shortfall),
            |s| s.outcomes[1].faults_fired += 1,
            |s| s.outcomes[1].faults_cleared += 1,
            |s| s.outcomes[1].failovers += 1,
            |s| s.outcomes[1].recoveries += 1,
            |s| time(&mut s.outcomes[1].time_to_detect),
            |s| time(&mut s.outcomes[1].time_to_recover),
            |s| joules(&mut s.outcomes[1].energy_stranded),
            |s| seconds(&mut s.outcomes[1].longest_outage),
            |s| s.outcomes[1].audit.windows += 1,
            |s| joules(&mut s.outcomes[1].audit.worst_residual),
            |s| ulp(&mut s.outcomes[1].audit.worst_relative),
            |s| seconds(&mut s.outcomes[1].audit.worst_at),
            |s| s.outcomes.truncate(1),
            |s| s.outcomes.swap(0, 1),
        ];
        let base = digest_campaign(&summary);
        for (i, tweak) in tweaks.iter().enumerate() {
            let mut tweaked = summary.clone();
            tweak(&mut tweaked);
            assert_ne!(tweaked, summary, "tweak {i} changed nothing");
            assert_ne!(digest_campaign(&tweaked), base, "tweak {i}");
        }
    }

    #[test]
    fn digests_are_value_sensitive() {
        let mut unit = SystemId::B.build();
        let result = mseh_sim::run_simulation(
            &mut unit,
            &make_env("indoor", 3).unwrap(),
            &natural_node(SystemId::B),
            make_policy("ladder").unwrap().as_mut(),
            SimConfig::over(Seconds::from_hours(2.0)),
        );
        let d1 = digest_single(&result);
        let mut tweaked = result;
        tweaked.uptime += 1e-12;
        assert_ne!(d1, digest_single(&tweaked));
    }
}
