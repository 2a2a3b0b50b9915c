//! `fleet-hetero` and `arena-tournament`: repeated batch runs of one
//! seeded spec in a child process of their own (`mseh-benchmark --child
//! <workload>`), so memory and warm state are per workload. The parent
//! times each run from outside, as a round trip over the child's pipes.
//!
//! Child protocol, one line each way: the child builds the spec, runs
//! one warm-up, and prints `ready`. Then `rep` runs the spec at the
//! default thread count, `threads1` runs it on one thread, `layers`
//! replays its layer calls, and `quit` (or end of input) exits.

use crate::layers::{self, LayerTimes, Replayed};
use crate::proc::{children_peak_rss_mb, wait_with_deadline};
use crate::report::{self, audit_problem, OpTiming, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use mseh::daemon::{build_arena_spec, digest_arena, digest_fleet, make_env, make_policy};
use mseh::env::{EnvJitter, Environment};
use mseh::harvesters::PvModule;
use mseh::node::{DutyCyclePolicy, FixedDuty, SensorNode};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{
    default_contenders, run_arena, run_fleet, ArenaConfig, ArenaSpec, ArenaSummary, DenseGroup,
    DenseStore, FleetConfig, FleetGroup, FleetSpec, FleetSummary, SimConfig,
};
use mseh::storage::{Battery, Supercap};
use mseh::systems::resilience::natural_node;
use mseh::systems::SystemId;
use mseh::units::{DutyCycle, Seconds, Volts};
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SETUPS: usize = 3;

/// One day: 1440 steps per node at the fleet's 60 s step.
const FLEET_HOURS: f64 = 24.0;
/// Every group spreads ±15 % around its site, so no two nodes share a
/// harvest table and the uniform fast path exits in the first window.
const FLEET_JITTER: f64 = 0.15;
/// Boxed groups: platform, node count, site (0 outdoor, 1 indoor).
const BOXED_GROUPS: [(SystemId, usize, usize); 4] = [
    (SystemId::C, 1000, 0),
    (SystemId::A, 250, 0),
    (SystemId::B, 1000, 1),
    (SystemId::F, 250, 1),
];
const DENSE_BATTERY_NODES: usize = 10_000;
const DENSE_SUPERCAP_NODES: usize = 5_000;
/// Boxed members replayed per group in the traced run; the group's layer
/// time is scaled up from them.
const REPLAY_NODES_PER_GROUP: usize = 64;

const ARENA_SYSTEM: SystemId = SystemId::B;
const ARENA_SEEDS: u64 = 8;
const ARENA_DAYS: f64 = 7.0;

/// A fixed duty between 2 and 8 %, chosen by the node's seed.
fn fixed_duty(node_seed: u64) -> Box<dyn DutyCyclePolicy> {
    let d = 0.02 + ((node_seed >> 2) % 7) as f64 * 0.01;
    Box::new(FixedDuty::new(DutyCycle::saturating(d)))
}

/// Ladder, energy-neutral, forecast or a fixed duty, by node seed.
fn mixed_policy(node_seed: u64) -> Box<dyn DutyCyclePolicy> {
    match node_seed % 4 {
        0 => make_policy("ladder").expect("known policy"),
        1 => make_policy("neutral").expect("known policy"),
        2 => make_policy("forecast").expect("known policy"),
        _ => fixed_duty(node_seed),
    }
}

fn ladder_or_fixed(node_seed: u64) -> Box<dyn DutyCyclePolicy> {
    if node_seed.is_multiple_of(2) {
        make_policy("ladder").expect("known policy")
    } else {
        fixed_duty(node_seed)
    }
}

fn pv_channel(module: fn() -> PvModule) -> impl Fn() -> InputChannel + Send + Sync + 'static {
    move || {
        InputChannel::new(
            Box::new(module()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }
}

fn sites(seed: u64) -> [Environment; 2] {
    [
        Environment::outdoor_temperate(seed),
        Environment::indoor_industrial(seed.wrapping_add(1)),
    ]
}

/// The `fleet-hetero` population: four jittered boxed Table-I groups
/// with per-node policies, plus two jittered dense groups (PV + NiMH and
/// PV + EDLC). Either half can be left out for layer replays.
fn fleet_spec(seed: u64, boxed: bool, dense: bool) -> FleetSpec {
    let mut spec = FleetSpec::new();
    for env in sites(seed) {
        spec.add_site(env);
    }
    let jitter = EnvJitter::relative(FLEET_JITTER);
    let group_seed = |g: u64| seed.wrapping_mul(16).wrapping_add(g);
    if boxed {
        for (g, (system, count, site)) in BOXED_GROUPS.into_iter().enumerate() {
            spec.add_group(
                FleetGroup::new(
                    &format!("boxed {system:?}"),
                    count,
                    site,
                    natural_node(system),
                    move |_| Box::new(system.build()),
                    mixed_policy,
                )
                .with_seed(group_seed(g as u64))
                .with_jitter(jitter),
            );
        }
    }
    if dense {
        let mut battery = Battery::nimh_aa_pair();
        battery.set_soc(0.5);
        spec.add_dense_group(
            DenseGroup::new(
                "dense PV+NiMH",
                DENSE_BATTERY_NODES,
                0,
                SensorNode::submilliwatt_class(),
                pv_channel(PvModule::outdoor_panel_half_watt),
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Battery(battery),
                fixed_duty,
            )
            .with_seed(group_seed(8))
            .with_jitter(jitter),
        );
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.8));
        spec.add_dense_group(
            DenseGroup::new(
                "dense PV+EDLC",
                DENSE_SUPERCAP_NODES,
                1,
                SensorNode::submilliwatt_class(),
                pv_channel(PvModule::amorphous_indoor),
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Supercap(cap),
                ladder_or_fixed,
            )
            .with_seed(group_seed(9))
            .with_jitter(jitter),
        );
    }
    spec
}

fn fleet_config() -> FleetConfig {
    FleetConfig::over(Seconds::from_hours(FLEET_HOURS))
}

fn arena_spec(seed: u64) -> ArenaSpec {
    build_arena_spec(ARENA_SYSTEM, "outdoor", seed, ARENA_SEEDS, "default").expect("known arena")
}

fn arena_config() -> ArenaConfig {
    ArenaConfig::over(Seconds::from_days(ARENA_DAYS))
}

enum Batch {
    Fleet(FleetSpec),
    Arena(ArenaSpec),
}

#[derive(Debug, Clone, PartialEq)]
enum Summary {
    Fleet(FleetSummary),
    Arena(ArenaSummary),
}

struct Rep {
    summary: Summary,
    digest: u64,
    audit: f64,
    steps: u64,
    hits: u64,
    misses: u64,
}

impl Rep {
    /// Bit-identical to `other`: equal summaries and equal digests.
    fn matches(&self, other: &Rep) -> bool {
        self.summary == other.summary && self.digest == other.digest
    }
}

impl Batch {
    fn new(workload: &str, seed: u64) -> Option<Self> {
        match workload {
            "fleet-hetero" => Some(Batch::Fleet(fleet_spec(seed, true, true))),
            "arena-tournament" => Some(Batch::Arena(arena_spec(seed))),
            _ => None,
        }
    }

    /// One run at `threads` worker threads (0 = the default count).
    fn rep(&self, threads: usize) -> Rep {
        match self {
            Batch::Fleet(spec) => {
                let s = run_fleet(spec, fleet_config().with_threads(threads)).summary;
                Rep {
                    digest: digest_fleet(&s),
                    audit: s.audit_relative,
                    steps: s.node_steps,
                    hits: s.kernel_cache.hits,
                    misses: s.kernel_cache.misses,
                    summary: Summary::Fleet(s),
                }
            }
            Batch::Arena(spec) => {
                let s = run_arena(spec, arena_config().with_threads(threads)).summary;
                Rep {
                    digest: digest_arena(&s),
                    audit: s.audit_relative,
                    steps: s.lanes * s.steps_per_lane,
                    hits: s.kernel_cache.hits,
                    misses: s.kernel_cache.misses,
                    summary: Summary::Arena(s),
                }
            }
        }
    }

    /// The run's layer calls, timed on one thread.
    fn replay(&self, seed: u64) -> LayerTimes {
        let mut t = LayerTimes::default();
        match self {
            Batch::Fleet(_) => {
                let config = fleet_config().sim;
                let site_rows: Vec<_> = sites(seed)
                    .iter()
                    .map(|env| layers::sample_windows(env, config, &mut t))
                    .collect();
                for (g, (system, count, site)) in BOXED_GROUPS.into_iter().enumerate() {
                    let mut group = LayerTimes::default();
                    let first = seed.wrapping_mul(1 << 20).wrapping_add((g as u64) << 16);
                    layers::replay_fleet_nodes(
                        system,
                        &site_rows[site],
                        EnvJitter::relative(FLEET_JITTER),
                        first..first + REPLAY_NODES_PER_GROUP as u64,
                        mixed_policy,
                        config,
                        &mut group,
                    );
                    t += group.scaled(count as f64 / REPLAY_NODES_PER_GROUP as f64);
                }
                // The dense groups' power flow runs inside the lane
                // kernels; time them as one isolated single-thread run.
                let dense = fleet_spec(seed, false, true);
                let t0 = Instant::now();
                let s = run_fleet(&dense, fleet_config().with_threads(1)).summary;
                t.core_ns += t0.elapsed().as_nanos() as f64;
                t.core_steps += s.node_steps as f64;
            }
            Batch::Arena(_) => {
                let seeds: Vec<u64> = (0..ARENA_SEEDS).map(|i| seed.wrapping_add(i)).collect();
                layers::replay_arena(
                    ARENA_SYSTEM,
                    |s| make_env("outdoor", s).expect("known env"),
                    &seeds,
                    &default_contenders(),
                    SimConfig::over(Seconds::from_days(ARENA_DAYS)),
                    &mut t,
                );
            }
        }
        t
    }
}

/// `mseh-benchmark --child <workload> --seed <n>`: serves the parent's
/// requests until `quit`.
pub fn child_main(workload: &str, seed: u64) -> Result<(), String> {
    let batch =
        Batch::new(workload, seed).ok_or_else(|| format!("no batch workload {workload}"))?;
    let reference = batch.rep(0);
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let mut reply = |line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    reply("ready".into())?;
    for line in io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.trim() {
            "rep" => {
                let t0 = Instant::now();
                let rep = batch.rep(0);
                let wall = t0.elapsed();
                reply(format!(
                    "rep {} {} {:e} {} {} {}",
                    wall.as_nanos(),
                    u8::from(rep.matches(&reference)),
                    rep.audit,
                    rep.steps,
                    rep.hits,
                    rep.misses
                ))?;
            }
            "threads1" => {
                let same = batch.rep(1).matches(&reference);
                reply(format!("threads1 {}", u8::from(same)))?;
            }
            "layers" => {
                let fields: Vec<String> = batch
                    .replay(seed)
                    .to_fields()
                    .iter()
                    .map(|v| format!("{v:e}"))
                    .collect();
                reply(format!("layers {}", fields.join(" ")))?;
            }
            "quit" => break,
            other => return Err(format!("unknown request {other:?}")),
        }
    }
    Ok(())
}

/// The parent's end of one child.
struct ChildProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    fn spawn(workload: &str, seed: u64) -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--child", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut proc = ChildProc {
            child,
            stdin,
            stdout,
        };
        let ready = proc.read_reply()?;
        if ready != ["ready"] {
            return Err(io::Error::other(format!("child said {ready:?}")));
        }
        Ok(proc)
    }

    fn read_reply(&mut self) -> io::Result<Vec<String>> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "child exited early",
            ));
        }
        Ok(line.split_whitespace().map(str::to_string).collect())
    }

    /// Sends one request and reads the reply's fields after its verb.
    fn request(&mut self, verb: &str) -> Result<Vec<f64>, String> {
        writeln!(self.stdin, "{verb}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("{verb}: {e}"))?;
        let reply = self.read_reply().map_err(|e| format!("{verb}: {e}"))?;
        if reply.first().map(String::as_str) != Some(verb) {
            return Err(format!("{verb}: child replied {reply:?}"));
        }
        reply[1..]
            .iter()
            .map(|f| f.parse().map_err(|_| format!("{verb}: bad field {f:?}")))
            .collect()
    }

    fn quit(mut self) -> Result<(), String> {
        let _ = writeln!(self.stdin, "quit").and_then(|()| self.stdin.flush());
        let status = wait_with_deadline(&mut self.child, Duration::from_secs(60))
            .map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

/// Never leaves a child behind, whichever way the run ends (after `quit`
/// the child is already reaped and this does nothing).
impl Drop for ChildProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `rep` reply: `wall_ns same audit steps hits misses`.
#[derive(Debug, Clone, Copy)]
struct RepReply {
    /// The kernel call's wall as the child timed it.
    service: Duration,
    same: bool,
    audit: f64,
    steps: u64,
    hits: u64,
    misses: u64,
}

impl RepReply {
    fn parse(fields: &[f64]) -> Result<Self, String> {
        let [wall_ns, same, audit, steps, hits, misses] = *fields else {
            return Err(format!("malformed rep reply {fields:?}"));
        };
        Ok(RepReply {
            service: Duration::from_nanos(wall_ns as u64),
            same: same == 1.0,
            audit,
            steps: steps as u64,
            hits: hits as u64,
            misses: misses as u64,
        })
    }

    /// A run must equal the warm-up run bit for bit and close its books.
    fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.same {
            problems.push("run differs from the warm-up run (not bit-identical)".to_string());
        }
        problems.extend(audit_problem("batch run", self.audit));
        problems
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let spawned = ChildProc::spawn(ctx.workload, ctx.seed);
        setups.push(t0.elapsed());
        match spawned {
            Ok(child) if i + 1 < SETUPS => {
                out.checks.result(child.quit());
            }
            Ok(child) => live = Some(child),
            Err(e) => {
                out.checks
                    .check(false, || format!("starting the child: {e}"));
                return out;
            }
        }
    }
    let mut child = live.expect("the last set-up keeps its child");

    let mut ops: Vec<(OpTiming, RepReply)> = Vec::new();
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        let start = Instant::now();
        let reply = child.request("rep").and_then(|f| RepReply::parse(&f));
        let end = Instant::now();
        match reply {
            Ok(rep) => {
                out.checks.attempt(rep.problems());
                let steps = rep.steps;
                ops.push((OpTiming { start, end, steps }, rep));
            }
            Err(e) => {
                out.checks.attempt(vec![e]);
                break;
            }
        }
    }
    let phase = ops
        .last()
        .map_or(Duration::ZERO, |(t, _)| t.end - phase_start);
    let same = child.request("threads1");
    out.checks.check(same.as_deref() == Ok(&[1.0]), || {
        format!("a one-thread run differs from the default-thread run: {same:?}")
    });
    out.notes.push(format!(
        "{} timed runs after one warm-up; one-thread run checked bit-identical",
        ops.len()
    ));

    if !ctx.trace {
        out.checks.result(child.quit());
        let timings: Vec<OpTiming> = ops.iter().map(|(t, _)| *t).collect();
        report::end_to_end(&setups, &timings, phase, children_peak_rss_mb(), &mut out);
        return out;
    }

    // Traced run: a span per run with the child's own kernel time as its
    // service child, and one layer replay explaining every run (they are
    // identical work).
    let mut tracer = Tracer::new(ctx.workload, phase_start);
    let r0 = Instant::now();
    let layers = child.request("layers").map(|f| LayerTimes::from_fields(&f));
    let r1 = Instant::now();
    out.checks.result(child.quit());
    let layers = match layers {
        Ok(Some(l)) => l,
        other => {
            out.checks
                .check(false, || format!("layer replay failed: {other:?}"));
            return out;
        }
    };
    let mut replayed = Vec::new();
    for (i, (t, rep)) in ops.iter().enumerate() {
        let id = tracer.record(
            "batch.run",
            None,
            i as u64,
            (t.start, t.end),
            vec![("steps", t.steps as f64)],
        );
        tracer.record(
            "sim.service",
            Some(id),
            i as u64,
            (t.start, t.start + rep.service),
            vec![],
        );
        if i == 0 {
            tracer.record("layers.replay", Some(id), 0, (r0, r1), layers.attrs());
        }
        replayed.push(Replayed {
            wall_ms: t.wall_ms(),
            service_ms: rep.service.as_secs_f64() * 1e3,
            layers,
            cache_hits: rep.hits,
            cache_misses: rep.misses,
        });
    }
    tracer.finish(&replayed, phase, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_replies_are_checked() {
        let problems = |f: &[f64]| RepReply::parse(f).unwrap().problems().len();
        assert_eq!(problems(&[1e9, 1.0, 1e-15, 10.0, 0.0, 0.0]), 0);
        // A run that is not bit-identical, and one whose books do not
        // close, each fail.
        assert_eq!(problems(&[1e9, 0.0, 1e-15, 10.0, 0.0, 0.0]), 1);
        assert_eq!(problems(&[1e9, 1.0, 1e-3, 10.0, 0.0, 0.0]), 1);
        assert!(RepReply::parse(&[1e9]).is_err());
    }

    #[test]
    fn fleet_population_is_heterogeneous() {
        let spec = fleet_spec(7, true, true);
        assert_eq!(spec.population(), 17_500);
        assert_eq!(spec.groups().len(), 6);
        assert_eq!(spec.site_count(), 2);
    }
}
