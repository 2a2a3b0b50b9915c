//! `cli-oneshot`: one closed-loop client running `mseh` invocations one
//! after another, each a fresh process that pays startup, system build,
//! per-step environment sampling and the boxed `PowerUnit` step.

use crate::inputs::{CliOp, CliOps, CLI_ARENA_DAYS, CLI_ARENA_SEEDS, CLI_SURVEY_DAYS};
use crate::layers::{self, LayerTimes, Replayed, Rows};
use crate::proc::{children_peak_rss_mb, sibling_binary};
use crate::report::{self, audit_problem, OpTiming, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use mseh::daemon::{build_arena_spec, make_env, make_policy};
use mseh::sim::{default_contenders, run_arena, run_simulation, ArenaConfig, Platform, SimConfig};
use mseh::systems::resilience::natural_node;
use mseh::systems::site_survey;
use mseh::units::Seconds;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Set-up: the invocations that bring the binary and its pages in before
/// the first timed one. Repeated [`SETUPS`] times; the median is reported.
const WARM_UP: [&[&str]; 7] = [
    &["help"],
    &["systems"],
    &["table1"],
    &["simulate", "--days", "1"],
    &["simulate", "--system", "B", "--days", "7"],
    &["arena", "--days", "1", "--seeds", "1"],
    &["survey", "--days", "1"],
];
const SETUPS: usize = 5;
/// The survey's sampling step, as `mseh survey` uses it, and its one
/// stock device per harvester class.
const SURVEY_STEP_MIN: f64 = 10.0;
const SURVEY_DEVICES: u64 = 7;
const STEPS_PER_DAY: u64 = 1440;

/// Simulated steps one invocation covers: platform steps for `simulate`
/// and every arena lane, device evaluations for `survey`.
fn steps(op: &CliOp, contenders: u64) -> u64 {
    match op {
        CliOp::Simulate { days, .. } => u64::from(*days) * STEPS_PER_DAY,
        CliOp::Arena { .. } => {
            contenders * CLI_ARENA_SEEDS * u64::from(CLI_ARENA_DAYS) * STEPS_PER_DAY
        }
        CliOp::Survey { .. } => {
            SURVEY_DEVICES * u64::from(CLI_SURVEY_DAYS) * (24 * 60 / SURVEY_STEP_MIN as u64)
        }
    }
}

/// Residuals printed by `simulate` (`audit residual   : x`) and `arena`
/// (`…; audit x`).
fn printed_audits(stdout: &str) -> Vec<f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let value = line
                .strip_prefix("audit residual")
                .and_then(|rest| rest.split(':').nth(1))
                .or_else(|| line.split("; audit ").nth(1))?;
            Some(value.trim().parse().unwrap_or(f64::NAN))
        })
        .collect()
}

/// Problems with one invocation's result: a failed exit, a missing or
/// too-large audit residual, or output differing from the earlier run of
/// the same invocation.
fn check_output(op: &CliOp, output: &Output, earlier: Option<&[u8]>) -> Vec<String> {
    let mut problems = Vec::new();
    let args = op.args().join(" ");
    if !output.status.success() {
        problems.push(format!(
            "`mseh {args}` exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let audits = printed_audits(&String::from_utf8_lossy(&output.stdout));
    let expected = usize::from(!matches!(op, CliOp::Survey { .. }));
    if audits.len() != expected {
        problems.push(format!(
            "`mseh {args}` printed {} audit residuals, expected {expected}",
            audits.len()
        ));
    }
    problems.extend(
        audits
            .iter()
            .filter_map(|&a| audit_problem(&format!("`mseh {args}`"), a)),
    );
    if earlier.is_some_and(|e| e != output.stdout.as_slice()) {
        problems.push(format!(
            "`mseh {args}` printed different output when repeated"
        ));
    }
    problems
}

struct Record {
    op: CliOp,
    timing: OpTiming,
    stdout: Vec<u8>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mseh = match sibling_binary("mseh") {
        Ok(p) => p,
        Err(e) => {
            out.checks.check(false, || e.to_string());
            return out;
        }
    };
    let contenders = default_contenders().len() as u64;

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        for args in WARM_UP {
            let ok = Command::new(&mseh)
                .args(args)
                .output()
                .is_ok_and(|o| o.status.success());
            out.checks
                .check(ok, || format!("warm-up `mseh {}` failed", args.join(" ")));
        }
        setups.push(t0.elapsed());
    }

    let mut ops = CliOps::new(ctx.seed);
    let mut records: Vec<Record> = Vec::new();
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        let (op, repeat) = ops.next_op();
        let start = Instant::now();
        let result = Command::new(&mseh).args(op.args()).output();
        let end = Instant::now();
        let timing = OpTiming {
            start,
            end,
            steps: steps(&op, contenders),
        };
        let stdout = match result {
            Ok(output) => {
                let earlier = repeat.map(|j| records[j].stdout.as_slice());
                out.checks.attempt(check_output(&op, &output, earlier));
                output.stdout
            }
            Err(e) => {
                out.checks.attempt(vec![format!("spawning mseh: {e}")]);
                Vec::new()
            }
        };
        records.push(Record { op, timing, stdout });
    }
    let phase = records
        .last()
        .map_or(Duration::ZERO, |r| r.timing.end - phase_start);
    let repeats = records.len() / 50;
    out.notes.push(format!(
        "{} invocations, {repeats} repeats checked byte for byte",
        records.len()
    ));

    if !ctx.trace {
        let timings: Vec<OpTiming> = records.iter().map(|r| r.timing).collect();
        report::end_to_end(&setups, &timings, phase, children_peak_rss_mb(), &mut out);
        return out;
    }

    // Traced run: one span per invocation, then in-process replays of
    // the invocations in order until half the run length is spent.
    let mut tracer = Tracer::new(ctx.workload, phase_start);
    let ids: Vec<u64> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            tracer.record(
                "cli.invocation",
                None,
                i as u64,
                (r.timing.start, r.timing.end),
                vec![("steps", r.timing.steps as f64)],
            )
        })
        .collect();
    let budget_end = Instant::now() + Duration::from_secs_f64(ctx.seconds / 2.0);
    let mut replayed = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if Instant::now() >= budget_end {
            break;
        }
        let s0 = Instant::now();
        let (hits, misses) = service(&r.op);
        let s1 = Instant::now();
        let mut layers = LayerTimes::default();
        replay(&r.op, &mut layers);
        let r1 = Instant::now();
        tracer.record("sim.service", Some(ids[i]), i as u64, (s0, s1), vec![]);
        tracer.record(
            "layers.replay",
            Some(ids[i]),
            i as u64,
            (s1, r1),
            layers.attrs(),
        );
        replayed.push(Replayed {
            wall_ms: r.timing.wall_ms(),
            service_ms: (s1 - s0).as_secs_f64() * 1e3,
            layers,
            cache_hits: hits,
            cache_misses: misses,
        });
    }
    tracer.finish(&replayed, phase, &mut out);
    out
}

/// The kernel call behind one invocation, in-process: what `mseh` runs
/// between parsing its arguments and printing. Returns the kernel-cache
/// `(hits, misses)`.
fn service(op: &CliOp) -> (u64, u64) {
    match op {
        CliOp::Simulate {
            system,
            env,
            days,
            policy,
            seed,
        } => {
            let environment = make_env(env, *seed).expect("generated env");
            let mut policy = make_policy(policy).expect("generated policy");
            let mut unit = system.build();
            std::hint::black_box(run_simulation(
                &mut unit,
                &environment,
                &natural_node(*system),
                policy.as_mut(),
                SimConfig::over(Seconds::from_days(f64::from(*days))),
            ));
            let stats = Platform::kernel_cache_stats(&unit);
            (stats.hits, stats.misses)
        }
        CliOp::Arena { system, env, seed } => {
            let spec = build_arena_spec(*system, env, *seed, CLI_ARENA_SEEDS, "default")
                .expect("generated arena");
            let result = run_arena(
                &spec,
                ArenaConfig::over(Seconds::from_days(f64::from(CLI_ARENA_DAYS))),
            );
            (
                result.summary.kernel_cache.hits,
                result.summary.kernel_cache.misses,
            )
        }
        CliOp::Survey { env, seed } => {
            std::hint::black_box(site_survey(
                &make_env(env, *seed).expect("generated env"),
                Seconds::from_days(f64::from(CLI_SURVEY_DAYS)),
                Seconds::from_minutes(SURVEY_STEP_MIN),
            ));
            (0, 0)
        }
    }
}

/// The invocation's layer calls, timed.
fn replay(op: &CliOp, t: &mut LayerTimes) {
    match op {
        CliOp::Simulate {
            system,
            env,
            days,
            policy,
            seed,
        } => {
            let environment = make_env(env, *seed).expect("generated env");
            let mut policy = make_policy(policy).expect("generated policy");
            let mut unit = system.build();
            layers::replay_lane(
                &mut unit,
                &natural_node(*system),
                policy.as_mut(),
                Rows::Sample(&environment),
                SimConfig::over(Seconds::from_days(f64::from(*days))),
                t,
            );
        }
        CliOp::Arena { system, env, seed } => {
            let seeds: Vec<u64> = (0..CLI_ARENA_SEEDS).map(|i| seed.wrapping_add(i)).collect();
            layers::replay_arena(
                *system,
                |s| make_env(env, s).expect("generated env"),
                &seeds,
                &default_contenders(),
                SimConfig::over(Seconds::from_days(f64::from(CLI_ARENA_DAYS))),
                t,
            );
        }
        CliOp::Survey { env, seed } => {
            // The survey samples the site once per device per instant.
            let environment = make_env(env, *seed).expect("generated env");
            let grid = SimConfig {
                dt: Seconds::from_minutes(SURVEY_STEP_MIN),
                ..SimConfig::over(Seconds::from_days(f64::from(CLI_SURVEY_DAYS)))
            };
            for _ in 0..SURVEY_DEVICES {
                layers::sample_all(&environment, grid, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh::systems::SystemId;
    use std::os::unix::process::ExitStatusExt;
    use std::process::ExitStatus;

    fn output(code: i32, stdout: &str) -> Output {
        Output {
            status: ExitStatus::from_raw(code << 8),
            stdout: stdout.as_bytes().to_vec(),
            stderr: Vec::new(),
        }
    }

    #[test]
    fn output_checks_catch_exit_audit_and_repeat_failures() {
        let op = CliOp::Simulate {
            system: SystemId::A,
            env: "outdoor",
            days: 7,
            policy: "ladder",
            seed: 1,
        };
        let good = "uptime : 99 %\naudit residual   : 5.96e-14\n";
        assert!(check_output(&op, &output(0, good), None).is_empty());
        assert!(check_output(&op, &output(0, good), Some(good.as_bytes())).is_empty());
        // A corrupted repeat, a residual above 1e-6, a missing residual
        // and a failed exit each count.
        assert_eq!(check_output(&op, &output(0, good), Some(b"other")).len(), 1);
        let leaky = "audit residual   : 2.00e-3\n";
        assert_eq!(check_output(&op, &output(0, leaky), None).len(), 1);
        assert_eq!(check_output(&op, &output(0, "uptime\n"), None).len(), 1);
        assert_eq!(check_output(&op, &output(1, good), None).len(), 1);
        let arena = CliOp::Arena {
            system: SystemId::B,
            env: "indoor",
            seed: 3,
        };
        let line = "18 lanes, 2880 steps each; kernel cache 0 hits / 5 misses; audit 2.74e-15\n";
        assert!(check_output(&arena, &output(0, line), None).is_empty());
    }
}
