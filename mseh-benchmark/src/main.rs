//! `mseh-benchmark` — the end-to-end benchmark of record for `mseh`.
//!
//! ```sh
//! bash mseh-benchmark/run.sh --workload cli-oneshot --seed 7 --seconds 25 --trace 0
//! bash mseh-benchmark/run.sh --workload all --seed 1013
//! target/release/mseh-benchmark --compare parent-*.txt -- change-*.txt
//! ```
//!
//! Each workload measures the shipped program from outside — the `mseh`
//! binary as a child process, `mseh serve` over loopback TCP, fleet and
//! arena runs in a child process of their own — for `--seconds` seconds,
//! checks every output, and ends its report with one JSON result line.
//! `--trace 1` re-runs the workload and replays its operations layer by
//! layer instead, reporting per-layer metrics and writing spans. See
//! `README.md` beside this file.

mod batch;
mod cli;
mod compare;
mod inputs;
mod json;
mod layers;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;

use report::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "cli-oneshot",
    "serve-mixed",
    "fleet-hetero",
    "arena-tournament",
];

/// One workload run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "\
usage: mseh-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
       mseh-benchmark --compare <parent.txt…> -- <change.txt…>

workloads: cli-oneshot, serve-mixed, fleet-hetero, arena-tournament
defaults:  --workload all --seed 7 --seconds 25 --trace 0";

/// Runs one workload and prints its report; returns whether it passed.
fn run_workload(ctx: Ctx) -> bool {
    let mut outcome = match ctx.workload {
        "cli-oneshot" => cli::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        _ => batch::run(&ctx),
    };
    let expected: Vec<&str> = if ctx.trace {
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing = report::missing_metrics(&outcome.metrics, &expected);
    if !missing.is_empty() {
        outcome.checks.attempt(missing);
    }
    let w = ctx.workload;
    for m in &outcome.metrics {
        println!(
            "{w:<17} {:<26} {:>16.6} {:<5} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for note in &outcome.notes {
        println!("{w:<17} {note}");
    }
    for message in &outcome.checks.messages {
        eprintln!("{w}: FAILED: {message}");
    }
    println!(
        "# mseh-benchmark workload={w} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("{}", report::result_line(&outcome.checks, &outcome.metrics));
    outcome.checks.failed == 0
}

fn parse_args(args: &[String]) -> Result<(Vec<&'static str>, u64, f64, bool), String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (WORKLOADS.to_vec(), 7, 25.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = match value.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    name => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                }
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok((workloads, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--compare") => return compare::main(&args[1..]),
        Some("--child") => {
            let (workload, seed) = match args.as_slice() {
                [_, w, flag, s] if flag == "--seed" => (w.as_str(), s.parse().ok()),
                _ => ("", None),
            };
            let Some(seed) = seed else {
                eprintln!("usage: mseh-benchmark --child <workload> --seed N");
                return ExitCode::from(64);
            };
            return match batch::child_main(workload, seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("child: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let (workloads, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let passed = match workloads.as_slice() {
        [workload] => run_workload(Ctx {
            workload,
            seed,
            seconds,
            trace,
        }),
        // One process per workload: peak memory is read from the
        // kernel's per-process record of children, which never resets.
        all => all.iter().fold(true, |passed, workload| {
            let status = std::env::current_exe().and_then(|exe| {
                Command::new(exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .status()
            });
            passed & status.is_ok_and(|s| s.success())
        }),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
