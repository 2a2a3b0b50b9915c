//! `mseh` — command-line front end: regenerate Table I, simulate any
//! surveyed platform in any deployment, sweep buffer sizes, export
//! traces.
//!
//! ```sh
//! cargo run --release --bin mseh -- table1
//! cargo run --release --bin mseh -- simulate --system B --env indoor --days 7
//! cargo run --release --bin mseh -- simulate --system A --policy forecast --record /tmp/run.csv
//! cargo run --release --bin mseh -- sweep-buffer --days 14 --seed 77
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mseh::core::{classify, render_table};
use mseh::daemon::{check_days, make_env, Job, JobKind, JobSummary, SystemCatalog};
use mseh::env::Environment;
use mseh::node::{FixedDuty, SensorNode};
use mseh::sim::serve::{serve, JobSpec, ServeConfig};
use mseh::sim::{run_simulation, RunControl, SimConfig};
use mseh::systems::buffer_rig::{self, SourceSet};
use mseh::systems::{all_systems, SystemId};
use mseh::units::{DutyCycle, Seconds};

/// The site survey's sampling step.
const SURVEY_STEP: Seconds = Seconds::new(600.0);

const USAGE: &str = "\
mseh — multi-source energy harvesting systems (Weddell et al., DATE 2013)

USAGE:
    mseh table1
    mseh systems
    mseh simulate [--system A..G] [--env ENV] [--days N] [--seed N]
                  [--policy POLICY] [--record FILE.csv]
    mseh sweep-buffer [--days N] [--seed N]
    mseh survey [--env ENV] [--days N] [--seed N]
    mseh arena [--system A..G] [--env ENV] [--days N] [--seed N]
               [--seeds K] [--roster LIST]
    mseh serve [--addr HOST:PORT] [--queue N] [--workers N]

ENV:      outdoor (default) | winter | indoor | office | agricultural
POLICY:   ladder (default) | neutral | forecast | fixed:<duty 0..1>
RECORD:   writes store-voltage/harvest/duty time series as CSV
ROSTER:   default (the stock tournament) or a comma-separated list of
          POLICY spellings plus select | hillclimb
ARENA:    ranks the roster's policies over K seeded scenario replays of
          one shared environment trace each — every lane bit-identical
          to an independent simulate run
SERVE:    long-running job daemon (default addr 127.0.0.1:7878); see the
          README's \"Service mode\" section for the line protocol

The full experiment suite (Table I, figures, E1-E10, ablations) lives in
`cargo run --release -p mseh-bench --bin experiments`.";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Table1,
    Systems,
    /// `simulate` (a `single` job) or `arena`, and where `simulate
    /// --record` writes its traces.
    Run {
        job: Job,
        record: Option<String>,
    },
    SweepBuffer {
        days: f64,
        seed: u64,
    },
    Survey {
        env: String,
        days: f64,
        seed: u64,
    },
    Serve {
        addr: String,
        queue: usize,
        workers: usize,
    },
    Help,
}

/// Parses arguments (first element is the subcommand, no program name).
fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut opts: Vec<(String, String)> = Vec::new();
    for pair in rest.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {:?}", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        // A following `--option` is the next flag, not this option's
        // value — without this check `--record --days 3` would silently
        // store "--days" as the record path and run with default days.
        if value.starts_with("--") {
            return Err(format!("--{key} needs a value, got option {value:?}"));
        }
        if opts.iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate option --{key}"));
        }
        opts.push((key.to_owned(), value.clone()));
    }
    // `simulate` and `arena` run jobs of `mseh::daemon`'s grammar and give
    // their own defaults to the fields it leaves to its front end.
    let job = match sub.as_str() {
        "simulate" => Some(("single", "system=A;days=7;seed=42")),
        "arena" => Some(("arena", "system=B;days=2;seed=42")),
        _ => None,
    };
    if let Some((kind, defaults)) = job {
        let record = opts
            .iter()
            .position(|(k, _)| sub == "simulate" && k == "record")
            .map(|i| opts.remove(i).1);
        let spec = JobSpec {
            kind: kind.to_owned(),
            fields: opts,
        };
        let job = Job::parse(&spec, defaults).map_err(|e| format!("--{e}"))?;
        return Ok(Command::Run { job, record });
    }
    // Every other subcommand takes only its own options; anything else is
    // an error, not a silent no-op.
    let allowed: &[&str] = match sub.as_str() {
        "sweep-buffer" => &["days", "seed"],
        "survey" => &["env", "days", "seed"],
        "serve" => &["addr", "queue", "workers"],
        _ => &[],
    };
    if let Some((key, _)) = opts.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        return Err(format!("unknown option --{key} for {sub}"));
    }
    let get = |key: &str| opts.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    // A horizon the subcommand can run at its step, within the daemon's
    // bound (see `check_days`).
    let days = |default: f64, step: Seconds| -> Result<f64, String> {
        let days: f64 = match get("days") {
            None => default,
            Some(v) => v.parse().map_err(|e| format!("--days: {e}"))?,
        };
        check_days(days, step).map_err(|e| format!("--{e}"))?;
        Ok(days)
    };
    let seed = || -> Result<u64, String> {
        get("seed").map_or(Ok(42), |v| v.parse().map_err(|e| format!("--seed: {e}")))
    };
    match sub.as_str() {
        "table1" => Ok(Command::Table1),
        "systems" => Ok(Command::Systems),
        "sweep-buffer" => Ok(Command::SweepBuffer {
            days: days(14.0, SimConfig::week().dt)?,
            seed: seed()?,
        }),
        "survey" => Ok(Command::Survey {
            env: get("env").cloned().unwrap_or_else(|| "outdoor".into()),
            days: days(3.0, SURVEY_STEP)?,
            seed: seed()?,
        }),
        "serve" => {
            let parse_count = |key: &str, default: usize| -> Result<usize, String> {
                let n: usize = match get(key) {
                    None => default,
                    Some(v) => v.parse().map_err(|e| format!("--{key}: {e}"))?,
                };
                if n == 0 {
                    return Err(format!("--{key} must be at least 1"));
                }
                Ok(n)
            };
            Ok(Command::Serve {
                addr: get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7878".into()),
                queue: parse_count("queue", 8)?,
                workers: parse_count("workers", 2)?,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => println!("{USAGE}"),
        Command::Table1 => {
            let records: Vec<_> = all_systems().iter().map(classify).collect();
            println!("{}", render_table(&records));
        }
        Command::Systems => {
            for id in SystemId::ALL {
                let unit = id.build();
                let r = classify(&unit);
                println!(
                    "{id}: {} harvester ports, {} store ports, quiescent {:.1} µA, {}",
                    r.n_harvesters,
                    r.n_stores,
                    r.quiescent.as_micro(),
                    r.exchangeability()
                );
            }
        }
        Command::Run { job, record } => run_job(&job, record)?,
        Command::Survey { env, days, seed } => {
            let environment = make_env(&env, seed)?;
            let report =
                mseh::systems::site_survey(&environment, Seconds::from_days(days), SURVEY_STEP);
            println!("{report}");
        }
        Command::SweepBuffer { days, seed } => {
            // E2's solar column, on the same rig (`mseh::systems::buffer_rig`).
            println!("buffer sweep over {days} days (seed {seed}) — see also E2 in mseh-bench");
            let env = Environment::outdoor_temperate(seed);
            let node = SensorNode::submilliwatt_class();
            println!("{:>8} | {:>9}", "size (F)", "uptime");
            for farads in [2.0, 5.0, 10.0, 22.0, 50.0, 100.0] {
                let result = run_simulation(
                    &mut buffer_rig::build(SourceSet::Solar, farads),
                    &env,
                    &node,
                    &mut FixedDuty::new(DutyCycle::saturating(0.15)),
                    SimConfig::over(Seconds::from_days(days)),
                );
                println!("{farads:>8.0} | {:>7.2} %", result.uptime * 100.0);
            }
        }
        Command::Serve {
            addr,
            queue,
            workers,
        } => {
            let handle = serve(
                &addr,
                Arc::new(SystemCatalog),
                ServeConfig {
                    queue_capacity: queue,
                    workers,
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("binding {addr}: {e}"))?;
            // The exact bound address on its own line, so scripts using
            // an ephemeral port (--addr 127.0.0.1:0) can scrape it.
            println!("mseh serve listening on {}", handle.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            // Blocks until a client sends the wire `shutdown` verb.
            handle.wait();
            println!("mseh serve stopped");
        }
    }
    Ok(())
}

/// Runs a `simulate` or `arena` job and prints its summary; `record` is
/// where `simulate --record` writes the run's traces.
fn run_job(job: &Job, record: Option<String>) -> Result<(), String> {
    let summary = job
        .run(RunControl::default(), record.is_some())?
        .expect("a run without a cancel token runs to its end");
    let (system, days, seed) = (job.system, job.days, job.seed);
    match (&job.kind, summary) {
        (JobKind::Single { env, policy }, JobSummary::Single(result)) => {
            println!("{system} in {env} for {days} days (seed {seed}, policy {policy})");
            println!("harvested        : {}", result.harvested);
            println!("delivered        : {}", result.delivered);
            println!("uptime           : {:.2} %", result.uptime * 100.0);
            println!("samples          : {:.0}", result.samples);
            println!("brownout steps   : {}", result.brownout_steps);
            println!("min store voltage: {}", result.min_store_voltage);
            println!("audit residual   : {:.2e}", result.audit_residual);
            if let (Some(path), Some(traces)) = (record, result.traces) {
                let mut csv = String::from("time_s,store_voltage_v,harvest_power_w,duty\n");
                let (voltage, harvest, duty) =
                    (&traces.store_voltage, &traces.harvest_power, &traces.duty);
                for ((tv, hv), dv) in voltage.iter().zip(harvest.iter()).zip(duty.iter()) {
                    csv.push_str(&format!("{},{},{},{}\n", tv.0.value(), tv.1, hv.1, dv.1));
                }
                std::fs::write(&path, csv).map_err(|e| format!("writing {path}: {e}"))?;
                println!("traces written to {path}");
            }
        }
        (JobKind::Arena { env, seeds, .. }, JobSummary::Arena(s)) => {
            println!(
                "arena: {system} in {env} for {days} days — {} contenders × {seeds} seeds (base seed {seed})",
                s.contenders,
            );
            println!(
                "{} lanes, {} steps each; kernel cache {} hits / {} misses; audit {:.2e}",
                s.lanes,
                s.steps_per_lane,
                s.kernel_cache.hits,
                s.kernel_cache.misses,
                s.audit_relative
            );
            println!(
                "{:>4} | {:<24} | {:>8} | {:>8} | {:>7} | {:>10} | {:>9}",
                "rank", "contender", "served", "uptime", "neutral", "samples", "failovers"
            );
            for standing in &s.standings {
                println!(
                    "{:>4} | {:<24} | {:>7.3}% | {:>7.3}% | {:>4}/{:<2} | {:>10.0} | {:>9}",
                    standing.rank,
                    standing.name,
                    standing.served_fraction * 100.0,
                    standing.uptime.mean * 100.0,
                    standing.energy_neutral_seeds,
                    s.seeds,
                    standing.samples,
                    standing.failovers,
                );
            }
        }
        _ => unreachable!("the CLI parses single and arena jobs only"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh::daemon::make_policy;
    use mseh::sim::serve::protocol::parse_line;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_subcommands() {
        assert_eq!(parse(&argv("table1")).unwrap(), Command::Table1);
        assert!(matches!(
            parse(&argv("survey --env indoor")).unwrap(),
            Command::Survey { .. }
        ));
        assert_eq!(parse(&argv("systems")).unwrap(), Command::Systems);
        assert_eq!(parse(&argv("")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn parses_simulate_options() {
        let cmd = parse(&argv(
            "simulate --system B --env indoor --days 3 --seed 9 --policy neutral",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                job:
                    Job {
                        kind: JobKind::Single { env, policy },
                        system,
                        days,
                        seed,
                    },
                record,
            } => {
                assert_eq!(system, SystemId::B);
                assert_eq!(env, "indoor");
                assert_eq!(days, 3.0);
                assert_eq!(seed, 9);
                assert_eq!(policy, "neutral");
                assert_eq!(record, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn defaults_apply() {
        match parse(&argv("simulate")).unwrap() {
            Command::Run {
                job:
                    Job {
                        kind: JobKind::Single { env, policy },
                        system,
                        days,
                        seed,
                    },
                ..
            } => {
                assert_eq!(system, SystemId::A);
                assert_eq!(env, "outdoor");
                assert_eq!(days, 7.0);
                assert_eq!(seed, 42);
                assert_eq!(policy, "ladder");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_options() {
        assert!(parse(&argv("simulate --days")).is_err());
        assert!(parse(&argv("simulate days 3")).is_err());
        assert!(parse(&argv("simulate --system Z")).is_err());
    }

    #[test]
    fn rejects_option_swallowing_another_option() {
        // Regression: `--record` used to consume `--days` as its value,
        // silently dropping the duration override.
        let err = parse(&argv("simulate --record --days 3")).unwrap_err();
        assert!(err.contains("--record"), "{err}");
        assert!(err.contains("--days"), "{err}");
        // A value that merely *contains* dashes is still fine.
        assert!(parse(&argv("simulate --policy fixed:0.25")).is_ok());
    }

    #[test]
    fn rejects_unknown_and_duplicate_options() {
        // Regression: misspelled options used to be silently ignored.
        let err = parse(&argv("simulate --dys 3")).unwrap_err();
        assert!(err.contains("--dys"), "{err}");
        let err = parse(&argv("survey --policy ladder")).unwrap_err();
        assert!(err.contains("--policy"), "{err}");
        let err = parse(&argv("simulate --days 1 --days 2")).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_non_positive_or_non_finite_days() {
        assert!(parse(&argv("simulate --days 0")).is_err());
        assert!(parse(&argv("simulate --days -1")).is_err());
        assert!(parse(&argv("simulate --days nan")).is_err());
        assert!(parse(&argv("simulate --days inf")).is_err());
        // Shorter than one 60 s step, or than the survey's 10-minute step.
        assert!(parse(&argv("simulate --days 0.0001")).is_err());
        assert!(parse(&argv("arena --days 0.0001")).is_err());
        assert!(parse(&argv("sweep-buffer --days 0.0001")).is_err());
        assert!(parse(&argv("survey --days 0.0001")).is_err());
        assert!(parse(&argv("survey --days 0.005")).is_err());
        assert!(parse(&argv("simulate --days 0.005")).is_ok());
        // Horizons past the daemon's bound are usage errors: an arena's
        // condition table that long cannot be allocated, and the other
        // runs would not finish.
        for sub in ["simulate", "arena", "sweep-buffer", "survey"] {
            let err = parse(&argv(&format!("{sub} --days 1e9"))).unwrap_err();
            assert!(err.starts_with("--days"), "{sub}: {err}");
        }
    }

    #[test]
    fn parses_arena_options() {
        match parse(&argv("arena")).unwrap() {
            Command::Run {
                job:
                    Job {
                        kind: JobKind::Arena { env, seeds, roster },
                        system,
                        days,
                        seed,
                    },
                ..
            } => {
                assert_eq!(system, SystemId::B);
                assert_eq!(env, "outdoor");
                assert_eq!(days, 2.0);
                assert_eq!(seed, 42);
                assert_eq!(seeds, 4);
                assert_eq!(roster, "default");
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "arena --system D --env office --days 1 --seed 7 --seeds 8 --roster ladder,hillclimb",
        ))
        .unwrap()
        {
            Command::Run {
                job:
                    Job {
                        kind: JobKind::Arena { seeds, roster, .. },
                        system,
                        ..
                    },
                ..
            } => {
                assert_eq!(system, SystemId::D);
                assert_eq!(seeds, 8);
                assert_eq!(roster, "ladder,hillclimb");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("arena --seeds 0")).is_err());
        assert!(parse(&argv("arena --seeds 18446744073709551615")).is_err());
        assert!(parse(&argv("arena --system Z")).is_err());
        assert!(parse(&argv("arena --population 4")).is_err());
    }

    #[test]
    fn parses_serve_options() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                addr,
                queue,
                workers,
            } => {
                assert_eq!(addr, "127.0.0.1:7878");
                assert_eq!(queue, 8);
                assert_eq!(workers, 2);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --addr 127.0.0.1:0 --queue 3 --workers 1")).unwrap() {
            Command::Serve {
                addr,
                queue,
                workers,
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(queue, 3);
                assert_eq!(workers, 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --queue 0")).is_err());
        assert!(parse(&argv("serve --workers 0")).is_err());
        assert!(parse(&argv("serve --days 2")).is_err());
    }

    #[test]
    fn policies_construct() {
        assert!(make_policy("ladder").is_ok());
        assert!(make_policy("neutral").is_ok());
        assert!(make_policy("forecast").is_ok());
        assert!(make_policy("fixed:0.25").is_ok());
        assert!(make_policy("fixed:1.5").is_err());
        assert!(make_policy("mystery").is_err());
    }

    #[test]
    fn environments_construct() {
        for kind in ["outdoor", "winter", "indoor", "office", "agricultural"] {
            assert!(make_env(kind, 1).is_ok());
        }
        assert!(make_env("mars", 1).is_err());
    }

    /// The job spec of `submit <spec>`, whose first field is `kind=`.
    fn wire_spec(spec: &str) -> JobSpec {
        let mut fields = parse_line(&format!("submit {spec}"))
            .unwrap()
            .unwrap()
            .fields;
        let (_, kind) = fields.remove(0);
        JobSpec { kind, fields }
    }

    /// The `digest` a daemon on an ephemeral port returns for `spec`.
    fn daemon_digest(spec: &str) -> String {
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(SystemCatalog),
            ServeConfig::default(),
        )
        .expect("bind an ephemeral port");
        let mut writer = TcpStream::connect(handle.addr()).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let mut reader = BufReader::new(writer.try_clone().expect("clone"));
        let mut roundtrip = |line: String| {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            parse_line(&reply).unwrap().expect("a reply")
        };
        let ack = roundtrip(format!("submit {spec}"));
        let id = ack.get("id").expect("a job id").to_string();
        let mut reply = roundtrip(format!("subscribe id={id}"));
        while reply.verb != "done" {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "daemon closed the stream");
            reply = parse_line(&line).unwrap().expect("a stream line");
        }
        handle.shutdown_and_wait();
        reply.get("digest").expect("a digest").to_string()
    }

    /// `simulate` and `arena` run the job that their wire spec names: each
    /// flag line, with the CLI's defaults written out, parses to the job
    /// the daemon parses, and the CLI's run of a spelled-out line has the
    /// digest the daemon returns.
    #[test]
    fn cli_lines_run_the_jobs_of_their_wire_specs() {
        for (line, spec, run) in [
            ("simulate", "kind=single;system=A;days=7;seed=42", false),
            (
                "simulate --system C --env winter --days 0.25 --seed 11 --policy fixed:0.05 \
                 --record traces.csv",
                "kind=single;system=C;env=winter;days=0.25;seed=11;policy=fixed:0.05",
                true,
            ),
            ("arena", "kind=arena;system=B;days=2;seed=42", false),
            (
                "arena --system D --env office --days 0.1 --seed 7 --seeds 2 \
                 --roster ladder,hillclimb,select",
                "kind=arena;system=D;env=office;days=0.1;seed=7;seeds=2;\
                 roster=ladder,hillclimb,select",
                true,
            ),
        ] {
            let Command::Run { job, record } = parse(&argv(line)).unwrap() else {
                panic!("{line} parsed to another command");
            };
            let spelled_record = line.contains("--record").then(|| "traces.csv".to_string());
            assert_eq!(record, spelled_record, "{line}");
            assert_eq!(
                Ok(&job),
                SystemCatalog.job(&wire_spec(spec)).as_ref(),
                "{line}"
            );
            if run {
                let summary = job.run(RunControl::default(), false).unwrap().unwrap();
                let digest = format!("{:016x}", summary.digest());
                assert_eq!(digest, daemon_digest(spec), "{line}");
            }
        }
    }
}
