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
use mseh::daemon::{
    build_arena_spec, check_seed_count, make_env, make_policy, parse_system, SystemCatalog,
};
use mseh::env::Environment;
use mseh::node::{FixedDuty, SensorNode};
use mseh::sim::serve::{serve, ServeConfig};
use mseh::sim::{run_arena, run_simulation, ArenaConfig, SimConfig};
use mseh::systems::resilience::natural_node;
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
    Simulate {
        system: SystemId,
        env: String,
        days: f64,
        seed: u64,
        policy: String,
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
    Arena {
        system: SystemId,
        env: String,
        days: f64,
        seed: u64,
        seeds: u64,
        roster: String,
    },
    Serve {
        addr: String,
        queue: usize,
        workers: usize,
    },
    Help,
}

/// The options each subcommand accepts; anything else is an error, not
/// a silent no-op.
fn allowed_options(sub: &str) -> &'static [&'static str] {
    match sub {
        "simulate" => &["system", "env", "days", "seed", "policy", "record"],
        "sweep-buffer" => &["days", "seed"],
        "survey" => &["env", "days", "seed"],
        "arena" => &["system", "env", "days", "seed", "seeds", "roster"],
        "serve" => &["addr", "queue", "workers"],
        _ => &[],
    }
}

/// Parses arguments (first element is the subcommand, no program name).
fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let mut opts = std::collections::HashMap::new();
    let rest: Vec<&String> = it.collect();
    let allowed = allowed_options(sub);
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {:?}", rest[i]))?;
        if !allowed.contains(&key) {
            return Err(format!("unknown option --{key} for {sub}"));
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        // A following `--option` is the next flag, not this option's
        // value — without this check `--record --days 3` would silently
        // store "--days" as the record path and run with default days.
        if value.starts_with("--") {
            return Err(format!("--{key} needs a value, got option {value:?}"));
        }
        if opts.insert(key.to_owned(), (*value).clone()).is_some() {
            return Err(format!("duplicate option --{key}"));
        }
        i += 2;
    }
    // A horizon the subcommand can run at its step (see
    // `SimConfig::check`).
    let days = |default: f64, step: Seconds| -> Result<f64, String> {
        let days: f64 = match opts.get("days") {
            None => default,
            Some(v) => v.parse().map_err(|e| format!("--days: {e}"))?,
        };
        SimConfig {
            dt: step,
            ..SimConfig::over(Seconds::from_days(days))
        }
        .check()
        .map_err(|e| format!("--days {days}: {e}"))?;
        Ok(days)
    };
    let sim_step = SimConfig::week().dt;
    let seed = || -> Result<u64, String> {
        opts.get("seed")
            .map_or(Ok(42), |v| v.parse().map_err(|e| format!("--seed: {e}")))
    };
    match sub {
        "table1" => Ok(Command::Table1),
        "systems" => Ok(Command::Systems),
        "simulate" => {
            let system = parse_system(opts.get("system").map(String::as_str).unwrap_or("A"))?;
            Ok(Command::Simulate {
                system,
                env: opts.get("env").cloned().unwrap_or_else(|| "outdoor".into()),
                days: days(7.0, sim_step)?,
                seed: seed()?,
                policy: opts
                    .get("policy")
                    .cloned()
                    .unwrap_or_else(|| "ladder".into()),
                record: opts.get("record").cloned(),
            })
        }
        "sweep-buffer" => Ok(Command::SweepBuffer {
            days: days(14.0, sim_step)?,
            seed: seed()?,
        }),
        "survey" => Ok(Command::Survey {
            env: opts.get("env").cloned().unwrap_or_else(|| "outdoor".into()),
            days: days(3.0, SURVEY_STEP)?,
            seed: seed()?,
        }),
        "arena" => {
            let system = parse_system(opts.get("system").map(String::as_str).unwrap_or("B"))?;
            let seeds: u64 = match opts.get("seeds") {
                None => 4,
                Some(v) => v.parse().map_err(|e| format!("--seeds: {e}"))?,
            };
            check_seed_count(seeds).map_err(|e| format!("--{e}"))?;
            Ok(Command::Arena {
                system,
                env: opts.get("env").cloned().unwrap_or_else(|| "outdoor".into()),
                days: days(2.0, sim_step)?,
                seed: seed()?,
                seeds,
                roster: opts
                    .get("roster")
                    .cloned()
                    .unwrap_or_else(|| "default".into()),
            })
        }
        "serve" => {
            let parse_count = |key: &str, default: usize| -> Result<usize, String> {
                let n: usize = match opts.get(key) {
                    None => default,
                    Some(v) => v.parse().map_err(|e| format!("--{key}: {e}"))?,
                };
                if n == 0 {
                    return Err(format!("--{key} must be at least 1"));
                }
                Ok(n)
            };
            Ok(Command::Serve {
                addr: opts
                    .get("addr")
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
        Command::Simulate {
            system,
            env,
            days,
            seed,
            policy,
            record,
        } => {
            let environment = make_env(&env, seed)?;
            let mut policy_box = make_policy(&policy)?;
            let mut unit = system.build();
            let node = natural_node(system);
            let mut config = SimConfig::over(Seconds::from_days(days));
            config.record = record.is_some();
            println!("{system} in {env} for {days} days (seed {seed}, policy {policy})");
            let result =
                run_simulation(&mut unit, &environment, &node, policy_box.as_mut(), config);
            println!("harvested        : {}", result.harvested);
            println!("delivered        : {}", result.delivered);
            println!("uptime           : {:.2} %", result.uptime * 100.0);
            println!("samples          : {:.0}", result.samples);
            println!("brownout steps   : {}", result.brownout_steps);
            println!("min store voltage: {}", result.min_store_voltage);
            println!("audit residual   : {:.2e}", result.audit_residual);
            if let (Some(path), Some(traces)) = (record, result.traces) {
                let mut csv = String::from("time_s,store_voltage_v,harvest_power_w,duty\n");
                for ((tv, hv), dv) in traces
                    .store_voltage
                    .iter()
                    .zip(traces.harvest_power.iter())
                    .zip(traces.duty.iter())
                {
                    csv.push_str(&format!("{},{},{},{}\n", tv.0.value(), tv.1, hv.1, dv.1));
                }
                std::fs::write(&path, csv).map_err(|e| format!("writing {path}: {e}"))?;
                println!("traces written to {path}");
            }
        }
        Command::Survey { env, days, seed } => {
            let environment = make_env(&env, seed)?;
            let report =
                mseh::systems::site_survey(&environment, Seconds::from_days(days), SURVEY_STEP);
            println!("{report}");
        }
        Command::SweepBuffer { days, seed } => {
            // Delegate to the experiment harness's E2 kernel via the same
            // public pieces (kept self-contained to avoid a bench dep).
            println!("buffer sweep over {days} days (seed {seed}) — see also E2 in mseh-bench");
            let sizes = [2.0, 5.0, 10.0, 22.0, 50.0, 100.0];
            let env = Environment::outdoor_temperate(seed);
            let node = SensorNode::submilliwatt_class();
            println!("{:>8} | {:>9}", "size (F)", "uptime");
            for farads in sizes {
                use mseh::core::{PortRequirement, PowerUnit, StoreRole};
                use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
                use mseh::storage::Supercap;
                use mseh::units::{Farads, Ohms, Volts};
                let channel = InputChannel::new(
                    Box::new(mseh::harvesters::PvModule::outdoor_panel_half_watt()),
                    Box::new(FractionalVoc::pv_standard()),
                    Box::new(IdealDiode::nanopower()),
                    Box::new(DcDcConverter::mppt_front_end_5v()),
                );
                let mut cap = Supercap::new(
                    format!("{farads} F"),
                    Farads::new(farads),
                    farads / 15.0,
                    Ohms::from_milli(60.0),
                    Ohms::from_kilo(15.0),
                    Volts::new(0.8),
                    Volts::new(2.7),
                );
                cap.set_voltage(Volts::new(2.2));
                let mut unit = PowerUnit::builder("sweep rig")
                    .harvester_port(
                        PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                        Some(channel),
                        true,
                    )
                    .store_port(
                        PortRequirement::any_in_window("buf", Volts::ZERO, Volts::new(3.0)),
                        Some(Box::new(cap)),
                        StoreRole::PrimaryBuffer,
                        true,
                    )
                    .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                    .build();
                let result = run_simulation(
                    &mut unit,
                    &env,
                    &node,
                    &mut FixedDuty::new(DutyCycle::saturating(0.15)),
                    SimConfig::over(Seconds::from_days(days)),
                );
                println!("{farads:>8.0} | {:>7.2} %", result.uptime * 100.0);
            }
        }
        Command::Arena {
            system,
            env,
            days,
            seed,
            seeds,
            roster,
        } => {
            let spec = build_arena_spec(system, &env, seed, seeds, &roster)?;
            println!(
                "arena: {system} in {env} for {days} days — {} contenders × {seeds} seeds (base seed {seed})",
                spec.contenders().len(),
            );
            let out = run_arena(&spec, ArenaConfig::over(Seconds::from_days(days)));
            let s = &out.summary;
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
            Command::Simulate {
                system,
                env,
                days,
                seed,
                policy,
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
            Command::Simulate {
                system,
                env,
                days,
                seed,
                policy,
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
    }

    #[test]
    fn parses_arena_options() {
        match parse(&argv("arena")).unwrap() {
            Command::Arena {
                system,
                env,
                days,
                seed,
                seeds,
                roster,
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
            Command::Arena {
                system,
                seeds,
                roster,
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
}
