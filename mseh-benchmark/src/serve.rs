//! `serve-mixed`: two closed-loop clients, one persistent connection
//! each, driving `mseh serve --queue 8 --workers 2` over loopback TCP.
//! Each job is `submit` → `subscribe` → read to `done`.

use crate::inputs::{
    Job, Jobs, ARENA_JOB_SEEDS, BATCH_JOB_DAYS, CAMPAIGN_SEEDS, FLEET_JOB_JITTER,
    FLEET_JOB_POPULATION,
};
use crate::layers::{self, LayerTimes, Replayed, Rows};
use crate::proc::{children_peak_rss_mb, sibling_binary, wait_with_deadline};
use crate::report::{self, OpTiming, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use mseh::daemon::{
    build_arena_spec, build_fleet_spec, digest_arena, digest_campaign, digest_fleet, digest_single,
    make_env, make_policy,
};
use mseh::env::EnvJitter;
use mseh::sim::serve::protocol::{parse_line, Request};
use mseh::sim::{
    default_contenders, run_arena, run_fleet, run_resilience_campaign, run_simulation, ArenaConfig,
    CampaignConfig, FleetConfig, Platform, SimConfig,
};
use mseh::systems::resilience::{natural_node, resilience_scenario};
use mseh::systems::SystemId;
use mseh::units::Seconds;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const SETUPS: usize = 5;
/// No single read may take longer: a stuck daemon fails the run instead
/// of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Fleet jobs run at the daemon's wire-default shard size.
const WIRE_SHARD_SIZE: usize = 16;
const STEPS_PER_DAY: u64 = 1440;

struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// Never leaves a daemon behind, whichever way the run ends (after
/// [`stop_daemon`] it is already reaped and this does nothing).
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_daemon(mseh: &std::path::Path) -> io::Result<Daemon> {
    let mut child = Command::new(mseh)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--queue",
            "8",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut daemon = Daemon {
        child,
        stdout,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
    };
    // The daemon prints its bound address first.
    let mut line = String::new();
    daemon.stdout.read_line(&mut line)?;
    daemon.addr = line
        .trim()
        .strip_prefix("mseh serve listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?;
    Ok(daemon)
}

/// Sends the wire `shutdown` verb and waits for a clean exit.
fn stop_daemon(mut daemon: Daemon, client: &mut Client) -> Result<(), String> {
    let reply = client.roundtrip("shutdown").map_err(|e| e.to_string())?;
    if reply != "ok state=shutting_down" {
        return Err(format!("shutdown reply {reply:?}"));
    }
    let status = wait_with_deadline(&mut daemon.child, Duration::from_secs(30))
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut daemon.stdout, &mut rest);
    if !status.success() || !rest.contains("mseh serve stopped") {
        return Err(format!("daemon exited with {status}, output {rest:?}"));
    }
    Ok(())
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

fn parse_reply(line: &str) -> Result<Request, String> {
    parse_line(line)
        .map_err(|e| format!("unparsable reply {line:?}: {e}"))?
        .ok_or_else(|| "empty reply".to_string())
}

/// One job's trip through the daemon.
struct JobRecord {
    client: u64,
    job: Job,
    repeat: bool,
    start: Instant,
    /// When `submit`'s `ok` arrived.
    queued: Instant,
    end: Instant,
    digest: Option<String>,
    problems: Vec<String>,
    rejected: bool,
}

/// `submit` → `subscribe` → read to `done`.
fn run_job(client: &mut Client, id: u64, job: Job, repeat: bool) -> JobRecord {
    let start = Instant::now();
    let mut record = JobRecord {
        client: id,
        job,
        repeat,
        start,
        queued: start,
        end: start,
        digest: None,
        problems: Vec::new(),
        rejected: false,
    };
    if let Err(e) = job_exchange(client, &mut record) {
        record
            .problems
            .push(format!("{}: {e}", record.job.submit_line()));
    }
    record.end = Instant::now();
    record
}

fn job_exchange(client: &mut Client, r: &mut JobRecord) -> Result<(), String> {
    let io = |e: io::Error| e.to_string();
    let ack = parse_reply(&client.roundtrip(&r.job.submit_line()).map_err(io)?)?;
    r.queued = Instant::now();
    if ack.verb != "ok" {
        r.rejected = ack.get("code") == Some("queue_full");
        return Err(format!("submit refused: {ack:?}"));
    }
    let id = ack.get("id").ok_or("submit reply without id")?.to_string();
    let sub = parse_reply(
        &client
            .roundtrip(&format!("subscribe id={id}"))
            .map_err(io)?,
    )?;
    if sub.verb != "ok" {
        return Err(format!("subscribe refused: {sub:?}"));
    }
    loop {
        let line = parse_reply(&client.recv().map_err(io)?)?;
        match line.verb.as_str() {
            "event" => continue,
            "done" => {
                if line.get("state") != Some("done") {
                    return Err(format!("job ended {:?}", line.get("state")));
                }
                r.digest = Some(line.get("digest").ok_or("done without digest")?.to_string());
                return Ok(());
            }
            other => return Err(format!("unexpected {other} line while streaming")),
        }
    }
}

/// Starts a daemon and brings both connections up: a `ping` each and a
/// warm-up job each.
fn set_up(mseh: &std::path::Path) -> Result<(Daemon, Vec<Client>), String> {
    let daemon = start_daemon(mseh).map_err(|e| format!("starting mseh serve: {e}"))?;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        let pong = client.roundtrip("ping").map_err(|e| e.to_string())?;
        if pong != "ok pong=1" {
            return Err(format!("ping reply {pong:?}"));
        }
        let warm = Job::Single {
            system: SystemId::B,
            env: "outdoor",
            days: 2,
            policy: "ladder",
            seed: c,
        };
        let record = run_job(&mut client, c, warm, false);
        if let Some(p) = record.problems.first() {
            return Err(format!("warm-up job: {p}"));
        }
        clients.push(client);
    }
    Ok((daemon, clients))
}

fn job_steps(job: &Job, contenders: u64) -> u64 {
    let batch_days = u64::from(BATCH_JOB_DAYS);
    match job {
        Job::Single { days, .. } => u64::from(*days) * STEPS_PER_DAY,
        Job::Campaign { .. } => CAMPAIGN_SEEDS * batch_days * STEPS_PER_DAY,
        Job::Arena { .. } => contenders * ARENA_JOB_SEEDS * batch_days * STEPS_PER_DAY,
        Job::Fleet { .. } => FLEET_JOB_POPULATION * batch_days * STEPS_PER_DAY,
    }
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
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let result = set_up(&mseh);
        setups.push(t0.elapsed());
        match result {
            Ok((daemon, mut clients)) if i + 1 < SETUPS => {
                out.checks.result(stop_daemon(daemon, &mut clients[0]));
            }
            Ok(up) => live = Some(up),
            Err(e) => {
                out.checks.check(false, || e);
                return out;
            }
        }
    }
    let (daemon, mut clients) = live.expect("the last set-up keeps its daemon");

    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(ctx.seconds);
    let seed = ctx.seed;
    let mut records: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut jobs = Jobs::new(seed, c as u64);
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let (job, repeat) = jobs.next_job();
                        let record = run_job(client, c as u64, job, repeat);
                        let broken = !record.problems.is_empty();
                        done.push(record);
                        if broken {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.start);
    let phase = records
        .iter()
        .map(|r| r.end)
        .max()
        .map_or(Duration::ZERO, |end| end - phase_start);

    // Every repeat of a spec must return the first run's digest.
    let mut first_digest: HashMap<String, String> = HashMap::new();
    for r in &mut records {
        if let Some(d) = &r.digest {
            let first = first_digest
                .entry(r.job.submit_line())
                .or_insert_with(|| d.clone());
            if first != d {
                r.problems.push(format!(
                    "{}: digest {d} differs from an earlier run's {first}",
                    r.job.submit_line()
                ));
            }
        }
    }
    for r in &records {
        out.checks.attempt(r.problems.clone());
    }
    out.checks.result(stop_daemon(daemon, &mut clients[0]));

    let repeats = records.iter().filter(|r| r.repeat).count();
    let rejected = records.iter().filter(|r| r.rejected).count();
    out.notes.push(format!(
        "{} jobs over {CLIENTS} connections; repeat share {:.3} ({repeats} repeats); {rejected} queue_full",
        records.len(),
        repeats as f64 / records.len().max(1) as f64,
    ));
    for kind in ["single", "campaign", "arena", "fleet"] {
        let walls: Vec<f64> = records
            .iter()
            .filter(|r| r.job.kind() == kind)
            .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
            .collect();
        if let Some(p50) = crate::stats::percentile(&walls, 50.0) {
            out.notes.push(format!(
                "{kind:<8} jobs: p50 {p50:.3} ms (n={})",
                walls.len()
            ));
        }
    }

    let timings: Vec<OpTiming> = records
        .iter()
        .map(|r| OpTiming {
            start: r.start,
            end: r.end,
            steps: job_steps(&r.job, contenders),
        })
        .collect();
    if !ctx.trace {
        report::end_to_end(&setups, &timings, phase, children_peak_rss_mb(), &mut out);
        return out;
    }

    // Traced run: a span per job with its submit and wait children, then
    // in-process replays of the jobs in submission order until half the
    // run length is spent. Each distinct spec's wire digest is checked
    // against the in-process digest of the same spec.
    let mut tracer = Tracer::new(ctx.workload, phase_start);
    let mut checked: HashSet<String> = HashSet::new();
    let budget_end = Instant::now() + Duration::from_secs_f64(ctx.seconds / 2.0);
    let mut replayed = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let op = i as u64;
        let id = tracer.record(
            "serve.job",
            None,
            op,
            (r.start, r.end),
            vec![("client", r.client as f64)],
        );
        tracer.record("serve.submit", Some(id), op, (r.start, r.queued), vec![]);
        tracer.record("serve.wait", Some(id), op, (r.queued, r.end), vec![]);
        if Instant::now() >= budget_end || r.digest.is_none() {
            continue;
        }
        let s0 = Instant::now();
        let (digest, hits, misses) = service(&r.job);
        let s1 = Instant::now();
        let mut layers = LayerTimes::default();
        replay(&r.job, &mut layers);
        let r1 = Instant::now();
        tracer.record("sim.service", Some(id), op, (s0, s1), vec![]);
        tracer.record("layers.replay", Some(id), op, (s1, r1), layers.attrs());
        if checked.insert(r.job.submit_line()) {
            let wire = r.digest.as_deref().unwrap_or_default();
            let local = format!("{digest:016x}");
            out.checks.check(wire == local, || {
                format!(
                    "{}: wire digest {wire} != in-process {local}",
                    r.job.submit_line()
                )
            });
        }
        replayed.push(Replayed {
            wall_ms: (r.end - r.start).as_secs_f64() * 1e3,
            service_ms: (s1 - s0).as_secs_f64() * 1e3,
            layers,
            cache_hits: hits,
            cache_misses: misses,
        });
    }
    out.notes.push(format!(
        "{} distinct specs checked against in-process digests",
        checked.len()
    ));
    tracer.finish(&replayed, phase, &mut out);
    out
}

/// The job's kernel call in-process, built exactly as the daemon builds
/// it. Returns the job's digest and kernel-cache `(hits, misses)`.
fn service(job: &Job) -> (u64, u64, u64) {
    let horizon = Seconds::from_days(f64::from(BATCH_JOB_DAYS));
    match *job {
        Job::Single {
            system,
            env,
            days,
            policy,
            seed,
        } => {
            let environment = make_env(env, seed).expect("generated env");
            let mut policy = make_policy(policy).expect("generated policy");
            let mut unit = system.build();
            let result = run_simulation(
                &mut unit,
                &environment,
                &natural_node(system),
                policy.as_mut(),
                SimConfig::over(Seconds::from_days(f64::from(days))),
            );
            let stats = Platform::kernel_cache_stats(&unit);
            (digest_single(&result), stats.hits, stats.misses)
        }
        Job::Campaign { system, seed } => {
            let seeds: Vec<u64> = (seed..seed + CAMPAIGN_SEEDS).collect();
            let summary = run_resilience_campaign(
                &seeds,
                |s| resilience_scenario(system, s, horizon),
                &natural_node(system),
                CampaignConfig::over(horizon),
            );
            (digest_campaign(&summary), 0, 0)
        }
        Job::Arena { system, seed } => {
            let spec = build_arena_spec(system, "outdoor", seed, ARENA_JOB_SEEDS, "default")
                .expect("generated arena");
            let s = run_arena(&spec, ArenaConfig::over(horizon)).summary;
            (digest_arena(&s), s.kernel_cache.hits, s.kernel_cache.misses)
        }
        Job::Fleet { system, seed } => {
            let spec = build_fleet_spec(
                system,
                "outdoor",
                seed,
                FLEET_JOB_POPULATION,
                "ladder",
                FLEET_JOB_JITTER,
            );
            let config = FleetConfig::over(horizon).with_shard_size(WIRE_SHARD_SIZE);
            let s = run_fleet(&spec, config).summary;
            (digest_fleet(&s), s.kernel_cache.hits, s.kernel_cache.misses)
        }
    }
}

/// The job's layer calls, timed. Campaign jobs step fault-injected
/// platforms whose wrappers the replay does not model; their time stays
/// unexplained.
fn replay(job: &Job, t: &mut LayerTimes) {
    let horizon = SimConfig::over(Seconds::from_days(f64::from(BATCH_JOB_DAYS)));
    match *job {
        Job::Single {
            system,
            env,
            days,
            policy,
            seed,
        } => {
            let environment = make_env(env, seed).expect("generated env");
            let mut policy = make_policy(policy).expect("generated policy");
            let mut unit = system.build();
            layers::replay_lane(
                &mut unit,
                &natural_node(system),
                policy.as_mut(),
                Rows::Sample(&environment),
                SimConfig::over(Seconds::from_days(f64::from(days))),
                t,
            );
        }
        Job::Campaign { .. } => {}
        Job::Arena { system, seed } => {
            let seeds: Vec<u64> = (0..ARENA_JOB_SEEDS).map(|i| seed.wrapping_add(i)).collect();
            layers::replay_arena(
                system,
                |s| make_env("outdoor", s).expect("known env"),
                &seeds,
                &default_contenders(),
                horizon,
                t,
            );
        }
        Job::Fleet { system, seed } => {
            let site =
                layers::sample_windows(&make_env("outdoor", seed).expect("known env"), horizon, t);
            layers::replay_fleet_nodes(
                system,
                &site,
                EnvJitter::relative(FLEET_JOB_JITTER),
                (0..FLEET_JOB_POPULATION).map(|n| seed.wrapping_mul(FLEET_JOB_POPULATION) + n),
                |_| make_policy("ladder").expect("known policy"),
                horizon,
                t,
            );
        }
    }
}
