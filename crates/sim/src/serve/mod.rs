//! The `mseh serve` daemon: a long-running TCP service that queues,
//! runs, cancels, and streams simulation jobs.
//!
//! The service is generic over a [`JobRunner`]: the binary crate
//! supplies one that knows the reference-system catalog, while this
//! module owns everything protocol- and lifecycle-shaped — the
//! newline-delimited `key=value;` wire grammar ([`protocol`]), the
//! bounded job queue with explicit backpressure, per-job cancellation
//! tokens, window-batched event streaming to subscribers, the result
//! cache and the bounded set of finished job records.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──▶ queued ──▶ running ──▶ done ──────┐
//!   │           │           │   └──▶ failed ───┤ (run error / panic)
//!   │           └──────────▶└──────▶ cancelled ┤ (cancel / shutdown)
//!   └──▶ done ─────────────────────────────────┤ (repeat answered from the cache)
//!                                              ▼
//!              finished, the last 1024 kept ──▶ expired (record dropped)
//! ```
//!
//! A full queue rejects `submit` with `err code=queue_full;
//! retry_after_ms=…` — jobs are never silently dropped and the
//! connection never hangs. `cancel` trips the job's [`CancelToken`];
//! every kernel loop checks it once per control window, so a running
//! fleet job stops within one window of compute per in-flight node.
//! Each finished job carries a determinism receipt (`seed`,
//! `spec_hash`, `digest`): re-submitting the same spec must reproduce
//! the same digest bit for bit.
//!
//! # Result cache
//!
//! Because of that receipt, the daemon answers a repeated spec from a
//! least-recently-used cache of finished summaries instead of running
//! it again. The cache is keyed on the whole normalized spec
//! ([`protocol::normalize_spec`], so field order does not matter), not
//! on the 64-bit `spec_hash` alone, and it holds at most 4096 specs.
//! That key sorts the fields, so `submit` rejects a spec that names a
//! field twice (`err code=bad_spec`) before anything else. A
//! repeat is still validated by [`JobRunner::prepare`] (the same
//! `bad_spec` errors, the same receipt seed). Then it goes straight to
//! `done`: the ack reads `ok id=…;state=done;spec_hash=…;cached=1`,
//! and the job takes no queue slot and no worker and streams no `event`
//! lines. Its `done` line and `result` reply equal the first run's
//! field for field under its own `id`.
//!
//! Caching is sound for two reasons. A runner's output depends on the
//! spec alone, not on its field order, which the receipt promises and
//! `tests/serve.rs` checks across two daemons that each compute, one
//! per field order. And only jobs that end `done` enter the cache: a
//! cancelled or failed job never does, so submitting its spec again
//! runs it. A finished summary is held once, shared by its job's
//! record, its cache entry and the record of every repeat that is still
//! kept; the `done` line and the `result` reply are formatted from it
//! when they are sent. Dropping a record (below) releases only the
//! record's reference: the cache entry keeps the summary until the
//! cache evicts it.
//!
//! # Bounded state
//!
//! The daemon keeps every queued and running job's record and the
//! records of the last 1024 jobs that finished. A job joins that
//! first-in first-out set when it ends `done`, `failed` or `cancelled`,
//! including a repeat the cache answers at submit and a queued job that
//! `cancel` or shutdown ends; past the bound the oldest finished record
//! is dropped with its buffered `event` lines. Ids come from one
//! counter as `job-<n>`, so nothing is kept per dropped job: `status`,
//! `result`, `subscribe` and `cancel` answer `err code=expired` for an
//! id spelled exactly as issued whose record is gone, and
//! `err code=unknown_job` for any other id (`job-05`, `job-+5`, `job-0`
//! or one not yet issued). A dropped result is recovered by submitting
//! its spec again: the cache answers it, or a worker recomputes the same
//! digest, as the receipt promises. A record keeps every `event` line
//! its job emits, so runners emit a bounded number per job (see
//! [`JobContext::emit`]). The accept loop joins each session thread
//! that has exited when it accepts the next connection.

pub mod protocol;
mod queue;
mod registry;
mod session;

pub use registry::JobState;

use crate::cancel::CancelToken;
use protocol::{fnv1a64, normalize_spec};
use registry::Shared;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A parsed job submission: the job kind (`single`, `campaign`,
/// `fleet`, …) and its declarative `key=value` spec fields in wire
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The `kind=` field of the `submit` line.
    pub kind: String,
    /// Every other spec field, in wire order. The daemon rejects a
    /// `submit` that names a key twice, so in the specs it builds each
    /// key appears once.
    pub fields: Vec<(String, String)>,
}

impl JobSpec {
    /// First value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The 64-bit FNV-1a hash of the normalized spec (kind plus fields
    /// sorted by key) — the `spec_hash` of the job's determinism
    /// receipt.
    pub fn spec_hash(&self) -> u64 {
        fnv1a64(normalize_spec(&self.kind, &self.fields).as_bytes())
    }
}

/// What a finished job reports: a bit-exact summary digest (see
/// [`protocol::Digest`]) and flat `key=value` summary fields for the
/// `done`/`result` reply lines.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// FNV-1a digest over the summary's raw values; two runs of the
    /// same spec must produce equal digests.
    pub digest: u64,
    /// Summary fields appended to the `done` and `result` replies.
    pub fields: Vec<(&'static str, String)>,
}

/// The closure a prepared job runs on a worker thread. `Ok(None)`
/// means the run observed its cancellation token and stopped.
pub type JobRun = Box<dyn FnOnce(&JobContext) -> Result<Option<JobOutput>, String> + Send>;

/// A validated job, ready to queue: its determinism seed and the run
/// closure.
pub struct PreparedJob {
    /// The seed recorded in the job's determinism receipt.
    pub seed: u64,
    /// The work itself, executed on a worker thread.
    pub run: JobRun,
}

impl std::fmt::Debug for PreparedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedJob")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Turns declarative job specs into runnable work. Implementations
/// must validate eagerly: a malformed spec returns `Err` from
/// [`JobRunner::prepare`] (becoming a protocol error reply) and must
/// never panic the daemon. A run's output must depend on its kind and
/// the set of its fields alone, not on their wire order: the daemon
/// answers a repeated spec, in any field order, with the first run's
/// output (see the module docs). A spec naming a field twice is
/// rejected before `prepare` sees it.
pub trait JobRunner: Send + Sync {
    /// Validates `spec` and returns the prepared job, or a
    /// human-readable error for the `err code=bad_spec` reply.
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String>;
}

/// Handed to a running job: its cancellation token and the event
/// stream back to subscribers.
pub struct JobContext {
    pub(crate) id: String,
    /// The `n` of the job's id `job-<n>`.
    pub(crate) number: u64,
    pub(crate) cancel: CancelToken,
    pub(crate) shared: Arc<Shared>,
}

impl JobContext {
    /// The job's wire id (`job-N`).
    pub fn job_id(&self) -> &str {
        &self.id
    }

    /// The job's cancellation token, for threading into
    /// `run_simulation_cancellable` / `run_fleet_controlled` /
    /// `run_resilience_campaign_cancellable`.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Emits one `event` line to the job's subscribers (buffered for
    /// late subscribers). The job's record keeps every line until it is
    /// dropped, so emit a bounded number per job, not one per step or
    /// per shard: the catalog's runners emit one per eighth of the work.
    pub fn emit(&self, fields: &[(&str, String)]) {
        self.shared.append_event(self.number, fields);
    }
}

impl std::fmt::Debug for JobContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobContext")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// A queued run: the closure, the token `cancel`/shutdown trips, and
/// the normalized spec, which enters the result cache if the run ends
/// `done`.
pub(crate) struct StoredRun {
    pub(crate) run: JobRun,
    pub(crate) cancel: CancelToken,
    pub(crate) spec: String,
}

/// How many finished job records the daemon keeps; past it the oldest
/// is dropped, and its id answers `err code=expired`.
const FINISHED_JOBS_KEPT: usize = 1024;

/// Daemon sizing: queue bound, worker count, and the backpressure
/// retry hint.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum queued (not yet running) jobs; a full queue rejects
    /// `submit` with `err code=queue_full`.
    pub queue_capacity: usize,
    /// Worker threads draining the queue. Each job may itself fan out
    /// over the `par_map` pool, so a small number is usually right.
    pub workers: usize,
    /// The `retry_after_ms` hint in backpressure replies.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 8,
            workers: 2,
            retry_after_ms: 250,
        }
    }
}

/// A running daemon: its bound address and the threads to join on
/// shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins shutdown: stops accepting, cancels queued jobs, trips
    /// running jobs' tokens. Idempotent; does not block.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has begun (via [`ServerHandle::shutdown`] or
    /// the wire `shutdown` verb).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Blocks until the daemon has fully stopped: the accept loop,
    /// every worker, and every client session have exited. Call after
    /// [`ServerHandle::shutdown`] (or after a client sent the wire
    /// `shutdown` verb) — waiting on a live daemon blocks until one
    /// arrives.
    pub fn wait(mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let sessions =
            std::mem::take(&mut *self.sessions.lock().unwrap_or_else(|e| e.into_inner()));
        for session in sessions {
            let _ = session.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::wait`].
    pub fn shutdown_and_wait(self) {
        self.shutdown();
        self.wait();
    }

    /// How many session threads the daemon holds a handle for.
    #[cfg(test)]
    fn held_sessions(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

/// Starts the daemon on `addr` (use port 0 for an ephemeral port) and
/// returns immediately; jobs are validated by `runner`. All threads —
/// the accept loop, `config.workers` queue workers, and one thread per
/// client connection — are owned by the returned handle.
pub fn serve(
    addr: &str,
    runner: Arc<dyn JobRunner>,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared::new(
        config.queue_capacity,
        config.retry_after_ms,
        FINISHED_JOBS_KEPT,
    ));
    let workers = queue::spawn_workers(&shared, config.workers);
    let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_sessions = Arc::clone(&sessions);
    let accept = std::thread::Builder::new()
        .name("mseh-serve-accept".to_string())
        .spawn(move || {
            while !accept_shared.is_shutting_down() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        let shared = Arc::clone(&accept_shared);
                        let session_runner = Arc::clone(&runner);
                        // Held across the spawn, so a session's handle is
                        // listed before it can answer its first request.
                        let mut sessions =
                            accept_sessions.lock().unwrap_or_else(|e| e.into_inner());
                        reap_finished(&mut sessions);
                        let handle = std::thread::Builder::new()
                            .name("mseh-serve-session".to_string())
                            .spawn(move || {
                                session::handle_connection(stream, shared, session_runner);
                            });
                        if let Ok(handle) = handle {
                            sessions.push(handle);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })?;

    Ok(ServerHandle {
        local_addr,
        shared,
        listener: Some(accept),
        workers,
        sessions,
    })
}

/// Joins the session threads that have exited, so the daemon holds a
/// handle only for each live connection and the ones that closed since
/// the last accept.
fn reap_finished(sessions: &mut Vec<JoinHandle<()>>) {
    for finished in sessions.extract_if(.., |session| session.is_finished()) {
        let _ = finished.join();
    }
}

#[cfg(test)]
mod tests {
    use super::registry::{Missing, Outcome, ResultCache, ResultSnapshot};
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// A runner whose jobs emit one event and finish with a digest
    /// derived from the spec — enough to exercise the full lifecycle
    /// without simulation plumbing. It counts the runs that start.
    #[derive(Default)]
    struct EchoRunner {
        runs: Arc<AtomicUsize>,
    }

    impl JobRunner for EchoRunner {
        fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String> {
            if spec.kind != "echo" {
                return Err(format!("unknown kind {}", spec.kind));
            }
            if spec.get("boom").is_some() {
                return Err("boom rejected at prepare".into());
            }
            let seed: u64 = spec
                .get("seed")
                .unwrap_or("0")
                .parse()
                .map_err(|_| "seed must be an integer".to_string())?;
            let wait = spec.get("wait").is_some();
            let panic_in_run = spec.get("panic").is_some();
            let hash = spec.spec_hash();
            let runs = Arc::clone(&self.runs);
            Ok(PreparedJob {
                seed,
                run: Box::new(move |ctx| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    if panic_in_run {
                        panic!("intentional test panic");
                    }
                    ctx.emit(&[("phase", "started".into())]);
                    while wait && !ctx.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    if ctx.is_cancelled() {
                        return Ok(None);
                    }
                    Ok(Some(JobOutput {
                        digest: hash,
                        fields: vec![("echo_seed", seed.to_string())],
                    }))
                }),
            })
        }
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            Self {
                reader,
                writer: stream,
            }
        }

        fn send(&mut self, line: &str) {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("write");
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read");
            line.trim_end().to_string()
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }
    }

    fn start() -> (ServerHandle, Client) {
        let (handle, client, _) = start_counting();
        (handle, client)
    }

    /// [`start`], also returning the count of runs the daemon started.
    fn start_counting() -> (ServerHandle, Client, Arc<AtomicUsize>) {
        let runner = EchoRunner::default();
        let runs = Arc::clone(&runner.runs);
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(runner),
            ServeConfig {
                queue_capacity: 2,
                workers: 1,
                retry_after_ms: 99,
            },
        )
        .expect("bind");
        let client = Client::connect(handle.addr());
        (handle, client, runs)
    }

    #[test]
    fn ping_and_unknown_verbs() {
        let (handle, mut client) = start();
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        assert!(client
            .roundtrip("frobnicate x=1")
            .starts_with("err code=unknown_verb"));
        assert!(client
            .roundtrip("submit kind")
            .starts_with("err code=bad_request"));
        handle.shutdown_and_wait();
    }

    #[test]
    fn submit_runs_to_done_with_receipt() {
        let (handle, mut client) = start();
        let reply = client.roundtrip("submit kind=echo;seed=42");
        assert!(reply.starts_with("ok id=job-"), "{reply}");
        let req = parse_reply(&reply);
        let id = req.get("id").unwrap().to_string();
        let spec_hash = req.get("spec_hash").unwrap().to_string();

        let result = wait_done(&mut client, &id);
        let fields = parse_reply(&result);
        assert_eq!(fields.get("state"), Some("done"));
        assert_eq!(fields.get("seed"), Some("42"));
        assert_eq!(fields.get("spec_hash"), Some(spec_hash.as_str()));
        assert_eq!(fields.get("echo_seed"), Some("42"));
        assert!(fields.get("digest").is_some());
        handle.shutdown_and_wait();
    }

    #[test]
    fn bad_specs_get_protocol_errors_and_daemon_survives() {
        let (handle, mut client) = start();
        assert!(client
            .roundtrip("submit kind=mystery")
            .starts_with("err code=bad_spec"));
        assert!(client
            .roundtrip("submit kind=echo;boom=1")
            .starts_with("err code=bad_spec"));
        assert!(client
            .roundtrip("submit kind=echo;seed=notanumber")
            .starts_with("err code=bad_spec"));
        // The echo runner would take a field's first value, and one
        // cache key would merge the two orders: the daemon rejects a
        // field named twice.
        for line in [
            "submit kind=echo;seed=1;seed=2",
            "submit kind=echo;kind=echo;seed=1",
        ] {
            assert!(client
                .roundtrip(line)
                .starts_with("err code=bad_spec;msg=duplicate field"));
        }
        // A job that panics mid-run becomes `failed`, not a dead daemon.
        let reply = client.roundtrip("submit kind=echo;panic=1");
        let id = parse_reply(&reply).get("id").unwrap().to_string();
        let mut state = String::new();
        for _ in 0..200 {
            state = client.roundtrip(&format!("result id={id}"));
            if !state.contains("not_finished") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(state.starts_with("err code=job_failed"), "{state}");
        // Daemon still alive and serving.
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        handle.shutdown_and_wait();
    }

    #[test]
    fn full_queue_replies_with_backpressure() {
        let (handle, mut client) = start();
        // One long job occupies the single worker; two more fill the
        // bounded queue; the fourth must bounce with retry-after.
        let blocker = parse_reply(&client.roundtrip("submit kind=echo;wait=1"))
            .get("id")
            .unwrap()
            .to_string();
        wait_for_state(&mut client, &blocker, "running");
        let q1 = client.roundtrip("submit kind=echo;seed=1;wait=1");
        let q2 = client.roundtrip("submit kind=echo;seed=2;wait=1");
        assert!(q1.starts_with("ok "), "{q1}");
        assert!(q2.starts_with("ok "), "{q2}");
        let bounced = client.roundtrip("submit kind=echo;seed=3");
        assert_eq!(bounced, "err code=queue_full;retry_after_ms=99");
        // Cancel everything so shutdown is quick.
        for req in [&blocker, &parse_id(&q1), &parse_id(&q2)] {
            client.send(&format!("cancel id={req}"));
            client.recv();
        }
        handle.shutdown_and_wait();
    }

    #[test]
    fn cancel_stops_a_running_job_and_frees_the_worker() {
        let (handle, mut client) = start();
        let id = parse_id(&client.roundtrip("submit kind=echo;wait=1"));
        wait_for_state(&mut client, &id, "running");
        let reply = client.roundtrip(&format!("cancel id={id}"));
        assert_eq!(reply, format!("ok id={id};state=cancelling"));
        wait_for_state(&mut client, &id, "cancelled");
        // Worker is reusable: a fresh job completes.
        let next = parse_id(&client.roundtrip("submit kind=echo;seed=9"));
        let done = wait_done(&mut client, &next);
        assert!(done.contains("state=done"), "{done}");
        handle.shutdown_and_wait();
    }

    #[test]
    fn subscribe_streams_events_then_done() {
        let (handle, mut client) = start();
        let id = parse_id(&client.roundtrip("submit kind=echo;seed=7"));
        let ack = client.roundtrip(&format!("subscribe id={id}"));
        assert_eq!(ack, format!("ok id={id};subscribed=1"));
        let mut saw_event = false;
        loop {
            let line = client.recv();
            if line.starts_with("event ") {
                saw_event = true;
                assert!(line.contains("phase=started"), "{line}");
            } else if line.starts_with("done ") {
                assert!(line.contains("state=done"), "{line}");
                break;
            } else {
                panic!("unexpected stream line {line}");
            }
        }
        assert!(saw_event);
        // Connection is back in request mode after the stream.
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        handle.shutdown_and_wait();
    }

    #[test]
    fn wire_shutdown_cancels_live_jobs_and_exits_cleanly() {
        let (handle, mut client) = start();
        let id = parse_id(&client.roundtrip("submit kind=echo;wait=1"));
        wait_for_state(&mut client, &id, "running");
        assert_eq!(client.roundtrip("shutdown"), "ok state=shutting_down");
        handle.wait();
    }

    #[test]
    fn a_repeat_is_answered_from_the_cache_without_a_run() {
        let (handle, mut client, runs) = start_counting();
        let first = parse_id(&client.roundtrip("submit kind=echo;seed=5;tag=a"));
        let first_result = wait_done(&mut client, &first);
        assert!(first_result.starts_with("ok "), "{first_result}");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let (first_events, first_done) = stream(&mut client, &first);
        assert_eq!(first_events.len(), 1, "the first run streamed its event");

        let ack = client.roundtrip("submit kind=echo;seed=5;tag=a");
        let repeat = parse_id(&ack);
        assert_ne!(repeat, first);
        assert_eq!(
            ack,
            format!(
                "ok id={repeat};state=done;spec_hash={};cached=1",
                parse_reply(&first_result).get("spec_hash").unwrap()
            )
        );
        assert_eq!(runs.load(Ordering::SeqCst), 1, "a cached repeat never runs");

        // The repeat's stream is its `done` line alone, equal to the
        // first run's apart from the id; so is its `result` reply.
        let (events, done) = stream(&mut client, &repeat);
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(parse_reply(&done).get("id"), Some(repeat.as_str()));
        assert_eq!(without_id(&done), without_id(&first_done));
        let result = client.roundtrip(&format!("result id={repeat}"));
        assert_eq!(parse_id(&result), repeat);
        assert_eq!(without_id(&result), without_id(&first_result));

        // The same fields in another order hit too.
        let reordered = client.roundtrip("submit tag=a;seed=5;kind=echo");
        assert_eq!(
            parse_reply(&reordered).get("cached"),
            Some("1"),
            "{reordered}"
        );
        // A different value misses and runs.
        let other = client.roundtrip("submit kind=echo;seed=5;tag=b");
        assert_eq!(parse_reply(&other).get("state"), Some("queued"), "{other}");
        assert_eq!(parse_reply(&other).get("cached"), None);
        wait_done(&mut client, &parse_id(&other));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        handle.shutdown_and_wait();
    }

    #[test]
    fn failed_and_cancelled_jobs_are_not_cached() {
        let (handle, mut client, runs) = start_counting();
        for round in 1..=2 {
            let ack = client.roundtrip("submit kind=echo;panic=1");
            assert_eq!(parse_reply(&ack).get("state"), Some("queued"), "{ack}");
            let result = wait_done(&mut client, &parse_id(&ack));
            assert!(result.starts_with("err code=job_failed"), "{result}");
            assert_eq!(runs.load(Ordering::SeqCst), round);
        }
        for round in 1..=2 {
            let ack = client.roundtrip("submit kind=echo;wait=1");
            assert_eq!(parse_reply(&ack).get("state"), Some("queued"), "{ack}");
            let id = parse_id(&ack);
            wait_for_state(&mut client, &id, "running");
            client.roundtrip(&format!("cancel id={id}"));
            wait_for_state(&mut client, &id, "cancelled");
            assert_eq!(runs.load(Ordering::SeqCst), 2 + round);
        }
        handle.shutdown_and_wait();
    }

    #[test]
    fn the_result_cache_evicts_the_least_recently_used_spec() {
        let output = |digest| {
            Arc::new(JobOutput {
                digest,
                fields: Vec::new(),
            })
        };
        let digest = |cache: &mut ResultCache, spec: &str| cache.get(spec).map(|o| o.digest);
        let mut cache = ResultCache::new(2);
        cache.insert("a".into(), output(1));
        cache.insert("b".into(), output(2));
        // Reading `a` refreshes it, so `c` evicts `b`.
        assert_eq!(digest(&mut cache, "a"), Some(1));
        cache.insert("c".into(), output(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(digest(&mut cache, "b"), None);
        // Now `c` is the least recently used.
        assert_eq!(digest(&mut cache, "a"), Some(1));
        cache.insert("d".into(), output(4));
        assert_eq!(digest(&mut cache, "c"), None);
        assert_eq!(digest(&mut cache, "d"), Some(4));
        // A spec already cached keeps its summary and is refreshed.
        cache.insert("a".into(), output(9));
        assert_eq!(cache.len(), 2);
        cache.insert("e".into(), output(5));
        assert_eq!(digest(&mut cache, "a"), Some(1));
        assert_eq!(digest(&mut cache, "d"), None);
        // The bound holds however many specs pass through.
        for i in 0..100 {
            cache.insert(format!("spec {i}"), output(i));
            assert!(cache.len() <= 2);
        }
        assert_eq!(digest(&mut cache, "spec 99"), Some(99));
        assert_eq!(digest(&mut cache, "spec 98"), Some(98));
    }

    #[test]
    fn a_summary_is_held_once_by_its_record_the_cache_and_each_repeat() {
        let shared = registry::Shared::new(2, 99, FINISHED_JOBS_KEPT);
        let submit_spec = |spec: &str| shared.submit(spec.into(), 1, 2, Box::new(|_| Ok(None)));
        let submit = || submit_spec("kind=echo");
        let first = submit().expect("queued");
        assert!(!first.cached);
        let (n, run) = shared.claim().expect("a queued job");
        assert_eq!(registry::wire_id(n), first.id);
        let output = Arc::new(JobOutput {
            digest: 3,
            fields: vec![("k", "v".into())],
        });
        shared.complete(n, run.spec, registry::Outcome::Done(Arc::clone(&output)));
        // A full queue turns a new spec away, but a repeat takes no slot.
        for spec in ["kind=echo;n=1", "kind=echo;n=2"] {
            assert!(!submit_spec(spec).expect("queued").cached);
        }
        assert!(submit_spec("kind=echo;n=3").is_err());
        let repeats: Vec<_> = (0..3).map(|_| submit().expect("cached")).collect();
        for repeat in &repeats {
            assert!(repeat.cached);
            let Ok(ResultSnapshot::Ended(ending)) = shared.result(&repeat.id) else {
                panic!("a cached repeat has ended");
            };
            let registry::Outcome::Done(held) = &ending.outcome else {
                panic!("a cached repeat is done");
            };
            assert!(Arc::ptr_eq(held, &output));
        }
        // Ours, the first record's, the cache entry's and one per repeat.
        assert_eq!(Arc::strong_count(&output), 3 + repeats.len());
    }

    #[test]
    fn a_soak_holds_the_bound_plus_the_live_jobs() {
        const BOUND: usize = 4;
        let shared = registry::Shared::new(2, 99, BOUND);
        let submit = |spec: String| {
            shared
                .submit(spec, 1, 2, Box::new(|_| Ok(None)))
                .expect("a queue slot")
        };
        let claim = || shared.claim().expect("a queued job");
        let summary = |digest| {
            Arc::new(JobOutput {
                digest,
                fields: Vec::new(),
            })
        };
        let state = |id: &str| shared.status(id).map(|s| s.state);
        let within_bound = || {
            let (records, live) = shared.held();
            assert!(records <= BOUND + live, "{records} records, {live} live");
        };

        // A job that runs through the whole soak is never dropped.
        let long = submit("kind=echo;long=1".into());
        let (long_n, long_run) = claim();

        // A `done` record past the bound drops its reference to the
        // summary; the cache keeps its own and answers the spec.
        let first = submit("kind=echo;n=0".into());
        let (n, run) = claim();
        let output = summary(0);
        shared.complete(n, run.spec, Outcome::Done(Arc::clone(&output)));
        assert_eq!(
            Arc::strong_count(&output),
            3,
            "ours, the record's, the cache's"
        );
        for i in 0..BOUND {
            submit(format!("kind=echo;fail={i}"));
            let (n, run) = claim();
            shared.complete(n, run.spec, Outcome::Failed("failed".into()));
            within_bound();
        }
        assert_eq!(state(&first.id), Err(Missing::Expired));
        assert_eq!(Arc::strong_count(&output), 2);
        assert!(submit("kind=echo;n=0".into()).cached);

        // A queued job outlives the finished records around it.
        let queued = submit("kind=echo;queued=1".into());
        for _ in 0..2 * BOUND {
            assert!(submit("kind=echo;n=0".into()).cached);
            within_bound();
        }
        assert_eq!(state(&queued.id), Ok(JobState::Queued));
        assert_eq!(shared.cancel(&queued.id), Ok(JobState::Cancelled));

        // 50 000 jobs: runs, failures, cancels of queued and of running
        // jobs, and cached repeats.
        for i in 1..=50_000u64 {
            let spec = format!("kind=echo;n={i}");
            match i % 5 {
                0 | 1 => {
                    submit(spec);
                    let (n, run) = claim();
                    let outcome = if i % 5 == 0 {
                        Outcome::Done(summary(i))
                    } else {
                        Outcome::Failed("failed".into())
                    };
                    shared.complete(n, run.spec, outcome);
                }
                2 => {
                    let job = submit(spec);
                    assert_eq!(shared.cancel(&job.id), Ok(JobState::Cancelled));
                }
                3 => {
                    let job = submit(spec);
                    let (n, run) = claim();
                    assert_eq!(shared.cancel(&job.id), Ok(JobState::Running));
                    assert!(run.cancel.is_cancelled());
                    shared.complete(n, run.spec, Outcome::Cancelled);
                }
                _ => assert!(submit(format!("kind=echo;n={}", i - 4)).cached),
            }
            within_bound();
        }
        assert_eq!(state(&long.id), Ok(JobState::Running));
        shared.complete(long_n, long_run.spec, Outcome::Cancelled);
        assert_eq!(shared.held(), (BOUND, 0));
    }

    #[test]
    fn an_id_past_the_bound_expires_and_other_spellings_stay_unknown() {
        let (handle, mut client, runs) = start_counting();
        let submit = "submit kind=echo;seed=3";
        let first = parse_id(&client.roundtrip(submit));
        assert_eq!(first, "job-1");
        let first_result = wait_done(&mut client, &first);
        // Cached repeats finish at once, so they push the first job past
        // the bound without a run.
        let repeats: Vec<String> = (0..FINISHED_JOBS_KEPT)
            .map(|_| {
                let ack = client.roundtrip(submit);
                assert_eq!(parse_reply(&ack).get("cached"), Some("1"), "{ack}");
                parse_id(&ack)
            })
            .collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        for verb in ["status", "result", "subscribe", "cancel"] {
            let reply = client.roundtrip(&format!("{verb} id={first}"));
            assert!(reply.starts_with("err code=expired;"), "{verb}: {reply}");
            let held = client.roundtrip(&format!("{verb} id={}", repeats[0]));
            assert!(held.starts_with("ok "), "{verb}: {held}");
            if verb == "subscribe" {
                assert!(client.recv().starts_with("done "));
            }
        }
        let next = format!("job-{}", repeats.len() + 2);
        for id in [
            "job-01",
            "job-+1",
            "job-0",
            "job-18446744073709551616",
            "job-",
            "JOB-1",
            "1",
            next.as_str(),
        ] {
            for verb in ["status", "result", "subscribe", "cancel"] {
                let reply = client.roundtrip(&format!("{verb} id={id}"));
                assert!(
                    reply.starts_with("err code=unknown_job;"),
                    "{verb} {id}: {reply}"
                );
            }
        }
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        // The spec still answers with the first result.
        let again = parse_id(&client.roundtrip(submit));
        let result = client.roundtrip(&format!("result id={again}"));
        assert_eq!(without_id(&result), without_id(&first_result));
        handle.shutdown_and_wait();
    }

    #[test]
    fn finished_sessions_are_reaped_on_accept() {
        let (handle, mut client) = start();
        for _ in 0..30 {
            let mut passing = Client::connect(handle.addr());
            assert_eq!(passing.roundtrip("ping"), "ok pong=1");
        }
        // Each accept joins the sessions that have exited, so the held
        // handles fall back to the live ones: `client` and the probe.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut probe = Client::connect(handle.addr());
            assert_eq!(probe.roundtrip("ping"), "ok pong=1");
            let held = handle.held_sessions();
            if held == 2 {
                break;
            }
            assert!(Instant::now() < deadline, "{held} session handles held");
        }
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        handle.shutdown_and_wait();
    }

    /// Subscribes to `id` and reads its stream: the `event` lines, then
    /// the `done` line.
    fn stream(client: &mut Client, id: &str) -> (Vec<String>, String) {
        let ack = client.roundtrip(&format!("subscribe id={id}"));
        assert_eq!(ack, format!("ok id={id};subscribed=1"));
        let mut events = Vec::new();
        loop {
            let line = client.recv();
            if line.starts_with("done ") {
                // The connection is back in request mode: nothing else
                // was streamed after the `done` line.
                assert_eq!(client.roundtrip("ping"), "ok pong=1");
                return (events, line);
            }
            assert!(line.starts_with("event "), "{line}");
            events.push(line);
        }
    }

    /// A reply's verb and fields without its `id` field.
    fn without_id(line: &str) -> (String, Vec<(String, String)>) {
        let reply = parse_reply(line);
        let fields = reply
            .fields
            .into_iter()
            .filter(|(k, _)| k != "id")
            .collect();
        (reply.verb, fields)
    }

    fn parse_reply(line: &str) -> super::protocol::Request {
        super::protocol::parse_line(line).unwrap().unwrap()
    }

    fn parse_id(reply: &str) -> String {
        parse_reply(reply).get("id").expect("id field").to_string()
    }

    fn wait_for_state(client: &mut Client, id: &str, want: &str) {
        for _ in 0..400 {
            let reply = client.roundtrip(&format!("status id={id}"));
            if parse_reply(&reply).get("state") == Some(want) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never reached state {want}");
    }

    fn wait_done(client: &mut Client, id: &str) -> String {
        for _ in 0..400 {
            let reply = client.roundtrip(&format!("result id={id}"));
            if !reply.contains("code=not_finished") {
                return reply;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never finished");
    }
}
