//! Shared daemon state: the bounded job queue, per-job records with
//! buffered event lines, subscriber channels, lifecycle transitions, the
//! bounded set of finished records and the result cache. One mutex
//! guards the whole state; workers park on a condvar when the queue is
//! empty.

use super::protocol::format_line;
use super::{JobOutput, JobRun, StoredRun};
use crate::cancel::CancelToken;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How many specs the result cache holds; past it the least recently
/// used one is evicted.
const RESULT_CACHE_ENTRIES: usize = 4096;
/// How long shutdown waits for its wake connection to the accept loop.
/// A local connect returns at once unless the listener's backlog is
/// full, and then the accept loop is busy accepting and sees the flag.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Finished; summary and receipt are available via `result`.
    Done,
    /// Stopped by `cancel` before completion.
    Cancelled,
    /// The run reported an error (or panicked); see the stored message.
    Failed,
}

impl JobState {
    /// The wire spelling of this state.
    pub fn as_wire(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// Why a wire id names no held job record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Missing {
    /// The daemon never issued the id: `err code=unknown_job`.
    Unknown,
    /// The job finished and its record was dropped past the retention
    /// bound: `err code=expired`.
    Expired,
}

/// The wire id of job number `n`.
pub(crate) fn wire_id(n: u64) -> String {
    format!("job-{n}")
}

/// The number `n` of an id spelled exactly as [`wire_id`] spells it: no
/// sign and no leading zero, so `job-05` and `job-+5` name no job.
fn job_number(id: &str) -> Option<u64> {
    let digits = id.strip_prefix("job-")?;
    if digits.starts_with(['+', '0']) {
        return None;
    }
    digits.parse().ok()
}

/// A message on a subscriber's channel.
pub(crate) enum StreamMsg {
    /// One live `event` line.
    Event(String),
    /// The job's `done` line; nothing follows it.
    Done(String),
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// The bounded queue is at capacity; retry after the hinted delay.
    Full {
        /// Client-facing retry hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
}

/// An accepted submission: its wire id, and whether the result cache
/// answered it (the job is then `done` already).
pub(crate) struct Admitted {
    pub id: String,
    pub cached: bool,
}

/// How a job ended.
#[derive(Clone)]
pub(crate) enum Outcome {
    /// The run finished. Its summary is shared by the job's record, the
    /// result cache and every repeat the cache answers.
    Done(Arc<JobOutput>),
    Cancelled,
    Failed(String),
}

impl Outcome {
    fn state(&self) -> JobState {
        match self {
            Outcome::Done(_) => JobState::Done,
            Outcome::Cancelled => JobState::Cancelled,
            Outcome::Failed(_) => JobState::Failed,
        }
    }
}

/// A finished job's receipt and outcome, from which its `done` line and
/// `result` reply are formatted when they are sent.
pub(crate) struct Ending {
    seed: u64,
    spec_hash: u64,
    pub outcome: Outcome,
}

impl Ending {
    /// The fields of the job's `done` line under `id`; the `result`
    /// reply of a `done` job carries the same fields.
    pub(crate) fn fields<'a>(&'a self, id: &str) -> Vec<(&'a str, String)> {
        let mut fields = vec![
            ("id", id.to_string()),
            ("state", self.outcome.state().as_wire().into()),
        ];
        if let Outcome::Failed(msg) = &self.outcome {
            fields.push(("msg", msg.clone()));
            return fields;
        }
        fields.push(("seed", self.seed.to_string()));
        fields.push(("spec_hash", format!("{:016x}", self.spec_hash)));
        if let Outcome::Done(output) = &self.outcome {
            fields.push(("digest", format!("{:016x}", output.digest)));
            fields.extend(output.fields.iter().map(|(k, v)| (*k, v.clone())));
        }
        fields
    }
}

/// Where a job is in its lifecycle.
enum Phase {
    Queued,
    Running,
    Ended(Outcome),
}

struct JobRecord {
    phase: Phase,
    seed: u64,
    spec_hash: u64,
    cancel: CancelToken,
    /// Buffered `event` lines in emission order, replayed to late
    /// subscribers before live delivery.
    events: Vec<String>,
    subscribers: Vec<mpsc::Sender<StreamMsg>>,
}

impl JobRecord {
    fn state(&self) -> JobState {
        match &self.phase {
            Phase::Queued => JobState::Queued,
            Phase::Running => JobState::Running,
            Phase::Ended(outcome) => outcome.state(),
        }
    }

    fn ending(&self) -> Option<Ending> {
        match &self.phase {
            Phase::Ended(outcome) => Some(Ending {
                seed: self.seed,
                spec_hash: self.spec_hash,
                outcome: outcome.clone(),
            }),
            Phase::Queued | Phase::Running => None,
        }
    }

    fn done_line(&self, n: u64) -> Option<String> {
        let ending = self.ending()?;
        Some(format_line("done", &ending.fields(&wire_id(n))))
    }
}

/// The summaries of specs that ran to `done`, keyed on the normalized
/// spec string and bounded: inserting past the bound evicts the least
/// recently used entry, and a hit refreshes the entry it reads.
pub(crate) struct ResultCache {
    bound: usize,
    clock: u64,
    /// Each spec's summary and its last use on `clock`.
    entries: HashMap<Arc<str>, (u64, Arc<JobOutput>)>,
    /// The specs by last use, oldest first.
    by_use: BTreeMap<u64, Arc<str>>,
}

impl ResultCache {
    pub(crate) fn new(bound: usize) -> Self {
        Self {
            bound,
            clock: 0,
            entries: HashMap::new(),
            by_use: BTreeMap::new(),
        }
    }

    /// The summary cached for `spec`, which becomes the most recently
    /// used entry.
    pub(crate) fn get(&mut self, spec: &str) -> Option<Arc<JobOutput>> {
        let (used, output) = self.entries.get_mut(spec)?;
        let key = self.by_use.remove(used).expect("every entry has a use");
        self.clock += 1;
        *used = self.clock;
        self.by_use.insert(self.clock, key);
        Some(Arc::clone(output))
    }

    /// Caches `output` for `spec` as the most recently used entry and
    /// evicts the least recently used one past the bound. A spec already
    /// cached keeps its summary, which by the receipt contract is the
    /// same.
    pub(crate) fn insert(&mut self, spec: String, output: Arc<JobOutput>) {
        if self.get(&spec).is_some() {
            return;
        }
        self.clock += 1;
        let key: Arc<str> = spec.into();
        self.by_use.insert(self.clock, Arc::clone(&key));
        self.entries.insert(key, (self.clock, output));
        if self.entries.len() > self.bound {
            if let Some((_, oldest)) = self.by_use.pop_first() {
                self.entries.remove(&oldest);
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Point-in-time view of one job plus queue occupancy, for `status`
/// replies.
pub(crate) struct StatusSnapshot {
    pub state: JobState,
    pub queued: usize,
    pub running: usize,
}

/// Point-in-time view of a job for `result` replies: its state while it
/// is live, or how it ended.
pub(crate) enum ResultSnapshot {
    Live(JobState),
    Ended(Ending),
}

struct Inner {
    /// Queued job numbers, oldest first.
    queue: VecDeque<u64>,
    runs: HashMap<u64, StoredRun>,
    /// Every live job's record and the last `retention` finished ones,
    /// keyed by job number.
    jobs: HashMap<u64, JobRecord>,
    /// The held finished records' job numbers in finish order.
    finished: VecDeque<u64>,
    retention: usize,
    cache: ResultCache,
    /// The number the next job gets; `1..next_id` have been issued.
    next_id: u64,
    running: usize,
    shutdown: bool,
}

impl Inner {
    /// The number of the job `id` names, if its record is held. An
    /// issued id without a record has expired: records are dropped only
    /// past the retention bound.
    fn find(&self, id: &str) -> Result<u64, Missing> {
        match job_number(id).filter(|n| (1..self.next_id).contains(n)) {
            None => Err(Missing::Unknown),
            Some(n) if self.jobs.contains_key(&n) => Ok(n),
            Some(_) => Err(Missing::Expired),
        }
    }

    /// Ends job `n`, sends its `done` line to every subscriber and files
    /// it among the finished records.
    fn finish(&mut self, n: u64, outcome: Outcome) {
        let Some(job) = self.jobs.get_mut(&n) else {
            return;
        };
        job.phase = Phase::Ended(outcome);
        if !job.subscribers.is_empty() {
            let line = job.done_line(n).expect("the job has ended");
            for tx in job.subscribers.drain(..) {
                let _ = tx.send(StreamMsg::Done(line.clone()));
            }
        }
        self.retire(n);
    }

    /// Files the ended job `n` as the newest finished record and drops
    /// the oldest past the retention bound, with its `event` lines and
    /// its reference to the summary (the result cache holds its own).
    fn retire(&mut self, n: u64) {
        self.finished.push_back(n);
        while self.finished.len() > self.retention {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

/// The daemon's shared state: one mutex, one worker-wakeup condvar.
pub(crate) struct Shared {
    capacity: usize,
    retry_after_ms: u64,
    /// The listener's bound address, which shutdown connects to once to
    /// wake the blocked accept loop; `None` when no listener exists.
    listener: Option<SocketAddr>,
    inner: Mutex<Inner>,
    work: Condvar,
}

impl Shared {
    /// The state of a daemon whose queue holds `capacity` jobs, which
    /// keeps the records of the last `retention` finished jobs and
    /// whose accept loop listens on `listener`.
    pub(crate) fn new(
        capacity: usize,
        retry_after_ms: u64,
        retention: usize,
        listener: Option<SocketAddr>,
    ) -> Self {
        Self {
            capacity: capacity.max(1),
            retry_after_ms,
            listener,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                runs: HashMap::new(),
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                retention,
                cache: ResultCache::new(RESULT_CACHE_ENTRIES),
                next_id: 1,
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a validated job of normalized `spec`. A spec in the result
    /// cache is recorded as `done` at once with the cached summary, and
    /// `run` is dropped; any other is queued. Errors when the queue is
    /// full or the daemon is shutting down.
    pub(crate) fn submit(
        &self,
        spec: String,
        seed: u64,
        spec_hash: u64,
        run: JobRun,
    ) -> Result<Admitted, SubmitError> {
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let hit = inner.cache.get(&spec);
        if hit.is_none() && inner.queue.len() >= self.capacity {
            return Err(SubmitError::Full {
                retry_after_ms: self.retry_after_ms,
            });
        }
        let cached = hit.is_some();
        let n = inner.next_id;
        inner.next_id += 1;
        let cancel = CancelToken::new();
        let phase = match hit {
            Some(output) => Phase::Ended(Outcome::Done(output)),
            None => {
                let run = StoredRun {
                    run,
                    cancel: cancel.clone(),
                    spec,
                };
                inner.runs.insert(n, run);
                inner.queue.push_back(n);
                self.work.notify_one();
                Phase::Queued
            }
        };
        inner.jobs.insert(
            n,
            JobRecord {
                phase,
                seed,
                spec_hash,
                cancel,
                events: Vec::new(),
                subscribers: Vec::new(),
            },
        );
        if cached {
            inner.retire(n);
        }
        Ok(Admitted {
            id: wire_id(n),
            cached,
        })
    }

    /// Blocks until a job is available or shutdown, and returns its
    /// number and run; `None` means the worker should exit.
    pub(crate) fn claim(&self) -> Option<(u64, StoredRun)> {
        let mut inner = self.lock();
        loop {
            if let Some(n) = inner.queue.pop_front() {
                let run = inner.runs.remove(&n).expect("queued job has a run");
                if let Some(job) = inner.jobs.get_mut(&n) {
                    job.phase = Phase::Running;
                }
                inner.running += 1;
                return Some((n, run));
            }
            if inner.shutdown {
                return None;
            }
            inner = self.work.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Appends a live `event` line of job `n` and fans it out to
    /// subscribers.
    pub(crate) fn append_event(&self, n: u64, fields: &[(&str, String)]) {
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(&n) {
            let mut all = vec![("id", wire_id(n))];
            all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
            let line = format_line("event", &all);
            job.subscribers
                .retain(|tx| tx.send(StreamMsg::Event(line.clone())).is_ok());
            job.events.push(line);
        }
    }

    /// Records a worker's outcome for job `n` of normalized `spec`:
    /// terminal state, subscriber completion and, for a `done` job, the
    /// result cache entry.
    pub(crate) fn complete(&self, n: u64, spec: String, outcome: Outcome) {
        let mut inner = self.lock();
        inner.running = inner.running.saturating_sub(1);
        if let Outcome::Done(output) = &outcome {
            inner.cache.insert(spec, Arc::clone(output));
        }
        inner.finish(n, outcome);
    }

    /// Requests cancellation. Queued jobs are cancelled on the spot;
    /// running jobs get their token tripped and finish within one
    /// control window. Returns the job's state after the request.
    pub(crate) fn cancel(&self, id: &str) -> Result<JobState, Missing> {
        let mut inner = self.lock();
        let n = inner.find(id)?;
        if let Some(pos) = inner.queue.iter().position(|&q| q == n) {
            inner.queue.remove(pos);
            inner.runs.remove(&n);
            inner.finish(n, Outcome::Cancelled);
            return Ok(JobState::Cancelled);
        }
        let job = &inner.jobs[&n];
        if !job.state().is_terminal() {
            job.cancel.cancel();
        }
        Ok(job.state())
    }

    /// Job state plus queue occupancy.
    pub(crate) fn status(&self, id: &str) -> Result<StatusSnapshot, Missing> {
        let inner = self.lock();
        let n = inner.find(id)?;
        Ok(StatusSnapshot {
            state: inner.jobs[&n].state(),
            queued: inner.queue.len(),
            running: inner.running,
        })
    }

    /// A job's state, or its ending once it has one.
    pub(crate) fn result(&self, id: &str) -> Result<ResultSnapshot, Missing> {
        let inner = self.lock();
        let job = &inner.jobs[&inner.find(id)?];
        Ok(match job.ending() {
            Some(ending) => ResultSnapshot::Ended(ending),
            None => ResultSnapshot::Live(job.state()),
        })
    }

    /// Registers a subscriber: returns the buffered `event` lines and,
    /// for a job that has already ended, its `done` line (in which case
    /// `tx` was not retained and no message will be sent).
    pub(crate) fn subscribe(
        &self,
        id: &str,
        tx: mpsc::Sender<StreamMsg>,
    ) -> Result<(Vec<String>, Option<String>), Missing> {
        let mut inner = self.lock();
        let n = inner.find(id)?;
        let job = inner.jobs.get_mut(&n).expect("found above");
        let done = job.done_line(n);
        if done.is_none() {
            job.subscribers.push(tx);
        }
        Ok((job.events.clone(), done))
    }

    /// Flips the shutdown flag, cancels everything queued, trips every
    /// running job's token, and wakes all workers and the accept loop.
    /// Both shutdown paths, [`super::ServerHandle::shutdown`] and the
    /// wire `shutdown` verb, come through here.
    pub(crate) fn begin_shutdown(&self) {
        {
            let mut inner = self.lock();
            if inner.shutdown {
                return;
            }
            inner.shutdown = true;
            let queued: Vec<u64> = inner.queue.drain(..).collect();
            inner.runs.clear();
            for n in queued {
                inner.finish(n, Outcome::Cancelled);
            }
            for job in inner.jobs.values_mut() {
                if !job.state().is_terminal() {
                    job.cancel.cancel();
                }
            }
            self.work.notify_all();
        }
        // The accept loop blocks in `accept`: one connection wakes it,
        // it sees the flag and drops that connection. On Linux a
        // connect to a wildcard bind (`0.0.0.0`, `::`) reaches loopback.
        if let Some(addr) = self.listener {
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.lock().shutdown
    }

    /// How many job records are held, and how many of them are live
    /// (queued or running).
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.jobs.len(), inner.queue.len() + inner.running)
    }
}
