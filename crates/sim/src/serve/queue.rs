//! The daemon's worker pool: a fixed set of threads draining the
//! bounded queue in [`super::registry::Shared`]. A panicking job is
//! caught and recorded as `failed` — it never takes a worker (or the
//! daemon) down.

use super::registry::{wire_id, Outcome, Shared};
use super::{JobContext, StoredRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spawns `workers` queue-draining threads. Each exits when the queue
/// is empty and shutdown has begun.
pub(crate) fn spawn_workers(shared: &Arc<Shared>, workers: usize) -> Vec<JoinHandle<()>> {
    (0..workers.max(1))
        .map(|i| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("mseh-serve-worker-{i}"))
                .spawn(move || run_worker(&shared))
                .expect("spawn serve worker")
        })
        .collect()
}

fn run_worker(shared: &Arc<Shared>) {
    while let Some((n, StoredRun { run, cancel, spec })) = shared.claim() {
        let ctx = JobContext {
            id: wire_id(n),
            number: n,
            cancel,
            shared: Arc::clone(shared),
        };
        let outcome = match catch_unwind(AssertUnwindSafe(|| run(&ctx))) {
            Ok(Ok(Some(output))) => Outcome::Done(Arc::new(output)),
            Ok(Ok(None)) => Outcome::Cancelled,
            Ok(Err(message)) => Outcome::Failed(message),
            Err(panic) => Outcome::Failed(panic_text(&panic)),
        };
        shared.complete(n, spec, outcome);
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}
