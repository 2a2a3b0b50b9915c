//! Run control for long-running simulation work: cooperative
//! cancellation and progress reports.
//!
//! A [`CancelToken`] is a cheap shared flag threaded through the
//! kernel's window loops: the single-run kernel (which also runs each
//! resilience campaign scenario), and every fleet and arena lane check
//! it at control-window granularity, so a cancelled run stops within
//! one control window of compute per in-flight node and never
//! mid-window (results are either complete or discarded, never torn).
//!
//! A [`RunControl`] carries an optional token and an optional progress
//! callback into each `run_*_controlled` entry point: single runs,
//! campaigns, fleets and arenas take the same one.
//!
//! Tokens exist for the daemon ([`crate::serve`]) — a submitted job
//! holds one and `cancel` trips it — but they are plain library
//! objects: any embedding (a UI thread, a watchdog) can use them.
//!
//! # Examples
//!
//! ```
//! use mseh_sim::CancelToken;
//!
//! let token = CancelToken::new();
//! assert!(!token.is_cancelled());
//! token.cancel();
//! assert!(token.is_cancelled());
//! // Clones observe the same flag.
//! let clone = token.clone();
//! assert!(clone.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag. Cancellation is one-way:
/// once tripped, a token never resets.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// External control of a `run_*_controlled` run: a cooperative
/// cancellation token and a progress callback, both optional. The
/// default value is "no control", and an un-cancelled controlled run
/// returns exactly what its plain entry point returns.
#[derive(Default, Clone, Copy)]
pub struct RunControl<'a> {
    /// Checked once per control window; a tripped token makes the run
    /// return `Ok(None)` within one control window of compute per
    /// in-flight run.
    pub cancel: Option<&'a CancelToken>,
    /// Called with `(done, total)` as the work completes, counting
    /// - windows closed, once per window, in a single run
    ///   ([`crate::run_simulation_controlled`]);
    /// - scenarios finished in a campaign
    ///   ([`crate::run_resilience_campaign_controlled`]);
    /// - nodes, as fleet shards finish ([`crate::run_fleet_controlled`]);
    /// - lanes, as arena seed rows finish ([`crate::run_arena_controlled`]).
    ///
    /// Each count is reported once and the total is among them. Workers
    /// number a report before they make it, so two reports from
    /// different workers may arrive out of order.
    pub progress: Option<&'a (dyn Fn(u64, u64) + Sync)>,
}

impl core::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.map(|_| "Fn"))
            .finish()
    }
}

/// What a plain entry point returns: its controlled form's result under
/// [`RunControl::default`], with the error as a panic.
#[track_caller]
pub(crate) fn uncontrolled<T>(result: Result<Option<T>, String>) -> T {
    match result {
        Ok(Some(value)) => value,
        Ok(None) => unreachable!("no cancel token was installed"),
        Err(message) => panic!("{message}"),
    }
}

/// `true` when `cancel` is present and tripped — the single branch the
/// kernels pay per control window.
#[inline]
pub(crate) fn tripped(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(CancelToken::is_cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_and_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!tripped(Some(&t)));
        assert!(!tripped(None));
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(tripped(Some(&t)));
    }

    #[test]
    fn clones_share_the_flag_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
