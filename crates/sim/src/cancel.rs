//! Cooperative cancellation for long-running simulation work.
//!
//! A [`CancelToken`] is a cheap shared flag threaded through the
//! kernel's window loops: the single-run kernel (which also runs each
//! resilience campaign scenario), and every fleet lane check it at
//! control-window granularity, so a cancelled run stops within one
//! control window of compute per in-flight node and never mid-window
//! (results are either complete or discarded, never torn).
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
