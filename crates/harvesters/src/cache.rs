//! Counters of the operating-point kernel cache.
//!
//! The memos themselves live in `mseh_power::InputChannel`: an exact
//! step memo and an exact open-circuit-voltage memo, both keyed on the
//! IEEE-754 bit pattern of the ambient fields and consulted only on
//! steps whose snapshot the walk holds for a control window.
//! [`CacheStats`] is the snapshot they report, merged across channels,
//! platforms and fleets.

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Held-snapshot solves answered from a memo.
    pub hits: u64,
    /// Solves that ran: on a held snapshot, because the key did not
    /// match (or the memo was empty); on a per-step snapshot, every
    /// channel step, which consults no memo and counts one miss.
    pub misses: u64,
    /// Explicit invalidations (hot-swap, instrumentation wrap) of a
    /// stored solve.
    pub invalidations: u64,
}

impl CacheStats {
    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }

    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = CacheStats {
            hits: 3,
            misses: 1,
            invalidations: 0,
        };
        a.merge(CacheStats {
            hits: 1,
            misses: 3,
            invalidations: 2,
        });
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 4);
        assert_eq!(a.invalidations, 2);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
