//! A dependency-free scoped worker pool for embarrassingly-parallel
//! simulation work: parameter sweeps, campaign scenarios, fleet shards,
//! arena seed rows and the bench harness all fan out through
//! [`par_map_with`].
//!
//! Built on [`std::thread::scope`] so borrowed data (environments,
//! nodes, factory closures) crosses into workers without `'static`
//! bounds or any external crate — the repo builds with no network
//! access. Work is claimed index-by-index from a shared atomic counter,
//! which balances uneven item costs (a cloudy-seed run can cost more
//! steps of converter iteration than a sunny one) without any
//! per-thread queue bookkeeping.
//!
//! The pool size comes from [`thread_count`]: the `MSEH_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`].
//!
//! # Determinism
//!
//! `par_map` preserves item order in its output: result `i` is always
//! `f(&items[i])` regardless of which worker ran it or in what order
//! items were claimed. Combined with the simulator's pure
//! `(seed, time)`-addressed randomness, parallel seed sweeps are
//! bit-for-bit identical to sequential ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count used by the parallel entry points: the
/// `MSEH_THREADS` environment variable when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 when even that
/// is unavailable).
///
/// # Examples
///
/// ```
/// let n = mseh_sim::thread_count();
/// assert!(n >= 1);
/// ```
pub fn thread_count() -> usize {
    if let Ok(raw) = std::env::var("MSEH_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a run config asks for: its `threads` field, where
/// `0` selects [`thread_count`].
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread_count()
    } else {
        threads
    }
}

/// Maps `f` over `items` on a scoped worker pool of [`thread_count`]
/// workers, preserving item order in the output.
///
/// Equivalent to `items.iter().map(f).collect()` but parallel; see
/// [`par_map_with`] for an explicit thread count.
///
/// # Examples
///
/// ```
/// let squares = mseh_sim::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (`threads == 1` runs
/// inline on the calling thread with no pool at all).
///
/// # Panics
///
/// Panics if `threads` is zero, or if `f` panics on any item (worker
/// panics propagate to the caller when the scope joins).
///
/// # Examples
///
/// ```
/// let doubled = mseh_sim::par_map_with(2, &[10, 20, 30], |&x| x * 2);
/// assert_eq!(doubled, vec![20, 40, 60]);
/// ```
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Each worker claims the next unclaimed index and appends
    // `(index, result)` to a shared bin; order is restored afterwards.
    // The mutex is uncontended relative to the work — one lock per
    // item, and items here are whole simulation runs.
    let next = AtomicUsize::new(0);
    let bin: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                bin.lock().expect("result bin poisoned").extend(local);
            });
        }
    });

    let mut collected = bin.into_inner().expect("result bin poisoned");
    collected.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), items.len());
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_with(threads, &items, |&x| x * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn visits_every_item_exactly_once() {
        let items: Vec<usize> = (0..100).collect();
        let hits = AtomicUsize::new(0);
        let got = par_map_with(4, &items, |&x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(got.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let ids = par_map_with(4, &[(); 64], |_| {
            // Stall briefly so workers overlap and all get a share.
            std::thread::sleep(std::time::Duration::from_millis(2));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on >1 thread");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn borrows_non_static_data() {
        let base = [100u64, 200, 300];
        let offsets = [0usize, 1, 2];
        let got = par_map_with(3, &offsets, |&i| base[i] + i as u64);
        assert_eq!(got, vec![100, 201, 302]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_threads() {
        par_map_with(0, &[1], |&x: &i32| x);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
