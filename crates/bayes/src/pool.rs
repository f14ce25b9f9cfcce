//! The one worker pool: spreads `units` independent indexed work items
//! over `threads` workers. MC-dropout samples, batched requests and
//! resilient request chains all drain through [`drain`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(state, i)` for every `i` in `0..units` and returns one slot
/// per index, in index order.
///
/// Workers pull indices from one atomic counter, so a slow unit never
/// holds a fixed share of the queue. Each worker builds its own state
/// with `init` (a conv [`fbcnn_nn::Workspace`], say) and reuses it
/// across the units it pulls. With one worker — or at most one unit —
/// everything runs on the caller's thread in index order, so a
/// single-threaded run is deterministic down to side-effect order.
///
/// Every unit runs inside `catch_unwind`. A unit whose worker panicked
/// comes back as `None` and its worker starts the next unit from a fresh
/// `init()` state, since the panic may have torn the old one; callers map
/// `None` to their own typed error.
///
/// # Examples
///
/// ```
/// let squares = fbcnn_bayes::pool::drain(5, 2, || (), |_, i| i * i);
/// assert_eq!(squares, vec![Some(0), Some(1), Some(4), Some(9), Some(16)]);
/// ```
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn drain<S, T: Send>(
    units: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<Option<T>> {
    assert!(threads > 0, "need at least one worker thread");
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter publishes no data; results come back
            // through the return value and the scope's joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units {
                break done;
            }
            let out = catch_unwind(AssertUnwindSafe(|| work(&mut state, i))).ok();
            if out.is_none() {
                state = init();
            }
            done.push((i, out));
        }
    };
    let workers = threads.min(units);
    let done: Vec<(usize, Option<T>)> = if workers <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            // A worker can only die in `init`; its units stay `None`.
            handles
                .into_iter()
                .filter_map(|h| h.join().ok())
                .flatten()
                .collect()
        })
    };
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(units, || None);
    for (i, out) in done {
        slots[i] = out;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_land_in_index_order_at_every_thread_count() {
        for threads in [1, 2, 3, 16] {
            let out = drain(7, threads, || (), |_, i| i * 10);
            let want: Vec<Option<usize>> = (0..7).map(|i| Some(i * 10)).collect();
            assert_eq!(out, want, "at {threads} threads");
        }
        assert!(drain(0, 4, || (), |_, i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread_in_order() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        drain(
            4,
            1,
            || (),
            |_, i| order.lock().unwrap().push((i, std::thread::current().id())),
        );
        let want: Vec<_> = (0..4).map(|i| (i, caller)).collect();
        assert_eq!(order.into_inner().unwrap(), want);
    }

    #[test]
    fn a_panicking_unit_is_none_and_its_worker_restarts_clean() {
        for threads in [1, 2] {
            // State counts units since the last init: a torn state would
            // carry the panicked unit's increment into the next unit.
            let out = drain(
                4,
                threads,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    assert_ne!(i, 1, "unit 1 panics");
                    *seen
                },
            );
            assert_eq!(out[1], None, "at {threads} threads");
            assert!(out.iter().enumerate().all(|(i, o)| i == 1 || o.is_some()));
            if threads == 1 {
                assert_eq!(out, vec![Some(1), None, Some(1), Some(2)]);
            }
        }
    }
}
