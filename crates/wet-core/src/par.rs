//! Minimal scoped worker pool for the WET pipeline's embarrassingly
//! parallel phases.
//!
//! The hot phases — tier-2 stream compression, §3.2 value grouping,
//! whole-trace extraction, and the bench harness's per-workload runs —
//! are loops over fully independent items. This module fans such loops
//! out over [`std::thread::scope`] workers with no dependencies beyond
//! the standard library (the build environment is offline, so rayon is
//! not an option).
//!
//! Work distribution is a chunked shared queue: workers repeatedly
//! claim a small batch of items under a mutex, so uneven item costs
//! (one giant stream among thousands of small ones) still balance.
//! Each worker keeps its results tagged with the item index; after the
//! scope joins, results are assembled **in index order**, so the
//! output of every function here is identical to the sequential loop
//! it replaces regardless of thread count or scheduling. With
//! `threads <= 1` the loop runs inline on the caller's thread — the
//! sequential path is the parallel path with one worker, not separate
//! code to keep in sync.
//!
//! Observability: each spawn captures a [`wet_obs::handoff`] from the
//! caller so workers inherit its profiling enablement, parent span and
//! request capture; worker spans are buffered thread-locally and merged
//! into the global collector at pool join (when the scope's threads
//! exit).

use std::sync::Mutex;

/// Resolves a requested thread count: `0` means "all available
/// cores"; anything else is used as given. Always at least 1.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Batch size for queue claims: large enough to keep mutex traffic
/// negligible, small enough that a straggler batch can't unbalance the
/// pool.
fn chunk_size(items: usize, threads: usize) -> usize {
    (items / (threads * 8)).clamp(1, 1024)
}

/// Runs `f` over every item of `items`, mutably, on up to `threads`
/// workers, returning the results in item order.
///
/// Equivalent to `items.iter_mut().enumerate().map(|(i, t)| f(i, t))`
/// — and is exactly that when `threads <= 1` or there are fewer than
/// two items.
///
/// # Panics
/// Propagates the first worker panic after all workers have joined.
pub fn map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = chunk_size(n, threads);
    // The mutex hands out `(index, &mut T)` pairs; the borrows outlive
    // the lock (they borrow the slice, not the guard), so workers
    // process their batch without holding the queue.
    let queue = Mutex::new(items.iter_mut().enumerate());
    let obs = wet_obs::handoff();
    let (obs, queue, f) = (&obs, &queue, &f);
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let _obs = wet_obs::attach(obs);
                    let _span = wet_obs::span!("par.worker");
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut batch: Vec<(usize, &mut T)> = Vec::with_capacity(chunk);
                    loop {
                        {
                            // A poisoned queue only means another worker
                            // panicked; the slice iterator holds no
                            // invariant a panic could break, so keep
                            // draining — the original panic is the one
                            // re-raised at pool join.
                            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                            batch.extend(q.by_ref().take(chunk));
                        }
                        if batch.is_empty() {
                            return out;
                        }
                        for (i, t) in batch.drain(..) {
                            out.push((i, f(i, t)));
                        }
                    }
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(p) => parts.push(p),
                Err(e) => panic = panic.or(Some(e)),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
    });
    reassemble(n, parts)
}

/// Runs `f` over every item of `items` (shared access) on up to
/// `threads` workers, returning the results in item order.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_ctx(threads, items, || (), |(), i, t| f(i, t))
}

/// Like [`map`], but each worker owns a context built by `init` —
/// typically a memoization cache — threaded through its items as
/// `f(&mut ctx, index, item)`.
///
/// The context must be pure acceleration: results may not depend on
/// which items share a worker, or the index-order guarantee stops
/// implying value equality with the sequential loop (which uses one
/// context for everything).
pub fn map_ctx<T, R, C, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        let mut ctx = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut ctx, i, t)).collect();
    }
    let chunk = chunk_size(n, threads);
    let queue = Mutex::new(items.iter().enumerate());
    let obs = wet_obs::handoff();
    let (obs, queue, init, f) = (&obs, &queue, &init, &f);
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let _obs = wet_obs::attach(obs);
                    let _span = wet_obs::span!("par.worker");
                    let mut ctx = init();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut batch: Vec<(usize, &T)> = Vec::with_capacity(chunk);
                    loop {
                        {
                            // See map_mut: ignore poisoning so the first
                            // panic, not a PoisonError, reaches the caller.
                            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                            batch.extend(q.by_ref().take(chunk));
                        }
                        if batch.is_empty() {
                            return out;
                        }
                        for (i, t) in batch.drain(..) {
                            out.push((i, f(&mut ctx, i, t)));
                        }
                    }
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(p) => parts.push(p),
                Err(e) => panic = panic.or(Some(e)),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
    });
    reassemble(n, parts)
}

fn reassemble<R>(n: usize, parts: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|o| o.expect("every index processed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_mut_matches_sequential_for_all_thread_counts() {
        let base: Vec<u64> = (0..1000).collect();
        let mut expected = base.clone();
        let exp_out: Vec<u64> =
            expected.iter_mut().enumerate().map(|(i, v)| { *v *= 3; *v + i as u64 }).collect();
        for threads in [1, 2, 4, 8, 64] {
            let mut items = base.clone();
            let out = map_mut(threads, &mut items, |i, v| {
                *v *= 3;
                *v + i as u64
            });
            assert_eq!(items, expected, "threads={threads}");
            assert_eq!(out, exp_out, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_index_order() {
        let items: Vec<usize> = (0..501).collect();
        let out = map(4, &items, |i, &v| {
            assert_eq!(i, v);
            v * v
        });
        assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn map_ctx_reuses_context_within_worker() {
        // The context counts calls; totals across workers must cover
        // every item exactly once.
        let items: Vec<u32> = (0..100).collect();
        let out = map_ctx(3, &items, || 0usize, |calls, _, &v| {
            *calls += 1;
            (v, *calls)
        });
        assert_eq!(out.len(), 100);
        // Values arrive in order even though per-worker call counts
        // interleave arbitrarily.
        for (i, &(v, calls)) in out.iter().enumerate() {
            assert_eq!(v as usize, i);
            assert!(calls >= 1);
        }
    }

    #[test]
    fn empty_and_single_item() {
        let mut none: [u8; 0] = [];
        assert!(map_mut(8, &mut none, |_, _| 0).is_empty());
        let mut one = [5u8];
        assert_eq!(map_mut(8, &mut one, |_, v| *v as usize), vec![5]);
    }

    #[test]
    fn effective_threads_resolution() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    #[should_panic(expected = "kaboom")]
    fn map_mut_worker_panics_propagate() {
        // The panicking worker dies with a claimed batch; the others
        // must drain the rest and the pool must re-raise the original
        // panic at join — not deadlock, and not a PoisonError.
        let mut items: Vec<u32> = (0..256).collect();
        map_mut(8, &mut items, |_, v| {
            if *v == 200 {
                panic!("kaboom");
            }
            *v
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        map(4, &items, |_, &v| {
            if v == 33 {
                panic!("boom");
            }
            v
        });
    }
}
