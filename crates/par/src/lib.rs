//! Scoped-thread fork-join helpers: the workspace's rayon substitute.
//!
//! The build environment has no crates.io access, so the parallel query
//! engine is built on [`std::thread::scope`] instead of rayon. One shape
//! covers every fan-out in the workspace: [`par_map`] maps a `Fn` over a
//! shared slice, collecting results in input order (each lattice level's
//! enumeration, merge resolution and score pass, ground-truth retrains).
//!
//! Items are handed out via an atomic cursor, so uneven work items balance
//! across workers, and determinism is preserved: item `i` is always
//! processed alone by exactly one thread, and its result lands at index
//! `i`. With `threads <= 1` (or a single item) the map degrades to a plain
//! inline loop — no threads are spawned, which keeps single-threaded runs
//! bit-for-bit comparable and cheap.
//!
//! Panic behavior: a panicking worker sets a shared poison flag, so the
//! remaining workers finish their in-flight items but claim no new ones,
//! and the payload propagates to the caller when the scope joins — a batch
//! fails fast instead of paying for every remaining item. Callers that
//! hold lock-based caches must therefore recover poisoned mutexes — see
//! `ExplainSession` in `gopher-core`.

#![forbid(unsafe_code)]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard when a previous holder panicked instead
/// of propagating the poison.
///
/// This is the workspace-wide lock idiom: a panicking sweep worker (see the
/// poison-flag protocol above) must not brick a long-lived session by
/// poisoning its caches. Recovery is sound here because every lock-guarded
/// structure in the workspace is an insert-or-recompute cache — a
/// half-written entry is at worst recomputed, never trusted. Raw
/// `.lock().unwrap()` calls are denied by `gopher-analyze`'s `raw-lock`
/// rule; call this instead.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recover`] for a reader on an [`RwLock`]: a panicking writer must
/// not brick every subsequent reader of a long-lived shared session.
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recover`] for a writer on an [`RwLock`].
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Number of threads the host advertises (`std::thread::available_parallelism`),
/// falling back to 1 when the query fails.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` with up to `threads` worker threads, returning the
/// results in input order. `f` receives `(index, &item)`.
///
/// With `threads <= 1` or fewer than two items, runs inline on the calling
/// thread. Threads are scoped, so `f` may borrow from the caller's stack.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                    // Uncontended: slot `i` is claimed by exactly one worker.
                    Ok(result) => *lock_recover(&slots[i]) = Some(result),
                    Err(payload) => {
                        poisoned.store(true, Ordering::Relaxed);
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot filled by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_inline_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                par_map(threads, &items, |_, &x| x * x + 1),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_uses_multiple_threads() {
        let items: Vec<usize> = (0..64).collect();
        let seen = Mutex::new(HashSet::new());
        par_map(4, &items, |_, _| {
            // A tiny sleep gives every worker a chance to claim work.
            std::thread::sleep(std::time::Duration::from_millis(1));
            lock_recover(&seen).insert(std::thread::current().id());
        });
        // Workers only spawn when the host has >1 core; otherwise the OS may
        // still schedule all closures on one thread, so only assert spawning.
        assert!(!lock_recover(&seen).is_empty());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        let one = vec![7];
        assert_eq!(par_map(4, &one, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(4, &items, |i, _| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn worker_panic_stops_new_work_from_being_claimed() {
        // Item 0 panics immediately; every other item is slow. With the
        // poison flag, workers stop claiming once the panic lands, so most
        // of the batch is skipped instead of paid for.
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |i, _| {
                if i == 0 {
                    panic!("fail fast");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                executed.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(result.is_err());
        let done = executed.load(Ordering::Relaxed);
        assert!(
            done < 32,
            "a panic on the first item should skip most of the batch, ran {done}"
        );
    }

    #[test]
    fn uneven_work_is_balanced_by_the_cursor() {
        // Items with wildly different costs must all complete exactly once.
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        let results = par_map(4, &items, |i, _| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        assert_eq!(results, items);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }
}
