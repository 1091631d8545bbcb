//! Shared cache of materialized pattern coverage bitsets.
//!
//! The lattice search intersects predicate coverages constantly, and an
//! interactive session asks for the *same* intersections again on every
//! query (the pattern structure depends only on the data, not on the metric
//! or estimator being debugged). [`CoverageCache`] memoizes each pattern's
//! coverage by its sorted predicate-id key so a warm session — or a batch of
//! queries fanned out over one sweep — pays for every `AND` exactly once.

use crate::bitset::BitSet;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default cap on cached entries: beyond this the cache stops inserting
/// (lookups still work), bounding memory on adversarial workloads.
pub const DEFAULT_COVERAGE_CACHE_CAP: usize = 1 << 18;

/// Observability counters of a [`CoverageCache`] (see
/// [`CoverageCache::stats`]). All counters are cumulative since
/// construction; `entries` is the current size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageCacheStats {
    /// Coverages currently cached.
    pub entries: usize,
    /// Lookups answered from the cache (no intersection computed).
    pub hits: u64,
    /// Lookups that had to compute their intersection.
    pub misses: u64,
    /// Freshly computed coverages the cap refused to retain (the value is
    /// still returned to the caller; the next ask recomputes it). A nonzero
    /// count is the signal that the cap is too small for the workload.
    pub inserts_refused: u64,
}

/// The map plus its counters, guarded by one mutex (counters are only
/// meaningful relative to the map state they describe).
#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<Box<[u16]>, Arc<BitSet>>,
    hits: u64,
    misses: u64,
    inserts_refused: u64,
}

/// A concurrent map from sorted predicate-id keys to shared coverage
/// bitsets. Coverage is a pure function of the predicate table, so entries
/// never invalidate for the lifetime of the table the keys refer to.
#[derive(Debug)]
pub struct CoverageCache {
    inner: Mutex<CacheInner>,
    cap: usize,
}

impl Default for CoverageCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageCache {
    /// An empty cache with the default entry cap.
    pub fn new() -> Self {
        Self::with_capacity_cap(DEFAULT_COVERAGE_CACHE_CAP)
    }

    /// An empty cache that stops inserting once `cap` entries are stored
    /// (the tests shrink the cap to reach it).
    fn with_capacity_cap(cap: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            cap,
        }
    }

    /// Number of cached coverages.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Locks the cache, recovering from poisoning: entries are pure
    /// functions of the predicate table and are only ever inserted fully
    /// built, so a panicking scorer thread can never leave one half-written
    /// — the data behind a poisoned guard is still valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        gopher_par::lock_recover(&self.inner)
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache's hit/miss/insert-refused counters.
    pub fn stats(&self) -> CoverageCacheStats {
        let inner = self.lock();
        CoverageCacheStats {
            entries: inner.entries.len(),
            hits: inner.hits,
            misses: inner.misses,
            inserts_refused: inner.inserts_refused,
        }
    }

    /// Returns the cached coverage for `ids` without computing anything.
    ///
    /// Counts a hit when present and **nothing** when absent: the caller is
    /// probing before deciding whether the intersection is worth
    /// materializing at all (the lattice's lazy merge path counts first and
    /// skips unsupported merges), so an absent entry is not yet a miss — if
    /// the caller goes on to materialize via
    /// [`CoverageCache::get_or_insert_with`], *that* lookup records the miss.
    pub fn peek(&self, ids: &[u16]) -> Option<Arc<BitSet>> {
        let mut inner = self.lock();
        let hit = inner.entries.get(ids).map(Arc::clone);
        if hit.is_some() {
            inner.hits += 1;
        }
        hit
    }

    /// Returns the cached coverage for `ids` (sorted predicate ids), or
    /// computes it with `compute`, caches it (subject to the cap), and
    /// returns it.
    pub fn get_or_insert_with(&self, ids: &[u16], compute: impl FnOnce() -> BitSet) -> Arc<BitSet> {
        {
            let mut inner = self.lock();
            if let Some(hit) = inner.entries.get(ids) {
                let hit = Arc::clone(hit);
                inner.hits += 1;
                return hit;
            }
            inner.misses += 1;
        }
        // Compute outside the lock: intersections are the expensive part and
        // concurrent queries must not serialize on them.
        let fresh = Arc::new(compute());
        let mut inner = self.lock();
        if let Some(hit) = inner.entries.get(ids) {
            return Arc::clone(hit); // another query raced us; keep one copy
        }
        if inner.entries.len() < self.cap {
            inner
                .entries
                .insert(ids.to_vec().into_boxed_slice(), Arc::clone(&fresh));
        } else {
            inner.inserts_refused += 1;
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_returns_same_allocation() {
        let cache = CoverageCache::new();
        let a = cache.get_or_insert_with(&[1, 2], || BitSet::from_indices(10, &[0, 1]));
        let b = cache.get_or_insert_with(&[1, 2], || panic!("must hit the cache"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = CoverageCache::new();
        let a = cache.get_or_insert_with(&[1], || BitSet::from_indices(10, &[0]));
        let b = cache.get_or_insert_with(&[2], || BitSet::from_indices(10, &[1]));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cap_stops_insertion_but_not_computation() {
        let cache = CoverageCache::with_capacity_cap(1);
        let _ = cache.get_or_insert_with(&[1], || BitSet::from_indices(4, &[0]));
        let b = cache.get_or_insert_with(&[2], || BitSet::from_indices(4, &[1]));
        assert_eq!(cache.len(), 1, "cap must hold");
        assert_eq!(b.to_indices(), vec![1], "value still computed and returned");
        // The uncached key recomputes on the next ask.
        let b2 = cache.get_or_insert_with(&[2], || BitSet::from_indices(4, &[1]));
        assert_eq!(b2.to_indices(), vec![1]);
    }

    #[test]
    fn peek_counts_hits_but_never_misses() {
        let cache = CoverageCache::new();
        assert!(cache.peek(&[7]).is_none());
        assert_eq!(cache.stats().misses, 0, "an absent peek is not a miss");
        let a = cache.get_or_insert_with(&[7], || BitSet::from_indices(4, &[2]));
        let peeked = cache.peek(&[7]).expect("cached");
        assert!(Arc::ptr_eq(&a, &peeked));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn counters_track_hits_misses_and_refused_inserts() {
        let cache = CoverageCache::with_capacity_cap(1);
        assert_eq!(cache.stats(), CoverageCacheStats::default());
        let _ = cache.get_or_insert_with(&[1], || BitSet::from_indices(4, &[0]));
        let _ = cache.get_or_insert_with(&[1], || unreachable!("cached"));
        let after_hit = cache.stats();
        assert_eq!(
            (after_hit.entries, after_hit.hits, after_hit.misses),
            (1, 1, 1)
        );
        assert_eq!(after_hit.inserts_refused, 0);
        // Over the cap: computed and returned, but the insert is refused —
        // once per ask, since nothing is retained.
        let _ = cache.get_or_insert_with(&[2], || BitSet::from_indices(4, &[1]));
        let _ = cache.get_or_insert_with(&[2], || BitSet::from_indices(4, &[1]));
        let after_refused = cache.stats();
        assert_eq!(after_refused.inserts_refused, 2);
        assert_eq!(after_refused.misses, 3);
        assert_eq!(after_refused.entries, 1);
    }
}
