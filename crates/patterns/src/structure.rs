//! The structural artifact of a lattice sweep: the metric-independent half.
//!
//! Candidate generation splits into two kinds of work (Pradhan et al.,
//! SIGMOD 2022, §4.2): *structural* — which patterns exist above the support
//! threshold, what rows they cover — and *scoring* — how responsible each
//! coverage is under a metric/estimator pair. The structural half depends
//! only on the data and the lattice's structural knobs (support threshold τ,
//! depth), so a [`SweepStructure`] captures it once per `(τ, depth, …)`
//! configuration and every scorer — in this sweep or a later query with a
//! different metric, estimator, or bias evaluation — resolves its merges
//! against it instead of re-intersecting coverages.
//!
//! The artifact is **append-only and internally synchronized**: entries are
//! pure functions of the predicate table (a merged pattern's coverage is the
//! AND of its predicates' coverages, independent of which parent pair
//! produced it), so concurrent sweeps and their workers can share one
//! artifact freely, and a warm query topping up unexplored
//! territory can never invalidate anything.

use crate::bitset::BitSet;
use crate::coverage::CoverageCache;
use crate::index::PredicateIndex;
use crate::lattice::LatticeConfig;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A supported single-predicate pattern (the structural part of level 1).
#[derive(Debug, Clone)]
pub struct StructSingle {
    /// Predicate id.
    pub id: u16,
    /// Shared coverage bitset.
    pub coverage: Arc<BitSet>,
    /// `coverage.count()`.
    pub count: usize,
}

/// The structural record of one merged pattern: its support count, plus the
/// coverage bitset when the pattern meets the artifact's threshold (failed
/// merges keep only the count — enough to skip them without re-intersecting).
#[derive(Debug, Clone)]
pub struct MergeRecord {
    /// Rows covered; `None` iff `count` is below the artifact's `min_count`.
    pub coverage: Option<Arc<BitSet>>,
    /// Number of rows the merged pattern covers.
    pub count: usize,
}

/// The reusable structural artifact of a sweep: supported level-1 patterns
/// plus every merged pattern's coverage/support resolved so far.
#[derive(Debug)]
pub struct SweepStructure {
    singles: Vec<StructSingle>,
    merges: Mutex<HashMap<Box<[u16]>, MergeRecord>>,
    min_count: usize,
    n_rows: usize,
    /// Wall-clock cost of building the level-1 structural pass, charged into
    /// every scorer's level-1 duration (mirrors how a solo run pays it).
    build_time: Duration,
}

impl SweepStructure {
    /// Builds the artifact for one structural configuration: filters the
    /// index's predicates by the config's support threshold. (Merged levels
    /// fill in lazily as sweeps run.)
    ///
    /// # Panics
    /// If `config.support_threshold` is outside `[0, 1)` or
    /// `config.max_predicates` is zero — same contract as the lattice
    /// search, enforced here because sessions build artifacts straight from
    /// request parameters.
    pub fn build(index: &PredicateIndex, config: &LatticeConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.support_threshold),
            "support threshold must be in [0, 1)"
        );
        assert!(
            config.max_predicates >= 1,
            "need at least one predicate per pattern"
        );
        let t0 = Instant::now();
        let n = index.n_rows();
        let min_count = min_count_for(config.support_threshold, n);
        let singles = index
            .entries()
            .iter()
            .filter(|e| e.count >= min_count)
            .map(|e| StructSingle {
                id: e.id,
                coverage: Arc::clone(&e.coverage),
                count: e.count,
            })
            .collect();
        Self {
            singles,
            merges: Mutex::new(HashMap::new()),
            min_count,
            n_rows: n,
            build_time: t0.elapsed(),
        }
    }

    /// The supported single-predicate patterns, in predicate-id order.
    pub fn singles(&self) -> &[StructSingle] {
        &self.singles
    }

    /// Minimum coverage count a pattern needs (`⌈τ·n⌉`, at least 1).
    pub fn min_count(&self) -> usize {
        self.min_count
    }

    /// Number of dataset rows the coverages range over.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Wall-clock cost of the level-1 structural pass.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Number of merged patterns resolved so far (supported or not).
    pub fn merges_resolved(&self) -> usize {
        self.lock().len()
    }

    /// Locks the merge map, recovering from poisoning (records are pure and
    /// inserted fully built; see `CoverageCache::lock` for the rationale).
    fn lock(&self) -> MutexGuard<'_, HashMap<Box<[u16]>, MergeRecord>> {
        gopher_par::lock_recover(&self.merges)
    }

    /// The resolved record for a merged pattern, if any sweep has computed
    /// it yet.
    pub fn lookup(&self, ids: &[u16]) -> Option<MergeRecord> {
        self.lock().get(ids).cloned()
    }

    /// True once `ids` has a resolved record.
    pub fn contains(&self, ids: &[u16]) -> bool {
        self.lock().contains_key(ids)
    }

    /// Snapshot of every resolved merge key.
    pub fn known_keys(&self) -> HashSet<Box<[u16]>> {
        self.lock().keys().cloned().collect()
    }

    /// Inserts a freshly resolved record, keeping the existing one on a
    /// race (records for the same ids are value-identical by construction).
    pub fn insert(&self, ids: &[u16], record: MergeRecord) {
        self.lock()
            .entry(ids.to_vec().into_boxed_slice())
            .or_insert(record);
    }

    /// Resolves a merged pattern from its parents' coverages: returns the
    /// cached record, or computes one lazily (see
    /// [`SweepStructure::compute_record`]), records it, and returns it.
    pub fn resolve(
        &self,
        ids: &[u16],
        cache: &CoverageCache,
        a: &BitSet,
        b: &BitSet,
    ) -> MergeRecord {
        if let Some(hit) = self.lookup(ids) {
            return hit;
        }
        let record = self.compute_record(ids, cache, a, b);
        self.insert(ids, record.clone());
        record
    }

    /// Computes a record without touching the merge map (the lattice level
    /// pipeline computes a level's unseen merges in parallel this way, then
    /// records them in first-seen order).
    ///
    /// **Count-first, materialize-on-demand:** unless some other structural
    /// configuration already materialized this pattern's coverage (a cache
    /// peek answers that for free), the intersection is *counted* with the
    /// fused [`BitSet::and_count`] kernel first, and the AND is only
    /// materialized — and routed through `cache` for cross-config reuse —
    /// when the merge meets this artifact's `min_count`. At realistic
    /// support thresholds failed merges are the majority of the pair space,
    /// so most pairs cost one fused pass and zero allocations.
    pub fn compute_record(
        &self,
        ids: &[u16],
        cache: &CoverageCache,
        a: &BitSet,
        b: &BitSet,
    ) -> MergeRecord {
        if let Some(coverage) = cache.peek(ids) {
            let count = coverage.count();
            return MergeRecord {
                coverage: (count >= self.min_count).then_some(coverage),
                count,
            };
        }
        let count = a.and_count(b);
        let coverage =
            (count >= self.min_count).then(|| cache.get_or_insert_with(ids, || a.and(b)));
        MergeRecord { coverage, count }
    }

    /// Snapshot of every resolved merge (key and record): what
    /// [`SweepStructure::refilter_view`] re-filters, and what audits re-check
    /// against fresh intersections.
    pub fn merge_snapshot(&self) -> Vec<(Box<[u16]>, MergeRecord)> {
        self.lock()
            .iter()
            .map(|(ids, r)| (ids.clone(), r.clone()))
            .collect()
    }

    /// Attempts to carry this artifact across a data delta: re-anchors it
    /// onto a post-delta predicate `index` (same frozen predicate ids, new
    /// coverages and row count) at the **same** `min_count`, or reports that
    /// it must be rebuilt.
    ///
    /// Survival is decided by an exact **frontier-flip test**: the artifact
    /// survives iff the set of supported level-1 ids under the new counts
    /// equals the old one — i.e. no single-predicate pattern crossed the
    /// `min_count` boundary in either direction. (A delta of `|Δ|` rows can
    /// move any count by at most `|Δ|`, so artifacts whose singles all clear
    /// the threshold by more than `|Δ|` always survive; the test is exact
    /// rather than margin-based, so tight-margin artifacts that happen not
    /// to flip survive too.) On a flip the level-1 candidate set a cold
    /// build would produce differs, and the caller must invalidate.
    ///
    /// A surviving artifact is returned with:
    /// * singles re-read from the patched index (fresh coverages/counts,
    ///   identical filter to a cold [`SweepStructure::build`]);
    /// * every *materialized* merge record re-intersected from the patched
    ///   predicate coverages (routed through `cache` exactly like a cold
    ///   resolve, shedding the coverage when the fresh count falls below
    ///   `min_count` — precisely the record a cold sweep would write);
    /// * count-only records dropped — their stale counts are cheaper to
    ///   lazily re-resolve (bit-identically) than to eagerly re-intersect
    ///   across the mostly-unsupported pair space.
    ///
    /// The bounded re-check therefore costs `O(predicates)` count
    /// comparisons plus one fused AND per *supported* resolved merge — never
    /// a full sweep.
    pub fn patched(&self, index: &PredicateIndex, cache: &CoverageCache) -> Option<SweepStructure> {
        // Frontier-flip test. Entries and singles are both in table order,
        // so the supported-id sequences compare positionally.
        let new_frontier: Vec<u16> = index
            .entries()
            .iter()
            .filter(|e| e.count >= self.min_count)
            .map(|e| e.id)
            .collect();
        if new_frontier.len() != self.singles.len()
            || new_frontier
                .iter()
                .zip(&self.singles)
                .any(|(&id, s)| id != s.id)
        {
            return None;
        }
        let singles = index
            .entries()
            .iter()
            .filter(|e| e.count >= self.min_count)
            .map(|e| StructSingle {
                id: e.id,
                coverage: Arc::clone(&e.coverage),
                count: e.count,
            })
            .collect();
        // Predicate ids are dense in table order (entry `i` carries id `i`),
        // so coverage lookup is a direct index instead of a hash map; an id
        // past the index (impossible for a same-table patch, but the
        // invalidation contract covers it) drops the artifact.
        let entries = index.entries();
        let cov_of = |id: u16| -> Option<&Arc<BitSet>> {
            let e = entries.get(id as usize)?;
            debug_assert_eq!(e.id, id, "predicate index must stay in id order");
            Some(&e.coverage)
        };
        let source = self.lock();
        let mut merges = HashMap::with_capacity(source.len());
        for (ids, record) in source.iter() {
            if record.coverage.is_none() {
                continue;
            }
            // These records were all supported before the delta, so the
            // intersection is almost always re-materialized anyway:
            // computing it once and popcounting the result beats the
            // count-then-intersect double pass the cold sweep uses (where
            // most candidate pairs *fail* the support check).
            let fresh = match ids.as_ref() {
                [i, j] => cov_of(*i)?.and(cov_of(*j)?),
                [i, j, rest @ ..] => {
                    let mut acc = cov_of(*i)?.and(cov_of(*j)?);
                    for r in rest {
                        acc = acc.and(cov_of(*r)?);
                    }
                    acc
                }
                _ => unreachable!("merge records have at least two ids"),
            };
            let count = fresh.count();
            let coverage =
                (count >= self.min_count).then(|| cache.get_or_insert_with(ids, || fresh));
            merges.insert(ids.clone(), MergeRecord { coverage, count });
        }
        Some(SweepStructure {
            singles,
            merges: Mutex::new(merges),
            min_count: self.min_count,
            n_rows: index.n_rows(),
            build_time: self.build_time,
        })
    }

    /// A tightened copy of this artifact for a higher support threshold:
    /// the τ-monotone serve. Support counts only shrink as predicates are
    /// added, so an artifact built at a looser threshold already contains
    /// every single and every merge a sweep at `min_count ≥` its own can
    /// reach — this re-filters them instead of re-intersecting anything:
    /// singles below the tighter count drop out, and merge records between
    /// the two thresholds keep their count but shed their coverage (exactly
    /// what a cold build at the tighter threshold would have recorded).
    ///
    /// The view is detached: merges resolved into it later do not flow back
    /// into the source artifact (their records would carry the wrong
    /// `coverage` presence for the looser threshold), but coverage bitsets
    /// stay shared `Arc`s with the source throughout.
    ///
    /// Cost: `O(singles + resolved merges)` — the record map is snapshotted
    /// (keys and `Arc` handles, never bitset payloads) under one brief hold
    /// of the source's merge lock, and the threshold re-filter runs on the
    /// snapshot *outside* it, so concurrent sweeps keep resolving merges
    /// into the source while a view is cut. Callers cache views under their
    /// own exact key, so the snapshot runs once per `(source, min_count)`
    /// pair; a copy-free overlay (shared base map + per-view threshold) is
    /// a recorded follow-up for very deep sweeps.
    ///
    /// # Panics
    /// If `min_count` is below this artifact's own threshold — loosening
    /// needs structural work this artifact never did.
    pub fn refilter_view(&self, min_count: usize) -> Self {
        assert!(
            min_count >= self.min_count,
            "refilter can only tighten the threshold ({} < {})",
            min_count,
            self.min_count
        );
        let t0 = Instant::now();
        let singles = self
            .singles
            .iter()
            .filter(|s| s.count >= min_count)
            .cloned()
            .collect();
        // Snapshot first (one short lock hold), transform after: building
        // the view's map — hashing every key, shedding coverages — under
        // the source lock would stall every concurrent `resolve` for the
        // whole rebuild. Records inserted after the snapshot simply miss
        // this view, which is the same outcome as cutting the view a
        // moment earlier.
        let snapshot = self.merge_snapshot();
        let merges = snapshot
            .into_iter()
            .map(|(ids, r)| {
                (
                    ids,
                    MergeRecord {
                        coverage: if r.count >= min_count {
                            r.coverage
                        } else {
                            None
                        },
                        count: r.count,
                    },
                )
            })
            .collect();
        Self {
            singles,
            merges: Mutex::new(merges),
            min_count,
            n_rows: self.n_rows,
            build_time: t0.elapsed(),
        }
    }
}

/// `⌈τ·n⌉`, at least 1 — the count form of the support threshold.
pub fn min_count_for(support_threshold: f64, n_rows: usize) -> usize {
    (support_threshold * n_rows as f64).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_predicates;
    use gopher_data::generators::german;

    fn setup(n: usize, tau: f64) -> (CoverageCache, PredicateIndex, LatticeConfig) {
        let d = german(n, 93);
        let table = generate_predicates(&d, 4);
        let cache = CoverageCache::new();
        let index = PredicateIndex::build(&table, &cache);
        let config = LatticeConfig {
            support_threshold: tau,
            ..Default::default()
        };
        (cache, index, config)
    }

    #[test]
    fn singles_are_filtered_by_support() {
        let (_cache, index, config) = setup(400, 0.1);
        let structure = SweepStructure::build(&index, &config);
        let min = structure.min_count();
        assert_eq!(min, 40);
        assert!(!structure.singles().is_empty());
        for s in structure.singles() {
            assert!(s.count >= min);
            assert_eq!(s.count, s.coverage.count());
        }
        let expected = index.entries().iter().filter(|e| e.count >= min).count();
        assert_eq!(structure.singles().len(), expected);
    }

    #[test]
    fn resolve_records_supported_and_failed_merges() {
        let (cache, index, config) = setup(400, 0.3);
        let structure = SweepStructure::build(&index, &config);
        let a = &index.entries()[0];
        let b = &index.entries()[1];
        let ids = [a.id, b.id];
        let misses_before = cache.stats().misses;
        let record = structure.resolve(&ids, &cache, &a.coverage, &b.coverage);
        assert_eq!(record.count, a.coverage.intersection_count(&b.coverage));
        assert_eq!(
            record.coverage.is_some(),
            record.count >= structure.min_count()
        );
        // Second resolve hits the artifact: no new intersection, cached or
        // counted (the coverage cache's miss counter stays put).
        let misses_after_first = cache.stats().misses;
        let again = structure.resolve(&ids, &cache, &a.coverage, &b.coverage);
        assert_eq!(again.count, record.count);
        assert_eq!(structure.merges_resolved(), 1);
        assert_eq!(cache.stats().misses, misses_after_first);
        // Lazy materialization: only a *supported* merge reaches the
        // coverage cache at all — a failed one is counted, never allocated.
        if record.coverage.is_some() {
            assert_eq!(misses_after_first, misses_before + 1);
        } else {
            assert_eq!(misses_after_first, misses_before);
            assert!(
                cache.peek(&ids).is_none(),
                "failed merges stay unmaterialized"
            );
        }
    }

    #[test]
    fn failed_merges_never_touch_the_coverage_cache() {
        // τ = 0.9: virtually every merge fails the support check.
        let (cache, index, config) = setup(400, 0.9);
        let structure = SweepStructure::build(&index, &config);
        let entries_before = cache.len();
        let mut failed = 0usize;
        for i in 0..index.entries().len().min(8) {
            for j in (i + 1)..index.entries().len().min(8) {
                let (a, b) = (&index.entries()[i], &index.entries()[j]);
                let record = structure.resolve(&[a.id, b.id], &cache, &a.coverage, &b.coverage);
                if record.coverage.is_none() {
                    failed += 1;
                }
            }
        }
        assert!(failed > 0, "the tight threshold must fail some merges");
        // Every resolved merge failed support ⇒ zero new cache entries.
        assert_eq!(
            cache.len() - entries_before,
            structure.merges_resolved() - failed
        );
    }

    #[test]
    fn refilter_view_does_not_block_concurrent_resolves() {
        // Regression: `refilter_view` used to build the view's whole merge
        // map while holding the source's merge lock, stalling every
        // concurrent `resolve` for the duration of the rebuild (and
        // deadlocking would-be reentrant callers). It now snapshots under
        // one brief hold and transforms outside, so resolving threads and
        // view-cutting threads interleave freely. This drives both from
        // scoped threads and checks every cut view is a value-consistent
        // prefix of the source — completion alone catches a deadlock.
        let (cache, index, config) = setup(400, 0.05);
        let structure = SweepStructure::build(&index, &config);
        let n = index.entries().len();
        let tighter = structure.min_count() + 5;
        let views = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    for j in (i + 1)..n.min(i + 5) {
                        let (a, b) = (&index.entries()[i], &index.entries()[j]);
                        let _ = structure.resolve(&[a.id, b.id], &cache, &a.coverage, &b.coverage);
                    }
                }
            });
            let cutter = s.spawn(|| {
                (0..20)
                    .map(|_| structure.refilter_view(tighter))
                    .collect::<Vec<_>>()
            });
            cutter.join().expect("view cutter panicked")
        });
        assert_eq!(views.len(), 20);
        for view in &views {
            assert_eq!(view.min_count(), tighter);
            // Every record a view captured must agree with the source's
            // final record for the same ids (records are pure functions of
            // the predicate table, so mid-resolve snapshots can only be
            // shorter, never different).
            for (ids, r) in view.merge_snapshot() {
                let source = structure.lookup(&ids).expect("view key missing in source");
                assert_eq!(r.count, source.count);
                assert_eq!(
                    r.coverage.is_some(),
                    r.count >= tighter && source.coverage.is_some()
                );
            }
        }
        // The resolver finished its full pair sweep regardless of the
        // concurrent view cutting.
        let resolved = structure.merges_resolved();
        let expected: usize = (0..n).map(|i| n.min(i + 5) - (i + 1)).sum();
        assert_eq!(resolved, expected);
    }

    #[test]
    fn refilter_view_matches_a_cold_build_at_the_tighter_threshold() {
        let (cache, index, config) = setup(400, 0.05);
        let loose = SweepStructure::build(&index, &config);
        // Resolve a few merges so the view has records to re-filter.
        for i in 0..6 {
            let (a, b) = (&index.entries()[i], &index.entries()[i + 1]);
            let _ = loose.resolve(&[a.id, b.id], &cache, &a.coverage, &b.coverage);
        }
        let tight_config = LatticeConfig {
            support_threshold: 0.2,
            ..config.clone()
        };
        let cold = SweepStructure::build(&index, &tight_config);
        let view = loose.refilter_view(cold.min_count());

        assert_eq!(view.min_count(), cold.min_count());
        assert_eq!(view.n_rows(), cold.n_rows());
        assert_eq!(view.singles().len(), cold.singles().len());
        for (v, c) in view.singles().iter().zip(cold.singles()) {
            assert_eq!(v.id, c.id);
            assert_eq!(v.count, c.count);
            assert_eq!(v.coverage, c.coverage);
        }
        // Re-filtered records keep counts; coverage survives iff the count
        // clears the tighter threshold.
        assert_eq!(view.merges_resolved(), loose.merges_resolved());
        for (i, entry) in index.entries().iter().enumerate().take(6) {
            let ids = [entry.id, index.entries()[i + 1].id];
            let from_loose = loose.lookup(&ids).unwrap();
            let from_view = view.lookup(&ids).unwrap();
            assert_eq!(from_view.count, from_loose.count);
            assert_eq!(
                from_view.coverage.is_some(),
                from_view.count >= cold.min_count()
            );
        }
    }

    /// A small delta that flips no single across the support frontier must
    /// yield a surviving artifact whose singles and re-patched merges agree
    /// exactly with fresh resolution over the post-delta index.
    #[test]
    fn patched_artifact_matches_fresh_resolution_after_small_delta() {
        let d = german(400, 93);
        let table = generate_predicates(&d, 4);
        let cache = CoverageCache::new();
        let index = PredicateIndex::build(&table, &cache);
        let config = LatticeConfig {
            support_threshold: 0.1,
            ..Default::default()
        };
        let structure = SweepStructure::build(&index, &config);
        let mut resolved: Vec<[u16; 2]> = Vec::new();
        for i in 0..8 {
            let (a, b) = (&index.entries()[i], &index.entries()[i + 1]);
            let _ = structure.resolve(&[a.id, b.id], &cache, &a.coverage, &b.coverage);
            resolved.push([a.id, b.id]);
        }

        // Delta: two rows out, five rows in (same generator, same schema).
        let removed = vec![3usize, 377];
        let mut mask = vec![false; d.n_rows()];
        removed.iter().for_each(|&r| mask[r] = true);
        let new_data = d.remove_rows(&mask).concat(&german(5, 94));
        let new_table = table.patch(&new_data, &removed);
        let new_cache = CoverageCache::new();
        let new_index = PredicateIndex::build(&new_table, &new_cache);

        let patched = structure
            .patched(&new_index, &new_cache)
            .expect("a 7-row delta must not flip a min-count-40 frontier here");
        assert_eq!(patched.min_count(), structure.min_count());
        assert_eq!(patched.n_rows(), new_data.n_rows());

        // Singles: identical to filtering the post-delta index cold.
        let expected: Vec<_> = new_index
            .entries()
            .iter()
            .filter(|e| e.count >= patched.min_count())
            .collect();
        assert_eq!(patched.singles().len(), expected.len());
        for (s, e) in patched.singles().iter().zip(expected) {
            assert_eq!(s.id, e.id);
            assert_eq!(s.count, e.count);
            assert_eq!(*s.coverage, *e.coverage);
        }

        // Re-patched merges: supported source records carry over eagerly,
        // count-only ones drop for lazy re-resolution — and either way the
        // record served post-delta equals a fresh compute over the new
        // coverages.
        let mut carried = 0usize;
        for ids in &resolved {
            let a = &new_index.entries()[ids[0] as usize];
            let b = &new_index.entries()[ids[1] as usize];
            assert_eq!(a.id, ids[0], "index entries stay in id order");
            let was_supported = structure.lookup(ids).unwrap().coverage.is_some();
            assert_eq!(patched.contains(ids), was_supported);
            carried += usize::from(was_supported);
            let truth = patched.compute_record(ids, &new_cache, &a.coverage, &b.coverage);
            let record = patched.resolve(ids, &new_cache, &a.coverage, &b.coverage);
            assert_eq!(record.count, truth.count);
            assert_eq!(record.coverage.is_some(), truth.coverage.is_some());
            if let (Some(r), Some(t)) = (&record.coverage, &truth.coverage) {
                assert_eq!(**r, **t);
            }
        }
        assert!(carried > 0, "τ = 0.1 must leave some supported merges");
    }

    /// A delta that pushes a borderline single below the support frontier
    /// must invalidate the artifact (the cold level-1 candidate set differs).
    #[test]
    fn patched_artifact_invalidates_on_frontier_flip() {
        let d = german(400, 95);
        let table = generate_predicates(&d, 4);
        let cache = CoverageCache::new();
        let index = PredicateIndex::build(&table, &cache);
        let config = LatticeConfig {
            support_threshold: 0.1,
            ..Default::default()
        };
        let structure = SweepStructure::build(&index, &config);
        // Remove exactly enough covered rows of the tightest-margin single
        // to push it below min_count.
        let borderline = structure
            .singles()
            .iter()
            .min_by_key(|s| s.count)
            .expect("german has supported singles");
        let excess = borderline.count - structure.min_count() + 1;
        let removed: Vec<usize> = borderline
            .coverage
            .iter()
            .take(excess)
            .map(|r| r as usize)
            .collect();
        let mut mask = vec![false; d.n_rows()];
        removed.iter().for_each(|&r| mask[r] = true);
        let new_data = d.remove_rows(&mask);
        let new_table = table.patch(&new_data, &removed);
        let new_cache = CoverageCache::new();
        let new_index = PredicateIndex::build(&new_table, &new_cache);
        assert!(
            structure.patched(&new_index, &new_cache).is_none(),
            "a flipped frontier must invalidate"
        );
    }

    #[test]
    #[should_panic(expected = "refilter can only tighten")]
    fn refilter_view_rejects_loosening() {
        let (_cache, index, config) = setup(200, 0.2);
        let structure = SweepStructure::build(&index, &config);
        let _ = structure.refilter_view(structure.min_count() - 1);
    }

    #[test]
    #[should_panic(expected = "support threshold")]
    fn build_rejects_invalid_threshold() {
        let (_cache, index, mut config) = setup(100, 0.05);
        config.support_threshold = 1.0;
        let _ = SweepStructure::build(&index, &config);
    }
}
