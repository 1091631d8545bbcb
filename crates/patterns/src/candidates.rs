//! Candidate predicate generation (the `Φ₁` loop of Algorithm 1).

use crate::bitset::BitSet;
use crate::predicate::Predicate;
use gopher_data::binning::Bins;
use gopher_data::{Dataset, FeatureKind};
use std::sync::Arc;

/// All candidate predicates over a dataset, each with its precomputed
/// coverage bitset.
///
/// * categorical feature, level `v` → `X = v`;
/// * numeric feature, bin threshold `t` → `X < t` and `X ≥ t` (the paper's
///   `X = val` comparison is meaningless for binned numerics and omitted;
///   ranges arise as `X ≥ a ∧ X < b` during merging).
///
/// Predicates whose support is below the threshold or above
/// `1 − support_threshold`'s complement… are *kept* here — support filtering
/// belongs to the lattice (it owns the threshold); generation only drops
/// empty and full coverage sets, which can never appear in a useful pattern.
///
/// The table is the one store of predicate coverages: each is an
/// `Arc`, so a sweep's level-1 candidates share the table's bitsets instead
/// of copying them.
#[derive(Debug, Clone)]
pub struct PredicateTable {
    predicates: Vec<Predicate>,
    coverage: Vec<Arc<BitSet>>,
    n_rows: usize,
}

impl PredicateTable {
    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True if no predicates were generated.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Number of dataset rows the coverage bitsets range over.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The predicate with the given id.
    pub fn predicate(&self, id: u16) -> &Predicate {
        &self.predicates[id as usize]
    }

    /// The coverage of the predicate with the given id, shared with every
    /// candidate built from it.
    pub fn coverage(&self, id: u16) -> &Arc<BitSet> {
        &self.coverage[id as usize]
    }

    /// Iterates `(id, predicate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Predicate)> {
        self.predicates
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u16, p))
    }

    /// Appends `pred` with coverage `cov`, unless it covers no row or every
    /// row (never or always true, so useless in a pattern).
    ///
    /// # Panics
    /// If the table already holds `u16::MAX` predicates.
    fn push(&mut self, pred: Predicate, cov: BitSet) {
        let count = cov.count();
        if count == 0 || count == self.n_rows {
            return;
        }
        assert!(
            self.predicates.len() < u16::MAX as usize,
            "too many candidate predicates; use coarser binning"
        );
        self.predicates.push(pred);
        self.coverage.push(Arc::new(cov));
    }

    /// Appends the threshold pair `X < t`, `X ≥ t` of numeric feature `f`,
    /// whose column is `vals`, in that order.
    fn push_split(&mut self, f: usize, t: f64, vals: &[f64]) {
        let mut lt_cov = BitSet::new(self.n_rows);
        let mut ge_cov = BitSet::new(self.n_rows);
        for (r, &v) in vals.iter().enumerate() {
            if v < t {
                lt_cov.insert(r);
            } else {
                ge_cov.insert(r);
            }
        }
        self.push(Predicate::lt(f, t), lt_cov);
        self.push(Predicate::ge(f, t), ge_cov);
    }

    /// Incrementally re-anchors this table onto a post-delta dataset whose
    /// first rows are the *kept* old rows in their original order and whose
    /// tail is the appended delta: every surviving set bit is remapped by a
    /// prefix-sum shift (`new = old − #removed ≤ old`) instead of
    /// re-evaluating the predicate, and only the appended rows are matched
    /// from scratch. The predicate set itself — ids, thresholds, levels —
    /// is **frozen**: deltas never re-bin, and predicates that drift to
    /// empty or full coverage are kept so ids stay stable across updates
    /// (exactly the [`PredicateTable::rebuild_on`] contract, making the two
    /// bit-identical).
    ///
    /// Cost: `O(preds · words + |added| · preds)` — a word-at-a-time bit
    /// compaction per predicate (only words containing removed rows take a
    /// per-bit path) plus a predicate match per appended row, never
    /// `|removed| · len` predicate re-evaluations over the full table.
    ///
    /// # Panics
    /// If a removed index is out of range or `new_data` has fewer rows than
    /// the kept prefix implies.
    pub fn patch(&self, new_data: &Dataset, removed: &[usize]) -> PredicateTable {
        let n_old = self.n_rows;
        let n_new = new_data.n_rows();
        let mut removed_mask = vec![false; n_old];
        for &r in removed {
            assert!(r < n_old, "patch: removed row {r} out of range ({n_old})");
            removed_mask[r] = true;
        }
        let n_removed = removed_mask.iter().filter(|&&m| m).count();
        let keep = n_old - n_removed;
        assert!(
            n_new >= keep,
            "patch: new data has {n_new} rows but {keep} old rows were kept"
        );
        // Prefix-sum remap (old row r, if kept, lands at r − #removed ≤ r)
        // as a word-level bit compaction against the kept-row mask.
        let mut keep_set = BitSet::new(n_old);
        for (r, &gone) in removed_mask.iter().enumerate() {
            if !gone {
                keep_set.insert(r);
            }
        }
        let coverage = self
            .coverage
            .iter()
            .zip(&self.predicates)
            .map(|(cov, pred)| {
                let mut fresh = cov.compact(&keep_set, n_new);
                for a in keep..n_new {
                    if pred.matches(new_data, a) {
                        fresh.insert(a);
                    }
                }
                Arc::new(fresh)
            })
            .collect();
        PredicateTable {
            predicates: self.predicates.clone(),
            coverage,
            n_rows: n_new,
        }
    }

    /// Cold-path oracle for [`PredicateTable::patch`]: re-evaluates this
    /// table's **frozen** predicate set (same ids, same thresholds — no
    /// re-binning, no empty/full filtering) against `data` from scratch.
    /// `patch` must be bit-identical to this for the same post-delta data.
    pub fn rebuild_on(&self, data: &Dataset) -> PredicateTable {
        let n = data.n_rows();
        let coverage = self
            .predicates
            .iter()
            .map(|pred| {
                let mut cov = BitSet::new(n);
                for r in 0..n {
                    if pred.matches(data, r) {
                        cov.insert(r);
                    }
                }
                Arc::new(cov)
            })
            .collect();
        PredicateTable {
            predicates: self.predicates.clone(),
            coverage,
            n_rows: n,
        }
    }
}

/// Generates the candidate predicates for a dataset, binning numeric
/// features into at most `max_bins` quantile bins (paper §4.2: binning both
/// shrinks the search space and prevents near-duplicate explanations).
///
/// # Panics
/// If the number of generated predicates exceeds `u16::MAX` (raise the
/// binning coarseness instead of hitting this).
pub fn generate_predicates(data: &Dataset, max_bins: usize) -> PredicateTable {
    let n = data.n_rows();
    let mut table = PredicateTable {
        predicates: Vec::new(),
        coverage: Vec::new(),
        n_rows: n,
    };

    for (f, feat) in data.schema().features().iter().enumerate() {
        // Dispatch on the schema kind once per column, then scan the typed
        // slice — the per-row loops below are the level-1 hot path.
        match &feat.kind {
            FeatureKind::Categorical { levels } => {
                let vals = data.column(f).as_categorical();
                for level in 0..levels.len() as u32 {
                    let mut cov = BitSet::new(n);
                    for (r, &v) in vals.iter().enumerate() {
                        if v == level {
                            cov.insert(r);
                        }
                    }
                    table.push(Predicate::eq_level(f, level), cov);
                }
            }
            FeatureKind::Numeric => {
                let vals = data.column(f).as_numeric();
                for &t in Bins::quantile(vals, max_bins).thresholds() {
                    table.push_split(f, t, vals);
                }
            }
        }
    }

    // The sensitive attribute's group boundary is always a candidate
    // threshold: fairness explanations routinely need exactly that split
    // (e.g. `age >= 45` in German Credit), and quantile bins have no reason
    // to land on it.
    if let gopher_data::schema::PrivilegedIf::AtLeast(cutoff) = data.protected().privileged {
        let f = data.protected().feature;
        let already = table.predicates.iter().any(|p: &Predicate| {
            p.feature == f && matches!(p.value, crate::PredValue::Threshold(t) if t == cutoff)
        });
        if !already {
            // `AtLeast` protected specs are validated numeric at dataset
            // construction, so the typed accessor cannot panic here.
            table.push_split(f, cutoff, data.column(f).as_numeric());
        }
    }

    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_data::schema::{Feature, PrivilegedIf, ProtectedSpec, Schema};
    use gopher_data::Column;

    #[test]
    fn coverage_matches_matches() {
        let d = german(200, 51);
        let table = generate_predicates(&d, 4);
        assert!(!table.is_empty());
        for (id, pred) in table.iter() {
            let cov = table.coverage(id);
            for r in 0..d.n_rows() {
                assert_eq!(
                    cov.contains(r),
                    pred.matches(&d, r),
                    "coverage mismatch for {:?} at row {r}",
                    pred
                );
            }
        }
    }

    #[test]
    fn lt_and_ge_partition_rows() {
        let d = german(300, 52);
        let table = generate_predicates(&d, 4);
        // Every numeric threshold generates complementary covers. The twin
        // is located by `(feature, threshold)`, never by `id + 1`: the
        // empty/full filter can drop predicates, so adjacent ids are not a
        // twin relation — `id + 1` would read a different feature's
        // predicate (silently skipping the pair) or run off the end of the
        // table (an out-of-bounds panic when the last predicate is an `Lt`).
        let mut pairs = 0usize;
        for (id, pred) in table.iter() {
            if pred.op != crate::Op::Lt {
                continue;
            }
            let crate::PredValue::Threshold(t) = pred.value else {
                panic!("Lt predicates carry a numeric threshold");
            };
            let (twin_id, _) = table
                .iter()
                .find(|(_, q)| {
                    q.feature == pred.feature
                        && q.op == crate::Op::Ge
                        && matches!(q.value, crate::PredValue::Threshold(u) if u == t)
                })
                .unwrap_or_else(|| {
                    // An `Lt` and its `Ge` twin cover complementary row
                    // sets, so the empty/full filter drops both or neither.
                    panic!("Lt {pred:?} has no Ge twin at its threshold")
                });
            assert_eq!(
                table.coverage(id).count() + table.coverage(twin_id).count(),
                d.n_rows(),
                "Lt/Ge twins at {pred:?} must partition the rows"
            );
            pairs += 1;
        }
        assert!(pairs > 0, "german generates numeric threshold predicates");
    }

    #[test]
    fn empty_and_full_predicates_are_dropped() {
        // A categorical column where one level never occurs.
        let schema = Schema::new(vec![Feature::categorical("c", ["a", "b", "never"])], "y");
        let d = Dataset::new(
            schema,
            vec![Column::Categorical(vec![0, 1, 0, 1])],
            vec![0, 1, 0, 1],
            ProtectedSpec {
                feature: 0,
                privileged: PrivilegedIf::Level(0),
            },
        );
        let table = generate_predicates(&d, 4);
        // Only the two occurring levels produce predicates.
        assert_eq!(table.len(), 2);
    }

    /// `patch` against a removed-plus-appended delta must agree bit for bit
    /// with re-evaluating the frozen predicates on the new data.
    #[test]
    fn patch_is_bit_identical_to_rebuild_on() {
        let d = german(500, 54);
        let table = generate_predicates(&d, 4);
        let removed = vec![0usize, 7, 123, 499];
        let added = german(20, 99); // same generator → same schema
        let mut mask = vec![false; d.n_rows()];
        removed.iter().for_each(|&r| mask[r] = true);
        let new_data = d.remove_rows(&mask).concat(&added);

        let patched = table.patch(&new_data, &removed);
        let rebuilt = table.rebuild_on(&new_data);
        assert_eq!(patched.len(), rebuilt.len());
        assert_eq!(patched.n_rows(), new_data.n_rows());
        for (id, pred) in table.iter() {
            assert_eq!(
                patched.coverage(id),
                rebuilt.coverage(id),
                "coverage diverged for {pred:?}"
            );
        }
    }

    /// Removal-only and append-only deltas are the degenerate cases of the
    /// remap; both must still match the cold path.
    #[test]
    fn patch_handles_one_sided_deltas() {
        let d = german(300, 55);
        let table = generate_predicates(&d, 4);

        let removed = vec![299usize, 0, 150];
        let mut mask = vec![false; d.n_rows()];
        removed.iter().for_each(|&r| mask[r] = true);
        let shrunk = d.remove_rows(&mask);
        let patched = table.patch(&shrunk, &removed);
        let rebuilt = table.rebuild_on(&shrunk);
        for (id, _) in table.iter() {
            assert_eq!(patched.coverage(id), rebuilt.coverage(id));
        }

        let grown = d.concat(&german(15, 56));
        let patched = table.patch(&grown, &[]);
        let rebuilt = table.rebuild_on(&grown);
        for (id, _) in table.iter() {
            assert_eq!(patched.coverage(id), rebuilt.coverage(id));
        }
    }

    /// The frozen-predicate contract: a delta that drives a predicate's
    /// coverage empty keeps the predicate (and every id) in place.
    #[test]
    fn patch_keeps_ids_stable_when_coverage_empties() {
        let d = german(120, 57);
        let table = generate_predicates(&d, 4);
        // Remove every row a chosen predicate covers.
        let (victim, _) = table.iter().next().expect("german generates predicates");
        let removed: Vec<usize> = table.coverage(victim).iter().map(|r| r as usize).collect();
        let mut mask = vec![false; d.n_rows()];
        removed.iter().for_each(|&r| mask[r] = true);
        let shrunk = d.remove_rows(&mask);

        let patched = table.patch(&shrunk, &removed);
        assert_eq!(patched.len(), table.len(), "ids must stay stable");
        assert_eq!(patched.coverage(victim).count(), 0);
        for (id, p) in table.iter() {
            assert_eq!(patched.predicate(id), p);
        }
    }

    #[test]
    fn german_has_reasonable_candidate_count() {
        let d = german(1000, 53);
        let table = generate_predicates(&d, 4);
        // 13 features, mostly categorical with 2–5 levels + numeric bins:
        // expect tens of predicates, not thousands.
        assert!(table.len() >= 30, "{}", table.len());
        assert!(table.len() <= 120, "{}", table.len());
    }
}
