//! Packed bitset over training-row ids.
//!
//! The two hot kernels — fused intersection popcount ([`BitSet::and_count`])
//! and materialized intersection ([`BitSet::and`]) — are portable word
//! loops; the popcount is unrolled so the compiler keeps it pipelined.

/// Fused and+popcount over raw words. The accumulate is unrolled four words
/// wide into independent counters so the popcounts pipeline instead of
/// serializing on one accumulator.
fn and_count_words(a: &[u64], b: &[u64]) -> usize {
    let mut acc = [0usize; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (wa, wb) in (&mut ca).zip(&mut cb) {
        acc[0] += (wa[0] & wb[0]).count_ones() as usize;
        acc[1] += (wa[1] & wb[1]).count_ones() as usize;
        acc[2] += (wa[2] & wb[2]).count_ones() as usize;
        acc[3] += (wa[3] & wb[3]).count_ones() as usize;
    }
    let tail: usize = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(wa, wb)| (wa & wb).count_ones() as usize)
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Word-wise AND into `out` (all three slices have equal length).
fn and_into_words(a: &[u64], b: &[u64], out: &mut [u64]) {
    for i in 0..a.len() {
        out[i] = a[i] & b[i];
    }
}

/// A fixed-capacity bitset over row indices `0..len`, packed into `u64`
/// words. Pattern coverage sets are intersected constantly during the
/// lattice search, so `and`/`count` work word-at-a-time.
///
/// # Out-of-range indices: `insert` panics, `contains` answers `false`
///
/// The asymmetry is deliberate. Inserting an index `>= len` is always a
/// bug — the universe is the training set, silently dropping (or worse,
/// growing for) a row would corrupt every downstream support count — so
/// [`BitSet::insert`] (and therefore [`BitSet::from_indices`]) panics.
/// *Querying* any index is well-defined, though: a row outside the universe
/// is simply not a member, so [`BitSet::contains`] answers `false` rather
/// than forcing every caller holding ids from a wider universe to
/// range-check first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over `len` rows.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A set over `len` rows with the given members.
    ///
    /// # Panics
    /// If any index is `>= len` (see [`BitSet::insert`]).
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut s = Self::new(len);
        for &i in indices {
            s.insert(i as usize);
        }
        s
    }

    /// Universe size (number of rows, not number of members).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds a row id.
    ///
    /// # Panics
    /// If `i >= len`: membership is only ever built from in-universe row
    /// ids, so an out-of-range insert is a programming error (contrast
    /// [`BitSet::contains`], where any query has a well-defined answer).
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bitset: index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Membership test. Indices `>= len` are simply not members (`false`),
    /// so callers holding ids from a wider universe need no range check.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// New set = self ∩ other.
    ///
    /// # Panics
    /// If universe sizes differ.
    pub fn and(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "bitset: universe mismatch");
        let mut words = vec![0u64; self.words.len()];
        and_into_words(&self.words, &other.words, &mut words);
        BitSet {
            words,
            len: self.len,
        }
    }

    /// Size of the intersection without materializing it (alias of
    /// [`BitSet::and_count`], kept for call-site readability).
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.and_count(other)
    }

    /// Fused and+popcount: `self.and(other).count()` in a single pass over
    /// the words, with no intermediate allocation.
    ///
    /// This is the structural sweep's hot kernel: at realistic support
    /// thresholds most merge pairs *fail* the support check, so the lattice
    /// counts an intersection first and only materializes the AND for the
    /// minority that pass.
    ///
    /// # Panics
    /// If universe sizes differ.
    pub fn and_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset: universe mismatch");
        and_count_words(&self.words, &other.words)
    }

    /// Order-preserving bit compaction: a new set over `n_new` rows holding
    /// this set's members at *kept* positions, renumbered by the prefix sum
    /// of `keep` (the j-th kept position maps to output bit j). This is the
    /// delta-patch primitive: removing rows from a coverage bitset is
    /// exactly "compact by the kept-row mask, then grow the universe to the
    /// post-delta row count".
    ///
    /// Runs word-at-a-time: words whose keep mask is saturated (the
    /// overwhelming case for small deltas) are shifted into place whole;
    /// only words actually containing removed rows take the per-bit
    /// extraction path.
    ///
    /// # Panics
    /// If universe sizes differ or `n_new` cannot hold all kept positions.
    pub fn compact(&self, keep: &BitSet, n_new: usize) -> BitSet {
        assert_eq!(self.len, keep.len, "bitset: universe mismatch");
        let kept_total: usize = keep.words.iter().map(|w| w.count_ones() as usize).sum();
        assert!(
            n_new >= kept_total,
            "bitset: compact target {n_new} cannot hold {kept_total} kept rows"
        );
        let mut out = BitSet::new(n_new);
        let mut out_pos = 0usize;
        for (&cov, &km) in self.words.iter().zip(&keep.words) {
            let (packed, bits) = if km == u64::MAX {
                (cov, 64u32)
            } else {
                (pext_fallback(cov & km, km), km.count_ones())
            };
            if packed != 0 {
                let wi = out_pos / 64;
                let off = out_pos % 64;
                out.words[wi] |= packed << off;
                if off != 0 {
                    let hi = packed >> (64 - off);
                    if hi != 0 {
                        out.words[wi + 1] |= hi;
                    }
                }
            }
            out_pos += bits as usize;
        }
        out
    }

    /// Members as sorted row ids.
    pub fn to_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count());
        self.indices_into(&mut out);
        out
    }

    /// Members as sorted row ids, written into `out` after clearing it:
    /// [`to_indices`](Self::to_indices) for a caller that reuses one buffer
    /// across many sets.
    pub fn indices_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (w_idx, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push((w_idx * 64 + bit) as u32);
                w &= w - 1;
            }
        }
    }

    /// Iterates members as row ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w_idx, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((w_idx * 64 + bit) as u32)
            })
        })
    }
}

/// Portable parallel-bit-extract: gathers the bits of `x` at `mask`'s set
/// positions into the low `popcount(mask)` bits, preserving order. Walks
/// `mask`'s set bits, so it costs `O(popcount(mask))` — [`BitSet::compact`]
/// only routes words that actually contain removed rows here.
#[inline]
fn pext_fallback(x: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut j = 0u32;
    while mask != 0 {
        let lsb = mask & mask.wrapping_neg();
        if x & lsb != 0 {
            out |= 1u64 << j;
        }
        j += 1;
        mask &= mask - 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.count(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(500), "out of range is simply absent");
    }

    /// `compact` against the naive per-bit remap, across word boundaries,
    /// removal patterns (none, sparse, whole-word runs, tail), and universe
    /// growth — the exact shapes `PredicateTable::patch` feeds it.
    #[test]
    fn compact_matches_naive_remap() {
        for len in [1usize, 63, 64, 65, 130, 256, 320, 449] {
            let members: Vec<u32> = (0..len as u32).filter(|i| i % 3 != 0).collect();
            let set = BitSet::from_indices(len, &members);
            for removed_stride in [0usize, 2, 5, 64, len] {
                let mut keep = BitSet::new(len);
                let mut remap = vec![None; len];
                let mut next = 0usize;
                for r in 0..len {
                    let gone = removed_stride != 0 && r % removed_stride == 0;
                    if !gone {
                        keep.insert(r);
                        remap[r] = Some(next);
                        next += 1;
                    }
                }
                for n_new in [next, next + 7, next + 64] {
                    let got = set.compact(&keep, n_new);
                    let want: Vec<u32> = members
                        .iter()
                        .filter_map(|&m| remap[m as usize].map(|i| i as u32))
                        .collect();
                    assert_eq!(
                        got.to_indices(),
                        want,
                        "len={len} stride={removed_stride} n_new={n_new}"
                    );
                    assert_eq!(got.len(), n_new);
                }
            }
        }
    }

    #[test]
    fn and_and_intersection_count_agree() {
        let a = BitSet::from_indices(100, &[1, 5, 50, 64, 99]);
        let b = BitSet::from_indices(100, &[5, 50, 65, 99]);
        let i = a.and(&b);
        assert_eq!(i.to_indices(), vec![5, 50, 99]);
        assert_eq!(a.intersection_count(&b), 3);
        assert_eq!(a.and_count(&b), 3);
    }

    /// The fused kernel must agree with the materialized path across the
    /// 4-word stride boundaries (dense sets so every word participates).
    #[test]
    fn and_count_covers_unroll_boundaries() {
        for len in [1usize, 63, 64, 65, 255, 256, 257, 320, 449] {
            let a_idx: Vec<u32> = (0..len as u32).filter(|i| i % 3 != 0).collect();
            let b_idx: Vec<u32> = (0..len as u32).filter(|i| i % 2 == 0).collect();
            let a = BitSet::from_indices(len, &a_idx);
            let b = BitSet::from_indices(len, &b_idx);
            assert_eq!(a.and_count(&b), a.and(&b).count(), "len={len}");
        }
    }

    /// Saturated words must popcount exactly: every word sums to 64, so an
    /// off-by-anything in the unrolled accumulators or the tail shows up
    /// immediately at full density.
    #[test]
    fn dispatched_backend_is_known_and_exact_on_dense_words() {
        for len in [64usize, 256, 257, 1024, 100_003] {
            let all: Vec<u32> = (0..len as u32).collect();
            let a = BitSet::from_indices(len, &all);
            assert_eq!(a.and_count(&a), len, "len={len}");
            assert_eq!(a.and(&a), a, "len={len}");
        }
    }

    #[test]
    fn to_indices_round_trips() {
        let idx = vec![0u32, 7, 63, 64, 127, 128];
        let s = BitSet::from_indices(200, &idx);
        assert_eq!(s.to_indices(), idx);
        assert_eq!(s.iter().collect::<Vec<_>>(), idx);
        let mut reused = vec![9, 9, 9, 9, 9, 9, 9, 9];
        s.indices_into(&mut reused);
        assert_eq!(reused, idx);
        BitSet::new(200).indices_into(&mut reused);
        assert!(reused.is_empty());
    }

    #[test]
    fn empty_intersection() {
        let a = BitSet::from_indices(64, &[0, 1, 2]);
        let b = BitSet::from_indices(64, &[3, 4, 5]);
        assert!(a.and(&b).is_empty());
        assert_eq!(a.intersection_count(&b), 0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn and_rejects_mismatched_universes() {
        let a = BitSet::new(10);
        let b = BitSet::new(20);
        let _ = a.and(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_rejects_out_of_range() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }
}
