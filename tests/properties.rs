//! Property-based tests (proptest) on the core data structures and
//! invariants of the workspace.

use gopher_data::binning::Bins;
use gopher_data::schema::{Feature, PrivilegedIf, ProtectedSpec, Schema};
use gopher_data::{Column, Dataset, Encoder};
use gopher_linalg::{Cholesky, Matrix};
use gopher_patterns::{topk, BitSet, Candidate, Pattern};
use gopher_prng::Rng;
use proptest::prelude::*;

proptest! {
    // ---------------- BitSet --------------------------------------------

    #[test]
    fn bitset_roundtrip(indices in proptest::collection::btree_set(0u32..500, 0..60)) {
        let vec: Vec<u32> = indices.iter().copied().collect();
        let set = BitSet::from_indices(500, &vec);
        prop_assert_eq!(set.count(), vec.len());
        prop_assert_eq!(set.to_indices(), vec.clone());
        for &i in &vec {
            prop_assert!(set.contains(i as usize));
        }
    }

    #[test]
    fn bitset_intersection_matches_naive(
        a in proptest::collection::btree_set(0u32..300, 0..50),
        b in proptest::collection::btree_set(0u32..300, 0..50),
    ) {
        let sa = BitSet::from_indices(300, &a.iter().copied().collect::<Vec<_>>());
        let sb = BitSet::from_indices(300, &b.iter().copied().collect::<Vec<_>>());
        let naive: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(sa.and(&sb).to_indices(), naive.clone());
        prop_assert_eq!(sa.and_count(&sb), naive.len());
        // Commutativity.
        prop_assert_eq!(sa.and(&sb), sb.and(&sa));
    }

    /// Word-boundary edges: universes whose length is not a multiple of 64
    /// leave a partial final word, and off-by-one bugs in `and`/`count`/
    /// `from_indices` live exactly there. Lengths are drawn to straddle the
    /// word boundary (1..=130 covers 0, 1, and 2 full words ± slack).
    #[test]
    fn bitset_word_boundary_lengths(
        len in 1usize..131,
        seed_a in proptest::collection::vec(0u32..131, 0..40),
        seed_b in proptest::collection::vec(0u32..131, 0..40),
    ) {
        // Clamp draws into the universe, dedup + sort as from_indices expects.
        let clamp = |raw: &[u32]| -> Vec<u32> {
            let mut v: Vec<u32> = raw
                .iter()
                .map(|&i| i % len as u32)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let a = clamp(&seed_a);
        let b = clamp(&seed_b);
        let sa = BitSet::from_indices(len, &a);
        let sb = BitSet::from_indices(len, &b);
        prop_assert_eq!(sa.len(), len);
        prop_assert_eq!(sa.count(), a.len());
        prop_assert_eq!(sa.to_indices(), a.clone());
        // Membership is exact across the whole universe and beyond: the
        // boundary bit (len-1) belongs, everything past it is absent.
        for i in 0..len + 70 {
            prop_assert_eq!(sa.contains(i), a.binary_search(&(i as u32)).is_ok());
        }
        // Intersection agrees with the naive set intersection and never
        // conjures bits in the partial final word.
        let naive: Vec<u32> = a.iter().copied().filter(|i| b.contains(i)).collect();
        let and = sa.and(&sb);
        prop_assert_eq!(and.to_indices(), naive.clone());
        prop_assert_eq!(and.count(), naive.len());
        prop_assert_eq!(sa.and_count(&sb), naive.len());
        prop_assert_eq!(and.len(), len);
    }

    /// The fused kernel and the materialized path agree everywhere the
    /// 4-word unroll and a partial final word can interact: `and_count`
    /// equals `and().count()` at
    /// universe lengths not divisible by 64, including lengths shorter
    /// than, equal to, and straddling the 256-bit unroll width.
    #[test]
    fn and_count_matches_materialized_and(
        len in 1usize..600,
        seed_a in proptest::collection::vec(0u32..600, 0..120),
        seed_b in proptest::collection::vec(0u32..600, 0..120),
    ) {
        let clamp = |raw: &[u32]| -> Vec<u32> {
            let mut v: Vec<u32> = raw.iter().map(|&i| i % len as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let sa = BitSet::from_indices(len, &clamp(&seed_a));
        let sb = BitSet::from_indices(len, &clamp(&seed_b));
        let materialized = sa.and(&sb).count();
        prop_assert_eq!(sa.and_count(&sb), materialized);
        // Commutative, and exact against a dense complement too.
        prop_assert_eq!(sb.and_count(&sa), materialized);
        let full = BitSet::from_indices(len, &(0..len as u32).collect::<Vec<_>>());
        prop_assert_eq!(sa.and_count(&full), sa.count());
    }

    /// The documented out-of-range contract: `contains` answers `false` for
    /// any index past the universe, while `insert` (checked separately in
    /// the unit tests) panics.
    #[test]
    fn bitset_contains_is_total(len in 1usize..200, probe in 0usize..400) {
        let set = BitSet::from_indices(len, &[(len - 1) as u32]);
        if probe >= len {
            prop_assert!(!set.contains(probe));
        }
        prop_assert!(set.contains(len - 1));
    }

    // ---------------- Binning -------------------------------------------

    #[test]
    fn bins_partition_all_values(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..200),
        max_bins in 2usize..10,
    ) {
        let bins = Bins::quantile(&values, max_bins);
        prop_assert!(bins.n_bins() >= 1);
        prop_assert!(bins.n_bins() <= max_bins);
        // Thresholds strictly increasing.
        for w in bins.thresholds().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Every value falls in a valid bin, monotonically with the value.
        let mut pairs: Vec<(f64, usize)> =
            values.iter().map(|&v| (v, bins.bin_of(v))).collect();
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "bin index must be monotone in the value");
        }
        for (_, b) in pairs {
            prop_assert!(b < bins.n_bins());
        }
    }

    // ---------------- Pattern algebra ------------------------------------

    #[test]
    fn pattern_merge_is_symmetric_and_grows_by_one(
        a in proptest::collection::btree_set(0u16..30, 1..5),
        b in proptest::collection::btree_set(0u16..30, 1..5),
    ) {
        let pa = Pattern::from_ids(a.iter().copied().collect());
        let pb = Pattern::from_ids(b.iter().copied().collect());
        match (pa.merge(&pb), pb.merge(&pa)) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.ids(), y.ids());
                prop_assert_eq!(x.len(), pa.len() + 1);
                // The merge contains both inputs.
                for id in pa.ids().iter().chain(pb.ids()) {
                    prop_assert!(x.ids().contains(id));
                }
            }
            (None, None) => {}
            _ => prop_assert!(false, "merge must be symmetric"),
        }
    }

    // ---------------- Encoder --------------------------------------------

    #[test]
    fn encoder_roundtrips_random_datasets(
        rows in proptest::collection::vec((0u32..3, -50.0f64..50.0, 0u32..2), 2..80),
    ) {
        let schema = Schema::new(
            vec![
                Feature::categorical("c", ["a", "b", "c"]),
                Feature::numeric("x"),
                Feature::categorical("g", ["p", "q"]),
            ],
            "y",
        );
        let labels: Vec<u8> = rows.iter().map(|(c, _, _)| (c % 2) as u8).collect();
        let data = Dataset::new(
            schema,
            vec![
                Column::Categorical(rows.iter().map(|r| r.0).collect()),
                Column::Numeric(rows.iter().map(|r| r.1).collect()),
                Column::Categorical(rows.iter().map(|r| r.2).collect()),
            ],
            labels,
            ProtectedSpec { feature: 2, privileged: PrivilegedIf::Level(0) },
        );
        let enc = Encoder::fit(&data);
        let e = enc.transform(&data);
        prop_assert_eq!(e.n_rows(), data.n_rows());
        for r in 0..data.n_rows() {
            let decoded = enc.decode_row(e.x.row(r));
            prop_assert_eq!(decoded[0].as_level(), data.value(r, 0).as_level());
            prop_assert!((decoded[1].as_number() - data.value(r, 1).as_number()).abs() < 1e-6);
            prop_assert_eq!(decoded[2].as_level(), data.value(r, 2).as_level());
        }
    }

    #[test]
    fn projection_is_idempotent(
        row in proptest::collection::vec(-5.0f64..5.0, 6),
    ) {
        // Layout: 3 one-hot + 1 numeric + 2 one-hot (from the fit below).
        let schema = Schema::new(
            vec![
                Feature::categorical("c", ["a", "b", "c"]),
                Feature::numeric("x"),
                Feature::categorical("g", ["p", "q"]),
            ],
            "y",
        );
        let data = Dataset::new(
            schema,
            vec![
                Column::Categorical(vec![0, 1, 2, 0]),
                Column::Numeric(vec![-1.0, 0.0, 1.0, 2.0]),
                Column::Categorical(vec![0, 1, 0, 1]),
            ],
            vec![0, 1, 0, 1],
            ProtectedSpec { feature: 2, privileged: PrivilegedIf::Level(0) },
        );
        let enc = Encoder::fit(&data);
        let mut once = row.clone();
        enc.project_row(&mut once);
        let mut twice = once.clone();
        enc.project_row(&mut twice);
        prop_assert_eq!(once, twice);
    }

    // ---------------- Top-k selection ------------------------------------

    #[test]
    fn topk_is_diverse_and_sorted(
        seed in 0u64..5000,
        k in 1usize..6,
        threshold in 0.1f64..1.0,
    ) {
        // Random candidate pool.
        let mut rng = Rng::new(seed);
        let n_rows = 120;
        let candidates: Vec<Candidate> = (0..25u16)
            .map(|id| {
                let size = rng.range(5, 40);
                let rows: Vec<u32> =
                    rng.sample_indices(n_rows, size).into_iter().map(|r| r as u32).collect();
                let coverage = BitSet::from_indices(n_rows, &rows);
                let support = coverage.count() as f64 / n_rows as f64;
                let responsibility = rng.uniform_in(-0.2, 0.8);
                Candidate {
                    pattern: Pattern::singleton(id),
                    coverage: std::sync::Arc::new(coverage),
                    support,
                    responsibility,
                    interestingness: responsibility / support,
                }
            })
            .collect();
        let top = topk::top_k(&candidates, k, threshold);
        prop_assert!(top.len() <= k);
        // Sorted by interestingness.
        for w in top.windows(2) {
            prop_assert!(w[0].interestingness >= w[1].interestingness - 1e-12);
        }
        // Pairwise diversity.
        for (i, a) in top.iter().enumerate() {
            for b in &top[..i] {
                prop_assert!(topk::containment(a, b) < threshold);
            }
        }
    }

    // ---------------- Cholesky on random SPD matrices ---------------------

    #[test]
    fn cholesky_solves_random_spd_systems(seed in 0u64..2000) {
        let mut rng = Rng::new(seed);
        let n = rng.range(1, 8);
        // A = B Bᵀ + I is SPD for any B.
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rng.normal();
            }
        }
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(1.0);
        let chol = Cholesky::factor(&a).expect("SPD by construction");
        let rhs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let x = chol.solve(&rhs);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-8, "residual too large: {} vs {}", u, v);
        }
    }

    // ---------------- PRNG sanity -----------------------------------------

    #[test]
    fn prng_range_stays_in_bounds(seed in 0u64..1000, lo in 0usize..50, width in 1usize..50) {
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            let v = rng.range(lo, lo + width);
            prop_assert!(v >= lo && v < lo + width);
        }
    }
}
