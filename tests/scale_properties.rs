//! Scale property tier: every shortcut the SQF-scale engine takes must be
//! provably invisible in results.
//!
//! Three suites, one per shortcut:
//!
//! * **Streaming CSV** — `read_csv_infer` now streams in chunks with a
//!   rewind; random CSVs (quoted separators, doubled quotes, multi-byte
//!   UTF-8, blank lines, `\r\n`, missing trailing newline) at chunk sizes
//!   down to one byte must produce bit-identical datasets *and* errors to
//!   the buffered reference path.
//! * **Sampled-support prefilter** — sweeps with the prefilter on are
//!   bit-identical to sweeps with it off (candidates, coverages, supports,
//!   stats counts) at 1 and 4 threads, and an audit of the structural
//!   artifact proves every skipped merge was genuinely below `min_count`.
//! * **SIMD kernels** — the dispatched `and`/`and_count` agree with the
//!   public scalar reference kernels at universe lengths straddling both
//!   the 64-bit word and the 256-bit lane boundaries. (CI additionally runs
//!   the whole suite with `GOPHER_SIMD=scalar`, so the fallback kernels are
//!   the *dispatched* pair on at least one run even on AVX2 hosts.)

use gopher_data::csv::{
    read_csv_infer_buffered, read_csv_infer_chunked, CsvError, InferredPrivileged,
};
use gopher_data::generators::german;
use gopher_data::Dataset;
use gopher_patterns::lattice::{compute_candidates_multi, LatticeConfig};
use gopher_patterns::{
    generate_predicates, BitSet, Candidate, CoverageCache, PredicateIndex, PredicateTable, ScoreFn,
    SearchStats, SupportPrefilter, SweepStructure,
};
use gopher_prng::Rng;
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::{Arc, OnceLock};

// ------------------------------------------------------------ streaming CSV

/// Cell palettes. The "category" palette is deliberately hostile: embedded
/// separators, doubled quotes, multi-byte UTF-8 (so chunk boundaries can
/// split a character), empty fields.
const NUM_CELLS: &[&str] = &["1", "2.5", "-3", "1e3", "0.125", "NaN", "x", "7"];
const CAT_CELLS: &[&str] = &[
    "plain",
    "with,comma",
    "with\"quote",
    "café ü漢",
    "",
    "naïve",
    "a\"\"b",
    "two words",
];
/// Mostly valid labels; "2" exercises the error path (both readers must
/// report the same line).
const LABEL_CELLS: &[&str] = &["0", "1", "1", "0", "2"];

/// RFC-4180 escape, mirroring the exporter's rule: quote iff the field
/// contains a separator or a quote, doubling embedded quotes.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Builds a CSV from palette picks: columns `num,grp,y`, optional blank
/// lines, `\n` or `\r\n`, optional trailing newline.
fn build_csv(cells: &[usize], crlf: bool, trailing_newline: bool, blank_every: usize) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut out = String::from("num,grp,y");
    out.push_str(eol);
    for (row, pick) in cells.chunks_exact(3).enumerate() {
        if blank_every > 0 && row > 0 && row % blank_every == 0 {
            out.push_str(eol);
        }
        let num = NUM_CELLS[pick[0] % NUM_CELLS.len()];
        let grp = CAT_CELLS[pick[1] % CAT_CELLS.len()];
        let y = LABEL_CELLS[pick[2] % LABEL_CELLS.len()];
        out.push_str(&format!("{},{},{}{}", escape(num), escape(grp), y, eol));
    }
    if !trailing_newline {
        // Drop the final terminator so the last record exercises the
        // unterminated-line path (where `\r` must NOT be stripped).
        out.truncate(out.len() - eol.len());
    }
    out
}

/// Renders a result so `Err` cases compare too (same variant, line, text).
fn render(result: Result<Dataset, CsvError>) -> String {
    match result {
        Ok(d) => format!("{d:?}"),
        Err(e) => format!("err: {e:?}"),
    }
}

proptest! {
    /// Chunked streaming at any chunk size — boundaries forced inside
    /// quoted fields, multi-byte characters, and `\r\n` pairs — is
    /// bit-identical to the buffered reference, datasets and errors alike.
    #[test]
    fn streaming_csv_is_bit_identical_to_buffered(
        cells in proptest::collection::vec(0usize..8, 3..54),
        chunk in 1usize..40,
        crlf in 0u64..2,
        trailing in 0u64..2,
        blank_every in 0usize..4,
    ) {
        let cells = &cells[..cells.len() - cells.len() % 3];
        let csv = build_csv(cells, crlf == 1, trailing == 1, blank_every);
        let rule = InferredPrivileged::Equals("plain".into());
        let buffered = render(read_csv_infer_buffered(
            Cursor::new(csv.as_bytes()), "y", "grp", &rule,
        ));
        let streamed = render(read_csv_infer_chunked(
            Cursor::new(csv.as_bytes()), "y", "grp", &rule, chunk,
        ));
        // (On mismatch the rendered strings carry the full dataset/error, so
        // the failing case is reconstructible from the assertion output.)
        prop_assert_eq!(streamed, buffered);
    }
}

// ------------------------------------------------------- prefilter identity

/// One shared 300-row table (pattern structure is a pure function of the
/// data; each case builds fresh caches and artifacts).
fn table() -> &'static (Dataset, PredicateTable) {
    static TABLE: OnceLock<(Dataset, PredicateTable)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let d = german(300, 1406);
        let table = generate_predicates(&d, 4);
        (d, table)
    })
}

/// A deterministic scorer (positive-label rate over the coverage).
fn make_scorer(labels: &[u8]) -> impl Fn(&BitSet) -> f64 + Send + Sync + '_ {
    move |cov: &BitSet| {
        let total = cov.count().max(1) as f64;
        cov.iter()
            .map(|r| labels[r as usize] as usize)
            .sum::<usize>() as f64
            / total
    }
}

/// Runs one staged sweep with fresh cache/index/artifact, optionally with a
/// prefilter attached, returning the results plus the artifact and the
/// coverage cache for auditing.
fn run_sweep(
    table: &PredicateTable,
    config: &LatticeConfig,
    labels: &[u8],
    threads: usize,
    prefilter: Option<Arc<SupportPrefilter>>,
) -> (
    Vec<(Vec<Candidate>, SearchStats)>,
    SweepStructure,
    CoverageCache,
) {
    let cache = CoverageCache::new();
    let index = PredicateIndex::build(table, &cache);
    let structure = SweepStructure::build_with_prefilter(&index, config, prefilter);
    let scorers: Vec<ScoreFn<'_>> = vec![Box::new(make_scorer(labels))];
    let results = compute_candidates_multi(table, &scorers, config, &cache, &structure, threads);
    (results, structure, cache)
}

/// The exact coverage count of a merged pattern, recomputed from scratch by
/// intersecting its predicates' table coverages — the audit oracle.
fn exact_count(table: &PredicateTable, ids: &[u16]) -> usize {
    let mut cov = table.coverage(ids[0]).clone();
    for &id in &ids[1..] {
        cov = cov.and(table.coverage(id));
    }
    cov.count()
}

proptest! {
    /// The acceptance property: sweeps with the sampled-support prefilter
    /// on are bit-identical to sweeps with it off — candidates, coverage
    /// bits, supports, responsibilities, stats counts, even coverage-cache
    /// traffic — at 1 and 4 threads; and every merge the prefilter skipped
    /// was genuinely below `min_count` (admissibility, audited against
    /// from-scratch intersections).
    #[test]
    fn prefilter_is_bit_identical_and_admissible(
        support_choice in 0usize..3,
        depth in 2usize..4,
        sample_rows in 1usize..512,
        threads_bit in 0usize..2,
    ) {
        let (d, table) = table();
        let labels = d.labels();
        let config = LatticeConfig {
            support_threshold: [0.08, 0.15, 0.25][support_choice],
            max_predicates: depth,
            prune_by_responsibility: false,
            max_level_candidates: None,
        };
        let threads = [1, 4][threads_bit];

        let (plain, _, plain_cache) = run_sweep(table, &config, labels, threads, None);
        let pf = Arc::new(SupportPrefilter::new(table.n_rows(), sample_rows));
        let (filtered, structure, filtered_cache) =
            run_sweep(table, &config, labels, threads, Some(Arc::clone(&pf)));

        // Bit-identity of results and stats.
        prop_assert_eq!(plain.len(), filtered.len());
        for ((pc, ps), (fc, fs)) in plain.iter().zip(&filtered) {
            prop_assert_eq!(pc.len(), fc.len());
            for (a, b) in pc.iter().zip(fc) {
                prop_assert_eq!(a.pattern.ids(), b.pattern.ids());
                prop_assert_eq!(a.coverage.as_ref(), b.coverage.as_ref());
                prop_assert_eq!(a.support.to_bits(), b.support.to_bits());
                prop_assert_eq!(a.responsibility.to_bits(), b.responsibility.to_bits());
                prop_assert_eq!(a.interestingness.to_bits(), b.interestingness.to_bits());
            }
            prop_assert_eq!(ps.total_scored, fs.total_scored);
            prop_assert_eq!(ps.levels.len(), fs.levels.len());
            for (pl, fl) in ps.levels.iter().zip(&fs.levels) {
                prop_assert_eq!(
                    (pl.level, pl.generated, pl.kept),
                    (fl.level, fl.generated, fl.kept)
                );
            }
        }
        // Failed merges never touch the coverage cache and supported ones
        // are never skipped, so even cache traffic matches exactly.
        prop_assert_eq!(plain_cache.stats().hits, filtered_cache.stats().hits);
        prop_assert_eq!(plain_cache.stats().misses, filtered_cache.stats().misses);

        // Admissibility audit: every skip was a genuinely unsupported merge.
        let mut inexact = 0u64;
        for (ids, record) in structure.merge_snapshot() {
            let truth = exact_count(table, &ids);
            if record.exact {
                prop_assert_eq!(record.count, truth);
            } else {
                inexact += 1;
                prop_assert!(record.count >= truth, "bound under-counts {:?}", ids);
                prop_assert!(record.count < structure.min_count());
                prop_assert!(truth < structure.min_count(), "supported merge skipped!");
                prop_assert!(record.coverage.is_none());
            }
        }
        prop_assert_eq!(pf.skips(), inexact);
        prop_assert!(pf.probes() >= pf.skips());
    }
}

// ------------------------------------------------------------- SIMD kernels

/// A random bitset over `len` rows with roughly `density`/8 fill.
fn random_bitset(rng: &mut Rng, len: usize, density: u64) -> BitSet {
    let mut s = BitSet::new(len);
    for i in 0..len {
        if rng.next_u64() % 8 < density {
            s.insert(i);
        }
    }
    s
}

proptest! {
    /// The dispatched kernels agree bit-for-bit with the public scalar
    /// references on random sets at random universe lengths.
    #[test]
    fn simd_and_scalar_kernels_agree(
        len in 1usize..1500,
        seed in 0u64..1_000_000,
        density_a in 1u64..8,
        density_b in 1u64..8,
    ) {
        let mut rng = Rng::new(seed);
        let a = random_bitset(&mut rng, len, density_a);
        let b = random_bitset(&mut rng, len, density_b);
        prop_assert_eq!(a.and_count(&b), a.and_count_scalar(&b));
        prop_assert_eq!(&a.and(&b), &a.and_scalar(&b));
        prop_assert_eq!(a.and(&b).count(), a.and_count(&b));
    }
}

/// Dense sets at every length straddling the 64-bit word and 256-bit SIMD
/// lane boundaries: one off-by-one in the vector stride or the scalar tail
/// shows up immediately.
#[test]
fn simd_kernels_agree_at_lane_and_word_boundaries() {
    let mut rng = Rng::new(0x51_3D);
    for base in [64usize, 128, 192, 256, 320, 512, 1024] {
        for len in [base - 1, base, base + 1] {
            let a = random_bitset(&mut rng, len, 5);
            let b = random_bitset(&mut rng, len, 5);
            assert_eq!(a.and_count(&b), a.and_count_scalar(&b), "len={len}");
            assert_eq!(a.and(&b), a.and_scalar(&b), "len={len}");
        }
    }
}

/// When the environment forces scalar dispatch (`GOPHER_SIMD=scalar`, as
/// one full CI test run sets), the process-wide backend must be scalar —
/// keeping the fallback pair covered as the *dispatched* kernels even on
/// hosts without AVX2 feature detection in play.
#[test]
fn forced_scalar_dispatch_is_respected() {
    if std::env::var("GOPHER_SIMD").is_ok_and(|v| v == "scalar") {
        assert_eq!(gopher_patterns::simd_backend(), "scalar");
    } else {
        // Unforced: whatever was dispatched must be a known backend.
        assert!(["avx2", "scalar"].contains(&gopher_patterns::simd_backend()));
    }
}
