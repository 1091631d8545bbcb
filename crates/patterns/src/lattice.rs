//! Lattice search for candidate explanations (paper Algorithm 1,
//! `ComputeCandidates`).
//!
//! Every level of the search runs one pipeline, whatever the thread count:
//!
//! 1. **enumerate** — walk each scorer's frontier for merge pairs (the pair
//!    space is chunked across `gopher-par` workers and concatenated in
//!    serial pair order, so the first pair to generate a pattern wins, as
//!    in a serial walk);
//! 2. **resolve** — count every distinct merged pattern's support across
//!    workers and materialize the supported ones through the
//!    [`CoverageCache`] (metric-independent: the coverage of a merged
//!    pattern is the AND of its predicates', whichever parents produced
//!    it);
//! 3. **score** — one order-preserving `par_map` over every supported
//!    candidate of every scorer (each score is a pure function of a
//!    coverage);
//! 4. **prune** — walk each scorer's candidates in enumeration order and
//!    keep those that beat both parents.
//!
//! Steps 1–2 are the level's structural phase, step 3 its scoring phase.
//! Scores and pruning decisions never depend on scheduling, so results are
//! bit-identical at any thread count. The structural half lands in the
//! coverage cache, which is what lets a session reuse it across metrics,
//! estimators, bias evaluations, and support thresholds.

use crate::bitset::BitSet;
use crate::candidates::PredicateTable;
use crate::coverage::CoverageCache;
use crate::pattern::Pattern;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeConfig {
    /// Minimum support τ (fraction of training rows a pattern must cover).
    pub support_threshold: f64,
    /// Maximum number of predicates per pattern (lattice depth).
    pub max_predicates: usize,
    /// The paper's second heuristic: only keep a merged pattern if its
    /// responsibility strictly exceeds both parents'. Disable for the
    /// ablation study (recovers more candidates at a steep cost).
    pub prune_by_responsibility: bool,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        Self {
            support_threshold: 0.05,
            max_predicates: 4,
            prune_by_responsibility: true,
        }
    }
}

/// A boxed scoring callback: coverage bitset in, estimated responsibility
/// out. Each level scores the candidates of every scorer in one parallel
/// pass, so a scorer is called from several workers at once and in no
/// fixed order: it must be a pure function of the coverage.
pub type ScoreFn<'a> = Box<dyn Fn(&BitSet) -> f64 + Send + Sync + 'a>;

/// A scored candidate explanation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The pattern (predicate ids into the table used for the search).
    pub pattern: Pattern,
    /// Rows covered by the pattern. Shared (`Arc`) so cloning candidates
    /// between lattice levels, the top-k selection, and a session's coverage
    /// cache is a refcount bump instead of an `O(n_rows)` copy.
    pub coverage: Arc<BitSet>,
    /// `Sup(φ)` — fraction of training rows covered.
    pub support: f64,
    /// Estimated causal responsibility `R_F(D(φ))` (Definition 3.2).
    pub responsibility: f64,
    /// `U(φ) = R_F(D(φ)) / Sup(φ)` (Definition 3.5).
    pub interestingness: f64,
}

/// Per-level search statistics (the paper's Table 7 columns).
///
/// The scorers of one sweep share each level's pipeline, so the three
/// durations are the level's, reported identically in every scorer's stats
/// — the time each of them waited for the level.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Lattice level (number of predicates).
    pub level: usize,
    /// Merge pairs that passed the structural checks and were scored.
    pub generated: usize,
    /// Candidates kept after all pruning.
    pub kept: usize,
    /// Wall-clock time of the level's structural phase: enumerating every
    /// live frontier's merges and resolving their supports (for level 1,
    /// filtering the predicate table by support).
    pub structural: Duration,
    /// Wall-clock time of the level's ordered score pass over every
    /// supported candidate of every scorer.
    pub scoring: Duration,
    /// Wall-clock time of the whole level: `structural`, `scoring`, and
    /// pruning.
    pub duration: Duration,
}

/// Statistics of a whole search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// One entry per explored level.
    pub levels: Vec<LevelStats>,
    /// Total number of responsibility evaluations.
    pub total_scored: usize,
}

impl SearchStats {
    /// Total candidates kept across levels.
    pub fn total_kept(&self) -> usize {
        self.levels.iter().map(|l| l.kept).sum()
    }

    /// Wall-clock spent in the structural phases, summed across levels (the
    /// metric-independent part of the sweep).
    pub fn structural_time(&self) -> Duration {
        self.levels.iter().map(|l| l.structural).sum()
    }
}

/// Runs Algorithm 1: generates all candidate patterns up to
/// `config.max_predicates` predicates, scoring each coverage set with the
/// caller's `score` closure (the estimated causal responsibility — see
/// `gopher_influence::BiasInfluence::responsibility`).
///
/// Pruning, as in the paper:
/// * support `< τ` — never generated (anti-monotone: also prunes the whole
///   sub-lattice);
/// * conflicting/redundant same-feature predicate pairs — never merged;
/// * responsibility not exceeding both parents — dropped (when
///   `prune_by_responsibility` is set).
///
/// This convenience wrapper builds a transient coverage cache; long-lived
/// callers (sessions) hold their own and call [`compute_candidates_multi`].
pub fn compute_candidates<F>(
    table: &PredicateTable,
    score: F,
    config: &LatticeConfig,
) -> (Vec<Candidate>, SearchStats)
where
    F: Fn(&BitSet) -> f64 + Send + Sync,
{
    let scorer: ScoreFn<'_> = Box::new(score);
    compute_candidates_multi(
        table,
        std::slice::from_ref(&scorer),
        config,
        &CoverageCache::new(),
        1,
    )
    .pop()
    .expect("one scorer in, one result out")
}

/// The multi-query variant of [`compute_candidates`]: one lattice sweep
/// serving several scoring callbacks, run as the module's level pipeline on
/// up to `threads` workers.
///
/// Each scorer keeps its own frontier, pruning decisions, and
/// [`SearchStats`]; the scorers share the enumeration, the merge
/// resolution, and one score pass per level. The result for scorer `i` is
/// **identical** to what `compute_candidates(table, scorers[i], config)`
/// would return on its own, at any thread count: every step either is
/// order-independent (merge resolution, pure scores) or runs in the serial
/// enumeration order (deduplication, pruning).
///
/// Level 1 reads the table's own coverages; `cache` holds the merged ones
/// and outlives the call on purpose: an interactive session passes its
/// long-lived coverage cache, so later queries — a different metric,
/// estimator, bias evaluation, or support threshold — skip every
/// intersection this sweep materialized.
///
/// # Panics
/// If `config.support_threshold` is outside `[0, 1)` or
/// `config.max_predicates` is zero.
pub fn compute_candidates_multi(
    table: &PredicateTable,
    scorers: &[ScoreFn<'_>],
    config: &LatticeConfig,
    cache: &CoverageCache,
    threads: usize,
) -> Vec<(Vec<Candidate>, SearchStats)> {
    assert!(
        (0.0..1.0).contains(&config.support_threshold),
        "support threshold must be in [0, 1)"
    );
    assert!(
        config.max_predicates >= 1,
        "need at least one predicate per pattern"
    );
    let n = table.n_rows();
    let min_count = min_count_for(config.support_threshold, n);

    /// Everything one scorer owns during the sweep.
    #[derive(Default)]
    struct ScorerRun {
        stats: SearchStats,
        all: Vec<Candidate>,
        frontier: Vec<Candidate>,
        done: bool,
    }
    let mut runs: Vec<ScorerRun> = scorers.iter().map(|_| ScorerRun::default()).collect();

    for level in 1..=config.max_predicates {
        // A frontier of fewer than two patterns has no pairs to merge.
        if level > 1 {
            for run in &mut runs {
                run.done |= run.frontier.len() < 2;
            }
        }
        let live: Vec<usize> = (0..runs.len()).filter(|&s| !runs[s].done).collect();
        if live.is_empty() {
            break;
        }

        // Structural phase. Level 1 proposes the table's supported
        // predicates to every scorer.
        let t_level = Instant::now();
        let proposals = if level == 1 {
            let singles: Vec<Proposal> = table
                .iter()
                .filter_map(|(id, _)| {
                    let coverage = table.coverage(id);
                    let count = coverage.count();
                    (count >= min_count).then(|| Proposal {
                        pattern: Pattern::singleton(id),
                        coverage: Arc::clone(coverage),
                        count,
                        parents: None,
                    })
                })
                .collect();
            vec![singles; live.len()]
        } else {
            let frontiers: Vec<&[Candidate]> =
                live.iter().map(|&s| runs[s].frontier.as_slice()).collect();
            propose_merges(table, cache, min_count, &frontiers, threads)
        };
        let structural = t_level.elapsed();

        // Scoring phase: every supported candidate of every live scorer, in
        // (scorer, enumeration) order.
        let t_score = Instant::now();
        let items: Vec<(usize, &BitSet)> = live
            .iter()
            .zip(&proposals)
            .flat_map(|(&s, props)| props.iter().map(move |p| (s, p.coverage.as_ref())))
            .collect();
        let scores = gopher_par::par_map(threads, &items, |_, &(s, coverage)| scorers[s](coverage));
        let scoring = t_score.elapsed();

        // Pruning, per scorer in enumeration order.
        let mut scores = scores.into_iter();
        let mut kept = Vec::with_capacity(live.len());
        for (&s, props) in live.iter().zip(proposals) {
            let run = &mut runs[s];
            let generated = props.len();
            let mut next: Vec<Candidate> = Vec::new();
            for (prop, responsibility) in props.into_iter().zip(scores.by_ref()) {
                if let Some((i, j)) = prop.parents {
                    if config.prune_by_responsibility
                        && (responsibility <= run.frontier[i].responsibility
                            || responsibility <= run.frontier[j].responsibility)
                    {
                        continue;
                    }
                }
                let support = prop.count as f64 / n as f64;
                next.push(Candidate {
                    pattern: prop.pattern,
                    coverage: prop.coverage,
                    support,
                    responsibility,
                    interestingness: responsibility / support,
                });
            }
            run.stats.total_scored += generated;
            kept.push((generated, next.len()));
            if next.is_empty() {
                run.done = true;
            } else {
                run.all.extend(next.iter().cloned());
            }
            run.frontier = next;
        }
        let duration = structural + t_score.elapsed();
        for (&s, (generated, kept)) in live.iter().zip(kept) {
            runs[s].stats.levels.push(LevelStats {
                level,
                generated,
                kept,
                structural,
                scoring,
                duration,
            });
        }
    }

    runs.into_iter().map(|run| (run.all, run.stats)).collect()
}

/// A supported pattern proposed for scoring: its pattern, coverage, and
/// support count, plus the frontier positions of the parent pair that first
/// generated it (`None` at level 1, which has no parents to beat).
#[derive(Clone)]
struct Proposal {
    pattern: Pattern,
    coverage: Arc<BitSet>,
    count: usize,
    parents: Option<(usize, usize)>,
}

/// Merge pairs below which a level enumerates on the calling thread.
/// Measured on German-10k first-order sessions (2 vCPUs): below about
/// 50,000 pairs two workers were slower than one, at 51,000–54,000 they
/// broke even (2.6–2.7 against 2.7–2.9 ms), and from 84,000 on they were
/// 25–35% faster.
const INLINE_PAIRS: usize = 50_000;

/// Bitset words of a merge's coverage that only pay for its bookkeeping.
/// Resolving a merge costs a fixed part (coverage-cache lookups and
/// inserts, which workers serialize on the cache's lock) plus an
/// AND-count over the words; only the words beyond this many are work a
/// second worker takes off the first.
const RESOLVE_BOOKKEEPING_WORDS: usize = 250;

/// Distinct merges times their words beyond [`RESOLVE_BOOKKEEPING_WORDS`]
/// below which a level resolves its merges on the calling thread.
///
/// Both constants come from 1-vs-2-worker timings of every level of twelve
/// cold first-order questions per dataset (2 vCPUs). Two workers never won
/// at 110 words (German-10k, up to 4,697 merges; at 4,600 they took 2.9
/// against 2.2 ms), 219 (Adult-20k) or 329 (SQF-30k), nor on SQF-50k (547
/// words, 273 merges: 0.34 against 0.29 ms). German-40k (438 words) lost
/// at 738 merges and won at 1,443 (1.3 against 1.5 ms). At 1,094 words
/// they lost at 203 merges, broke even at 236 and won from 242
/// (German-100k; SQF-100k won at 252: 0.42 against 0.53 ms). This rule puts
/// every measured level on the side that was faster or even.
const INLINE_RESOLVE_WORK: usize = 200_000;

/// The structural phase of a merged level, for every live frontier:
/// enumerates its merges in serial pair order, resolves each distinct one
/// (see [`resolve_merge`]), and returns each frontier's supported merges in
/// that order. Each step fans out over up to `threads` workers only when
/// its work reaches [`INLINE_PAIRS`] or [`INLINE_RESOLVE_WORK`]; below,
/// spawning them costs more than it saves.
fn propose_merges(
    table: &PredicateTable,
    cache: &CoverageCache,
    min_count: usize,
    frontiers: &[&[Candidate]],
    threads: usize,
) -> Vec<Vec<Proposal>> {
    // Enumerate, chunked across workers; each chunk drops the repeats it
    // generates itself.
    let pairs: usize = frontiers
        .iter()
        .map(|f| f.len() * f.len().saturating_sub(1) / 2)
        .sum();
    let enumerate_threads = if pairs < INLINE_PAIRS { 1 } else { threads };
    let work: Vec<(usize, std::ops::Range<usize>)> = frontiers
        .iter()
        .enumerate()
        .flat_map(|(f, frontier)| {
            pair_chunks(frontier.len(), enumerate_threads)
                .into_iter()
                .map(move |range| (f, range))
        })
        .collect();
    let found = gopher_par::par_map(enumerate_threads, &work, |_, (f, range)| {
        let frontier = frontiers[*f];
        let mut out: Vec<(Pattern, usize, usize)> = Vec::new();
        let mut local_seen: HashSet<Pattern> = HashSet::new();
        for i in range.clone() {
            for j in (i + 1)..frontier.len() {
                if let Some(merged) = frontier[i].pattern.merge(&frontier[j].pattern) {
                    if local_seen.insert(merged.clone()) {
                        out.push((merged, i, j));
                    }
                }
            }
        }
        out
    });
    // Concatenate in pair order: the first pair to generate a pattern wins,
    // and only that pair's conflict check decides it, as in a serial walk.
    let mut merges: Vec<Vec<(Pattern, usize, usize)>> = vec![Vec::new(); frontiers.len()];
    let mut seen: Vec<HashSet<Pattern>> = vec![HashSet::new(); frontiers.len()];
    for ((f, _), chunk) in work.iter().zip(found) {
        for (merged, i, j) in chunk {
            if !seen[*f].insert(merged.clone()) {
                continue;
            }
            let frontier = frontiers[*f];
            if merge_conflicts(table, &frontier[i].pattern, &frontier[j].pattern) {
                continue;
            }
            merges[*f].push((merged, i, j));
        }
    }

    // Resolve each distinct merge once, in parallel, from the first pair
    // that generated it.
    let mut distinct: HashMap<&[u16], usize> = HashMap::new();
    let mut first: Vec<(&[u16], usize, usize, usize)> = Vec::new();
    let slots: Vec<Vec<usize>> = merges
        .iter()
        .enumerate()
        .map(|(f, list)| {
            list.iter()
                .map(|(merged, i, j)| {
                    *distinct.entry(merged.ids()).or_insert_with(|| {
                        first.push((merged.ids(), f, *i, *j));
                        first.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let words = table.n_rows().div_ceil(64);
    let resolve_work = first.len() * words.saturating_sub(RESOLVE_BOOKKEEPING_WORDS);
    let resolve_threads = if resolve_work < INLINE_RESOLVE_WORK {
        1
    } else {
        threads
    };
    let resolved = gopher_par::par_map(resolve_threads, &first, |_, &(ids, f, i, j)| {
        let (a, b) = (&frontiers[f][i], &frontiers[f][j]);
        resolve_merge(ids, cache, min_count, &a.coverage, &b.coverage)
    });

    merges
        .into_iter()
        .zip(slots)
        .map(|(list, slots)| {
            list.into_iter()
                .zip(slots)
                .filter_map(|((pattern, i, j), k)| {
                    let (coverage, count) = resolved[k].clone()?;
                    Some(Proposal {
                        pattern,
                        coverage,
                        count,
                        parents: Some((i, j)),
                    })
                })
                .collect()
        })
        .collect()
}

/// Resolves one merged pattern `ids` from its parents' coverages `a` and
/// `b`: its coverage and support count when the count meets `min_count`,
/// `None` otherwise.
///
/// **Count-first, materialize-on-demand:** unless an earlier sweep already
/// materialized this pattern's coverage (a cache peek answers that), the
/// intersection is *counted* with the fused [`BitSet::and_count`] kernel
/// first, and the AND is only materialized — through `cache`, so later
/// sweeps reuse it — when the merge is supported. At realistic support
/// thresholds failed merges are the majority of the pair space, so most
/// pairs cost one fused pass and zero allocations.
fn resolve_merge(
    ids: &[u16],
    cache: &CoverageCache,
    min_count: usize,
    a: &BitSet,
    b: &BitSet,
) -> Option<(Arc<BitSet>, usize)> {
    if let Some(coverage) = cache.peek(ids) {
        let count = coverage.count();
        return (count >= min_count).then_some((coverage, count));
    }
    let count = a.and_count(b);
    (count >= min_count).then(|| (cache.get_or_insert_with(ids, || a.and(b)), count))
}

/// True when the two differing predicates of a mergeable pair conflict (the
/// shared predicates were already vetted in the parents).
fn merge_conflicts(table: &PredicateTable, a: &Pattern, b: &Pattern) -> bool {
    let da = a.difference(b);
    let db = b.difference(a);
    debug_assert_eq!(da.len(), 1);
    debug_assert_eq!(db.len(), 1);
    table
        .predicate(da[0])
        .conflicts_with(table.predicate(db[0]))
}

/// Splits the upper-triangular pair space of `m` items into contiguous
/// outer-index ranges with roughly equal pair counts, a few chunks per
/// worker so `gopher-par`'s cursor can balance uneven merge costs.
fn pair_chunks(m: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let total_pairs = m * (m - 1) / 2;
    let target_chunks = (threads.max(1) * 4).min(total_pairs.max(1));
    let per_chunk = total_pairs.div_ceil(target_chunks).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..m {
        acc += m - 1 - i;
        if acc >= per_chunk {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < m {
        chunks.push(start..m);
    }
    chunks
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

    /// A deterministic toy score: fraction of covered rows that are
    /// positive-labeled (monotone enough to exercise the pruning paths).
    fn toy_score(labels: &[u8]) -> impl Fn(&BitSet) -> f64 + Send + Sync + '_ {
        move |cov: &BitSet| {
            let total = cov.count().max(1);
            let pos: usize = cov.iter().map(|r| labels[r as usize] as usize).sum();
            pos as f64 / total as f64
        }
    }

    #[test]
    fn all_candidates_meet_support_threshold() {
        let d = german(400, 61);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.05,
            ..Default::default()
        };
        let (cands, _) = compute_candidates(&table, toy_score(d.labels()), &config);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.support >= 0.05, "support {} below threshold", c.support);
            assert_eq!(c.coverage.count(), (c.support * 400.0).round() as usize);
        }
    }

    #[test]
    fn responsibility_pruning_enforces_strict_improvement() {
        let d = german(400, 62);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.02,
            ..Default::default()
        };
        let (cands, _) = compute_candidates(&table, toy_score(d.labels()), &config);
        // Every multi-predicate candidate must out-score every strict
        // sub-pattern present in the result (transitively guaranteed by the
        // per-merge check against both parents; we verify against all
        // single-predicate ancestors).
        let singles: std::collections::HashMap<u16, f64> = cands
            .iter()
            .filter(|c| c.pattern.len() == 1)
            .map(|c| (c.pattern.ids()[0], c.responsibility))
            .collect();
        for c in cands.iter().filter(|c| c.pattern.len() == 2) {
            for id in c.pattern.ids() {
                if let Some(&parent_resp) = singles.get(id) {
                    assert!(
                        c.responsibility > parent_resp,
                        "merged pattern does not improve on its parent"
                    );
                }
            }
        }
    }

    #[test]
    fn disabling_responsibility_pruning_yields_more_candidates() {
        let d = german(400, 63);
        let table = generate_predicates(&d, 4);
        let pruned = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                ..Default::default()
            },
        )
        .0
        .len();
        let unpruned = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                prune_by_responsibility: false,
                max_predicates: 3,
            },
        )
        .0
        .len();
        assert!(
            unpruned > pruned,
            "unpruned {unpruned} should exceed pruned {pruned}"
        );
    }

    #[test]
    fn no_duplicate_patterns() {
        let d = german(300, 64);
        let table = generate_predicates(&d, 4);
        let (cands, _) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                prune_by_responsibility: false,
                max_predicates: 3,
            },
        );
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            assert!(
                seen.insert(c.pattern.ids().to_vec()),
                "duplicate {:?}",
                c.pattern
            );
        }
    }

    #[test]
    fn no_conflicting_predicates_within_pattern() {
        let d = german(300, 65);
        let table = generate_predicates(&d, 4);
        let (cands, _) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.03,
                prune_by_responsibility: false,
                max_predicates: 3,
            },
        );
        for c in &cands {
            let ids = c.pattern.ids();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    assert!(
                        !table.predicate(a).conflicts_with(table.predicate(b)),
                        "conflicting predicates in pattern {:?}",
                        c.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn stats_track_levels_and_scoring() {
        let d = german(300, 66);
        let table = generate_predicates(&d, 4);
        let (cands, stats) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                ..Default::default()
            },
        );
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.levels[0].level, 1);
        assert_eq!(stats.total_kept(), cands.len());
        assert!(stats.total_scored >= cands.len());
        // The structural share is part of every level's duration.
        for level in &stats.levels {
            assert!(level.duration >= level.structural);
        }
        assert!(stats.structural_time() <= stats.levels.iter().map(|l| l.duration).sum());
    }

    #[test]
    fn coverage_is_intersection_of_predicate_coverages() {
        let d = german(300, 68);
        let table = generate_predicates(&d, 4);
        let (cands, _) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                ..Default::default()
            },
        );
        for c in cands.iter().filter(|c| c.pattern.len() >= 2) {
            let mut expected: Option<BitSet> = None;
            for &id in c.pattern.ids() {
                let cov = table.coverage(id);
                expected = Some(match expected {
                    None => BitSet::clone(cov),
                    Some(e) => e.and(cov),
                });
            }
            assert_eq!(c.coverage.as_ref(), &expected.unwrap());
        }
    }

    /// The staged multi-scorer sweep must reproduce each scorer's solo run
    /// bit for bit: same candidates (patterns, coverage bits, supports,
    /// responsibilities), same order, same stats counts — at any thread
    /// count, including oversubscription.
    #[test]
    fn multi_sweep_matches_solo_runs() {
        let d = german(400, 69);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        // Two deliberately different scores (positive rate / privileged
        // rate) so the frontiers diverge and pruning decisions differ.
        let labels = d.labels().to_vec();
        let privileged = d.privileged_mask();
        let (solo_a, stats_a) = compute_candidates(&table, toy_score(&labels), &config);
        let priv_score = |cov: &BitSet| {
            let total = cov.count().max(1);
            let p: usize = cov.iter().map(|r| privileged[r as usize] as usize).sum();
            p as f64 / total as f64
        };
        let (solo_b, stats_b) = compute_candidates(&table, priv_score, &config);

        // The sweep must be thread-count-invariant: 1 (inline), 2, and an
        // oversubscribed 8 all reproduce the solo runs bit for bit.
        for threads in [1, 2, 8] {
            let cache = CoverageCache::new();
            let scorers: Vec<ScoreFn<'_>> =
                vec![Box::new(toy_score(&labels)), Box::new(priv_score)];
            let mut multi = compute_candidates_multi(&table, &scorers, &config, &cache, threads);
            let (multi_b, mstats_b) = multi.pop().unwrap();
            let (multi_a, mstats_a) = multi.pop().unwrap();

            for ((solo, stats), (multi, mstats)) in [
                ((&solo_a, &stats_a), (&multi_a, &mstats_a)),
                ((&solo_b, &stats_b), (&multi_b, &mstats_b)),
            ] {
                assert_eq!(solo.len(), multi.len());
                for (s, m) in solo.iter().zip(multi) {
                    assert_eq!(s.pattern.ids(), m.pattern.ids());
                    assert_eq!(s.coverage, m.coverage, "coverage bits must match");
                    assert_eq!(s.responsibility, m.responsibility);
                    assert_eq!(s.support, m.support);
                }
                assert_eq!(stats.total_scored, mstats.total_scored);
                assert_eq!(stats.levels.len(), mstats.levels.len());
                for (s, m) in stats.levels.iter().zip(&mstats.levels) {
                    assert_eq!(
                        (s.level, s.generated, s.kept),
                        (m.level, m.generated, m.kept)
                    );
                }
            }
            assert!(
                !cache.is_empty(),
                "sweep must materialize merged coverages in the shared cache"
            );
        }
    }

    /// A second sweep over a warm coverage cache (fresh scorer, same
    /// structural config) must answer identically to a cold one without
    /// materializing any intersection again.
    #[test]
    fn warm_artifact_reuses_structural_work() {
        let d = german(400, 78);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        let labels = d.labels().to_vec();
        let (solo, solo_stats) = compute_candidates(&table, toy_score(&labels), &config);

        let cache = CoverageCache::new();
        let run = || {
            let scorers: Vec<ScoreFn<'_>> = vec![Box::new(toy_score(&labels))];
            compute_candidates_multi(&table, &scorers, &config, &cache, 2)
                .pop()
                .unwrap()
        };
        let (cold, _) = run();
        let entries_after_cold = cache.len();
        let coverage_misses_after_cold = cache.stats().misses;
        let (warm, warm_stats) = run();

        // Identical results, cold, warm, and solo.
        for (a, b) in solo.iter().zip(&cold).chain(solo.iter().zip(&warm)) {
            assert_eq!(a.pattern.ids(), b.pattern.ids());
            assert_eq!(a.coverage, b.coverage);
            assert_eq!(a.responsibility, b.responsibility);
        }
        assert_eq!(solo_stats.total_scored, warm_stats.total_scored);
        // The warm sweep materialized nothing new.
        assert_eq!(cache.len(), entries_after_cold);
        assert_eq!(cache.stats().misses, coverage_misses_after_cold);
    }

    /// A multi-scorer sweep on worker threads keeps per-level timing
    /// populated: every explored level of every scorer reports a nonzero
    /// duration that holds its structural and scoring phases.
    #[test]
    fn fanned_out_level_stats_keep_durations() {
        let d = german(400, 70);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        let labels = d.labels().to_vec();
        let scorers: Vec<ScoreFn<'_>> = (0..3)
            .map(|_| Box::new(toy_score(&labels)) as ScoreFn<'_>)
            .collect();
        let results = compute_candidates_multi(&table, &scorers, &config, &CoverageCache::new(), 4);
        for (_, stats) in &results {
            assert!(!stats.levels.is_empty());
            for level in &stats.levels {
                if level.generated > 0 {
                    assert!(
                        level.duration > Duration::ZERO,
                        "level {} scored {} candidates but reports zero duration",
                        level.level,
                        level.generated
                    );
                }
                assert!(level.duration >= level.structural + level.scoring);
            }
        }
    }

    /// One pipeline at every thread count: each candidate is scored exactly
    /// once (a counting scorer sees `total_scored` calls), and every level's
    /// structural and scoring phases fit inside its duration — including
    /// merge resolution at one thread, which is timed as structural work.
    #[test]
    fn scorer_calls_and_phase_times_match_the_stats_at_any_thread_count() {
        let d = german(400, 71);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        let labels = d.labels().to_vec();
        for threads in [1, 4] {
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let score = toy_score(&labels);
            let counting = |cov: &BitSet| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                score(cov)
            };
            let scorers: Vec<ScoreFn<'_>> = vec![Box::new(counting)];
            let (_, stats) =
                compute_candidates_multi(&table, &scorers, &config, &CoverageCache::new(), threads)
                    .pop()
                    .unwrap();
            assert_eq!(
                calls.load(std::sync::atomic::Ordering::Relaxed),
                stats.total_scored,
                "threads={threads}"
            );
            assert_eq!(
                stats.total_scored,
                stats.levels.iter().map(|l| l.generated).sum::<usize>()
            );
            assert!(
                stats.levels.len() >= 2,
                "the sweep must reach merged levels"
            );
            for level in &stats.levels {
                assert!(
                    level.structural + level.scoring <= level.duration,
                    "threads={threads} level {}: {:?} + {:?} > {:?}",
                    level.level,
                    level.structural,
                    level.scoring,
                    level.duration
                );
                if level.level > 1 {
                    assert!(level.structural > Duration::ZERO, "threads={threads}");
                }
            }
            assert!(stats.levels.iter().any(|l| l.scoring > Duration::ZERO));
        }
    }

    /// A session-sized German table.
    fn german_table(n: usize) -> PredicateTable {
        generate_predicates(&german(n, 93), 4)
    }

    #[test]
    fn singles_are_filtered_by_support() {
        let table = german_table(400);
        let config = LatticeConfig {
            support_threshold: 0.1,
            max_predicates: 1,
            ..Default::default()
        };
        let min = min_count_for(config.support_threshold, table.n_rows());
        assert_eq!(min, 40);
        let (singles, _) = compute_candidates(&table, |_: &BitSet| 0.0, &config);
        let expected: Vec<u16> = table
            .iter()
            .map(|(id, _)| id)
            .filter(|&id| table.coverage(id).count() >= min)
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(singles.len(), expected.len());
        for (s, id) in singles.iter().zip(expected) {
            assert_eq!(s.pattern.ids(), [id]);
            assert_eq!(s.coverage.count(), table.coverage(id).count());
            assert_eq!(s.support, table.coverage(id).count() as f64 / 400.0);
            // Level 1 hands out the table's own bitsets, never copies.
            assert!(Arc::ptr_eq(&s.coverage, table.coverage(id)));
        }
    }

    #[test]
    fn resolve_records_supported_and_failed_merges() {
        let table = german_table(400);
        let cache = CoverageCache::new();
        let min = min_count_for(0.3, table.n_rows());
        let n_preds = table.len() as u16;
        let pair_where = |supported: bool| {
            (0..n_preds)
                .flat_map(|a| (a + 1..n_preds).map(move |b| (a, b)))
                .find(|&(a, b)| {
                    (table.coverage(a).and_count(table.coverage(b)) >= min) == supported
                })
                .expect("τ = 0.3 has supported and failed pairs")
        };
        for supported in [true, false] {
            let (x, y) = pair_where(supported);
            let ids = [x, y];
            let (a, b) = (table.coverage(x), table.coverage(y));
            let misses_before = cache.stats().misses;
            let resolved = resolve_merge(&ids, &cache, min, a, b);
            // Lazy materialization: only a supported merge reaches the
            // coverage cache at all; a failed one is counted, never
            // allocated.
            let misses_after_first = cache.stats().misses;
            match &resolved {
                Some((coverage, count)) => {
                    assert!(supported);
                    assert_eq!(**coverage, a.and(b));
                    assert_eq!(*count, coverage.count());
                    assert_eq!(misses_after_first, misses_before + 1);
                }
                None => {
                    assert!(!supported);
                    assert_eq!(misses_after_first, misses_before);
                    assert!(
                        cache.peek(&ids).is_none(),
                        "failed merges stay unmaterialized"
                    );
                }
            }
            // A second resolve intersects nothing new: the supported merge
            // is a cache hit, the failed one is re-counted.
            let again = resolve_merge(&ids, &cache, min, a, b);
            assert_eq!(
                again.map(|(_, count)| count),
                resolved.map(|(_, count)| count)
            );
            assert_eq!(cache.stats().misses, misses_after_first);
        }
    }

    #[test]
    fn failed_merges_never_touch_the_coverage_cache() {
        // τ = 0.9: virtually every merge fails the support check.
        let table = german_table(400);
        let cache = CoverageCache::new();
        let min = min_count_for(0.9, table.n_rows());
        let entries_before = cache.len();
        let mut resolved = 0usize;
        let mut failed = 0usize;
        for a in 0..8u16 {
            for b in a + 1..8 {
                resolved += 1;
                let (ca, cb) = (table.coverage(a), table.coverage(b));
                if resolve_merge(&[a, b], &cache, min, ca, cb).is_none() {
                    failed += 1;
                }
            }
        }
        assert!(failed > 0, "the tight threshold must fail some merges");
        // Only supported merges add cache entries.
        assert_eq!(cache.len() - entries_before, resolved - failed);
    }

    #[test]
    #[should_panic(expected = "support threshold")]
    fn sweep_rejects_invalid_threshold() {
        let table = german_table(100);
        let config = LatticeConfig {
            support_threshold: 1.0,
            ..Default::default()
        };
        let _ = compute_candidates(&table, |_: &BitSet| 0.0, &config);
    }

    #[test]
    fn pair_chunks_cover_every_index_once() {
        for m in [2usize, 3, 5, 17, 64, 257] {
            for threads in [1usize, 2, 4, 9] {
                let chunks = pair_chunks(m, threads);
                let mut covered = Vec::new();
                for c in &chunks {
                    covered.extend(c.clone());
                }
                assert_eq!(covered, (0..m).collect::<Vec<_>>(), "m={m} t={threads}");
            }
        }
    }
}
