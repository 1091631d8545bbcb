//! The query-oriented explainer API: a long-lived [`ExplainSession`] serving
//! many cheap [`ExplainRequest`]s.
//!
//! The paper's Gopher system is an *interactive* debugging tool: an analyst
//! fixes one trained model and then iterates over fairness metrics, k,
//! support thresholds, and estimators. The expensive state — encoding, model
//! training, influence-engine precomputation (per-example gradients + the
//! factored Hessian), predicate generation, and pattern coverage bitsets —
//! depends only on the *model and data*, while every knob the analyst turns
//! is *per-query*. This module makes that split explicit:
//!
//! * [`SessionBuilder`] → [`ExplainSession`] — pay the per-model setup once;
//! * [`ExplainRequest`] → [`ExplainResponse`] — ask as many questions as you
//!   like against the same session, including batched multi-metric queries
//!   via [`ExplainSession::explain_batch`], which shares one lattice sweep
//!   (structural enumeration + coverage intersection) across requests and
//!   scores every request's candidates in one parallel pass per level;
//! * concurrent callers asking the same question share one sweep too: the
//!   first claims it, the rest wait for its result (single-flight).
//!
//! Results are **bit-identical** to cold [`Gopher`](crate::Gopher) runs with
//! the equivalent [`GopherConfig`](crate::GopherConfig): the session only
//! caches pure functions
//! of the trained model (coverage bitsets, per-metric bias gradients,
//! finished sweeps), never approximations.
//!
//! ```
//! use gopher_core::{ExplainRequest, SessionBuilder};
//! use gopher_data::generators::german;
//! use gopher_fairness::FairnessMetric;
//! use gopher_models::LogisticRegression;
//! use gopher_prng::Rng;
//!
//! let mut rng = Rng::new(0);
//! let (train, test) = german(600, 0).train_test_split(0.3, &mut rng);
//! let session = SessionBuilder::new()
//!     .fit(|n_cols| LogisticRegression::new(n_cols, 1e-3), &train, &test);
//! // Two metrics, one batch, one lattice sweep.
//! let responses = session.explain_batch(&[
//!     ExplainRequest::default().with_k(3),
//!     ExplainRequest::default()
//!         .with_metric(FairnessMetric::EqualOpportunity)
//!         .with_k(3),
//! ]);
//! assert_eq!(responses.len(), 2);
//! assert!(responses[0].report.base_bias > 0.0);
//! ```

use crate::explainer::{Explanation, ExplanationReport, PatternProfile};
use gopher_data::{Dataset, Encoded, Encoder};
use gopher_fairness::FairnessMetric;
use gopher_influence::{
    BiasEval, BiasPrecomp, EngineUpdateReport, Estimator, HessianBackend, InfluenceBackend,
    InfluenceConfig, InfluenceEngine, ModelFamily,
};
use gopher_models::Differentiable;
use gopher_patterns::{
    generate_predicates, lattice, min_count_for, topk, BitSet, Candidate, CoverageCache,
    LatticeConfig, PredicateIndex, PredicateTable, ScoreFn, SearchStats,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

// Session caches lock via `gopher_par::lock_recover`: every cache only ever
// stores fully-built values that are pure functions of the trained model
// (inserts happen after the value is complete), so the data behind a
// poisoned lock is always valid — a caught panic in one query must not
// brick the session for the next.
use gopher_par::lock_recover;

/// Ground-truth responsibility `(F_old − F_new)/F_old` (Definition 3.2),
/// shared by the solo and fanned-out retraining paths so they can never
/// diverge. Zero when the baseline is (numerically) zero — an unbiased
/// model has no root causes to attribute.
fn gt_responsibility(base: f64, new_bias: f64) -> f64 {
    if base.abs() < 1e-12 {
        0.0
    } else {
        (base - new_bias) / base
    }
}

/// Environment variable consulted when [`SessionBuilder::threads`] is left
/// on auto: `GOPHER_THREADS=<n>` pins the worker count (used by CI to run
/// the whole test suite single- and multi-threaded).
pub const THREADS_ENV: &str = "GOPHER_THREADS";

/// Resolves the builder's thread knob: an explicit positive value wins, then
/// [`THREADS_ENV`], then the host's available parallelism.
fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    gopher_par::available_parallelism()
}

/// Builds an [`ExplainSession`]: the per-model options that must be fixed
/// before any query can run (everything else lives on [`ExplainRequest`]).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    max_bins: usize,
    influence: InfluenceConfig,
    threads: usize,
    sweep_cache_cap: usize,
    coverage_cache_cap: usize,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// Default session options (4 quantile bins per numeric feature,
    /// default influence-engine parameters, automatic thread count,
    /// 256-entry scored sweep cache, 2¹⁸-entry coverage cache).
    pub fn new() -> Self {
        Self {
            max_bins: 4,
            influence: InfluenceConfig::default(),
            threads: 0,
            sweep_cache_cap: SWEEP_CACHE_CAP,
            coverage_cache_cap: gopher_patterns::coverage::DEFAULT_COVERAGE_CACHE_CAP,
        }
    }

    /// Quantile bins per numeric feature for predicate generation.
    #[must_use]
    pub fn max_bins(mut self, max_bins: usize) -> Self {
        self.max_bins = max_bins;
        self
    }

    /// Influence-engine parameters (damping, CG budget, …).
    #[must_use]
    pub fn influence(mut self, influence: InfluenceConfig) -> Self {
        self.influence = influence;
        self
    }

    /// Worker threads for every query: each lattice level's merge
    /// resolution and score pass, structural sweep groups, and ground-truth
    /// retrains all fan out across this many threads. `0` (the default)
    /// resolves to the `GOPHER_THREADS` environment variable if set, else
    /// the host's available parallelism.
    /// Results are bit-identical at every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Retention bound of the scored sweep cache (finished lattice sweeps),
    /// in entries. Past the cap the least-recently-used sweep is evicted;
    /// `0` disables retention entirely (every query recomputes its sweep).
    #[must_use]
    pub fn sweep_cache_cap(mut self, cap: usize) -> Self {
        self.sweep_cache_cap = cap;
        self
    }

    /// Retention bound of the coverage cache (materialized pattern coverage
    /// bitsets shared across sweeps — the session's structural memo), in
    /// entries. Past the cap fresh coverages are still computed and
    /// returned but not retained; `0` disables retention entirely (every
    /// sweep re-intersects — the *cold-path* configuration the
    /// `support_sweep` bench measures against).
    #[must_use]
    pub fn coverage_cache_cap(mut self, cap: usize) -> Self {
        self.coverage_cache_cap = cap;
        self
    }

    /// Builds a session around an **already trained** model. The model must
    /// have been trained on `Encoder::fit(train_raw)`-encoded data;
    /// influence functions assume its parameters are a stationary point.
    ///
    /// # Panics
    /// If the model's input width does not match the encoded data.
    pub fn build<M: ModelFamily>(
        self,
        model: M,
        train_raw: &Dataset,
        test_raw: &Dataset,
    ) -> ExplainSession<M> {
        let encoder = Encoder::fit(train_raw);
        let train = encoder.transform(train_raw);
        let test = encoder.transform(test_raw);
        assert_eq!(
            model.n_inputs(),
            train.n_cols(),
            "model input width must match the encoded data"
        );
        let backend = M::Backend::build(model, &train, self.influence.clone());
        let table = generate_predicates(train_raw, self.max_bins);
        let coverage = CoverageCache::with_capacity_cap(self.coverage_cache_cap);
        // Materialize every predicate's coverage once, up front: sweeps at
        // any support threshold or metric start from these shared bitsets.
        let index = PredicateIndex::build(&table, &coverage);
        let accuracy = gopher_models::train::accuracy(backend.model(), &test);
        ExplainSession {
            train_raw: train_raw.clone(),
            encoder,
            train,
            test,
            backend,
            table,
            index,
            accuracy,
            threads: resolve_threads(self.threads),
            coverage,
            bias_cache: Mutex::new(HashMap::new()),
            sweep_cache: Mutex::new(LruCache::new(self.sweep_cache_cap)),
            flights: Mutex::new(HashMap::new()),
            requests_served: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            factor_fallbacks: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Convenience constructor that encodes the data, builds the model via
    /// `make_model(n_encoded_cols)`, trains it to convergence, and wraps it.
    pub fn fit<M: ModelFamily>(
        self,
        make_model: impl FnOnce(usize) -> M,
        train_raw: &Dataset,
        test_raw: &Dataset,
    ) -> ExplainSession<M> {
        let encoder = Encoder::fit(train_raw);
        let train = encoder.transform(train_raw);
        let mut model = make_model(train.n_cols());
        ModelFamily::fit(&mut model, &train);
        self.build(model, train_raw, test_raw)
    }
}

/// One explanation query against an [`ExplainSession`]: everything an
/// analyst iterates over between questions, none of the per-model state.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// Fairness metric to debug.
    pub metric: FairnessMetric,
    /// Number of explanations to return.
    pub k: usize,
    /// Containment threshold `c` for diversity (Definition 3.7).
    pub containment_threshold: f64,
    /// Lattice search parameters (support threshold τ, depth, pruning).
    pub lattice: LatticeConfig,
    /// Influence estimator used to score candidate patterns.
    pub estimator: Estimator,
    /// How estimated parameter changes become bias changes.
    pub bias_eval: BiasEval,
    /// Retrain without each top-k subset to report ground-truth Δbias
    /// (the paper reports this for every table; costs k retrainings).
    pub ground_truth_for_topk: bool,
    /// Re-score the top candidates with the second-order estimator before
    /// the final ranking (cheap: only the survivors of the containment
    /// filter are re-scored). Off by default to match the paper.
    pub rescore_top_with_so: bool,
}

impl Default for ExplainRequest {
    fn default() -> Self {
        Self {
            metric: FairnessMetric::StatisticalParity,
            k: 3,
            containment_threshold: 0.75,
            lattice: LatticeConfig::default(),
            estimator: Estimator::SecondOrder,
            bias_eval: BiasEval::ChainRule,
            ground_truth_for_topk: true,
            rescore_top_with_so: false,
        }
    }
}

impl ExplainRequest {
    /// Sets the fairness metric.
    #[must_use]
    pub fn with_metric(mut self, metric: FairnessMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the number of explanations to return.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the influence estimator.
    #[must_use]
    pub fn with_estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the minimum pattern support threshold τ.
    #[must_use]
    pub fn with_support_threshold(mut self, tau: f64) -> Self {
        self.lattice.support_threshold = tau;
        self
    }

    /// Sets the maximum number of predicates per pattern.
    #[must_use]
    pub fn with_max_predicates(mut self, depth: usize) -> Self {
        self.lattice.max_predicates = depth;
        self
    }

    /// Enables or disables ground-truth verification of the top-k patterns.
    #[must_use]
    pub fn with_ground_truth(mut self, on: bool) -> Self {
        self.ground_truth_for_topk = on;
        self
    }
}

/// The answer to one [`ExplainRequest`].
#[derive(Debug, Clone)]
pub struct ExplainResponse {
    /// The request this response answers (echoed for batch bookkeeping).
    pub request: ExplainRequest,
    /// The explanation report, identical in content to what a cold
    /// [`Gopher`](crate::Gopher) run with the equivalent config produces.
    pub report: ExplanationReport,
    /// Wall-clock time this request cost the session, including the lattice
    /// sweep when this request was the first in its batch to need it, or
    /// the wait when another caller was already computing that sweep. A
    /// repeat of a cached request (or a batch peer sharing a sweep) reports
    /// only its own selection and ground-truth time — near zero with ground
    /// truth off.
    pub query_time: Duration,
}

/// What one [`ExplainSession::update`] did: the delta's shape, the
/// influence-engine path taken, and how much structural work it discarded.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Rows removed from the training set.
    pub rows_removed: usize,
    /// Rows appended to the training set.
    pub rows_added: usize,
    /// Training rows after the delta.
    pub n_rows: usize,
    /// The influence-engine delta report: whether the Cholesky patch held,
    /// whether the engine fell back to a full rebuild, and the warm-retrain
    /// diagnostics.
    pub engine: EngineUpdateReport,
    /// Merged-pattern coverages the delta discarded: every coverage the
    /// session had materialized for a pattern of two or more predicates
    /// ranges over the old rows, so the update drops them all (later
    /// sweeps re-intersect what they need).
    pub artifacts_invalidated: usize,
    /// Wall-clock cost of applying the delta end to end.
    pub update_time: Duration,
}

/// Hashable identity of the *structural* half of a lattice sweep: the
/// parameters candidate enumeration depends on, none of the scoring.
/// Claimed requests with the same `StructuralKey` run as one multi-scorer
/// sweep — pattern enumeration and support counting run once across all
/// their metrics, estimators, and bias-evals.
///
/// The support threshold enters as the **integer count** `⌈τ·n⌉` a pattern
/// must clear, not τ's bit pattern: the sweep never consults τ except
/// through that count, so any two thresholds with the same `min_count`
/// (including the `-0.0`/`0.0` pair, whose `f64::to_bits` differ) are the
/// *same* structural configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StructuralKey {
    min_count: usize,
    max_predicates: usize,
    prune_by_responsibility: bool,
    max_level_candidates: Option<usize>,
}

impl StructuralKey {
    fn of(lattice: &LatticeConfig, n_rows: usize) -> Self {
        Self {
            min_count: min_count_for(lattice.support_threshold, n_rows),
            max_predicates: lattice.max_predicates,
            prune_by_responsibility: lattice.prune_by_responsibility,
            max_level_candidates: lattice.max_level_candidates,
        }
    }
}

/// Hashable identity of the *scoring* half of a sweep: the metric ×
/// estimator × bias-eval triple that turns a coverage into a responsibility.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScoringKey {
    metric: FairnessMetric,
    estimator: (u8, u64),
    bias_eval: BiasEval,
}

/// Full identity of a scored sweep: structural part + scoring part. Two
/// requests with the same `SweepKey` share one scored `compute_candidates`
/// result exactly; requests agreeing only on the structural part share a
/// sweep's enumeration when claimed together, and the coverage cache
/// always.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SweepKey {
    structural: StructuralKey,
    scoring: ScoringKey,
}

impl SweepKey {
    fn of(req: &ExplainRequest, n_rows: usize) -> Self {
        Self {
            structural: StructuralKey::of(&req.lattice, n_rows),
            scoring: ScoringKey {
                metric: req.metric,
                estimator: estimator_key(req.estimator),
                bias_eval: req.bias_eval,
            },
        }
    }
}

/// Canonical bit pattern for an `f64` embedded in a cache key: `-0.0`
/// normalizes to `0.0` first, so numerically equal configurations share one
/// cache entry instead of silently duplicating artifacts (the structural
/// τ-key bug fixed in PR 5 — now denied workspace-wide by `gopher-analyze`'s
/// `float-bits-key` rule).
fn canonical_f64_key_bits(x: f64) -> u64 {
    let x = if x == 0.0 { 0.0 } else { x };
    // gopher-lint: allow(float-bits-key) — the canonicalization helper itself
    x.to_bits()
}

fn estimator_key(e: Estimator) -> (u8, u64) {
    match e {
        Estimator::FirstOrder => (0, 0),
        Estimator::SecondOrder => (1, 0),
        Estimator::NewtonStep => (2, 0),
        Estimator::OneStepGd { learning_rate } => (3, canonical_f64_key_bits(learning_rate)),
    }
}

/// Default cap on retained scored sweep results. A sweep's candidate vector
/// is the largest thing a session caches, so — like the coverage cache —
/// retention is bounded: past the cap, the least-recently-used sweep is
/// evicted (tunable via [`SessionBuilder::sweep_cache_cap`]).
const SWEEP_CACHE_CAP: usize = 256;

/// A finished scored lattice sweep, cached per [`SweepKey`] for the
/// session's lifetime (candidates are pure functions of the trained model).
struct SweepResult {
    candidates: Vec<Candidate>,
    stats: SearchStats,
    /// Wall-clock cost of the sweep when it actually ran (reported as the
    /// search time of every request that reuses it).
    duration: Duration,
}

/// One scored sweep being computed. The caller that claimed its key runs
/// it; every caller asking for the key meanwhile waits here for the result
/// instead of sweeping again.
#[derive(Default)]
struct Flight {
    /// `None` while the owner sweeps, then the sweep — or `Some(None)` when
    /// the owner unwound before finishing.
    outcome: Mutex<Option<Option<Arc<SweepResult>>>>,
    settled: Condvar,
}

impl Flight {
    fn settle(&self, sweep: Option<Arc<SweepResult>>) {
        *lock_recover(&self.outcome) = Some(sweep);
        self.settled.notify_all();
    }

    /// Blocks until the owner settles: its sweep, or `None` if it unwound
    /// (the waiter then sweeps the key itself).
    fn wait(&self) -> Option<Arc<SweepResult>> {
        let outcome = self
            .settled
            .wait_while(lock_recover(&self.outcome), |outcome| outcome.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        outcome.clone().flatten()
    }
}

/// The sweep keys one [`ExplainSession::explain_batch`] call claimed.
/// Dropping it — on return, or while unwinding from a panicked sweep —
/// settles every claim still open as abandoned, so no waiter hangs.
struct Claims<'s> {
    flights: &'s Mutex<HashMap<SweepKey, Arc<Flight>>>,
    owned: Vec<(SweepKey, Arc<Flight>)>,
}

impl Claims<'_> {
    /// Hands a claimed key's finished sweep to everyone waiting on it.
    fn land(&self, key: &SweepKey, sweep: &Arc<SweepResult>) {
        if let Some(flight) = lock_recover(self.flights).remove(key) {
            flight.settle(Some(Arc::clone(sweep)));
        }
    }
}

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        let mut flights = lock_recover(self.flights);
        for (key, flight) in &self.owned {
            if flights.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                flights.remove(key);
                flight.settle(None);
            }
        }
    }
}

/// LRU-bounded map with hit/miss/eviction counters, backing the scored
/// sweep cache ([`SweepKey`] → [`SweepResult`]). The counters are the
/// serving deployment's observability surface — see
/// [`ExplainSession::stats`].
struct LruCache<K, V> {
    entries: HashMap<K, LruSlot<V>>,
    /// Logical clock bumped on every access; slots carry the tick of their
    /// last use, and eviction removes the minimum.
    tick: u64,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct LruSlot<V> {
    value: V,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            tick: 0,
            cap,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Counter bumps for callers that drive lookups through
    /// [`Self::get_quiet`] plus their own matching logic (the single-flight
    /// path): classification happens outside, the tallies live here.
    fn note_hit(&mut self) {
        self.hits += 1;
    }

    fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Looks `key` up, refreshing its recency but not the hit/miss
    /// counters: callers classify the lookup and count it themselves.
    fn get_quiet(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|slot| {
            slot.last_used = tick;
            slot.value.clone()
        })
    }

    /// Drops every cached value while preserving the hit/miss/eviction
    /// counters and the recency clock: a data update invalidates *values*,
    /// not the session's serving history.
    fn clear_values(&mut self) {
        self.entries.clear();
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
    /// if the cache is at capacity. With `cap == 0` nothing is retained.
    fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.cap {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            LruSlot {
                value,
                last_used: self.tick,
            },
        );
    }
}

/// Linear sub-buckets per power of two in the latency histogram: every
/// bucket from 16 µs up spans at most 1/16 of its lower bound, so a
/// reported quantile is within 6.25% of the recorded value (values under
/// 16 µs get a bucket each).
const LATENCY_SUB_BITS: u32 = 4;

/// Buckets covering every `u64` microsecond value: 16 exact ones, then 16
/// per power of two from `2^4` to `2^63`.
const LATENCY_BUCKETS: usize = (64 - LATENCY_SUB_BITS as usize + 1) << LATENCY_SUB_BITS;

/// The histogram bucket a latency of `us` microseconds lands in.
fn latency_bucket(us: u64) -> usize {
    let sub = 1u64 << LATENCY_SUB_BITS;
    if us < sub {
        return us as usize;
    }
    // `us` lies in [2^e, 2^(e+1)); its sub-bucket is the next SUB_BITS bits.
    let e = 63 - us.leading_zeros();
    let shift = e - LATENCY_SUB_BITS;
    (((shift + 1) as usize) << LATENCY_SUB_BITS) + ((us >> shift) - sub) as usize
}

/// The largest latency (µs) that lands in bucket `idx`.
fn latency_bucket_max(idx: usize) -> u64 {
    let sub = 1usize << LATENCY_SUB_BITS;
    if idx < sub {
        return idx as u64;
    }
    let shift = (idx >> LATENCY_SUB_BITS) as u32 - 1;
    let lo = ((sub + idx % sub) as u64) << shift;
    lo + ((1u64 << shift) - 1)
}

/// Lock-free fixed-boundary histogram of per-request explain latency.
///
/// Recording is one relaxed atomic increment fed from the `query_time` each
/// request already measures — the scored paths gain **no** new clock reads —
/// and the boundaries are fixed (log-linear: 16 linear buckets per power of
/// two), so concurrent recording never contends or rebalances. Quantiles
/// are answered as the largest value of the bucket containing the target
/// rank: conservative, and within 6.25% of the recorded latency.
struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
}

impl LatencyHistogram {
    fn new() -> Self {
        Self {
            buckets: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[latency_bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Largest value (µs) of the bucket holding quantile `q` of everything
    /// recorded so far; 0 when nothing has been recorded.
    fn quantile_upper_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return latency_bucket_max(i);
            }
        }
        u64::MAX
    }
}

/// Counters a serving deployment watches: effectiveness of both cache
/// layers (scored sweeps, coverage bitsets) and the session's parallelism.
/// Snapshot via [`ExplainSession::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Worker threads the session fans batched queries across.
    pub threads: usize,
    /// Finished scored sweeps currently retained.
    pub sweep_entries: usize,
    /// Capacity bound on retained scored sweeps (LRU past this).
    pub sweep_cache_cap: usize,
    /// Requests answered from a cached scored sweep, from another caller's
    /// sweep of the same key still in flight, or from an earlier request of
    /// the same batch.
    pub sweep_hits: u64,
    /// Requests that had to run (or re-run) their scored sweep.
    pub sweep_misses: u64,
    /// Scored sweeps evicted to respect the cap.
    pub sweep_evictions: u64,
    /// Materialized pattern coverages shared across sweeps.
    pub cached_coverages: usize,
    /// Coverage-cache lookups answered without intersecting.
    pub coverage_hits: u64,
    /// Coverage-cache lookups that computed their intersection.
    pub coverage_misses: u64,
    /// Fresh coverages the coverage-cache cap refused to retain (nonzero
    /// means the cap is too small for the workload).
    pub coverage_inserts_refused: u64,
    /// Total explanation requests answered (every entry point funnels
    /// through [`ExplainSession::explain_batch`]). Registry-facing: the
    /// per-session traffic counter a serving deployment watches.
    pub requests_served: u64,
    /// Data deltas applied via [`ExplainSession::update`].
    pub updates_applied: u64,
    /// Updates whose influence-engine delta fell back — a refactorization
    /// after a failed factor patch, or a full engine rebuild (drift bound,
    /// warm-retrain stall, non-analytic model). Fallbacks trade the speedup
    /// for exactness; a high rate means deltas are too large relative to n.
    pub factor_fallbacks: u64,
    /// Median per-request explain latency in µs (the largest value of its
    /// bucket in the session's log-linear histogram, within 6.25% of the
    /// recorded latency; 0 until a request runs).
    pub explain_p50_us: u64,
    /// 99th-percentile per-request explain latency in µs (same histogram).
    pub explain_p99_us: u64,
}

/// A long-lived explainer bound to one trained model.
///
/// Owns everything expensive — the raw and encoded data, the influence
/// engine (per-example gradients + factored Hessian), the predicate table, a
/// [`CoverageCache`] of materialized pattern bitsets, per-metric bias
/// precomputations, and finished sweeps — and answers [`ExplainRequest`]s
/// against that state. All caches sit behind mutexes, so a session is `Sync`
/// and can serve concurrent `&self` queries.
pub struct ExplainSession<M: ModelFamily> {
    train_raw: Dataset,
    encoder: Encoder,
    train: Encoded,
    test: Encoded,
    backend: M::Backend,
    table: PredicateTable,
    /// Every predicate's coverage bitset, materialized once at build.
    index: PredicateIndex,
    accuracy: f64,
    threads: usize,
    coverage: CoverageCache,
    bias_cache: Mutex<HashMap<FairnessMetric, BiasPrecomp>>,
    /// Finished scored sweeps, keyed by structural × scoring.
    sweep_cache: Mutex<LruCache<SweepKey, Arc<SweepResult>>>,
    /// Scored sweeps some caller is computing right now. A caller holding
    /// both locks takes `sweep_cache` first.
    flights: Mutex<HashMap<SweepKey, Arc<Flight>>>,
    /// Total [`ExplainRequest`]s this session has answered (every entry
    /// point funnels through [`Self::explain_batch`]). Registry-facing: a
    /// serving deployment's per-session traffic counter.
    requests_served: AtomicU64,
    /// Data deltas applied via [`Self::update`].
    updates_applied: AtomicU64,
    /// Updates whose engine delta refactored or fully rebuilt.
    factor_fallbacks: AtomicU64,
    /// Per-request explain latency, fed from each response's `query_time`.
    latency: LatencyHistogram,
}

impl<M: ModelFamily> ExplainSession<M> {
    /// The trained model.
    pub fn model(&self) -> &M {
        self.backend.model()
    }

    /// The fitted encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The encoded training set.
    pub fn train(&self) -> &Encoded {
        &self.train
    }

    /// The encoded test set.
    pub fn test(&self) -> &Encoded {
        &self.test
    }

    /// The raw training dataset.
    pub fn train_raw(&self) -> &Dataset {
        &self.train_raw
    }

    /// The influence backend behind this session (family-generic).
    pub fn backend(&self) -> &M::Backend {
        &self.backend
    }

    /// The influence engine (for advanced Hessian-side queries: per-row
    /// gradients, parameter changes, the factored Hessian). Only available
    /// when the session's family is Hessian-backed — a forest session fails
    /// to *type-check* here instead of panicking at runtime.
    pub fn engine(&self) -> &InfluenceEngine<M>
    where
        M: ModelFamily<Backend = HessianBackend<M>> + Differentiable,
    {
        self.backend.engine()
    }

    /// The candidate predicate table.
    pub fn predicate_table(&self) -> &PredicateTable {
        &self.table
    }

    /// Test accuracy of the model (computed once at session build).
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Worker threads batched queries fan out across (resolved at build
    /// from [`SessionBuilder::threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the session's serving counters: hits, misses, and
    /// evictions of the scored sweep cache and the coverage cache, plus
    /// retained entries and the thread count.
    pub fn stats(&self) -> SessionStats {
        let coverage = self.coverage.stats();
        let sweep = lock_recover(&self.sweep_cache);
        SessionStats {
            threads: self.threads,
            sweep_entries: sweep.entries.len(),
            sweep_cache_cap: sweep.cap,
            sweep_hits: sweep.hits,
            sweep_misses: sweep.misses,
            sweep_evictions: sweep.evictions,
            cached_coverages: coverage.entries,
            coverage_hits: coverage.hits,
            coverage_misses: coverage.misses,
            coverage_inserts_refused: coverage.inserts_refused,
            requests_served: self.requests_served.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            factor_fallbacks: self.factor_fallbacks.load(Ordering::Relaxed),
            explain_p50_us: self.latency.quantile_upper_us(0.50),
            explain_p99_us: self.latency.quantile_upper_us(0.99),
        }
    }

    /// Hard bias of the model under `metric` on the test set (cached).
    pub fn base_bias(&self, metric: FairnessMetric) -> f64 {
        self.bias_precomp(metric).base_hard
    }

    /// Number of materialized pattern coverages the session has cached.
    pub fn cached_coverages(&self) -> usize {
        self.coverage.len()
    }

    /// Answers one request. Equivalent to `explain_batch` with a singleton
    /// slice; the response content matches a cold
    /// [`Gopher`](crate::Gopher) run with the equivalent config bit for bit.
    pub fn explain(&self, request: &ExplainRequest) -> ExplainResponse {
        self.explain_batch(std::slice::from_ref(request))
            .pop()
            .expect("one request in, one response out")
    }

    /// Answers a batch of requests, sharing and fanning out work wherever
    /// the requests allow:
    ///
    /// * requests with identical structural lattice parameters share **one
    ///   sweep** — the structural enumeration and every coverage
    ///   intersection run once, and each level scores the candidates of
    ///   every request (metric × estimator × bias-eval) in one parallel
    ///   pass across the session's worker threads, so even a solo cold
    ///   request uses every thread;
    /// * distinct structural groups run **concurrently**, each on its own
    ///   worker;
    /// * requests with identical scoring too (differing only in k,
    ///   containment, or ground-truth flags) share the sweep *result*;
    /// * a sweep another caller is already computing is **not** computed
    ///   again: this call waits for that caller's result (single-flight, at
    ///   any sweep-cache cap), after it has finished its own sweeps;
    /// * all sweeps consult the session's coverage cache, so later batches
    ///   and queries skip intersections any earlier query materialized;
    /// * ground-truth retrains for each answer's top-k fan out per pattern.
    ///
    /// Responses come back in request order, each with content identical to
    /// a cold run of that request alone — at any thread count.
    pub fn explain_batch(&self, requests: &[ExplainRequest]) -> Vec<ExplainResponse> {
        self.requests_served
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let n_rows = self.table.n_rows();
        let keys: Vec<SweepKey> = requests.iter().map(|r| SweepKey::of(r, n_rows)).collect();

        // Resolve every request's sweep under the cache lock, charging the
        // hit/miss counters once per request: cached, or in flight for
        // another caller (waited on below), or an earlier request of this
        // batch already claimed it — a hit; otherwise a miss, and this batch
        // claims the key. Each ready sweep carries the time to charge to
        // the first request answered from it (see `query_time`).
        let mut ready: HashMap<SweepKey, (Arc<SweepResult>, Duration)> = HashMap::new();
        let mut waits: Vec<(SweepKey, &ExplainRequest, Arc<Flight>)> = Vec::new();
        let mut missing: Vec<(SweepKey, &ExplainRequest)> = Vec::new();
        let mut claims = Claims {
            flights: &self.flights,
            owned: Vec::new(),
        };
        {
            let mut cache = lock_recover(&self.sweep_cache);
            let mut flights = lock_recover(&self.flights);
            for (key, req) in keys.iter().zip(requests) {
                if let Some(sweep) = cache.get_quiet(key) {
                    cache.note_hit();
                    ready.insert(key.clone(), (sweep, Duration::ZERO));
                } else if let Some(flight) = flights.get(key) {
                    cache.note_hit();
                    let ours = missing.iter().any(|(k, _)| k == key);
                    if !ours && !waits.iter().any(|(k, ..)| k == key) {
                        waits.push((key.clone(), req, Arc::clone(flight)));
                    }
                } else {
                    cache.note_miss();
                    let flight = Arc::new(Flight::default());
                    flights.insert(key.clone(), Arc::clone(&flight));
                    claims.owned.push((key.clone(), flight));
                    missing.push((key.clone(), req));
                }
            }
        }

        // Claimed sweeps, grouped by structural lattice config (first-seen
        // order keeps runs deterministic).
        struct Group<'r> {
            structural: StructuralKey,
            lattice: LatticeConfig,
            members: Vec<(SweepKey, &'r ExplainRequest)>,
        }
        let mut structural_groups: Vec<Group<'_>> = Vec::new();
        for (key, req) in missing {
            let structural = key.structural.clone();
            match structural_groups
                .iter_mut()
                .find(|g| g.structural == structural)
            {
                Some(group) => group.members.push((key, req)),
                None => structural_groups.push(Group {
                    structural,
                    lattice: req.lattice.clone(),
                    members: vec![(key, req)],
                }),
            }
        }

        // Distinct structural groups are independent sweeps: fan them out,
        // splitting the thread budget between the group level and each
        // group's level pipeline so nesting can't oversubscribe to
        // ~threads² live workers. Each group hands its sweeps to their
        // waiters as soon as it finishes; this batch keeps them too, so it
        // answers without a second lookup even past the LRU cap.
        let outer = self.threads.min(structural_groups.len()).max(1);
        let inner = (self.threads / outer).max(1);
        let group_results = gopher_par::par_map(outer, &structural_groups, |_, group| {
            let sweeps = self.run_sweeps(&group.lattice, &group.members, inner);
            for (key, sweep) in &sweeps {
                claims.land(key, sweep);
            }
            sweeps
        });
        for (key, sweep) in group_results.into_iter().flatten() {
            let duration = sweep.duration;
            ready.insert(key, (sweep, duration));
        }

        // Only now, with every claim of this batch landed, wait on other
        // callers' flights: a batch never blocks while holding a claim, so
        // crossing batches cannot deadlock. A flight whose owner unwound is
        // swept here instead.
        for (key, req, flight) in waits {
            let t_wait = Instant::now();
            let sweep = flight.wait().unwrap_or_else(|| {
                self.run_sweeps(&req.lattice, &[(key.clone(), req)], self.threads)
                    .pop()
                    .expect("one member in, one sweep out")
                    .1
            });
            ready.insert(key, (sweep, t_wait.elapsed()));
        }

        keys.iter()
            .zip(requests)
            .map(|(key, req)| {
                let (sweep, charge) = ready.get_mut(key).expect("every key resolved above");
                let response = self.answer(sweep, req, std::mem::take(charge));
                // Feed the latency histogram from the duration the response
                // already carries — no extra clock reads on the scored path.
                self.latency.record(response.query_time);
                response
            })
            .collect()
    }

    /// Runs one multi-scorer sweep for all `members` (same structural
    /// lattice config, distinct scoring) over the session's predicate index
    /// and coverage cache, running the level pipeline on up to `threads`
    /// workers (the batched path splits the session budget between
    /// concurrent groups and their pipelines). Results are cached subject to
    /// the LRU bound and returned for this batch.
    fn run_sweeps(
        &self,
        lattice_cfg: &LatticeConfig,
        members: &[(SweepKey, &ExplainRequest)],
        threads: usize,
    ) -> Vec<(SweepKey, Arc<SweepResult>)> {
        let scorers: Vec<ScoreFn<'_>> = members
            .iter()
            .map(|(_, req)| {
                let scorer = self.backend.scorer(
                    &self.train,
                    &self.test,
                    req.metric,
                    self.bias_precomp(req.metric),
                    req.estimator,
                    req.bias_eval,
                );
                Box::new(move |cov: &BitSet| scorer(&cov.to_indices())) as ScoreFn<'_>
            })
            .collect();
        let results = lattice::compute_candidates_multi(
            &self.table,
            &scorers,
            lattice_cfg,
            &self.coverage,
            &self.index,
            threads,
        );
        let mut fresh_sweeps = Vec::with_capacity(members.len());
        let mut cache = lock_recover(&self.sweep_cache);
        for ((key, _), (candidates, stats)) in members.iter().zip(results) {
            let duration = stats.levels.iter().map(|l| l.duration).sum();
            let sweep = Arc::new(SweepResult {
                candidates,
                stats,
                duration,
            });
            cache.insert(key.clone(), Arc::clone(&sweep));
            fresh_sweeps.push((key.clone(), sweep));
        }
        fresh_sweeps
    }

    /// Builds the response for one request from its sweep. `charge` is the
    /// time spent getting that sweep on this request's behalf — the sweep
    /// itself, or the wait for another caller's — and lands in its
    /// `query_time`.
    fn answer(
        &self,
        sweep: &SweepResult,
        req: &ExplainRequest,
        charge: Duration,
    ) -> ExplainResponse {
        let t_query = Instant::now();
        let precomp = self.bias_precomp(req.metric);
        let t_select = Instant::now();
        let mut selected = topk::top_k(&sweep.candidates, req.k, req.containment_threshold);
        if req.rescore_top_with_so {
            let scorer = self.backend.scorer(
                &self.train,
                &self.test,
                req.metric,
                precomp.clone(),
                Estimator::SecondOrder,
                req.bias_eval,
            );
            for cand in &mut selected {
                let rows = cand.coverage.to_indices();
                cand.responsibility = scorer(&rows);
                cand.interestingness = cand.responsibility / cand.support;
            }
            selected.sort_by(|a, b| b.interestingness.total_cmp(&a.interestingness));
        }
        let search_time = sweep.duration + t_select.elapsed();

        // Ground truth is the per-answer hot path (one full retrain per
        // pattern), so the k retrains fan out across the worker threads;
        // everything else about finalization is cheap and stays inline.
        let explanations: Vec<Explanation> = if req.ground_truth_for_topk {
            let subsets: Vec<Vec<u32>> = selected
                .iter()
                .map(|candidate| candidate.coverage.to_indices())
                .collect();
            let models = self.backend.ground_truth_models(
                &self.train,
                &subsets,
                self.threads.min(subsets.len()),
            );
            // The baseline bias never changes within an answer.
            let base = gopher_fairness::bias(req.metric, self.backend.model(), &self.test);
            selected
                .into_iter()
                .zip(models)
                .map(|(candidate, model)| {
                    let new_bias = gopher_fairness::bias(req.metric, &model, &self.test);
                    let resp = gt_responsibility(base, new_bias);
                    Explanation {
                        pattern_text: candidate
                            .pattern
                            .render(&self.table, self.train_raw.schema()),
                        support: candidate.support,
                        est_responsibility: candidate.responsibility,
                        ground_truth_responsibility: Some(resp),
                        ground_truth_new_bias: Some(new_bias),
                        candidate,
                    }
                })
                .collect()
        } else {
            selected
                .into_iter()
                .map(|candidate| self.finalize_explanation(candidate, req))
                .collect()
        };

        let report = ExplanationReport {
            metric: req.metric,
            base_bias: precomp.base_hard,
            accuracy: self.accuracy,
            explanations,
            stats: sweep.stats.clone(),
            search_time,
        };
        ExplainResponse {
            request: req.clone(),
            report,
            query_time: t_query.elapsed() + charge,
        }
    }

    fn finalize_explanation(&self, candidate: Candidate, req: &ExplainRequest) -> Explanation {
        let pattern_text = candidate
            .pattern
            .render(&self.table, self.train_raw.schema());
        let (gt_resp, gt_new) = if req.ground_truth_for_topk {
            let rows = candidate.coverage.to_indices();
            let (resp, new_bias) = self.ground_truth_responsibility(req.metric, &rows);
            (Some(resp), Some(new_bias))
        } else {
            (None, None)
        };
        Explanation {
            pattern_text,
            support: candidate.support,
            est_responsibility: candidate.responsibility,
            ground_truth_responsibility: gt_resp,
            ground_truth_new_bias: gt_new,
            candidate,
        }
    }

    /// Descriptive statistics of a pattern's coverage, for reports: how the
    /// covered rows differ from the rest of the training data in label and
    /// group composition. This is the "why is this subset responsible"
    /// context a reviewer needs next to the raw responsibility number.
    pub fn pattern_profile(&self, candidate: &Candidate) -> PatternProfile {
        let n = self.train.n_rows();
        let mut in_pos = 0usize;
        let mut in_priv = 0usize;
        let mut in_count = 0usize;
        let mut out_pos = 0usize;
        let mut out_priv = 0usize;
        for r in 0..n {
            let covered = candidate.coverage.contains(r);
            let pos = self.train.y[r] == 1.0;
            let priv_ = self.train.privileged[r];
            if covered {
                in_count += 1;
                in_pos += usize::from(pos);
                in_priv += usize::from(priv_);
            } else {
                out_pos += usize::from(pos);
                out_priv += usize::from(priv_);
            }
        }
        let out_count = n - in_count;
        let frac = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        PatternProfile {
            rows: in_count,
            positive_rate: frac(in_pos, in_count),
            privileged_rate: frac(in_priv, in_count),
            rest_positive_rate: frac(out_pos, out_count),
            rest_privileged_rate: frac(out_priv, out_count),
        }
    }

    /// Ground-truth responsibility of an arbitrary row subset under
    /// `metric` (retrains without the subset).
    pub fn ground_truth_responsibility(&self, metric: FairnessMetric, rows: &[u32]) -> (f64, f64) {
        let model = self.backend.ground_truth_model(&self.train, rows);
        let new_bias = gopher_fairness::bias(metric, &model, &self.test);
        let base = gopher_fairness::bias(metric, self.backend.model(), &self.test);
        (gt_responsibility(base, new_bias), new_bias)
    }

    /// Applies a training-data delta — `removed` row indices dropped,
    /// `added` rows (same schema) appended — **incrementally**, without
    /// re-paying the session build.
    ///
    /// Featurization is *frozen*: the encoder's statistics and the predicate
    /// thresholds/bins fixed at session build stay as they are, so
    /// explanations before and after a delta range over the same predicate
    /// space and the same feature scaling (re-binning under the analyst
    /// would silently change what patterns mean). Under that contract the
    /// updated session is equivalent to [`Self::cold_rebuild`] — a
    /// from-scratch session over the new data with the same frozen
    /// featurization:
    ///
    /// * the **model** is warm-retrained to the same convergence tolerance
    ///   on the true post-delta gradient, its Hessian re-assembled
    ///   incrementally and its Cholesky factor patched by rank-1
    ///   updates/downdates (falling back to a verified refactorization or a
    ///   full engine rebuild when the patch drifts — see
    ///   [`EngineUpdateReport`]), so parameters match a cold fit within the
    ///   trainer's tolerance;
    /// * **predicate coverages** are bitset-patched (prefix-sum remap +
    ///   matching only the appended rows), bit-identical to re-evaluating
    ///   the frozen predicates, and indexed into a fresh coverage cache;
    ///   merged-pattern coverages range over the old rows and are dropped
    ///   (counted in [`UpdateReport::artifacts_invalidated`]), so later
    ///   sweeps re-intersect what they need;
    /// * **scored sweeps and bias gradients** are invalidated wholesale
    ///   (they depend on the model's parameters, which moved).
    ///
    /// # Panics
    /// If a removed index is out of range or listed twice, if `added`'s
    /// schema differs from the training schema, or if the delta would leave
    /// the training set empty.
    pub fn update(&mut self, removed: &[usize], added: &Dataset) -> UpdateReport {
        let t0 = Instant::now();
        let n_old = self.train_raw.n_rows();
        let mut mask = vec![false; n_old];
        for &r in removed {
            assert!(r < n_old, "update: removed row {r} out of range ({n_old})");
            assert!(!mask[r], "update: removed row {r} listed twice");
            mask[r] = true;
        }
        let new_raw = self.train_raw.patched(&mask, added);
        assert!(
            new_raw.n_rows() > 0,
            "update: delta would leave the training set empty"
        );
        // Encoding is row-wise under the frozen layout, so patching the
        // encoded matrix (drop removed rows, append the transformed delta)
        // is bit-identical to `self.encoder.transform(&new_raw)` without
        // re-encoding the unchanged rows.
        let new_train = self.train.patched(&mask, &self.encoder.transform(added));
        let keep = n_old - removed.len();

        // Engine delta. Removed rows are read from the *old* encoded train;
        // the frozen encoder guarantees they equal what `transform` produced
        // for those raw rows, so the engine's incremental Hessian subtracts
        // exactly what was once added.
        let removed_pairs: Vec<(&[f64], f64)> = removed
            .iter()
            .map(|&r| (self.train.x.row(r), self.train.y[r]))
            .collect();
        let added_pairs: Vec<(&[f64], f64)> = (keep..new_train.n_rows())
            .map(|r| (new_train.x.row(r), new_train.y[r]))
            .collect();
        let engine = self.backend.update(
            &self.train,
            &new_train,
            removed,
            &removed_pairs,
            &added_pairs,
        );

        // Coverage layer: prefix-sum bitset patch over the frozen predicate
        // set, then a fresh index + coverage cache over the new universe
        // (old cached merge coverages range over the old row space and can
        // never be served again). The old index filled its cache first, so
        // every entry past the index's own is a merged-pattern coverage.
        let table = self.table.patch(&new_raw, removed);
        let invalidated = self.coverage.len().saturating_sub(self.index.len());
        let coverage = CoverageCache::with_capacity_cap(self.coverage.cap());
        let index = PredicateIndex::build(&table, &coverage);

        // Scored sweeps and bias gradients are functions of the parameters,
        // which just moved: invalid wholesale.
        lock_recover(&self.sweep_cache).clear_values();
        lock_recover(&self.bias_cache).clear();

        self.train_raw = new_raw;
        self.train = new_train;
        self.table = table;
        self.index = index;
        self.coverage = coverage;
        self.accuracy = gopher_models::train::accuracy(self.backend.model(), &self.test);

        self.updates_applied.fetch_add(1, Ordering::Relaxed);
        if engine.fell_back() {
            self.factor_fallbacks.fetch_add(1, Ordering::Relaxed);
        }

        UpdateReport {
            rows_removed: removed.len(),
            rows_added: added.n_rows(),
            n_rows: self.train_raw.n_rows(),
            engine,
            artifacts_invalidated: invalidated,
            update_time: t0.elapsed(),
        }
    }

    /// The from-scratch reference for [`Self::update`]: a fresh session over
    /// this session's *current* training data under the same frozen
    /// featurization (encoder statistics, predicate set, cache caps, thread
    /// count). `make_model` supplies an untrained model of the original
    /// shape; it is trained to convergence from its own initialization, so
    /// the oracle carries none of the updated session's warm state.
    ///
    /// Identity contract (documented in the README): predicate coverages
    /// and pattern supports match **bit for bit**; model parameters match
    /// within the trainer's convergence tolerance; estimator
    /// responsibilities match within the engine's drift bound (exactly when
    /// the update path fell back to a full rebuild).
    pub fn cold_rebuild(&self, make_model: impl FnOnce(usize) -> M) -> ExplainSession<M> {
        let train = self.encoder.transform(&self.train_raw);
        let mut model = make_model(train.n_cols());
        ModelFamily::fit(&mut model, &train);
        let backend = M::Backend::build(model, &train, self.backend.config().clone());
        let table = self.table.rebuild_on(&self.train_raw);
        let coverage = CoverageCache::with_capacity_cap(self.coverage.cap());
        let index = PredicateIndex::build(&table, &coverage);
        let accuracy = gopher_models::train::accuracy(backend.model(), &self.test);
        ExplainSession {
            train_raw: self.train_raw.clone(),
            encoder: self.encoder.clone(),
            train,
            test: self.test.clone(),
            backend,
            table,
            index,
            accuracy,
            threads: self.threads,
            coverage,
            bias_cache: Mutex::new(HashMap::new()),
            sweep_cache: Mutex::new(LruCache::new(lock_recover(&self.sweep_cache).cap)),
            flights: Mutex::new(HashMap::new()),
            requests_served: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            factor_fallbacks: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// The per-metric bias precomputation (gradient + baselines), cached.
    /// Uses [`lock_recover`]: the compute runs under the lock, so a model
    /// that panics mid-computation poisons the mutex — but the entry is only
    /// inserted once fully built, so recovery is always safe.
    fn bias_precomp(&self, metric: FairnessMetric) -> BiasPrecomp {
        let mut cache = lock_recover(&self.bias_cache);
        cache
            .entry(metric)
            .or_insert_with(|| self.backend.precompute(metric, &self.test))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_models::{LogisticRegression, Model};
    use gopher_prng::Rng;

    fn session(n: usize, seed: u64) -> ExplainSession<LogisticRegression> {
        let mut rng = Rng::new(seed);
        let (train, test) = german(n, seed).train_test_split(0.3, &mut rng);
        SessionBuilder::new().fit(|cols| LogisticRegression::new(cols, 1e-3), &train, &test)
    }

    fn assert_reports_equal(a: &ExplanationReport, b: &ExplanationReport) {
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.base_bias, b.base_bias);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.stats.total_scored, b.stats.total_scored);
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.pattern_text, y.pattern_text);
            assert_eq!(x.support, y.support);
            assert_eq!(x.est_responsibility, y.est_responsibility);
            assert_eq!(x.ground_truth_responsibility, y.ground_truth_responsibility);
        }
    }

    #[test]
    fn batch_equals_sequential_singles() {
        let s = session(700, 42);
        let reqs = [
            ExplainRequest::default().with_ground_truth(false),
            ExplainRequest::default()
                .with_metric(FairnessMetric::EqualOpportunity)
                .with_ground_truth(false),
        ];
        let batch = s.explain_batch(&reqs);
        // A fresh session answering the same requests one at a time.
        let s2 = session(700, 42);
        for (req, resp) in reqs.iter().zip(&batch) {
            let solo = s2.explain(req);
            assert_reports_equal(&solo.report, &resp.report);
        }
    }

    #[test]
    fn repeat_query_hits_the_sweep_cache() {
        let s = session(500, 43);
        let req = ExplainRequest::default().with_ground_truth(false);
        let first = s.explain(&req);
        let scored_once = first.report.stats.total_scored;
        let again = s.explain(&req.clone().with_k(1));
        // Same sweep: identical scoring counts, k only trims the selection.
        assert_eq!(again.report.stats.total_scored, scored_once);
        assert!(again.report.explanations.len() <= 1);
        assert!(s.cached_coverages() > 0);
    }

    #[test]
    fn distinct_metrics_share_the_coverage_cache() {
        let s = session(500, 44);
        let _ = s.explain(&ExplainRequest::default().with_ground_truth(false));
        let after_first = s.cached_coverages();
        assert!(after_first > 0);
        let _ = s.explain(
            &ExplainRequest::default()
                .with_metric(FairnessMetric::EqualOpportunity)
                .with_ground_truth(false),
        );
        // The second metric walks (a subset of) the same lattice; coverage
        // entries are keyed by pattern, so overlap is reused, not recloned.
        assert!(s.cached_coverages() >= after_first);
    }

    #[test]
    fn session_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ExplainSession<LogisticRegression>>();
    }

    /// A logistic regression that panics on demand inside `predict_proba` —
    /// the hook used to poison a session cache mutex mid-computation. Arming
    /// it panics the next call only.
    #[derive(Clone)]
    struct PanickyModel {
        inner: LogisticRegression,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Model for PanickyModel {
        fn n_inputs(&self) -> usize {
            self.inner.n_inputs()
        }
        fn predict_proba(&self, x: &[f64]) -> f64 {
            assert!(
                !self.armed.swap(false, std::sync::atomic::Ordering::Relaxed),
                "injected query panic"
            );
            self.inner.predict_proba(x)
        }
    }

    impl Differentiable for PanickyModel {
        fn n_params(&self) -> usize {
            self.inner.n_params()
        }
        fn params(&self) -> &[f64] {
            self.inner.params()
        }
        fn params_mut(&mut self) -> &mut [f64] {
            self.inner.params_mut()
        }
        fn l2(&self) -> f64 {
            self.inner.l2()
        }
        fn loss(&self, x: &[f64], y: f64) -> f64 {
            self.inner.loss(x, y)
        }
        fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]) {
            self.inner.accumulate_grad(x, y, out);
        }
        fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
            self.inner.accumulate_grad_proba(x, out);
        }
        fn has_analytic_hessian(&self) -> bool {
            self.inner.has_analytic_hessian()
        }
        fn accumulate_hessian_vec(&self, x: &[f64], y: f64, v: &[f64], out: &mut [f64]) {
            self.inner.accumulate_hessian_vec(x, y, v, out);
        }
        fn accumulate_hessian(&self, x: &[f64], y: f64, out: &mut gopher_linalg::Matrix) {
            self.inner.accumulate_hessian(x, y, out);
        }
        fn hessian_rank_one(&self, x: &[f64], y: f64, aug: &mut [f64]) -> Option<f64> {
            self.inner.hessian_rank_one(x, y, aug)
        }
    }

    impl ModelFamily for PanickyModel {
        type Backend = HessianBackend<Self>;
        fn fit(&mut self, train: &Encoded) -> gopher_models::train::TrainReport {
            gopher_models::train::fit_default(self, train)
        }
    }

    /// Satellite regression: a query that panics while a cache lock is held
    /// (here: `bias_precomp` computing under the `bias_cache` mutex) must
    /// not brick the session — the next query recovers the poisoned guard
    /// and answers normally.
    #[test]
    fn panicking_query_does_not_poison_the_session() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut rng = Rng::new(45);
        let (train, test) = german(500, 45).train_test_split(0.3, &mut rng);
        let encoder = gopher_data::Encoder::fit(&train);
        let encoded = encoder.transform(&train);
        let mut inner = LogisticRegression::new(encoded.n_cols(), 1e-3);
        gopher_models::train::fit_default(&mut inner, &encoded);
        let armed = std::sync::Arc::new(AtomicBool::new(false));
        let model = PanickyModel {
            inner,
            armed: std::sync::Arc::clone(&armed),
        };
        let session = SessionBuilder::new().threads(1).build(model, &train, &test);

        let req = ExplainRequest::default().with_ground_truth(false);
        armed.store(true, Ordering::Relaxed);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.explain(&req)));
        assert!(panicked.is_err(), "armed model must panic the first query");
        armed.store(false, Ordering::Relaxed);

        // The session must still answer — and agree with a clean session.
        let after = session.explain(&req);
        assert!(after.report.base_bias > 0.0);
        assert!(!after.report.explanations.is_empty());
        let clean = session_with(500, 45, SessionBuilder::new().threads(1));
        let reference = clean.explain(&req);
        assert_reports_equal(&after.report, &reference.report);
    }

    fn session_with(
        n: usize,
        seed: u64,
        builder: SessionBuilder,
    ) -> ExplainSession<LogisticRegression> {
        let mut rng = Rng::new(seed);
        let (train, test) = german(n, seed).train_test_split(0.3, &mut rng);
        builder.fit(|cols| LogisticRegression::new(cols, 1e-3), &train, &test)
    }

    /// Satellite regression: a sweep cached when the batch starts can be
    /// LRU-evicted by the batch's own inserts before its request is
    /// answered (here forced with a cap of 1). An early version panicked on
    /// `expect("sweep cached before this batch")`; the batch must answer
    /// bit-identically.
    #[test]
    fn eviction_mid_batch_recomputes_instead_of_panicking() {
        let req_a = ExplainRequest::default().with_ground_truth(false);
        let req_b = ExplainRequest::default()
            .with_support_threshold(0.08)
            .with_ground_truth(false);

        let s = session_with(500, 46, SessionBuilder::new().sweep_cache_cap(1));
        let solo_a = s.explain(&req_a); // caches sweep A (the only slot)
                                        // Batch: B misses and sweeps fresh, and inserting B evicts A
                                        // before A's request is answered.
        let batch = s.explain_batch(&[req_b.clone(), req_a.clone()]);
        assert_eq!(batch.len(), 2);
        assert_reports_equal(&batch[1].report, &solo_a.report);
        let reference_b = session_with(500, 46, SessionBuilder::new()).explain(&req_b);
        assert_reports_equal(&batch[0].report, &reference_b.report);
        let stats = s.stats();
        assert!(
            stats.sweep_evictions >= 1,
            "cap-1 cache must have evicted: {stats:?}"
        );
    }

    #[test]
    fn sweep_cache_evicts_least_recently_used() {
        let s = session_with(400, 47, SessionBuilder::new().sweep_cache_cap(2));
        let req_a = ExplainRequest::default().with_ground_truth(false);
        let req_b = req_a.clone().with_support_threshold(0.07);
        let req_c = req_a.clone().with_support_threshold(0.09);
        let _ = s.explain(&req_a);
        let _ = s.explain(&req_b);
        let _ = s.explain(&req_a); // refresh A: B is now least recent
        let _ = s.explain(&req_c); // evicts B
        let before = s.stats();
        let _ = s.explain(&req_a); // must still hit
        let _ = s.explain(&req_c); // must still hit
        let mid = s.stats();
        assert_eq!(mid.sweep_hits, before.sweep_hits + 2);
        assert_eq!(mid.sweep_misses, before.sweep_misses);
        let _ = s.explain(&req_b); // B was evicted: a fresh miss
        let after = s.stats();
        assert_eq!(after.sweep_misses, mid.sweep_misses + 1);
        assert_eq!(after.sweep_evictions, mid.sweep_evictions + 1);
        assert_eq!(after.sweep_entries, 2);
    }

    #[test]
    fn stats_track_hits_misses_and_threads() {
        let s = session_with(400, 48, SessionBuilder::new().threads(3));
        assert_eq!(s.threads(), 3);
        let initial = s.stats();
        assert_eq!(initial.threads, 3);
        assert_eq!(initial.sweep_cache_cap, SWEEP_CACHE_CAP);
        assert_eq!((initial.sweep_hits, initial.sweep_misses), (0, 0));
        // The predicate index materializes every singleton at build.
        assert!(initial.cached_coverages > 0);
        assert!(initial.coverage_misses > 0);
        let req = ExplainRequest::default().with_ground_truth(false);
        let _ = s.explain(&req);
        let cold = s.stats();
        assert_eq!(cold.sweep_misses, 1);
        assert_eq!(cold.sweep_entries, 1);
        assert!(cold.cached_coverages > initial.cached_coverages);
        assert!(cold.coverage_misses > initial.coverage_misses);
        let _ = s.explain(&req);
        let warm = s.stats();
        assert_eq!(warm.sweep_hits, cold.sweep_hits + 1);
        assert_eq!(warm.sweep_misses, cold.sweep_misses);
        // A scored-cache hit never reaches the coverage cache.
        assert_eq!(
            (warm.coverage_hits, warm.coverage_misses),
            (cold.coverage_hits, cold.coverage_misses)
        );
    }

    /// A second metric over the same structural knobs misses the scored
    /// tier but reuses the coverages the first sweep materialized: both
    /// walk the same level-2 merges, so every supported one is a cache hit
    /// the second time. A tighter τ reuses them too; a looser τ reaches
    /// merges no earlier sweep supported and materializes them.
    #[test]
    fn second_metric_reuses_the_coverage_cache() {
        let s = session(500, 50);
        let _ = s.explain(&ExplainRequest::default().with_ground_truth(false));
        let after_first = s.stats();
        assert_eq!(after_first.sweep_misses, 1);
        assert_eq!(after_first.coverage_hits, 0, "a cold sweep reuses nothing");
        let _ = s.explain(
            &ExplainRequest::default()
                .with_metric(FairnessMetric::EqualOpportunity)
                .with_ground_truth(false),
        );
        let after_second = s.stats();
        assert_eq!(after_second.sweep_misses, 2, "distinct scoring keys");
        assert!(after_second.coverage_hits > after_first.coverage_hits);
        let _ = s.explain(
            &ExplainRequest::default()
                .with_support_threshold(0.08)
                .with_ground_truth(false),
        );
        let after_third = s.stats();
        assert_eq!(after_third.sweep_misses, 3);
        assert!(after_third.coverage_hits > after_second.coverage_hits);
        let _ = s.explain(
            &ExplainRequest::default()
                .with_support_threshold(0.01)
                .with_ground_truth(false),
        );
        let after_fourth = s.stats();
        assert_eq!(after_fourth.sweep_misses, 4);
        assert!(after_fourth.coverage_misses > after_third.coverage_misses);
    }

    /// Satellite regression (τ keying): `-0.0` passes the `[0, 1)` range
    /// check but its `f64::to_bits` differs from `0.0`'s — the old
    /// bit-pattern key built duplicate artifacts for the same structural
    /// configuration. Under the integer `min_count` key, `-0.0`, `0.0`, and
    /// any τ ≤ 1/n all mean "at least one covered row" and must share one
    /// scored sweep.
    #[test]
    fn negative_zero_and_tiny_taus_share_one_artifact() {
        let s = session(400, 52);
        let n = s.train().n_rows() as f64;
        let taus = [-0.0, 0.0, 0.5 / n, 0.99 / n];
        let responses: Vec<_> = taus
            .iter()
            .map(|&tau| {
                s.explain(
                    &ExplainRequest::default()
                        .with_support_threshold(tau)
                        .with_ground_truth(false),
                )
            })
            .collect();
        for r in &responses[1..] {
            assert_reports_equal(&responses[0].report, &r.report);
        }
        let stats = s.stats();
        assert_eq!(stats.sweep_misses, 1, "one scored sweep");
        assert_eq!(stats.sweep_hits, 3);
    }

    /// After a sweep at a loose τ, a sweep at a tighter τ' (same
    /// depth/pruning, same metric) materializes no coverage: every merge
    /// it supports was supported — and materialized — at the looser τ. The
    /// answer is bit-identical to a cold session's.
    #[test]
    fn warm_tighter_tau_sweep_materializes_no_intersections() {
        let loose = ExplainRequest::default()
            .with_support_threshold(0.02)
            .with_ground_truth(false);
        let tight = loose.clone().with_support_threshold(0.05);

        let s = session(600, 53);
        let _ = s.explain(&loose);
        let before = s.stats();
        let warm = s.explain(&tight);
        let after = s.stats();

        assert_eq!(after.sweep_misses, before.sweep_misses + 1);
        assert_eq!(
            after.coverage_misses, before.coverage_misses,
            "a tighter sweep over a warm cache must intersect nothing new"
        );
        assert_eq!(after.cached_coverages, before.cached_coverages);
        assert!(after.coverage_hits > before.coverage_hits);

        let cold = session(600, 53).explain(&tight);
        assert_reports_equal(&warm.report, &cold.report);
    }

    /// The builder's `threads` knob and `GOPHER_THREADS` must not change
    /// results: a 4-thread session answers a mixed batch bit-identically to
    /// a single-threaded one (the full property-based check lives in
    /// `tests/parallel_identity.rs`).
    #[test]
    fn multithreaded_batch_matches_single_threaded() {
        let reqs = [
            ExplainRequest::default().with_ground_truth(false),
            ExplainRequest::default()
                .with_metric(FairnessMetric::EqualOpportunity)
                .with_ground_truth(false),
            ExplainRequest::default()
                .with_metric(FairnessMetric::PredictiveParity)
                .with_estimator(Estimator::FirstOrder)
                .with_ground_truth(false),
            ExplainRequest::default()
                .with_support_threshold(0.08)
                .with_ground_truth(true)
                .with_k(2),
        ];
        let s1 = session_with(500, 49, SessionBuilder::new().threads(1));
        let s4 = session_with(500, 49, SessionBuilder::new().threads(4));
        let r1 = s1.explain_batch(&reqs);
        let r4 = s4.explain_batch(&reqs);
        assert_eq!(r1.len(), r4.len());
        for (a, b) in r1.iter().zip(&r4) {
            assert_reports_equal(&a.report, &b.report);
        }
    }

    /// Registry-facing traffic counters: every entry point funnels through
    /// `explain_batch`, so `requests_served` tallies exactly, and a sweep
    /// miss is charged only to the request that runs the sweep — a key
    /// repeated within a batch rides on its first occurrence as a hit.
    #[test]
    fn requests_served_tallies_every_entry_point() {
        let s = session(400, 54);
        let req = ExplainRequest::default().with_ground_truth(false);
        let eo = req.clone().with_metric(FairnessMetric::EqualOpportunity);
        assert_eq!(s.stats().requests_served, 0);

        let _ = s.explain(&req);
        let _ = s.explain_batch(&[req.clone(), eo.clone(), eo.with_k(1)]);
        let _ = s.explain_batch(&[]);

        let stats = s.stats();
        assert_eq!(stats.requests_served, 4, "1 solo + 3 batched");
        assert_eq!((stats.sweep_misses, stats.sweep_hits), (2, 2));
    }

    /// Blocks until `s` has counted `n` sweep lookups (hits plus misses).
    fn wait_for_lookups<M: ModelFamily>(s: &ExplainSession<M>, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = s.stats();
            if stats.sweep_hits + stats.sweep_misses == n {
                return;
            }
            assert!(Instant::now() < deadline, "lookup {n} never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Single-flight: a caller asking for a sweep another caller is still
    /// computing waits for that result instead of sweeping again — even at
    /// sweep-cache cap 0, where the result never reaches the LRU. Caller A
    /// is held inside its sweep (blocked on the bias cache this test locks)
    /// until caller B's lookup has been counted.
    #[test]
    fn concurrent_callers_share_one_in_flight_sweep() {
        let s = session_with(400, 55, SessionBuilder::new().sweep_cache_cap(0));
        let req = ExplainRequest::default().with_ground_truth(false);
        let (a, b) = std::thread::scope(|scope| {
            let hold = lock_recover(&s.bias_cache);
            let a = scope.spawn(|| s.explain(&req));
            wait_for_lookups(&s, 1);
            let b = scope.spawn(|| s.explain(&req));
            wait_for_lookups(&s, 2);
            drop(hold);
            (a.join().unwrap(), b.join().unwrap())
        });
        let stats = s.stats();
        assert_eq!(
            stats.sweep_misses, 1,
            "one sweep for two callers: {stats:?}"
        );
        assert_eq!(stats.sweep_hits, 1);
        assert_eq!(stats.sweep_entries, 0, "cap 0 retains nothing");
        assert_reports_equal(&a.report, &b.report);
        assert_reports_equal(&a.report, &session(400, 55).explain(&req).report);
    }

    /// A caller waiting on a sweep whose owner panics is not left hanging:
    /// the owner's claim is released as it unwinds, and the waiter sweeps
    /// the key itself and answers like a clean session.
    #[test]
    fn waiter_of_a_panicked_sweep_sweeps_it_itself() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut rng = Rng::new(57);
        let (train, test) = german(400, 57).train_test_split(0.3, &mut rng);
        let encoded = gopher_data::Encoder::fit(&train).transform(&train);
        let mut inner = LogisticRegression::new(encoded.n_cols(), 1e-3);
        gopher_models::train::fit_default(&mut inner, &encoded);
        let armed = Arc::new(AtomicBool::new(false));
        let model = PanickyModel {
            inner,
            armed: Arc::clone(&armed),
        };
        let s = SessionBuilder::new()
            .sweep_cache_cap(0)
            .build(model, &train, &test);
        let req = ExplainRequest::default().with_ground_truth(false);
        let (owner, waiter) = std::thread::scope(|scope| {
            let hold = lock_recover(&s.bias_cache);
            armed.store(true, Ordering::Relaxed);
            let owner = scope.spawn(|| s.explain(&req));
            wait_for_lookups(&s, 1);
            let waiter = scope.spawn(|| s.explain(&req));
            wait_for_lookups(&s, 2);
            drop(hold);
            (owner.join(), waiter.join())
        });
        assert!(owner.is_err(), "the armed owner must panic");
        let waiter = waiter.expect("the waiter must answer");
        let clean = session_with(400, 57, SessionBuilder::new());
        assert_reports_equal(&waiter.report, &clean.explain(&req).report);
        assert_eq!(s.stats().sweep_misses, 1, "the waiter was counted a hit");
    }

    /// Two batches asking for the same two sweeps in opposite orders, at
    /// sweep-cache cap 0 so every round sweeps afresh: either may find the
    /// other's claims in flight, and neither may hang or answer differently
    /// from a solo run.
    #[test]
    fn crossing_batches_finish_and_match_solo_answers() {
        let k1 = ExplainRequest::default().with_ground_truth(false);
        let k2 = k1.clone().with_metric(FairnessMetric::EqualOpportunity);
        let reference = session(300, 56);
        let solo = [reference.explain(&k1), reference.explain(&k2)];
        let s = session_with(300, 56, SessionBuilder::new().sweep_cache_cap(0));
        for _ in 0..20 {
            let (forward, backward) = std::thread::scope(|scope| {
                let forward = scope.spawn(|| s.explain_batch(&[k1.clone(), k2.clone()]));
                let backward = scope.spawn(|| s.explain_batch(&[k2.clone(), k1.clone()]));
                (forward.join().unwrap(), backward.join().unwrap())
            });
            assert_reports_equal(&forward[0].report, &solo[0].report);
            assert_reports_equal(&forward[1].report, &solo[1].report);
            assert_reports_equal(&backward[0].report, &solo[1].report);
            assert_reports_equal(&backward[1].report, &solo[0].report);
        }
    }

    /// Drift-aware variant of [`assert_reports_equal`] for comparing an
    /// incrementally updated session against its cold-rebuild oracle:
    /// pattern identity and supports are bit-exact (the coverage layer is),
    /// while model-dependent scores match within the documented bounds (both
    /// models converge on the same gradient, from different starts).
    fn assert_reports_match(a: &ExplanationReport, b: &ExplanationReport) {
        assert_eq!(a.metric, b.metric);
        assert!(
            (a.base_bias - b.base_bias).abs() <= 1e-6,
            "base bias drift: {} vs {}",
            a.base_bias,
            b.base_bias
        );
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.pattern_text, y.pattern_text);
            assert_eq!(x.support, y.support);
            let scale = x.est_responsibility.abs().max(y.est_responsibility.abs());
            let rel = (x.est_responsibility - y.est_responsibility).abs() / scale.max(1e-12);
            assert!(
                rel <= 1e-2,
                "responsibility drift on {}: {} vs {} (rel {rel})",
                x.pattern_text,
                x.est_responsibility,
                y.est_responsibility
            );
        }
    }

    /// The tentpole identity: after a small balanced delta, `update()`
    /// answers like a from-scratch session over the new data — patterns and
    /// supports bit-exact, scores within the drift bound — without a
    /// fallback refactorization (the delta is small enough for the rank-1
    /// patch path).
    #[test]
    fn update_then_explain_matches_cold_rebuild() {
        let mut s = session(4000, 60);
        let req = ExplainRequest::default().with_ground_truth(false);
        let _ = s.explain(&req); // warm the coverage cache pre-delta

        let added = german(1, 61);
        let report = s.update(&[388], &added);
        assert_eq!(report.rows_removed, 1);
        assert_eq!(report.rows_added, 1);
        assert_eq!(report.n_rows, s.train().n_rows());
        assert!(
            !report.engine.fell_back(),
            "a single-row balanced delta at n=2800 must stay incremental: {:?}",
            report.engine
        );

        let oracle = s.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        let warm = s.explain(&req);
        let cold = oracle.explain(&req);
        // Pattern identities and supports are bit-exact against the oracle —
        // stale supports over the old universe would show up right here.
        // (`total_scored` is *not* compared: responsibility pruning takes
        // hard `<=` branches on scores that only match within the drift
        // bound, so near-tie candidates may prune differently.)
        assert_reports_match(&warm.report, &cold.report);
    }

    /// Counters and cache hygiene across an update: scored sweeps, bias
    /// gradients, and merged-pattern coverages are dropped wholesale (the
    /// parameters and the row space moved), and the report counts the
    /// coverages discarded.
    #[test]
    fn update_invalidates_scored_tier_and_counts_survivors() {
        let mut s = session(1000, 62);
        let req = ExplainRequest::default().with_ground_truth(false);
        let _ = s.explain(&req);
        let _ = s.explain(&req.clone().with_metric(FairnessMetric::EqualOpportunity));
        let before = s.stats();
        let predicates = s.predicate_table().len();
        assert_eq!(before.sweep_entries, 2);
        assert_eq!(before.updates_applied, 0);
        assert!(before.cached_coverages > predicates);

        let report = s.update(&[17], &german(1, 63));
        let after = s.stats();
        assert_eq!(after.updates_applied, 1);
        assert_eq!(after.sweep_entries, 0, "scored sweeps are stale wholesale");
        assert_eq!(
            report.artifacts_invalidated,
            before.cached_coverages - predicates,
            "every merged-pattern coverage is discarded"
        );
        assert_eq!(after.cached_coverages, predicates, "only the fresh index");
        let _ = s.explain(&req);
        let warm = s.stats();
        assert_eq!(warm.sweep_misses, before.sweep_misses + 1);
        assert!(
            warm.cached_coverages > predicates,
            "the sweep re-materializes"
        );
    }

    /// An adversarial delta — a fifth of the training set removed at once —
    /// must trip the drift bound (counted as a factor fallback) and *still*
    /// answer like the cold oracle: fallbacks trade speed, never
    /// correctness.
    #[test]
    fn adversarial_delta_falls_back_and_still_matches() {
        let mut s = session(500, 64);
        let req = ExplainRequest::default().with_ground_truth(false);
        let _ = s.explain(&req);

        let n = s.train().n_rows();
        let removed: Vec<usize> = (0..n / 5).map(|i| i * 5).collect();
        let report = s.update(&removed, &german(4, 65));
        assert!(
            report.engine.fell_back(),
            "a 20% removal must not survive the drift bound: {:?}",
            report.engine
        );
        assert_eq!(s.stats().factor_fallbacks, 1);

        let oracle = s.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        assert_reports_match(&s.explain(&req).report, &oracle.explain(&req).report);
    }

    /// Repeated updates compose: three consecutive small deltas leave the
    /// session equivalent to one cold rebuild over the final data, and the
    /// update counter tallies each application.
    #[test]
    fn consecutive_updates_compose() {
        let mut s = session(900, 66);
        let req = ExplainRequest::default().with_ground_truth(false);
        for (i, seed) in [67u64, 68, 69].iter().enumerate() {
            let _ = s.update(&[i * 3], &german(1, *seed));
        }
        assert_eq!(s.stats().updates_applied, 3);
        let oracle = s.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        assert_reports_match(&s.explain(&req).report, &oracle.explain(&req).report);
    }

    /// The explain-latency histogram: quantiles are zero before any query,
    /// populated after, and ordered (p99 upper bound ≥ p50 upper bound). The
    /// histogram reads the already-measured `query_time` — this asserts the
    /// wiring, not the clock.
    #[test]
    fn latency_quantiles_populate_from_queries() {
        let s = session(400, 70);
        let stats = s.stats();
        assert_eq!((stats.explain_p50_us, stats.explain_p99_us), (0, 0));
        let req = ExplainRequest::default().with_ground_truth(false);
        for _ in 0..5 {
            let _ = s.explain(&req);
        }
        let stats = s.stats();
        assert!(stats.explain_p50_us > 0, "p50 must populate: {stats:?}");
        assert!(stats.explain_p99_us >= stats.explain_p50_us);
    }

    /// Log-linear buckets keep every reported latency within 1/16 above
    /// the recorded value; a 19 ms median reads as about 19 ms, not as the
    /// next power of two.
    #[test]
    fn latency_quantiles_are_within_ten_percent() {
        let h = LatencyHistogram::new();
        for _ in 0..60 {
            h.record(Duration::from_millis(19));
        }
        for _ in 0..40 {
            h.record(Duration::from_micros(250_300));
        }
        let p50 = h.quantile_upper_us(0.5) as f64;
        assert!((p50 - 19_000.0).abs() <= 1_900.0, "p50 {p50}");
        let p99 = h.quantile_upper_us(0.99) as f64;
        assert!((p99 - 250_300.0).abs() <= 25_030.0, "p99 {p99}");

        let mut values: Vec<u64> = (0..100).collect();
        for e in 4..63 {
            let p = 1u64 << e;
            values.extend([p - 1, p, p + 1, p + p / 3, 2 * p - 1]);
        }
        values.push(u64::MAX);
        for v in values {
            let idx = latency_bucket(v);
            assert!(idx < LATENCY_BUCKETS, "{v}");
            let max = latency_bucket_max(idx);
            assert!(max >= v && max - v <= v / 16, "{v} reads as {max}");
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn update_rejects_duplicate_removals() {
        let mut s = session(300, 71);
        let _ = s.update(&[4, 4], &german(1, 72));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_out_of_range_removal() {
        let mut s = session(300, 73);
        let n = s.train().n_rows();
        let _ = s.update(&[n], &german(1, 74));
    }
}
