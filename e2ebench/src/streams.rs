//! Seeded input streams: the analyst's questions, the update stream's
//! deltas, and the dashboard's arrivals. The same seed gives the same
//! streams; the program only ever sees what these produce.

use gopher_repro::prelude::{FairnessMetric, Rng};

/// The four fairness metrics in the order every workload cycles them,
/// with their HTTP names.
pub const METRICS: [(FairnessMetric, &str); 4] = [
    (FairnessMetric::StatisticalParity, "statistical-parity"),
    (FairnessMetric::EqualOpportunity, "equal-opportunity"),
    (FairnessMetric::PredictiveParity, "predictive-parity"),
    (FairnessMetric::AverageOdds, "average-odds"),
];

/// A sub-seed for stream `tag` of run seed `seed` (splitmix64 finalizer),
/// so streams of one run are independent of each other.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One analyst question: a metric and a support threshold τ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Question {
    /// Index into [`METRICS`].
    pub metric: usize,
    /// Support threshold, in `[0.05, 0.06)`.
    pub tau: f64,
    /// `⌈τ·n⌉`, the row count a pattern must cover.
    pub min_count: usize,
}

/// A step through `0..k` that visits every element once and spreads any
/// prefix of the walk evenly: the integer nearest `k / φ` that is coprime
/// with `k`.
fn golden_step(k: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let ideal = (k as f64 * 0.618_033_988_749_894_9).round() as usize;
    (0..k)
        .flat_map(|d| [ideal + d, ideal.saturating_sub(d)])
        .find(|&s| s > 0 && gcd(s, k) == 1)
        .unwrap_or(1)
}

/// The analyst's question stream over `n_train` training rows: metrics in
/// cycle, and for each metric the row counts `⌈τ·n⌉` reachable with τ in
/// `[0.05, 0.06)`, each once, in a golden-ratio walk from a seeded start —
/// so every prefix of the stream covers the τ range evenly and runs of
/// different seeds ask comparable mixes. Each τ sits at a seeded point in
/// the middle half of its count's interval, so `⌈τ·n⌉` is the intended
/// count whatever the rounding. Holds every question the range allows
/// (four metrics times about `0.01·n` counts).
pub fn analyst_questions(seed: u64, n_train: usize) -> Vec<Question> {
    let n = n_train as f64;
    let lo = (0.05 * n + 0.75).ceil() as usize;
    let hi = (0.06 * n + 0.25).ceil() as usize - 1;
    let k = hi + 1 - lo;
    let step = golden_step(k);
    let mut rng = Rng::new(sub_seed(seed, 1));
    let starts: Vec<usize> = (0..METRICS.len()).map(|_| rng.range(0, k)).collect();
    let mut out = Vec::with_capacity(k * METRICS.len());
    for round in 0..k {
        for (metric, start) in starts.iter().enumerate() {
            let min_count = lo + (start + round * step) % k;
            let tau = (min_count as f64 - rng.uniform_in(0.25, 0.75)) / n;
            debug_assert!((0.05..0.06).contains(&tau));
            out.push(Question {
                metric,
                tau,
                min_count,
            });
        }
    }
    out
}

/// One delta of the update stream: a balanced swap of `rows` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    /// Rows removed and rows added (balanced).
    pub rows: usize,
    /// Seed of the removed-row draw.
    pub remove_seed: u64,
    /// Seed of the generated rows that replace them.
    pub add_seed: u64,
}

/// Every `LARGE_EVERY`-th delta swaps 1 % of the training rows.
pub const LARGE_EVERY: usize = 40;

/// The first `count` deltas of the update stream over `n_train` rows:
/// single-row swaps, with a 1 % swap every [`LARGE_EVERY`]-th delta.
pub fn deltas(seed: u64, n_train: usize, count: usize) -> Vec<Delta> {
    let mut rng = Rng::new(sub_seed(seed, 2));
    (1..=count)
        .map(|i| Delta {
            rows: if i % LARGE_EVERY == 0 {
                (n_train / 100).max(1)
            } else {
                1
            },
            remove_seed: rng.next_u64(),
            add_seed: rng.next_u64() >> 12,
        })
        .collect()
}

/// What a dashboard operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Ask a tenant's four metric questions, one after another.
    Refresh,
    /// Swap one training row of a tenant (`seed` picks the rows).
    Update {
        /// Seed sent in the update body.
        seed: u64,
    },
}

/// One scheduled dashboard operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts.
    pub at_s: f64,
    /// Index of the tenant it targets.
    pub tenant: usize,
    /// What it does.
    pub kind: OpKind,
}

/// Draws the `index`-th dashboard operation, at time `at_s`: every
/// `update_every`-th operation is an update, the rest refreshes, each of a
/// seeded tenant. A fixed share rather than a coin per operation keeps the
/// number of cold refreshes — the slow mode — the same in every run.
fn draw_op(rng: &mut Rng, index: usize, at_s: f64, tenants: usize, update_every: usize) -> Arrival {
    let tenant = rng.range(0, tenants);
    let kind = if index % update_every == update_every - 1 {
        OpKind::Update {
            seed: rng.next_u64() >> 12,
        }
    } else {
        OpKind::Refresh
    };
    Arrival { at_s, tenant, kind }
}

/// A Poisson arrival stream at `rate` operations per second over
/// `duration_s` seconds, every `update_every`-th of them an update.
pub fn arrivals(
    seed: u64,
    rate: f64,
    duration_s: f64,
    tenants: usize,
    update_every: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(sub_seed(seed, 3));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.uniform()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        let index = out.len();
        out.push(draw_op(&mut rng, index, t, tenants, update_every));
    }
}

/// The closed-loop operation sequence of load thread `thread`: the same
/// mix as the open loop, with no schedule.
pub fn closed_loop_ops(
    seed: u64,
    thread: usize,
    count: usize,
    tenants: usize,
    update_every: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(sub_seed(seed, 4 + thread as u64));
    (0..count)
        .map(|i| draw_op(&mut rng, i, 0.0, tenants, update_every))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn analyst_stream_is_seeded_and_never_repeats_a_key() {
        let a = analyst_questions(7, 7000);
        assert_eq!(a, analyst_questions(7, 7000));
        assert_ne!(a, analyst_questions(8, 7000));
        let mut keys = BTreeSet::new();
        for q in &a {
            assert!((0.05..0.06).contains(&q.tau), "{}", q.tau);
            assert_eq!((q.tau * 7000.0).ceil() as usize, q.min_count);
            assert!(keys.insert((q.metric, q.min_count)), "repeat {q:?}");
        }
        assert!(a.len() >= 250, "{} questions", a.len());
        assert!(a
            .iter()
            .take(8)
            .map(|q| q.metric)
            .eq([0, 1, 2, 3, 0, 1, 2, 3]));
    }

    #[test]
    fn delta_stream_is_seeded_with_periodic_large_swaps() {
        let d = deltas(3, 70_000, 120);
        assert_eq!(d, deltas(3, 70_000, 120));
        assert_ne!(d, deltas(4, 70_000, 120));
        for (i, delta) in d.iter().enumerate() {
            let expect = if (i + 1) % LARGE_EVERY == 0 { 700 } else { 1 };
            assert_eq!(delta.rows, expect, "delta {}", i + 1);
        }
    }

    #[test]
    fn arrival_stream_is_seeded_and_has_the_requested_rate() {
        let a = arrivals(5, 3.0, 400.0, 2, 5);
        assert_eq!(a, arrivals(5, 3.0, 400.0, 2, 5));
        assert_ne!(a, arrivals(6, 3.0, 400.0, 2, 5));
        let rate = a.len() as f64 / 400.0;
        assert!((2.7..3.3).contains(&rate), "{rate}");
        let updates = a
            .iter()
            .filter(|x| matches!(x.kind, OpKind::Update { .. }))
            .count() as f64;
        let share = updates / a.len() as f64;
        assert!((0.19..0.21).contains(&share), "{share}");
        assert!(a.iter().filter(|x| x.tenant == 0).count() * 3 > a.len());
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert_ne!(
            closed_loop_ops(5, 0, 50, 2, 5),
            closed_loop_ops(5, 1, 50, 2, 5)
        );
        assert_eq!(
            closed_loop_ops(5, 0, 50, 2, 5),
            closed_loop_ops(5, 0, 50, 2, 5)
        );
    }

    #[test]
    fn analyst_prefixes_cover_the_tau_range_evenly() {
        for seed in 0..4 {
            let q = analyst_questions(seed, 7000);
            // The first ten counts of a metric leave no gap wider than 12
            // on the circle of its 70 counts (a uniform draw often does).
            for metric in 0..4 {
                let mut counts: Vec<usize> = q
                    .iter()
                    .filter(|x| x.metric == metric)
                    .take(10)
                    .map(|x| x.min_count - 351)
                    .collect();
                counts.sort_unstable();
                let wrap = counts[0] + 70 - counts[9];
                let widest = counts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
                assert!(
                    widest.max(wrap) <= 12,
                    "seed {seed} metric {metric}: {counts:?}"
                );
            }
        }
    }
}
