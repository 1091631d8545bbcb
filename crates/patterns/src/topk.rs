//! Top-k diverse explanation selection (paper Algorithm 2 / Definition 3.7).

use crate::lattice::Candidate;

/// Containment score `C(φ, φ') = |D(φ) ∩ D(φ')| / |D(φ)|`
/// (paper Definition 3.6). 0 when `φ` covers nothing.
pub fn containment(phi: &Candidate, other: &Candidate) -> f64 {
    let denom = phi.coverage.count();
    if denom == 0 {
        return 0.0;
    }
    phi.coverage.and_count(&other.coverage) as f64 / denom as f64
}

/// Selects the top-k most interesting, mutually diverse candidates:
/// candidates are visited in decreasing interestingness order and kept only
/// if their containment with every already-kept explanation is `< c`.
///
/// Ties in interestingness are broken deterministically (fewer predicates
/// first, then lexicographic predicate ids), fixing the arbitrary order the
/// paper imposes over `Φ_D`.
pub fn top_k(candidates: &[Candidate], k: usize, containment_threshold: f64) -> Vec<Candidate> {
    assert!(
        (0.0..=1.0).contains(&containment_threshold),
        "containment threshold must be in [0, 1]"
    );
    let mut order: Vec<&Candidate> = candidates.iter().collect();
    order.sort_by(|a, b| {
        b.interestingness
            .total_cmp(&a.interestingness)
            .then_with(|| a.pattern.len().cmp(&b.pattern.len()))
            .then_with(|| a.pattern.ids().cmp(b.pattern.ids()))
    });
    let mut kept: Vec<Candidate> = Vec::with_capacity(k);
    for cand in order {
        if kept.len() == k {
            break;
        }
        let diverse = kept
            .iter()
            .all(|prev| containment(cand, prev) < containment_threshold);
        if diverse {
            kept.push(cand.clone());
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::pattern::Pattern;

    fn cand(id: u16, rows: &[u32], universe: usize, interestingness: f64) -> Candidate {
        let coverage = BitSet::from_indices(universe, rows);
        let support = coverage.count() as f64 / universe as f64;
        Candidate {
            pattern: Pattern::singleton(id),
            coverage: std::sync::Arc::new(coverage),
            support,
            responsibility: interestingness * support,
            interestingness,
        }
    }

    #[test]
    fn containment_definition() {
        let a = cand(0, &[0, 1, 2, 3], 10, 1.0);
        let b = cand(1, &[2, 3, 4, 5, 6, 7], 10, 1.0);
        assert!(
            (containment(&a, &b) - 0.5).abs() < 1e-12,
            "2 of 4 rows of a are in b"
        );
        assert!((containment(&b, &a) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn selects_by_interestingness() {
        let cands = vec![
            cand(0, &[0, 1], 10, 0.3),
            cand(1, &[2, 3], 10, 0.9),
            cand(2, &[4, 5], 10, 0.6),
        ];
        let top = top_k(&cands, 2, 0.5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].pattern.ids(), &[1]);
        assert_eq!(top[1].pattern.ids(), &[2]);
    }

    #[test]
    fn filters_contained_candidates() {
        // Candidate 1 is the best; candidate 0 is fully contained in it and
        // must be skipped; candidate 2 is disjoint and survives.
        let cands = vec![
            cand(0, &[0, 1], 10, 0.8),
            cand(1, &[0, 1, 2, 3], 10, 0.9),
            cand(2, &[7, 8], 10, 0.2),
        ];
        let top = top_k(&cands, 3, 0.6);
        let ids: Vec<u16> = top.iter().map(|c| c.pattern.ids()[0]).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn containment_threshold_one_keeps_overlapping() {
        let cands = vec![cand(0, &[0, 1], 10, 0.8), cand(1, &[0, 1, 2, 3], 10, 0.9)];
        // Threshold 1.0 means only *fully* contained candidates (C = 1.0 is
        // not < 1.0) are dropped; candidate 0 IS fully contained.
        let top = top_k(&cands, 2, 1.0);
        assert_eq!(top.len(), 1);
        // Threshold slightly above 1 is invalid.
    }

    #[test]
    fn deterministic_tie_breaking() {
        let a = cand(3, &[0, 1], 10, 0.5);
        let b = cand(1, &[4, 5], 10, 0.5);
        let top1 = top_k(&[a.clone(), b.clone()], 1, 0.5);
        let top2 = top_k(&[b, a], 1, 0.5);
        assert_eq!(top1[0].pattern.ids(), top2[0].pattern.ids());
        assert_eq!(top1[0].pattern.ids(), &[1], "lowest ids win ties");
    }

    #[test]
    fn requests_beyond_supply_return_all_diverse() {
        let cands = vec![cand(0, &[0], 10, 0.5)];
        let top = top_k(&cands, 5, 0.5);
        assert_eq!(top.len(), 1);
    }

    #[test]
    #[should_panic(expected = "containment threshold")]
    fn rejects_invalid_threshold() {
        let _ = top_k(&[], 1, 1.5);
    }
}
