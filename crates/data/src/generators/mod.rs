//! Synthetic stand-ins for the paper's evaluation datasets.
//!
//! The real datasets (UCI German Credit, UCI Adult, NYPD SQF) are not
//! available offline, so each generator reproduces the *schema* and — more
//! importantly — the *documented bias structure* that the paper's experiments
//! rely on. Every planted bias is written down in the generator's docs, so
//! "does Gopher recover the planted root cause?" is a well-posed question
//! with a known answer. See DESIGN.md §2 for the substitution table.
//!
//! All generators are deterministic given `(n_rows, seed)`.

mod adult;
mod german;
mod sqf;

pub use adult::adult;
pub use german::german;
pub use sqf::sqf;

use crate::dataset::Dataset;
use gopher_prng::Rng;

/// A generator: `(n_rows, seed)` in, a dataset out.
pub type Generator = fn(usize, u64) -> Dataset;

/// The built-in generator called `name`: `german`, `adult` or `sqf`.
pub fn by_name(name: &str) -> Option<Generator> {
    match name {
        "german" => Some(german),
        "adult" => Some(adult),
        "sqf" => Some(sqf),
        _ => None,
    }
}

/// XORed into a session's seed to draw the rows a data delta adds, so they
/// differ from the session's original draw under the same seed.
pub const DELTA_SEED_XOR: u64 = 0x9e37_79b9;

/// Logistic squashing used by all generators to convert a latent score into
/// a label probability.
pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Samples a truncated normal by rejection (falls back to clamping after a
/// bounded number of tries; fine for data generation).
pub(crate) fn trunc_normal(rng: &mut Rng, mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
    for _ in 0..16 {
        let v = rng.normal_with(mean, std);
        if v >= lo && v <= hi {
            return v;
        }
    }
    rng.normal_with(mean, std).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn check_common(d: &Dataset, n: usize) {
        assert_eq!(d.n_rows(), n);
        let pos = d.positive_rate();
        assert!(pos > 0.15 && pos < 0.85, "degenerate positive rate {pos}");
        let priv_frac = d.privileged_mask().iter().filter(|&&p| p).count() as f64 / n as f64;
        assert!(
            priv_frac > 0.05 && priv_frac < 0.95,
            "degenerate privileged fraction {priv_frac}"
        );
    }

    #[test]
    fn german_shape_and_determinism() {
        let d = german(1000, 7);
        check_common(&d, 1000);
        assert_eq!(d.n_features(), 13);
        let d2 = german(1000, 7);
        assert_eq!(d, d2, "same seed must reproduce the dataset exactly");
        let d3 = german(1000, 8);
        assert_ne!(d, d3, "different seeds should differ");
    }

    #[test]
    fn adult_shape() {
        let d = adult(2000, 1);
        check_common(&d, 2000);
        assert_eq!(d.n_features(), 8);
        // Privileged group = males.
        let gender = d.schema().feature_index("gender").unwrap();
        assert_eq!(d.protected().feature, gender);
    }

    #[test]
    fn sqf_shape() {
        let d = sqf(3000, 2);
        check_common(&d, 3000);
        assert_eq!(d.n_features(), 9);
    }

    #[test]
    fn german_has_planted_age_bias() {
        // Old individuals must have a visibly higher positive-label rate:
        // that is the bias the experiments debug.
        let d = german(4000, 3);
        let mask = d.privileged_mask();
        let mut old = (0usize, 0usize);
        let mut young = (0usize, 0usize);
        for (r, &is_priv) in mask.iter().enumerate() {
            let y = d.labels()[r] as usize;
            if is_priv {
                old = (old.0 + y, old.1 + 1);
            } else {
                young = (young.0 + y, young.1 + 1);
            }
        }
        let rate_old = old.0 as f64 / old.1 as f64;
        let rate_young = young.0 as f64 / young.1 as f64;
        assert!(
            rate_old - rate_young > 0.1,
            "expected label bias toward the old: {rate_old} vs {rate_young}"
        );
    }

    #[test]
    fn adult_has_planted_gender_bias() {
        let d = adult(4000, 4);
        let mask = d.privileged_mask();
        let mut m = (0usize, 0usize);
        let mut f = (0usize, 0usize);
        for (r, &is_priv) in mask.iter().enumerate() {
            let y = d.labels()[r] as usize;
            if is_priv {
                m = (m.0 + y, m.1 + 1);
            } else {
                f = (f.0 + y, f.1 + 1);
            }
        }
        let rate_m = m.0 as f64 / m.1 as f64;
        let rate_f = f.0 as f64 / f.1 as f64;
        assert!(rate_m - rate_f > 0.1, "males {rate_m} vs females {rate_f}");
    }

    #[test]
    fn sqf_has_planted_race_bias() {
        // Favorable label (1) = not frisked; whites should receive it more.
        let d = sqf(4000, 5);
        let mask = d.privileged_mask();
        let mut w = (0usize, 0usize);
        let mut nw = (0usize, 0usize);
        for (r, &is_priv) in mask.iter().enumerate() {
            let y = d.labels()[r] as usize;
            if is_priv {
                w = (w.0 + y, w.1 + 1);
            } else {
                nw = (nw.0 + y, nw.1 + 1);
            }
        }
        let rate_w = w.0 as f64 / w.1 as f64;
        let rate_nw = nw.0 as f64 / nw.1 as f64;
        assert!(
            rate_w - rate_nw > 0.1,
            "white {rate_w} vs non-white {rate_nw}"
        );
    }

    /// At SQF scale the generator's own planted-rate assertions run (they
    /// are gated on n ≥ 100k), and the planted subgroup A must be
    /// recoverable from the emitted columns with its frisk rate intact —
    /// the structure the `scale_1m` bench tier sweeps for.
    #[test]
    fn sqf_large_n_keeps_planted_rates() {
        let d = sqf(200_000, 11); // generation itself asserts the rates
        assert_eq!(d.n_rows(), 200_000);
        let race = d.schema().feature_index("race").unwrap();
        let black = d.schema().level_index(race, "Black").unwrap();
        let age = d.schema().feature_index("age").unwrap();
        let fits = d.schema().feature_index("fits_description").unwrap();
        let location = d.schema().feature_index("location").unwrap();
        let mut members = 0usize;
        let mut frisked = 0usize;
        for r in 0..d.n_rows() {
            if d.value(r, race).as_level() == black
                && d.value(r, fits).as_level() == 0
                && d.value(r, location).as_level() == 0
                && d.value(r, age).as_number() < 25.0
            {
                members += 1;
                // Label 1 = not frisked.
                frisked += usize::from(d.labels()[r] == 0);
            }
        }
        let support = members as f64 / d.n_rows() as f64;
        assert!(
            (0.05..0.30).contains(&support),
            "subgroup A support {support}"
        );
        let rate = frisked as f64 / members as f64;
        assert!(rate > 0.75, "subgroup A frisk rate {rate}");
    }

    #[test]
    fn planted_german_subgroup_exists_with_expected_support() {
        // (age >= 45) ∧ (gender = Female) should cover roughly 4–9% of rows
        // and be almost always labeled positive — the paper's top-1 pattern.
        let d = german(8000, 6);
        let age = d.schema().feature_index("age").unwrap();
        let gender = d.schema().feature_index("gender").unwrap();
        let female = d.schema().level_index(gender, "Female").unwrap();
        let mut members = 0usize;
        let mut positives = 0usize;
        for r in 0..d.n_rows() {
            if d.value(r, age).as_number() >= 45.0 && d.value(r, gender).as_level() == female {
                members += 1;
                positives += d.labels()[r] as usize;
            }
        }
        let support = members as f64 / d.n_rows() as f64;
        assert!(
            (0.03..=0.10).contains(&support),
            "planted subgroup support {support}"
        );
        let rate = positives as f64 / members as f64;
        assert!(rate > 0.85, "planted subgroup positive rate {rate}");
    }
}
