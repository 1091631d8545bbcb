//! One-hot + z-score encoding of datasets into design matrices.
//!
//! The encoder is *fit* on training data (collecting per-feature means,
//! standard deviations, and observed numeric ranges) and then *transforms*
//! any dataset with the same schema. The recorded [`EncodingLayout`] is what
//! lets update-based explanations (paper §5) project perturbed points back
//! into the valid input domain (Eq. 19) and decode them for display:
//!
//! * numeric features become one standardized column, with the training
//!   min/max retained as box constraints;
//! * categorical features become a full one-hot block, whose nearest valid
//!   point under L2 is "argmax coordinate gets 1, rest get 0".

use crate::dataset::{Dataset, Value};
use crate::schema::FeatureKind;
use gopher_linalg::Matrix;

/// How one schema feature maps into encoded columns.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedGroup {
    /// A standardized numeric column.
    Numeric {
        /// Schema feature index.
        feature: usize,
        /// Encoded column index.
        col: usize,
        /// Training mean (for standardization).
        mean: f64,
        /// Training standard deviation (>= `MIN_STD`).
        std: f64,
        /// Smallest standardized value observed in training data.
        lo: f64,
        /// Largest standardized value observed in training data.
        hi: f64,
    },
    /// A one-hot block of `n_levels` consecutive columns.
    OneHot {
        /// Schema feature index.
        feature: usize,
        /// First encoded column of the block.
        first_col: usize,
        /// Number of levels (= number of columns in the block).
        n_levels: usize,
    },
}

/// Complete description of the encoded feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingLayout {
    groups: Vec<EncodedGroup>,
    n_cols: usize,
}

impl EncodingLayout {
    /// Encoded feature groups in schema order.
    pub fn groups(&self) -> &[EncodedGroup] {
        &self.groups
    }

    /// Total number of encoded columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }
}

/// Minimum standard deviation used for standardization, to avoid dividing by
/// zero on constant training columns.
const MIN_STD: f64 = 1e-9;

/// A fitted encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoder {
    layout: EncodingLayout,
    n_features: usize,
}

/// An encoded dataset: the design matrix plus labels and group membership.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// `n × p` design matrix (no intercept column; models add their own).
    pub x: Matrix,
    /// Labels as 0.0 / 1.0.
    pub y: Vec<f64>,
    /// Privileged-group membership per row.
    pub privileged: Vec<bool>,
}

impl Encoded {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.x.rows()
    }

    /// Number of encoded columns.
    pub fn n_cols(&self) -> usize {
        self.x.cols()
    }

    /// Returns a copy with only the selected rows.
    pub fn select_rows(&self, rows: &[usize]) -> Encoded {
        let p = self.n_cols();
        let mut x = Matrix::zeros(rows.len(), p);
        for (new_r, &r) in rows.iter().enumerate() {
            x.row_mut(new_r).copy_from_slice(self.x.row(r));
        }
        Encoded {
            x,
            y: rows.iter().map(|&r| self.y[r]).collect(),
            privileged: rows.iter().map(|&r| self.privileged[r]).collect(),
        }
    }

    /// Returns a copy without the rows whose mask entry is true.
    pub fn remove_rows(&self, remove: &[bool]) -> Encoded {
        assert_eq!(
            remove.len(),
            self.n_rows(),
            "remove_rows: mask length mismatch"
        );
        let keep: Vec<usize> = (0..self.n_rows()).filter(|&r| !remove[r]).collect();
        self.select_rows(&keep)
    }

    /// One-pass delta patch: drops the rows whose mask entry is true and
    /// appends `added`'s rows. Because encoding is row-wise under a frozen
    /// layout, this is bit-identical to re-encoding the patched raw dataset
    /// — without touching the unchanged rows' features again.
    ///
    /// # Panics
    /// If the mask length or column counts mismatch.
    pub fn patched(&self, remove: &[bool], added: &Encoded) -> Encoded {
        assert_eq!(remove.len(), self.n_rows(), "patched: mask length mismatch");
        assert_eq!(self.n_cols(), added.n_cols(), "patched: column mismatch");
        let p = self.n_cols();
        let kept = remove.iter().filter(|&&r| !r).count();
        let n_new = kept + added.n_rows();
        let mut data = Vec::with_capacity(n_new * p);
        for (r, &gone) in remove.iter().enumerate() {
            if !gone {
                data.extend_from_slice(self.x.row(r));
            }
        }
        data.extend_from_slice(added.x.as_slice());
        let mut y = Vec::with_capacity(n_new);
        let mut privileged = Vec::with_capacity(n_new);
        for (r, &gone) in remove.iter().enumerate() {
            if !gone {
                y.push(self.y[r]);
                privileged.push(self.privileged[r]);
            }
        }
        y.extend_from_slice(&added.y);
        privileged.extend_from_slice(&added.privileged);
        Encoded {
            x: Matrix::from_vec(n_new, p, data),
            y,
            privileged,
        }
    }
}

impl Encoder {
    /// Fits the encoder on training data: records one-hot blocks for
    /// categorical features and mean/std/min/max for numeric features.
    pub fn fit(train: &Dataset) -> Encoder {
        let mut groups = Vec::with_capacity(train.n_features());
        let mut next_col = 0usize;
        for (f_idx, feat) in train.schema().features().iter().enumerate() {
            match &feat.kind {
                FeatureKind::Categorical { levels } => {
                    groups.push(EncodedGroup::OneHot {
                        feature: f_idx,
                        first_col: next_col,
                        n_levels: levels.len(),
                    });
                    next_col += levels.len();
                }
                FeatureKind::Numeric => {
                    let vals = train.column(f_idx).as_numeric();
                    let mean = gopher_linalg::vecops::mean(vals);
                    let std = gopher_linalg::vecops::variance(vals).sqrt().max(MIN_STD);
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &v in vals {
                        let z = (v - mean) / std;
                        lo = lo.min(z);
                        hi = hi.max(z);
                    }
                    if !lo.is_finite() {
                        // Empty training column: degenerate but harmless.
                        lo = 0.0;
                        hi = 0.0;
                    }
                    groups.push(EncodedGroup::Numeric {
                        feature: f_idx,
                        col: next_col,
                        mean,
                        std,
                        lo,
                        hi,
                    });
                    next_col += 1;
                }
            }
        }
        Encoder {
            layout: EncodingLayout {
                groups,
                n_cols: next_col,
            },
            n_features: train.n_features(),
        }
    }

    /// The encoded-space layout.
    pub fn layout(&self) -> &EncodingLayout {
        &self.layout
    }

    /// Number of encoded columns.
    pub fn n_cols(&self) -> usize {
        self.layout.n_cols
    }

    /// Encodes a dataset with the same schema the encoder was fit on.
    pub fn transform(&self, data: &Dataset) -> Encoded {
        assert_eq!(
            data.n_features(),
            self.n_features,
            "transform: feature count mismatch"
        );
        let n = data.n_rows();
        let mut x = Matrix::zeros(n, self.layout.n_cols);
        for group in &self.layout.groups {
            match group {
                EncodedGroup::OneHot {
                    feature,
                    first_col,
                    n_levels,
                } => {
                    let vals = data.column(*feature).as_categorical();
                    for (r, &lvl) in vals.iter().enumerate() {
                        assert!(
                            (lvl as usize) < *n_levels,
                            "transform: unseen level {lvl} in feature {feature}"
                        );
                        x[(r, first_col + lvl as usize)] = 1.0;
                    }
                }
                EncodedGroup::Numeric {
                    feature,
                    col,
                    mean,
                    std,
                    ..
                } => {
                    let vals = data.column(*feature).as_numeric();
                    for (r, &v) in vals.iter().enumerate() {
                        x[(r, *col)] = (v - mean) / std;
                    }
                }
            }
        }
        Encoded {
            x,
            y: data.labels().iter().map(|&y| y as f64).collect(),
            privileged: data.privileged_mask(),
        }
    }

    /// Projects an encoded row onto the valid input domain in place
    /// (paper Eq. 19): numeric coordinates are clamped to the training range;
    /// each one-hot block is replaced by the nearest valid one-hot vector
    /// (1 at the argmax, 0 elsewhere).
    pub fn project_row(&self, row: &mut [f64]) {
        assert_eq!(
            row.len(),
            self.layout.n_cols,
            "project_row: length mismatch"
        );
        for group in &self.layout.groups {
            match group {
                EncodedGroup::Numeric { col, lo, hi, .. } => {
                    row[*col] = row[*col].clamp(*lo, *hi);
                }
                EncodedGroup::OneHot {
                    first_col,
                    n_levels,
                    ..
                } => {
                    let block = &mut row[*first_col..first_col + n_levels];
                    let mut best = 0usize;
                    for (i, &v) in block.iter().enumerate() {
                        if v > block[best] {
                            best = i;
                        }
                    }
                    for (i, v) in block.iter_mut().enumerate() {
                        *v = if i == best { 1.0 } else { 0.0 };
                    }
                }
            }
        }
    }

    /// Decodes a *projected* encoded row back to raw feature values.
    ///
    /// One-hot blocks decode to their argmax level; numeric columns are
    /// unstandardized. The row does not need to be exactly one-hot — the
    /// argmax is used — so this is safe to call on unprojected rows too.
    pub fn decode_row(&self, row: &[f64]) -> Vec<Value> {
        assert_eq!(row.len(), self.layout.n_cols, "decode_row: length mismatch");
        let mut out = vec![Value::Number(0.0); self.n_features];
        for group in &self.layout.groups {
            match group {
                EncodedGroup::Numeric {
                    feature,
                    col,
                    mean,
                    std,
                    ..
                } => {
                    out[*feature] = Value::Number(row[*col] * std + mean);
                }
                EncodedGroup::OneHot {
                    feature,
                    first_col,
                    n_levels,
                } => {
                    let block = &row[*first_col..first_col + n_levels];
                    let mut best = 0usize;
                    for (i, &v) in block.iter().enumerate() {
                        if v > block[best] {
                            best = i;
                        }
                    }
                    out[*feature] = Value::Level(best as u32);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Column;
    use crate::schema::{Feature, PrivilegedIf, ProtectedSpec, Schema};

    fn toy() -> Dataset {
        let schema = Schema::new(
            vec![
                Feature::categorical("color", ["red", "blue", "green"]),
                Feature::numeric("age"),
            ],
            "label",
        );
        Dataset::new(
            schema,
            vec![
                Column::Categorical(vec![0, 1, 2, 1]),
                Column::Numeric(vec![20.0, 30.0, 40.0, 50.0]),
            ],
            vec![0, 1, 1, 0],
            ProtectedSpec {
                feature: 1,
                privileged: PrivilegedIf::AtLeast(35.0),
            },
        )
    }

    #[test]
    fn layout_shapes() {
        let d = toy();
        let enc = Encoder::fit(&d);
        assert_eq!(enc.n_cols(), 4); // 3 one-hot + 1 numeric
        assert_eq!(enc.layout().groups().len(), 2);
    }

    #[test]
    fn transform_one_hot_and_standardize() {
        let d = toy();
        let enc = Encoder::fit(&d);
        let e = enc.transform(&d);
        assert_eq!(e.n_rows(), 4);
        // Row 0: color=red → [1,0,0]; age standardized.
        assert_eq!(e.x[(0, 0)], 1.0);
        assert_eq!(e.x[(0, 1)], 0.0);
        assert_eq!(e.x[(0, 2)], 0.0);
        // Standardized column has ~zero mean and unit variance.
        let col: Vec<f64> = (0..4).map(|r| e.x[(r, 3)]).collect();
        assert!(gopher_linalg::vecops::mean(&col).abs() < 1e-12);
        assert!((gopher_linalg::vecops::variance(&col) - 1.0).abs() < 1e-9);
        // Labels and privilege flow through.
        assert_eq!(e.y, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(e.privileged, vec![false, false, true, true]);
    }

    #[test]
    fn project_clamps_and_one_hots() {
        let d = toy();
        let enc = Encoder::fit(&d);
        let mut row = vec![0.2, 0.9, 0.4, 99.0];
        enc.project_row(&mut row);
        assert_eq!(&row[..3], &[0.0, 1.0, 0.0], "argmax one-hot");
        // Numeric clamped to max standardized training value.
        let EncodedGroup::Numeric { hi, .. } = &enc.layout().groups()[1] else {
            panic!("expected numeric group");
        };
        assert_eq!(row[3], *hi);
    }

    #[test]
    fn decode_round_trips() {
        let d = toy();
        let enc = Encoder::fit(&d);
        let e = enc.transform(&d);
        for r in 0..d.n_rows() {
            let decoded = enc.decode_row(e.x.row(r));
            assert_eq!(decoded[0].as_level(), d.value(r, 0).as_level());
            assert!((decoded[1].as_number() - d.value(r, 1).as_number()).abs() < 1e-9);
        }
    }

    #[test]
    fn select_and_remove_rows() {
        let d = toy();
        let enc = Encoder::fit(&d);
        let e = enc.transform(&d);
        let s = e.select_rows(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.y, vec![1.0, 0.0]);
        let r = e.remove_rows(&[false, true, true, false]);
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.y, vec![0.0, 0.0]);
    }

    #[test]
    fn constant_numeric_column_does_not_blow_up() {
        let schema = Schema::new(vec![Feature::numeric("c")], "y");
        let d = Dataset::new(
            schema,
            vec![Column::Numeric(vec![5.0, 5.0, 5.0])],
            vec![0, 1, 0],
            ProtectedSpec {
                feature: 0,
                privileged: PrivilegedIf::AtLeast(0.0),
            },
        );
        let enc = Encoder::fit(&d);
        let e = enc.transform(&d);
        assert!(e.x.is_finite());
        assert_eq!(e.x[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "unseen level")]
    fn transform_rejects_unseen_level() {
        // Fit on a 2-level schema, transform data claiming 3 levels.
        let schema2 = Schema::new(vec![Feature::categorical("c", ["a", "b"])], "y");
        let d2 = Dataset::new(
            schema2,
            vec![Column::Categorical(vec![0, 1])],
            vec![0, 1],
            ProtectedSpec {
                feature: 0,
                privileged: PrivilegedIf::Level(0),
            },
        );
        let enc = Encoder::fit(&d2);
        let schema3 = Schema::new(vec![Feature::categorical("c", ["a", "b", "c"])], "y");
        let d3 = Dataset::new(
            schema3,
            vec![Column::Categorical(vec![2])],
            vec![1],
            ProtectedSpec {
                feature: 0,
                privileged: PrivilegedIf::Level(0),
            },
        );
        let _ = enc.transform(&d3);
    }
}
