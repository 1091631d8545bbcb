//! Row-compressed sparse storage: each row keeps only its nonzero entries.
//!
//! Rows are built by compacting dense rows, so a row's entries are exactly
//! the entries of its dense form that are not `±0.0`, in increasing column
//! order. A dot product or an axpy over a row's entries therefore adds the
//! dense loop's nonzero terms in the dense loop's order. Every term it skips
//! is a product with an exact zero, `±0.0` for finite operands, and adding
//! `±0.0` leaves an accumulator that started at `+0.0` unchanged: under
//! round-to-nearest such an accumulator is never `−0.0`. Sums that start
//! at zero come out bit-identical to the dense loops.

use crate::Matrix;

/// A sparse row-major `rows × cols` matrix (compressed sparse rows): each
/// row's nonzero entries as `u32` column ids in increasing order and their
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    cols: usize,
    /// Row `r`'s entries are `ids[starts[r]..starts[r + 1]]` and the same
    /// range of `values`.
    starts: Vec<usize>,
    ids: Vec<u32>,
    values: Vec<f64>,
}

/// One row of a [`SparseRows`]: its stored entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseRow<'a> {
    /// Column ids, in increasing order.
    pub ids: &'a [u32],
    /// The value of each entry.
    pub values: &'a [f64],
}

impl SparseRow<'_> {
    /// `Σⱼ xⱼ vⱼ` over the stored entries, in column order.
    #[inline]
    pub fn dot(self, v: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&j, &x) in self.ids.iter().zip(self.values) {
            acc += x * v[j as usize];
        }
        acc
    }

    /// `outⱼ += alpha xⱼ` for every stored entry.
    #[inline]
    pub fn axpy(self, alpha: f64, out: &mut [f64]) {
        for (&j, &x) in self.ids.iter().zip(self.values) {
            out[j as usize] += alpha * x;
        }
    }
}

impl SparseRows {
    /// A matrix with no rows over `cols` columns.
    ///
    /// # Panics
    /// If `cols` exceeds `u32::MAX`, so that a column id would not fit.
    pub fn new(cols: usize) -> Self {
        assert!(
            u32::try_from(cols).is_ok(),
            "sparse rows: {cols} columns do not fit u32 column ids"
        );
        Self {
            cols,
            starts: vec![0],
            ids: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The nonzero entries of every row of `m`. Counts the nonzeros first,
    /// so the storage is allocated once at its final size.
    pub fn from_dense(m: &Matrix) -> Self {
        let nnz = m.as_slice().iter().filter(|v| **v != 0.0).count();
        let mut sparse = Self::new(m.cols());
        sparse.starts.reserve_exact(m.rows());
        // One row of slack: `push_dense` writes a whole row of ids before
        // it truncates them to the row's nonzeros.
        sparse.ids.reserve_exact(nnz + m.cols());
        sparse.values.reserve_exact(nnz);
        for r in 0..m.rows() {
            sparse.push_dense(m.row(r));
        }
        sparse
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `r`'s stored entries.
    #[inline]
    pub fn row(&self, r: usize) -> SparseRow<'_> {
        let (a, b) = (self.starts[r], self.starts[r + 1]);
        SparseRow {
            ids: &self.ids[a..b],
            values: &self.values[a..b],
        }
    }

    /// Appends a row: `row`'s nonzero entries.
    ///
    /// # Panics
    /// If `row.len()` differs from [`cols`](Self::cols).
    pub fn push_dense(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "sparse rows: row length mismatch");
        let start = self.ids.len();
        self.ids.resize(start + row.len(), 0);
        let ids = &mut self.ids[start..];
        let mut k = 0;
        // Branch-free compaction: every id is written, and the cursor only
        // advances past nonzeros.
        for (j, &v) in row.iter().enumerate() {
            ids[k] = j as u32;
            k += usize::from(v != 0.0);
        }
        self.ids.truncate(start + k);
        self.values
            .extend(self.ids[start..].iter().map(|&j| row[j as usize]));
        self.starts.push(start + k);
    }

    /// Keeps the rows `r` with `keep[r]`, in order, and drops the rest,
    /// compacting the storage in place one run of kept rows at a time.
    ///
    /// # Panics
    /// If `keep.len()` differs from [`rows`](Self::rows).
    pub fn retain_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.rows(), "sparse rows: keep mask length");
        let (mut kept, mut end, mut r) = (0, 0, 0);
        while r < keep.len() {
            if !keep[r] {
                r += 1;
                continue;
            }
            let first = r;
            while r < keep.len() && keep[r] {
                r += 1;
            }
            // Rows `first..r` move down by `shift` entries. Each `starts`
            // slot is read before any later write can reach it.
            let (a, b) = (self.starts[first], self.starts[r]);
            let shift = a - end;
            if shift > 0 {
                self.ids.copy_within(a..b, end);
                self.values.copy_within(a..b, end);
            }
            for q in first..r {
                kept += 1;
                self.starts[kept] = self.starts[q + 1] - shift;
            }
            end += b - a;
        }
        self.starts.truncate(kept + 1);
        self.ids.truncate(end);
        self.values.truncate(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 1.5, 0.0, -2.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![3.0, -0.0, 4.0, 0.0],
        ])
    }

    #[test]
    fn rows_keep_nonzero_entries_in_column_order() {
        let s = SparseRows::from_dense(&example());
        assert_eq!((s.rows(), s.cols(), s.nnz()), (3, 4, 4));
        assert_eq!(s.row(0).ids, &[1, 3]);
        assert_eq!(s.row(0).values, &[1.5, -2.0]);
        assert!(s.row(1).ids.is_empty());
        assert_eq!(s.row(2).ids, &[0, 2], "-0.0 is not stored");
    }

    #[test]
    fn dot_and_axpy_match_the_dense_loops_bit_for_bit() {
        let m = example();
        let s = SparseRows::from_dense(&m);
        let v = [0.1, -0.7, 1.3, 2.9];
        for r in 0..m.rows() {
            assert_eq!(
                s.row(r).dot(&v).to_bits(),
                crate::vecops::dot(m.row(r), &v).to_bits()
            );
            let (mut sparse, mut dense) = (vec![0.0; 4], vec![0.0; 4]);
            s.row(r).axpy(-0.3, &mut sparse);
            crate::vecops::axpy(-0.3, m.row(r), &mut dense);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sparse), bits(&dense));
        }
    }

    #[test]
    fn retain_rows_keeps_rows_in_order() {
        let mut rows: Vec<Vec<f64>> = (0..3).map(|r| example().row(r).to_vec()).collect();
        rows.extend([
            vec![1.0, 0.0, 0.0, 5.0],
            vec![0.0, 2.0, 0.0, 0.0],
            vec![6.0; 4],
        ]);
        let mut s = SparseRows::from_dense(&Matrix::from_rows(&rows));
        let keep = [true, false, false, true, true, false];
        s.retain_rows(&keep);
        let kept: Vec<Vec<f64>> = rows
            .into_iter()
            .zip(keep)
            .filter_map(|(row, k)| k.then_some(row))
            .collect();
        assert_eq!(s, SparseRows::from_dense(&Matrix::from_rows(&kept)));
        s.retain_rows(&[false, false, false]);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (0, 4, 0));
        s.push_dense(&[0.0, 7.0, 0.0, 0.0]);
        assert_eq!(s.row(0).ids, &[1]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_rejects_wrong_length() {
        SparseRows::new(3).push_dense(&[1.0, 2.0]);
    }
}
