//! A minimal dense row-major matrix used for count tables and the φ/θ
//! outputs of the topic models.
//!
//! Deliberately tiny: the models need contiguous storage, O(1) row slices,
//! and nothing else — pulling in a linear-algebra crate would be overkill.

use std::ops::{Index, IndexMut};

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> DenseMatrix<T> {
    /// Create a `rows × cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Create from a fill value.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }
}

impl<T> DenseMatrix<T> {
    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "dimension mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat access to the underlying storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable access.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }
}

impl<T> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl DenseMatrix<f64> {
    /// Normalize every row to sum to 1 (rows with zero mass become uniform).
    pub fn normalize_rows(&mut self) {
        let cols = self.cols;
        for row in self.data.chunks_exact_mut(cols.max(1)) {
            let sum: f64 = row.iter().sum();
            if sum > 0.0 {
                row.iter_mut().for_each(|x| *x /= sum);
            } else if cols > 0 {
                let u = 1.0 / cols as f64;
                row.iter_mut().for_each(|x| *x = u);
            }
        }
    }

    /// Collect rows into owned vectors (used at API boundaries).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(|r| r.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m: DenseMatrix<u32> = DenseMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m[(1, 2)] = 7;
        assert_eq!(m[(1, 2)], 7);
        assert_eq!(m.row(1), &[0, 0, 7]);
        assert_eq!(m.row(0), &[0, 0, 0]);
    }

    #[test]
    fn from_vec_round_trip() {
        let m = DenseMatrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m[(1, 0)], 3);
        assert_eq!(m.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn from_vec_checks_len() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m: DenseMatrix<f64> = DenseMatrix::zeros(2, 2);
        m.row_mut(0)[1] = 5.0;
        assert_eq!(m[(0, 1)], 5.0);
    }

    #[test]
    fn normalize_rows_handles_zero_rows() {
        let mut m = DenseMatrix::from_vec(2, 2, vec![2.0, 2.0, 0.0, 0.0]);
        m.normalize_rows();
        assert_eq!(m.row(0), &[0.5, 0.5]);
        assert_eq!(m.row(1), &[0.5, 0.5]);
    }

    #[test]
    fn iter_rows_and_to_rows() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(m.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn filled_constructor() {
        let m: DenseMatrix<f64> = DenseMatrix::filled(2, 2, 0.25);
        assert!(m.as_slice().iter().all(|&x| x == 0.25));
    }
}
