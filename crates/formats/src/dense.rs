//! Row-major dense matrices for the multi-vector operand `B` and output `C`.

use crate::{FormatError, Shape, Value};

/// A row-major dense matrix of `f32`.
///
/// SpMM multiplies a sparse `A[M][N]` by a dense `B[N][K]` into a dense
/// `C[M][K]` (Algorithm 1 of the paper). `K` is the number of vectors; the
/// paper's kernels map warps across these `K` columns (row-per-warp).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Value>,
}

impl DenseMatrix {
    /// An `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Build from a row-major buffer. Fails if `data.len() != nrows*ncols`.
    pub fn from_row_major(
        nrows: usize,
        ncols: usize,
        data: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if data.len() != nrows * ncols {
            return Err(FormatError::LengthMismatch {
                expected: nrows * ncols,
                found: data.len(),
                name: "dense data",
            });
        }
        Ok(Self { nrows, ncols, data })
    }

    /// Build by evaluating `f(row, col)` for every cell.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> Value) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                data.push(f(r, c));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Matrix shape.
    pub fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Read a cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Value {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.data[row * self.ncols + col]
    }

    /// Write a cell.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: Value) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.data[row * self.ncols + col] = v;
    }

    /// Accumulate into a cell.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, v: Value) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.data[row * self.ncols + col] += v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[Value] {
        let start = row * self.ncols;
        &self.data[start..start + self.ncols]
    }

    /// Borrow one row mutably.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [Value] {
        let start = row * self.ncols;
        &mut self.data[start..start + self.ncols]
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[Value] {
        &self.data
    }

    /// The raw row-major buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [Value] {
        &mut self.data
    }

    /// Split the matrix row range into disjoint mutable row-major chunks of
    /// `rows_per_chunk` rows — the building block for parallel C-stationary
    /// updates where each worker owns a horizontal strip of `C`.
    pub fn par_row_chunks_mut(&mut self, rows_per_chunk: usize) -> Vec<(usize, &mut [Value])> {
        assert!(rows_per_chunk > 0, "rows_per_chunk must be positive");
        let ncols = self.ncols;
        self.data
            .chunks_mut(rows_per_chunk * ncols)
            .enumerate()
            .map(|(i, chunk)| (i * rows_per_chunk, chunk))
            .collect()
    }

    /// Fill every cell with `v`.
    pub fn fill(&mut self, v: Value) {
        self.data.fill(v);
    }

    /// Storage footprint in bytes (the `8N²`-style terms of the paper's §2
    /// byte/FLOP model count dense traffic at 4 bytes per cell per matrix).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * crate::VALUE_BYTES
    }

    /// Maximum absolute difference against another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Largest cell difference against `other`, each relative to the
    /// larger magnitude with an absolute floor of 1: infinite when the
    /// shapes differ, NaN when a cell compares as NaN.
    pub fn max_scaled_diff(&self, other: &DenseMatrix) -> f32 {
        if self.shape() != other.shape() {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(1.0))
            .fold(0.0, |max, d| if d > max || d.is_nan() { d } else { max })
    }

    /// True when all cells are within `tol` of `other` (relative to the
    /// larger magnitude, with an absolute floor). Suitable for comparing
    /// SpMM results whose accumulation order differs.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f32) -> bool {
        self.max_scaled_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.shape(), Shape::new(2, 3));
        m.set(1, 2, 5.0);
        m.add(1, 2, 1.5);
        assert_eq!(m.get(1, 2), 6.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 6.5]);
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
        let m = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = DenseMatrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn row_chunks_cover_matrix() {
        let mut m = DenseMatrix::from_fn(5, 2, |r, _| r as f32);
        let chunks = m.par_row_chunks_mut(2);
        assert_eq!(chunks.len(), 3); // 2 + 2 + 1 rows
        let starts: Vec<usize> = chunks.iter().map(|(s, _)| *s).collect();
        assert_eq!(starts, vec![0, 2, 4]);
        let total: usize = chunks.iter().map(|(_, c)| c.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = DenseMatrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let mut b = a.clone();
        b.add(0, 1, 1e-7);
        assert!(a.approx_eq(&b, 1e-5));
        b.add(0, 1, 1.0);
        assert!(!a.approx_eq(&b, 1e-5));
        assert!(a.max_abs_diff(&b) > 0.9);
    }

    #[test]
    fn storage_bytes_counts_values() {
        let m = DenseMatrix::zeros(10, 10);
        assert_eq!(m.storage_bytes(), 400);
    }
}
