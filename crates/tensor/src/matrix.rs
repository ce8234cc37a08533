//! The dense row-major `f32` matrix type.

use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// ```
/// use rpf_tensor::Matrix;
/// use rpf_tensor::matmul::matmul;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::eye(2);
/// assert_eq!(matmul(&a, &b), a);
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// ```
///
/// All shape mismatches panic: in this codebase a shape error is always a
/// programming bug (the network architecture is static), so failing fast with
/// the offending shapes in the message is the right trade-off.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Build a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer. Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// A 1xN row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "get({r},{c}) out of {:?}",
            self.shape()
        );
        self.data[r * self.cols + c]
    }

    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "set({r},{c}) out of {:?}",
            self.shape()
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` out into a `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on larger matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Reshape without copying the buffer. Panics if the element count changes.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            self.data.len(),
            rows * cols,
            "reshape: {:?} -> {rows}x{cols}",
            self.shape()
        );
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Stack matrices vertically (they must share a column count).
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "vstack: column mismatch {} vs {cols}", m.cols);
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Stack matrices horizontally (they must share a row count).
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for m in parts {
            assert_eq!(m.rows, rows, "hstack: row mismatch {} vs {rows}", m.rows);
            for r in 0..rows {
                out.data[r * cols + offset..r * cols + offset + m.cols].copy_from_slice(m.row(r));
            }
            offset += m.cols;
        }
        out
    }

    /// Extract columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols {start}..{end} of {:?}",
            self.shape()
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Extract rows `[start, end)` into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows {start}..{end} of {:?}",
            self.shape()
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gather a new matrix whose row `i` is `self.row(indices[i])`.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather_rows: index {idx} out of {} rows",
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Resize to `rows x cols` *without* clearing: retained elements keep
    /// whatever stale values they held, and only newly-grown slots are
    /// zeroed. Strictly for kernels that overwrite every element before the
    /// buffer is observed (the `batched` kernels' caller-owned outputs), so
    /// a warm scratch buffer never reallocates.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.data.resize(n, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t.get(3, 4), m.get(4, 3));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_blocked_matches_naive_on_large() {
        let m = Matrix::from_fn(70, 45, |r, c| (r as f32).sin() + c as f32);
        let t = m.transpose();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                assert_eq!(t.get(c, r), m.get(r, c));
            }
        }
    }

    #[test]
    fn hstack_vstack() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let b = Matrix::full(2, 3, 9.0);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.row(0), &[0.0, 1.0, 9.0, 9.0, 9.0]);
        assert_eq!(h.row(1), &[2.0, 3.0, 9.0, 9.0, 9.0]);

        let c = Matrix::full(1, 2, 7.0);
        let v = Matrix::vstack(&[&a, &c]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[7.0, 7.0]);
    }

    #[test]
    fn slice_cols_and_rows() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let s = m.slice_cols(1, 3);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[9.0, 10.0]);
        let s = m.slice_rows(1, 2);
        assert_eq!(s.shape(), (1, 4));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn gather_rows_copies_in_order() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = m.gather_rows(&[3, 0, 3]);
        assert_eq!(g.col(0), vec![3.0, 0.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let m = Matrix::from_fn(2, 6, |r, c| (r * 6 + c) as f32);
        let r = m.clone().reshape(3, 4);
        assert_eq!(r.as_slice(), m.as_slice());
        assert_eq!(r.shape(), (3, 4));
    }

    #[test]
    fn stats() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert!((m.frob_norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert!(!m.has_non_finite());
        let bad = Matrix::from_vec(1, 2, vec![1.0, f32::NAN]);
        assert!(bad.has_non_finite());
    }
}

// Serde support: serialized as `{rows, cols, data}` with a length check on
// deserialization so corrupted files fail loudly instead of mis-shaping.
impl serde::Serialize for Matrix {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Matrix", 3)?;
        s.serialize_field("rows", &self.rows)?;
        s.serialize_field("cols", &self.cols)?;
        s.serialize_field("data", &self.data)?;
        s.end()
    }
}

impl<'de> serde::Deserialize<'de> for Matrix {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Raw {
            rows: usize,
            cols: usize,
            data: Vec<f32>,
        }
        let raw = Raw::deserialize(deserializer)?;
        if raw.data.len() != raw.rows * raw.cols {
            return Err(serde::de::Error::custom(format!(
                "matrix data length {} != {}x{}",
                raw.data.len(),
                raw.rows,
                raw.cols
            )));
        }
        Ok(Matrix {
            rows: raw.rows,
            cols: raw.cols,
            data: raw.data,
        })
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn corrupted_length_rejected() {
        let bad = r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#;
        assert!(serde_json::from_str::<Matrix>(bad).is_err());
    }
}
