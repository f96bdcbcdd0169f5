//! Dense row-major `f32` matrices.
//!
//! Everything the Pythia model needs is rank-2 (sequences are `[len, dim]`,
//! batches are `[batch, dim]`), so this is deliberately a matrix type rather
//! than a general tensor. The hot operations are [`Tensor::matmul`] and the
//! transpose-free variants: each splits its output into row bands,
//! parallelized with scoped threads once the work is large enough to
//! amortize spawning, and every band is computed by the cache-blocked,
//! runtime-dispatched SIMD microkernels in [`crate::kernels`] — bit-identical
//! to the scalar reference at any ISA, thread count, or band split.

use crate::kernels::{a_bt_band, at_b_band, matmul_band};
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

/// Work threshold (multiply-accumulate count) above which matmul fans out to
/// threads.
const PAR_THRESHOLD: usize = 1 << 20;

impl Tensor {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Tensor {
        Tensor {
            data: vec![v; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { data, rows, cols }
    }

    /// Take the flat row-major buffer (tape buffer recycling).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Tensor {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { data, rows, cols }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Scalar multiply.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] written over a caller-supplied
    /// `[self.rows, other.cols]` tensor, whatever it held (the tape hands in
    /// arena buffers it has not cleared).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        let (a, b) = (&self.data, &other.data);
        for_each_band(&mut out.data, m, n, m * k * n, |band, start, rows| {
            matmul_band(a, b, band, [k, n, n], k, n, start, rows)
        });
    }

    /// `selfᵀ × other` without materializing the transpose — the backward
    /// pass's `gW = xᵀ·g`. `self: [m,k]`, `other: [m,n]` → `[k,n]`, summed in
    /// the same order as `self.transpose().matmul(other)` (bit-identical).
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_at_b(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_at_b`] written over a `[k,n]` tensor, whatever it
    /// held.
    pub fn matmul_at_b_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_at_b shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (k, n), "matmul_at_b output shape mismatch");
        let (a, b) = (&self.data, &other.data);
        for_each_band(&mut out.data, k, n, m * k * n, |band, start, rows| {
            at_b_band(a, b, band, [k, n, n], m, n, start, rows)
        });
    }

    /// `self × otherᵀ` without materializing the transpose — the backward
    /// pass's `gx = g·Wᵀ`. `self: [m,k]`, `other: [n,k]` → `[m,n]`, summed in
    /// the same order as `self.matmul(&other.transpose())` (bit-identical).
    ///
    /// # Panics
    /// Panics if the column counts disagree.
    pub fn matmul_a_bt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_a_bt`] written over an `[m,n]` tensor, whatever it
    /// held.
    pub fn matmul_a_bt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_a_bt shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (m, n), "matmul_a_bt output shape mismatch");
        let (a, b) = (&self.data, &other.data);
        for_each_band(&mut out.data, m, n, m * k * n, |band, start, rows| {
            a_bt_band(a, b, band, [k, k, n], k, n, start, rows)
        });
    }

    /// Fused `self × w + bias` (`bias: [1,n]`, broadcast over rows) — the
    /// Linear layer forward as one call. The matmul runs through the
    /// dispatched kernels; the bias lands *after* the full accumulation, so
    /// the result is bit-identical to `matmul` followed by a row add.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree or `bias` is not `[1, w.cols]`.
    pub fn matmul_bias(&self, w: &Tensor, bias: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, w.cols);
        self.matmul_bias_into(w, bias, &mut out);
        out
    }

    /// [`Tensor::matmul_bias`] written over a `[self.rows, w.cols]` tensor,
    /// whatever it held.
    pub fn matmul_bias_into(&self, w: &Tensor, bias: &Tensor, out: &mut Tensor) {
        assert_eq!(bias.shape(), (1, w.cols), "matmul_bias bias shape mismatch");
        self.matmul_into(w, out);
        let b = bias.row(0);
        for r in 0..out.rows {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(b) {
                *o += bv;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Column-wise sums as a `[1, cols]` tensor.
    pub fn col_sums(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        self.col_sums_into(&mut out);
        out
    }

    /// [`Tensor::col_sums`] accumulated into a zeroed `[1, cols]` tensor.
    pub fn col_sums_into(&self, out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "col_sums output shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Fill with zeros.
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    /// Maximum absolute difference to another tensor (test helper).
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Run `band(chunk, start_row, rows_here)` over the `[rows, n]` output
/// `out`: as one band when the work is small (or the pool is one thread
/// wide), else as one scoped thread per contiguous row band. The kernels are
/// bit-identical at any band split, so the fan-out never changes values.
fn for_each_band(
    out: &mut [f32],
    rows: usize,
    n: usize,
    work: usize,
    band: impl Fn(&mut [f32], usize, usize) + Sync,
) {
    let threads = if work < PAR_THRESHOLD || rows < 2 {
        1
    } else {
        crate::pool::configured_threads()
    };
    if threads < 2 {
        return band(out, 0, rows);
    }
    let per = rows.div_ceil(threads);
    let band = &band;
    std::thread::scope(|scope| {
        for (i, chunk) in out.chunks_mut(per * n).enumerate() {
            scope.spawn(move || band(chunk, i * per, chunk.len() / n));
        }
    });
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 5.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn from_fn_layout() {
        let t = Tensor::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Tensor::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Big enough to cross PAR_THRESHOLD.
        let a = Tensor::from_fn(128, 96, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(96, 128, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let big = a.matmul(&b);
        // Serial reference.
        let mut reference = Tensor::zeros(128, 128);
        for i in 0..128 {
            for k in 0..96 {
                for j in 0..128 {
                    let v = reference.get(i, j) + a.get(i, k) * b.get(k, j);
                    reference.set(i, j, v);
                }
            }
        }
        assert!(big.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = Tensor::from_fn(5, 3, |r, c| ((r * 7 + c * 3) % 11) as f32 - 4.0);
        let b = Tensor::from_fn(5, 4, |r, c| ((r * 5 + c) % 9) as f32 - 3.0);
        assert_eq!(a.matmul_at_b(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = Tensor::from_fn(4, 6, |r, c| ((r * 3 + c * 5) % 13) as f32 - 5.0);
        let b = Tensor::from_fn(3, 6, |r, c| ((r * 11 + c * 2) % 7) as f32 - 2.0);
        assert_eq!(a.matmul_a_bt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn fused_kernels_parallel_match_serial() {
        // Large enough to cross PAR_THRESHOLD so the banded paths run.
        let a = Tensor::from_fn(128, 96, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(128, 96, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        crate::pool::set_thread_override(1);
        let at_b_serial = a.matmul_at_b(&b);
        let a_bt_serial = a.matmul_a_bt(&b);
        crate::pool::set_thread_override(6);
        let at_b_par = a.matmul_at_b(&b);
        let a_bt_par = a.matmul_a_bt(&b);
        crate::pool::set_thread_override(0);
        assert_eq!(at_b_serial, at_b_par);
        assert_eq!(a_bt_serial, a_bt_par);
        assert_eq!(at_b_par, a.transpose().matmul(&b));
        assert_eq!(a_bt_par, a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic]
    fn at_b_shape_mismatch_panics() {
        Tensor::zeros(2, 3).matmul_at_b(&Tensor::zeros(3, 2));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(1, 3, vec![1., -2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 20., 30.]);
        assert_eq!(a.add(&b).as_slice(), &[11., 18., 33.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., -4., 6.]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1., 2., 3.]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.1);
        assert_eq!(c.as_slice(), &[2., 0., 6.]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.col_sums().as_slice(), &[4., 6.]);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_row_add() {
        let x = Tensor::from_fn(5, 3, |r, c| ((r * 7 + c * 3) % 11) as f32 - 4.0);
        let w = Tensor::from_fn(3, 4, |r, c| ((r * 5 + c) % 9) as f32 - 3.0);
        let b = Tensor::from_vec(1, 4, vec![0.5, -1.5, 2.0, 0.0]);
        let fused = x.matmul_bias(&w, &b);
        let mut reference = x.matmul(&w);
        for r in 0..reference.rows() {
            for c in 0..reference.cols() {
                let v = reference.get(r, c) + b.get(0, c);
                reference.set(r, c, v);
            }
        }
        assert_eq!(fused, reference);
    }

    #[test]
    #[should_panic]
    fn matmul_bias_shape_mismatch_panics() {
        Tensor::zeros(2, 3).matmul_bias(&Tensor::zeros(3, 4), &Tensor::zeros(1, 3));
    }

    /// Regression: the band kernels used to skip zero multipliers, which
    /// dropped `0.0 * inf = NaN` / `0.0 * NaN` propagation. All three
    /// variants must now propagate non-finite operands like the naive
    /// triple loop.
    #[test]
    fn zero_times_nonfinite_propagates_nan() {
        // matmul: [0, 1] × [inf; 2] → 0·inf + 1·2 = NaN.
        let a = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Tensor::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "matmul dropped 0*inf");

        // at_b: A = [0; 1] (a [2,1] column), B rows [NaN], [2].
        let a = Tensor::from_vec(2, 1, vec![0.0, 1.0]);
        let b = Tensor::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul_at_b(&b).get(0, 0).is_nan(), "at_b dropped 0*NaN");
        assert!(
            a.transpose().matmul(&b).get(0, 0).is_nan(),
            "transpose reference disagrees"
        );

        // a_bt: [0, 1] × [inf, 2]ᵀ → NaN.
        let a = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Tensor::from_vec(1, 2, vec![f32::INFINITY, 2.0]);
        assert!(a.matmul_a_bt(&b).get(0, 0).is_nan(), "a_bt dropped 0*inf");
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }

    #[test]
    #[should_panic]
    fn add_shape_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).add(&Tensor::zeros(3, 2));
    }
}
