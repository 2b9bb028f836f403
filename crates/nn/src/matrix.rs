//! A small row-major dense matrix.
//!
//! Only the operations reverse-mode differentiation of an MLP needs are
//! provided: matrix–vector products (plain and transposed), rank-1 updates,
//! and elementwise arithmetic. Shapes are checked with `assert!` — these are
//! programming errors, not runtime conditions.

use crate::kernel;
use serde::{Deserialize, Serialize};

// Cache-blocking tile sizes of the batched backward: samples and
// k-columns.
//
// 64 samples × 256 k-columns keep one tile's working set — a sample block
// of gradients plus a k-block of every weight row — in L1/L2 for the layer
// widths this repo trains (tens of units, batches of 32–96), while
// degenerating to the untiled loops when shapes are smaller than one tile.
//
// Tiling never changes results: every output element is still computed by
// one complete ascending-r chain; tiles only reorder *which elements* are
// computed when, never the additions inside any one element.
const TILE_S: usize = 64;
const TILE_K: usize = 256;

/// Dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a row-major data vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// The row-major data vector, for reuse as a buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Build by calling `f(row, col)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing storage (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// The batched kernels in [`crate::mlp`] treat a matrix as a stack of
    /// per-sample rows and compute every element with the exact chain of
    /// the per-row vector kernels ([`Matrix::matvec_into`],
    /// [`Matrix::matvec_t_add`], [`Matrix::add_outer`]) so that batched
    /// results stay bit-identical to the per-sample path.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Entry at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Overwrite the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// `out = self * x` where `x.len() == cols`; `out.len() == rows`.
    ///
    /// Every element is one sequential dot product `acc += w * x` over
    /// ascending `k`, starting from `+0.0`; four rows run side by side as
    /// independent chains (`docs/PERF.md` §2).
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: input length mismatch");
        assert_eq!(out.len(), self.rows, "matvec: output length mismatch");
        kernel::matvec(&self.data, self.cols, x, out);
    }

    /// `self * x` allocating the output.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Batched forward: `out.row(s) = self * x.row(s)` for every row of
    /// `x` (i.e. `out = x · selfᵀ`, row-major).
    ///
    /// Every output element is the same sequential dot product
    /// [`Matrix::matvec_into`] computes, so results are **bit-identical**
    /// to calling `matvec_into` per row. Samples are packed k-major into
    /// panels of SIMD lanes and four weight rows run per pass over a
    /// panel: the lanes are independent chains, so packing changes only
    /// which chains run side by side, never the order of operations
    /// within any one element (`docs/PERF.md` §2, §15).
    pub fn matmul_nt_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols, self.cols, "matmul_nt: input width mismatch");
        assert_eq!(out.rows, x.rows, "matmul_nt: output rows mismatch");
        assert_eq!(out.cols, self.rows, "matmul_nt: output cols mismatch");
        if telemetry::enabled() {
            telemetry::counter_add("nn.flops", (2 * x.rows * self.rows * self.cols) as u64);
        }
        let mut panel = vec![0.0; kernel::PANEL_LANES * self.cols];
        kernel::matmul_nt(&self.data, self.rows, self.cols, &x.data, &mut out.data, &mut panel);
    }

    /// Batched backward: `out.row(s) += selfᵀ * d.row(s)` for every row
    /// of `d` — gradient propagation through a linear layer for a whole
    /// batch.
    ///
    /// Replays [`Matrix::matvec_t_add`]'s exact per-element additions —
    /// including its skip of zero gradient entries — per sample, so the
    /// result is bit-identical to the per-row loop. When all four
    /// interleaved samples have a nonzero gradient for an output neuron
    /// (the common case for tanh nets), the four updates share one pass
    /// over the weight row.
    ///
    /// The loop nest is **cache-blocked** over samples and weight
    /// *columns* (`k`): a k-tile of every weight row is reused across the
    /// sample block before moving on (`TILE_S` × `TILE_K`). The
    /// ascending-`r` addition chain into each output element is replayed
    /// completely inside its k-tile, so results stay bit-identical for
    /// every tile size. (Blocking over `r` would split those chains and
    /// change the bits, so `r` is never tiled here.)
    pub fn matmul_t_add_into(&self, d: &Matrix, out: &mut Matrix) {
        assert_eq!(d.cols, self.rows, "matmul_t: gradient width mismatch");
        assert_eq!(out.rows, d.rows, "matmul_t: output rows mismatch");
        assert_eq!(out.cols, self.cols, "matmul_t: output cols mismatch");
        if telemetry::enabled() {
            telemetry::counter_add("nn.flops", (2 * d.rows * self.rows * self.cols) as u64);
        }
        let mut s0 = 0;
        while s0 < d.rows {
            let s1 = (s0 + TILE_S).min(d.rows);
            let mut k0 = 0;
            while k0 < self.cols {
                let k1 = (k0 + TILE_K).min(self.cols);
                self.t_add_block(d, out, s0, s1, k0, k1);
                k0 = k1;
            }
            s0 = s1;
        }
    }

    /// One `samples × k-columns` tile of [`Matrix::matmul_t_add_into`]:
    /// `out[s][k] += Σ_r d[s][r] * self[r][k]` for `s` in `s0..s1`, `k`
    /// in `k0..k1`, replaying [`Matrix::matvec_t_add`]'s ascending-`r`
    /// additions (including its zero-gradient skips) within the tile.
    fn t_add_block(
        &self,
        d: &Matrix,
        out: &mut Matrix,
        s0: usize,
        s1: usize,
        k0: usize,
        k1: usize,
    ) {
        let n = self.cols;
        let mut s = s0;
        while s + 4 <= s1 {
            let block = &mut out.data[s * n..(s + 4) * n];
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            let (o0, o1) = (&mut o0[k0..k1], &mut o1[k0..k1]);
            let (o2, o3) = (&mut o2[k0..k1], &mut o3[k0..k1]);
            let d0 = &d.data[s * d.cols..(s + 1) * d.cols];
            let d1 = &d.data[(s + 1) * d.cols..(s + 2) * d.cols];
            let d2 = &d.data[(s + 2) * d.cols..(s + 3) * d.cols];
            let d3 = &d.data[(s + 3) * d.cols..(s + 4) * d.cols];
            for r in 0..self.rows {
                let w = &self.data[r * n + k0..r * n + k1];
                let (y0, y1, y2, y3) = (d0[r], d1[r], d2[r], d3[r]);
                if y0 != 0.0 && y1 != 0.0 && y2 != 0.0 && y3 != 0.0 {
                    for (k, &wk) in w.iter().enumerate() {
                        o0[k] += y0 * wk;
                        o1[k] += y1 * wk;
                        o2[k] += y2 * wk;
                        o3[k] += y3 * wk;
                    }
                } else {
                    // per-sample zero skips, exactly as matvec_t_add
                    if y0 != 0.0 {
                        for (o, &wk) in o0.iter_mut().zip(w.iter()) {
                            *o += y0 * wk;
                        }
                    }
                    if y1 != 0.0 {
                        for (o, &wk) in o1.iter_mut().zip(w.iter()) {
                            *o += y1 * wk;
                        }
                    }
                    if y2 != 0.0 {
                        for (o, &wk) in o2.iter_mut().zip(w.iter()) {
                            *o += y2 * wk;
                        }
                    }
                    if y3 != 0.0 {
                        for (o, &wk) in o3.iter_mut().zip(w.iter()) {
                            *o += y3 * wk;
                        }
                    }
                }
            }
            s += 4;
        }
        while s < s1 {
            let row = &mut out.data[s * n + k0..s * n + k1];
            let drow = &d.data[s * d.cols..(s + 1) * d.cols];
            // remainder rows run the per-sample kernel's exact loop
            for (r, yr) in drow.iter().enumerate() {
                if *yr == 0.0 {
                    continue;
                }
                let w = &self.data[r * n + k0..r * n + k1];
                for (o, wk) in row.iter_mut().zip(w.iter()) {
                    *o += yr * wk;
                }
            }
            s += 1;
        }
    }

    /// `out += selfᵀ * y` where `y.len() == rows`; `out.len() == cols`.
    ///
    /// This is the backward pass through a linear layer: given the gradient
    /// w.r.t. the layer output, accumulate the gradient w.r.t. its input.
    pub fn matvec_t_add(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "matvec_t: input length mismatch");
        assert_eq!(out.len(), self.cols, "matvec_t: output length mismatch");
        for (r, yr) in y.iter().enumerate() {
            if *yr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, w) in out.iter_mut().zip(row.iter()) {
                *o += yr * w;
            }
        }
    }

    /// Rank-1 update `self += alpha * y xᵀ` (`y.len() == rows`,
    /// `x.len() == cols`) — the weight-gradient accumulation of backprop.
    pub fn add_outer(&mut self, alpha: f64, y: &[f64], x: &[f64]) {
        assert_eq!(y.len(), self.rows, "add_outer: rows mismatch");
        assert_eq!(x.len(), self.cols, "add_outer: cols mismatch");
        for (r, yr) in y.iter().enumerate() {
            let a = alpha * yr;
            if a == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, xi) in row.iter_mut().zip(x.iter()) {
                *w += a * xi;
            }
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_scaled: rows mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled: cols mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Set every entry to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of squared entries (used for gradient-norm clipping).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matvec_known() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_matches_manual_transpose() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 3];
        m.matvec_t_add(&[1.0, -1.0], &mut out);
        assert_eq!(out, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 3.0], &[5.0, 7.0]);
        assert_eq!(m.as_slice(), &[10.0, 14.0, 30.0, 42.0]);
        m.add_outer(1.0, &[1.0, 0.0], &[1.0, 0.0]);
        assert_eq!(m.get(0, 0), 11.0);
    }

    #[test]
    fn scale_and_zero() {
        let mut m = Matrix::from_vec(1, 2, vec![2.0, -4.0]);
        m.scale(0.5);
        assert_eq!(m.as_slice(), &[1.0, -2.0]);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn sq_norm() {
        let m = Matrix::from_vec(1, 3, vec![1.0, 2.0, 2.0]);
        assert!((m.sq_norm() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matvec: input length mismatch")]
    fn matvec_shape_checked() {
        let m = Matrix::zeros(2, 3);
        let _ = m.matvec(&[1.0, 2.0]);
    }

    #[test]
    fn t_add_block_tiling_is_bit_identical_at_any_tile_size() {
        let m = Matrix::from_fn(7, 13, |r, c| ((r * 5 + c) as f64 * 0.71).sin());
        let d = Matrix::from_fn(18, 7, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                ((r * 11 + c) as f64 * 0.91).cos()
            }
        });
        let mut reference = Matrix::from_fn(18, 13, |r, c| (r + c) as f64 * 0.01);
        let seed = reference.clone();
        for s in 0..d.rows {
            m.matvec_t_add(d.row(s), reference.row_mut(s));
        }
        for (tile_s, tile_k) in [(1, 1), (3, 5), (4, 13), (7, 2), (TILE_S, TILE_K)] {
            let mut out = seed.clone();
            let mut s0 = 0;
            while s0 < d.rows {
                let s1 = (s0 + tile_s).min(d.rows);
                let mut k0 = 0;
                while k0 < m.cols {
                    let k1 = (k0 + tile_k).min(m.cols);
                    m.t_add_block(&d, &mut out, s0, s1, k0, k1);
                    k0 = k1;
                }
                s0 = s1;
            }
            assert_eq!(out, reference, "tiles ({tile_s},{tile_k})");
        }
    }

    #[test]
    fn tiled_backward_crosses_tile_boundaries_bit_identically() {
        // Shapes larger than the 64×256 tiles, so the public kernel
        // actually takes multi-tile paths.
        let m = Matrix::from_fn(70, 300, |r, c| ((r * 3 + c) as f64 * 0.17).sin());
        let d = Matrix::from_fn(70, 70, |r, c| {
            if (r * c) % 5 == 0 {
                0.0
            } else {
                ((r + 2 * c) as f64 * 0.41).sin()
            }
        });
        let mut back = Matrix::zeros(70, 300);
        let mut back_ref = Matrix::zeros(70, 300);
        m.matmul_t_add_into(&d, &mut back);
        for s in 0..70 {
            m.matvec_t_add(d.row(s), back_ref.row_mut(s));
        }
        assert_eq!(back, back_ref);
    }

    #[test]
    fn matmul_t_add_bit_identical_to_matvec_t_rows() {
        for batch in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            let m = Matrix::from_fn(4, 6, |r, c| ((r * 5 + c) as f64 * 0.71).sin());
            // include zero gradient entries to exercise the skip paths
            let d = Matrix::from_fn(batch, 4, |r, c| {
                if (r + c) % 3 == 0 {
                    0.0
                } else {
                    ((r * 11 + c) as f64 * 0.91).cos()
                }
            });
            let mut out = Matrix::from_fn(batch, 6, |r, c| (r + c) as f64 * 0.01);
            let mut reference = out.clone();
            m.matmul_t_add_into(&d, &mut out);
            for s in 0..batch {
                m.matvec_t_add(d.row(s), reference.row_mut(s));
            }
            assert_eq!(out, reference, "batch {batch}");
        }
    }
}
