//! A small row-major dense matrix.
//!
//! Only the operations reverse-mode differentiation of an MLP needs are
//! provided: matrix–vector products (plain and transposed), rank-1 updates,
//! and elementwise arithmetic. Shapes are checked with `assert!` — these are
//! programming errors, not runtime conditions.

use serde::{Deserialize, Serialize};

// Cache-blocking tile sizes of the batched kernels: samples, weight rows
// (forward) and k-columns (backward).
//
// 64 samples × 64 rows and 256 k-columns keep one tile's working set — a
// sample block of activations plus a block of weight rows — in L1/L2 for
// the layer widths this repo trains (tens of units, batches of 32–96),
// while degenerating to the untiled loops when shapes are smaller than
// one tile.
//
// Tiling never changes results: every output element is still computed
// by one complete sequential k-chain (forward) or one complete
// ascending-r chain (backward); tiles only reorder *which elements* are
// computed when, never the additions inside any one element.
const TILE_S: usize = 64;
const TILE_R: usize = 64;
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
    /// per-sample rows and reuse the exact per-row vector kernels
    /// ([`Matrix::matvec_into`], [`Matrix::matvec_t_add`]) so that batched
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
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: input length mismatch");
        assert_eq!(out.len(), self.rows, "matvec: output length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            *o = acc;
        }
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
    /// to calling `matvec_into` per row. Samples are processed eight (then
    /// four) at a time with interleaved accumulators: the interleaved dots
    /// are independent dependency chains, so interleaving only changes
    /// instruction scheduling (hiding floating-point add latency — eight
    /// chains saturate both FP pipes on common cores), never the order of
    /// operations within any one element — the kernel-level speedup
    /// batching exists to unlock, unavailable to the one-sample-at-a-time
    /// path.
    ///
    /// The loop nest is **cache-blocked**: samples and weight rows are
    /// walked in tiles (`TILE_S` × `TILE_R`) so one tile's activations
    /// and weight rows stay cache-resident while they are combined.
    /// Tiling only changes the order in which output *elements* are
    /// produced; each element's k-chain is untouched, so results remain
    /// bit-identical for every tile size.
    pub fn matmul_nt_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols, self.cols, "matmul_nt: input width mismatch");
        assert_eq!(out.rows, x.rows, "matmul_nt: output rows mismatch");
        assert_eq!(out.cols, self.rows, "matmul_nt: output cols mismatch");
        if telemetry::enabled() {
            telemetry::counter_add("nn.flops", (2 * x.rows * self.rows * self.cols) as u64);
        }
        let mut s0 = 0;
        while s0 < x.rows {
            let s1 = (s0 + TILE_S).min(x.rows);
            let mut r0 = 0;
            while r0 < self.rows {
                let r1 = (r0 + TILE_R).min(self.rows);
                self.nt_block(x, out, s0, s1, r0, r1);
                r0 = r1;
            }
            s0 = s1;
        }
    }

    /// One `samples × weight-rows` tile of [`Matrix::matmul_nt_into`]:
    /// `out[s][r] = self.row(r) · x.row(s)` for `s` in `s0..s1`, `r` in
    /// `r0..r1`, with the 8-then-4-wide interleaved accumulators of the
    /// original kernel. Every element is one sequential k-chain.
    fn nt_block(&self, x: &Matrix, out: &mut Matrix, s0: usize, s1: usize, r0: usize, r1: usize) {
        let n = self.cols;
        let mut s = s0;
        while s + 8 <= s1 {
            let xs: [&[f64]; 8] = std::array::from_fn(|j| {
                let base = (s + j) * n;
                &x.data[base..base + n]
            });
            for r in r0..r1 {
                let w = &self.data[r * n..(r + 1) * n];
                let mut acc = [0.0f64; 8];
                for k in 0..n {
                    let wk = w[k];
                    for (a, xj) in acc.iter_mut().zip(xs.iter()) {
                        *a += wk * xj[k];
                    }
                }
                for (j, a) in acc.iter().enumerate() {
                    out.set(s + j, r, *a);
                }
            }
            s += 8;
        }
        while s + 4 <= s1 {
            // pre-sliced to a common length so the inner indexing is
            // bounds-check free
            let x0 = &x.data[s * n..s * n + n];
            let x1 = &x.data[(s + 1) * n..(s + 1) * n + n];
            let x2 = &x.data[(s + 2) * n..(s + 2) * n + n];
            let x3 = &x.data[(s + 3) * n..(s + 3) * n + n];
            for r in r0..r1 {
                let w = &self.data[r * n..(r + 1) * n];
                let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
                for k in 0..n {
                    let wk = w[k];
                    a0 += wk * x0[k];
                    a1 += wk * x1[k];
                    a2 += wk * x2[k];
                    a3 += wk * x3[k];
                }
                out.set(s, r, a0);
                out.set(s + 1, r, a1);
                out.set(s + 2, r, a2);
                out.set(s + 3, r, a3);
            }
            s += 4;
        }
        while s < s1 {
            // remainder rows run the per-sample kernel's exact dot product
            let xrow = &x.data[s * n..(s + 1) * n];
            for r in r0..r1 {
                let w = &self.data[r * n..(r + 1) * n];
                let mut acc = 0.0;
                for (wk, xk) in w.iter().zip(xrow.iter()) {
                    acc += wk * xk;
                }
                out.set(s, r, acc);
            }
            s += 1;
        }
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
    fn matmul_nt_bit_identical_to_matvec_rows() {
        // batch sizes covering the 8-wide and 4-wide interleaved blocks
        // and every remainder combination
        for batch in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17, 21] {
            let m = Matrix::from_fn(4, 6, |r, c| ((r * 7 + c) as f64 * 0.31).sin());
            let x = Matrix::from_fn(batch, 6, |r, c| ((r * 13 + c) as f64 * 0.53).cos());
            let mut out = Matrix::zeros(batch, 4);
            m.matmul_nt_into(&x, &mut out);
            for s in 0..batch {
                let mut per = vec![0.0; 4];
                m.matvec_into(x.row(s), &mut per);
                assert_eq!(out.row(s), per.as_slice(), "batch {batch} row {s}");
            }
        }
    }

    #[test]
    fn nt_block_tiling_is_bit_identical_at_any_tile_size() {
        // Drive the private block helper with deliberately awkward tile
        // bounds (including sizes indivisible by the 8/4 interleave) and
        // check against the per-sample kernel, so any choice of the tile
        // constants stays bit-identical.
        let m = Matrix::from_fn(11, 9, |r, c| ((r * 7 + c) as f64 * 0.31).sin());
        let x = Matrix::from_fn(23, 9, |r, c| ((r * 13 + c) as f64 * 0.53).cos());
        for (tile_s, tile_r) in [(1, 1), (3, 2), (5, 11), (8, 4), (TILE_S, TILE_R)] {
            let mut out = Matrix::zeros(23, 11);
            let mut s0 = 0;
            while s0 < x.rows {
                let s1 = (s0 + tile_s).min(x.rows);
                let mut r0 = 0;
                while r0 < m.rows {
                    let r1 = (r0 + tile_r).min(m.rows);
                    m.nt_block(&x, &mut out, s0, s1, r0, r1);
                    r0 = r1;
                }
                s0 = s1;
            }
            for s in 0..x.rows {
                let mut per = vec![0.0; 11];
                m.matvec_into(x.row(s), &mut per);
                assert_eq!(out.row(s), per.as_slice(), "tiles ({tile_s},{tile_r}) row {s}");
            }
        }
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
    fn tiled_kernels_cross_tile_boundaries_bit_identically() {
        // Shapes larger than the 64×64×256 tiles, so the public kernels
        // actually take multi-tile paths.
        let m = Matrix::from_fn(70, 300, |r, c| ((r * 3 + c) as f64 * 0.17).sin());
        let x = Matrix::from_fn(70, 300, |r, c| ((r * 7 + c) as f64 * 0.29).cos());
        let mut out = Matrix::zeros(70, 70);
        m.matmul_nt_into(&x, &mut out);
        for s in 0..70 {
            let mut per = vec![0.0; 70];
            m.matvec_into(x.row(s), &mut per);
            assert_eq!(out.row(s), per.as_slice(), "forward row {s}");
        }
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
