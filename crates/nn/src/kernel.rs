//! The dense kernels' hot loops at SIMD width, with dispatch by CPU.
//!
//! Each batched kernel is one `#[inline(always)]` body instantiated twice:
//! in [`portable`], where its fixed-width array lanes compile to the SSE2
//! baseline's 2-wide `mulpd`/`addpd`, and on x86-64 in [`avx2`], the same
//! body compiled inside `#[target_feature(enable = "avx2")]` functions,
//! where the lanes become 4-wide `ymm` operations. The dispatchers pick the
//! AVX2 instantiation when `is_x86_feature_detected!("avx2")` says the
//! running CPU has it, and the portable one otherwise; nothing else selects
//! a path. The single-sample [`matvec`] has one instantiation for every
//! CPU, because AVX2 made it slower.
//!
//! Every path computes every output element with exactly the scalar chain
//! of the per-sample kernels:
//!
//! * a forward element is one ascending-`k` chain `acc += w * x` starting
//!   from `+0.0` ([`matvec`], [`matmul_nt`]);
//! * a weight-gradient element receives `d[s][r] * x[s][k]` for samples
//!   `s` in ascending order, skipping every `(s, r)` with a zero
//!   coefficient, as [`crate::Matrix::add_outer`] does per sample
//!   ([`add_outer_rows`]).
//!
//! Lanes only run *independent* chains side by side — different samples
//! (forward) or different columns `k` (gradient) — so no chain is split,
//! reassociated or fused. There is no `mul_add` and no `fma` target
//! feature here: a fused multiply-add rounds once where `acc += w * x`
//! rounds twice, which would change the bits. FMA is used in
//! [`crate::math`] only, where glibc's FMA build of `tanh` fuses and the
//! fused rounding *is* the committed result. rustc never contracts
//! `a * b + c` on its own, so these chains stay unfused whatever target
//! features a caller enables.

/// Panel scratch a [`matmul_nt`] call needs per input column: the widest
/// instantiation's lane count.
pub(crate) const PANEL_LANES: usize = 8;

/// Sample lanes per panel of the portable forward product: four weight
/// rows × four lanes keep 8 `xmm` accumulators live.
const PORTABLE_LANES: usize = 4;

/// Sample lanes per panel of the AVX2 forward product: four weight rows ×
/// eight lanes keep 8 `ymm` accumulators live.
#[cfg(target_arch = "x86_64")]
const AVX2_LANES: usize = PANEL_LANES;

/// `out[s][r] = W.row(r) · x.row(s)` for every sample (`w`: `rows × cols`,
/// `x`: `samples × cols`, `out`: `samples × rows`, all row-major).
/// `panel` is scratch of at least `PANEL_LANES * cols` values.
pub(crate) fn matmul_nt(
    w: &[f64],
    rows: usize,
    cols: usize,
    x: &[f64],
    out: &mut [f64],
    panel: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        return unsafe { avx2::matmul_nt(w, rows, cols, x, out, panel) };
    }
    portable::matmul_nt(w, rows, cols, x, out, panel)
}

/// `g += Σ_s d.row(s) ⊗ x.row(s)` (`g`: `rows × cols`, `d`: `samples ×
/// rows`, `x`: `samples × cols`), bit-identical to one
/// [`crate::Matrix::add_outer`]`(1.0, d.row(s), x.row(s))` per sample in
/// ascending order.
pub(crate) fn add_outer_rows(g: &mut [f64], rows: usize, cols: usize, d: &[f64], x: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        return unsafe { avx2::add_outer_rows(g, rows, cols, d, x) };
    }
    portable::add_outer_rows(g, rows, cols, d, x)
}

/// The portable instantiations.
mod portable {
    use super::PORTABLE_LANES;

    pub(crate) fn matmul_nt(
        w: &[f64],
        rows: usize,
        cols: usize,
        x: &[f64],
        out: &mut [f64],
        panel: &mut [f64],
    ) {
        super::matmul_nt_body::<PORTABLE_LANES>(w, rows, cols, x, out, panel)
    }

    pub(crate) fn add_outer_rows(g: &mut [f64], rows: usize, cols: usize, d: &[f64], x: &[f64]) {
        super::add_outer_rows_body(g, rows, cols, d, x)
    }
}

/// The AVX2 instantiations. Calling one on a CPU without AVX2 is undefined
/// behaviour, so every call checks `is_x86_feature_detected!("avx2")`
/// first.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::AVX2_LANES;

    #[target_feature(enable = "avx2")]
    pub(crate) fn matmul_nt(
        w: &[f64],
        rows: usize,
        cols: usize,
        x: &[f64],
        out: &mut [f64],
        panel: &mut [f64],
    ) {
        super::matmul_nt_body::<AVX2_LANES>(w, rows, cols, x, out, panel)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn add_outer_rows(g: &mut [f64], rows: usize, cols: usize, d: &[f64], x: &[f64]) {
        super::add_outer_rows_body(g, rows, cols, d, x)
    }
}

/// `out = W x` for one sample (`w`: `out.len() × cols`, row-major), four
/// weight rows per pass: the four rows are four independent ascending-`k`
/// chains, so their adds overlap instead of waiting on one another.
///
/// One instantiation serves every CPU. Compiled for AVX2, the compiler
/// fuses the four chains into a single 4-lane chain that waits a full add
/// latency per column; the baseline's two 2-lane chains ran the ABR net's
/// single-sample forward in 2.5 µs against 3.2 µs (`docs/PERF.md` §15).
#[inline(always)]
pub(crate) fn matvec(w: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(w.len(), out.len() * cols, "matvec: weight shape mismatch");
    if cols == 0 {
        out.fill(0.0);
        return;
    }
    let x = &x[..cols];
    let mut quads = out.chunks_exact_mut(4);
    let mut wq = w.chunks_exact(4 * cols);
    for (o, w4) in (&mut quads).zip(&mut wq) {
        let (w0, rest) = w4.split_at(cols);
        let (w1, rest) = rest.split_at(cols);
        let (w2, w3) = rest.split_at(cols);
        let mut acc = [0.0f64; 4];
        for ((((&xk, &a), &b), &c), &d) in x.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
            acc[0] += a * xk;
            acc[1] += b * xk;
            acc[2] += c * xk;
            acc[3] += d * xk;
        }
        o.copy_from_slice(&acc);
    }
    let tail = quads.into_remainder();
    let w_tail = &w[w.len() - tail.len() * cols..];
    for (o, row) in tail.iter_mut().zip(w_tail.chunks_exact(cols)) {
        let mut acc = 0.0;
        for (&wk, &xk) in row.iter().zip(x) {
            acc += wk * xk;
        }
        *o = acc;
    }
}

/// The batched forward product on `L`-sample panels.
///
/// Each full panel of `L` samples is packed k-major (`panel[k * L + j] =
/// x[s + j][k]`), so one weight entry multiplies `L` contiguous lanes; four
/// weight rows run per pass over the panel, each lane one ascending-`k`
/// chain from `+0.0`. Samples past the last full panel run [`matvec`]'s
/// chains.
#[inline(always)]
fn matmul_nt_body<const L: usize>(
    w: &[f64],
    rows: usize,
    cols: usize,
    x: &[f64],
    out: &mut [f64],
    panel: &mut [f64],
) {
    assert_eq!(w.len(), rows * cols, "matmul_nt: weight shape mismatch");
    if rows == 0 {
        return;
    }
    if cols == 0 {
        out.fill(0.0);
        return;
    }
    let samples = out.len() / rows;
    assert_eq!(x.len(), samples * cols, "matmul_nt: input shape mismatch");
    let panel = &mut panel[..L * cols];
    let mut xs = x.chunks_exact(L * cols);
    let mut outs = out.chunks_exact_mut(L * rows);
    for (xp, op) in (&mut xs).zip(&mut outs) {
        for (j, xr) in xp.chunks_exact(cols).enumerate() {
            for (lanes, &v) in panel.chunks_exact_mut(L).zip(xr) {
                lanes[j] = v;
            }
        }
        let mut w4s = w.chunks_exact(4 * cols);
        let mut r = 0;
        for w4 in &mut w4s {
            let (w0, rest) = w4.split_at(cols);
            let (w1, rest) = rest.split_at(cols);
            let (w2, w3) = rest.split_at(cols);
            let mut acc = [[0.0f64; L]; 4];
            for ((((xk, &a), &b), &c), &d) in panel.chunks_exact(L).zip(w0).zip(w1).zip(w2).zip(w3)
            {
                let xk: &[f64; L] = xk.try_into().expect("panel lanes");
                for j in 0..L {
                    acc[0][j] += a * xk[j];
                    acc[1][j] += b * xk[j];
                    acc[2][j] += c * xk[j];
                    acc[3][j] += d * xk[j];
                }
            }
            for (j, orow) in op.chunks_exact_mut(rows).enumerate() {
                let o: &mut [f64; 4] = (&mut orow[r..r + 4]).try_into().expect("four rows");
                *o = [acc[0][j], acc[1][j], acc[2][j], acc[3][j]];
            }
            r += 4;
        }
        for wr in w4s.remainder().chunks_exact(cols) {
            let mut acc = [0.0f64; L];
            for (xk, &a) in panel.chunks_exact(L).zip(wr) {
                let xk: &[f64; L] = xk.try_into().expect("panel lanes");
                for j in 0..L {
                    acc[j] += a * xk[j];
                }
            }
            for (j, orow) in op.chunks_exact_mut(rows).enumerate() {
                orow[r] = acc[j];
            }
            r += 1;
        }
    }
    for (xr, orow) in
        xs.remainder().chunks_exact(cols).zip(outs.into_remainder().chunks_exact_mut(rows))
    {
        matvec(w, cols, xr, orow);
    }
}

/// The batched weight gradient: one pass per gradient row, adding four
/// samples at a time.
///
/// Each gradient element receives its samples' products in ascending
/// sample order; the lanes run across columns `k`, whose chains are
/// independent. When any of the four coefficients `d[s][r]` is zero, the
/// four samples fall back to per-sample passes that skip the zero ones,
/// exactly as [`crate::Matrix::add_outer`] skips them.
#[inline(always)]
fn add_outer_rows_body(g: &mut [f64], rows: usize, cols: usize, d: &[f64], x: &[f64]) {
    assert_eq!(g.len(), rows * cols, "add_outer_rows: gradient shape mismatch");
    if rows == 0 || cols == 0 {
        return;
    }
    let samples = d.len() / rows;
    assert_eq!(d.len(), samples * rows, "add_outer_rows: coefficient shape mismatch");
    assert_eq!(x.len(), samples * cols, "add_outer_rows: input shape mismatch");
    for (r, gr) in g.chunks_exact_mut(cols).enumerate() {
        let mut xs = x.chunks_exact(4 * cols);
        let mut s = 0;
        for x4 in &mut xs {
            let (x0, rest) = x4.split_at(cols);
            let (x1, rest) = rest.split_at(cols);
            let (x2, x3) = rest.split_at(cols);
            let y = [
                d[s * rows + r],
                d[(s + 1) * rows + r],
                d[(s + 2) * rows + r],
                d[(s + 3) * rows + r],
            ];
            if y.iter().all(|&v| v != 0.0) {
                for ((((gk, &a), &b), &c), &e) in gr.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
                    let mut v = *gk;
                    v += y[0] * a;
                    v += y[1] * b;
                    v += y[2] * c;
                    v += y[3] * e;
                    *gk = v;
                }
            } else {
                for (&yj, xj) in y.iter().zip([x0, x1, x2, x3]) {
                    if yj != 0.0 {
                        for (gk, &xk) in gr.iter_mut().zip(xj) {
                            *gk += yj * xk;
                        }
                    }
                }
            }
            s += 4;
        }
        for xr in xs.remainder().chunks_exact(cols) {
            let y = d[s * rows + r];
            if y != 0.0 {
                for (gk, &xk) in gr.iter_mut().zip(xr) {
                    *gk += y * xk;
                }
            }
            s += 1;
        }
    }
}

/// The kernel oracle suite: every instantiation against verbatim copies of
/// the scalar loops the kernels replaced, compared bit for bit.
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `Matrix::matvec_into`'s single chain per row, verbatim from before
    /// the SIMD kernels. It is also the forward chain of every element of
    /// the batched product.
    fn oracle_matvec(w: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
        for (r, o) in out.iter_mut().enumerate() {
            let row = &w[r * cols..(r + 1) * cols];
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            *o = acc;
        }
    }

    /// `Matrix::add_outer`, verbatim: the per-sample weight-gradient
    /// update, skipping zero coefficients.
    fn oracle_add_outer(g: &mut [f64], cols: usize, alpha: f64, y: &[f64], x: &[f64]) {
        for (r, yr) in y.iter().enumerate() {
            let a = alpha * yr;
            if a == 0.0 {
                continue;
            }
            let row = &mut g[r * cols..(r + 1) * cols];
            for (w, xi) in row.iter_mut().zip(x.iter()) {
                *w += a * xi;
            }
        }
    }

    /// `Matrix::matvec_t_add`, verbatim: the per-sample backward chain.
    fn oracle_matvec_t_add(w: &[f64], cols: usize, y: &[f64], out: &mut [f64]) {
        for (r, yr) in y.iter().enumerate() {
            if *yr == 0.0 {
                continue;
            }
            let row = &w[r * cols..(r + 1) * cols];
            for (o, w) in out.iter_mut().zip(row.iter()) {
                *o += yr * w;
            }
        }
    }

    /// Bit equality, with any two NaNs equal.
    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:e} ({:#x}), oracle {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// A value that is ordinary most of the time and otherwise one of the
    /// cases a reordered chain would give away: signed zeros, subnormals,
    /// infinities, NaN, or a magnitude that cancels.
    fn value(rng: &mut StdRng, specials: bool) -> f64 {
        let v: f64 = rng.gen_range(-2.0..2.0);
        if !specials {
            return v;
        }
        match rng.gen_range(0..40u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE * v / 4.0,
            3 => 5e-324 * v.signum(),
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::NAN,
            7 => v * 1e300,
            8 => v * 1e-300,
            _ => v,
        }
    }

    /// A gradient coefficient: a third are `+0.0` or `-0.0`, so the
    /// zero-skips and the all-nonzero passes both run.
    fn coefficient(rng: &mut StdRng, specials: bool) -> f64 {
        match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => value(rng, specials),
        }
    }

    fn fill(rng: &mut StdRng, n: usize, specials: bool) -> Vec<f64> {
        (0..n).map(|_| value(rng, specials)).collect()
    }

    /// `(rows, cols, samples)` of every layer of the repo's nets at their
    /// batch sizes, then random shapes crossing the lane panels, the
    /// four-row passes and the 64-row tile, with remainders.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut out = vec![
            (32, 110, 64),
            (16, 32, 64),
            (1, 16, 64),
            (64, 25, 150),
            (32, 64, 150),
            (6, 32, 150),
            (4, 2, 64),
            (3, 4, 64),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..60 {
            out.push((
                rng.gen_range(1..131usize),
                rng.gen_range(1..131usize),
                rng.gen_range(1..151usize),
            ));
        }
        out.extend([(1, 1, 1), (4, 1, 8), (5, 3, 9), (9, 7, 17), (130, 130, 150), (0, 3, 5)]);
        out
    }

    /// Every instantiation of the forward product, each with its name.
    type MatmulNt = fn(&[f64], usize, usize, &[f64], &mut [f64], &mut [f64]);
    fn matmul_nt_paths() -> Vec<(&'static str, MatmulNt)> {
        let mut paths: Vec<(&'static str, MatmulNt)> = vec![("portable", portable::matmul_nt)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            fn checked(w: &[f64], r: usize, c: usize, x: &[f64], o: &mut [f64], p: &mut [f64]) {
                // SAFETY: listed only after `is_x86_feature_detected!("avx2")`
                // confirmed the running CPU supports AVX2.
                unsafe { avx2::matmul_nt(w, r, c, x, o, p) }
            }
            paths.push(("avx2", checked));
        }
        paths
    }

    type AddOuterRows = fn(&mut [f64], usize, usize, &[f64], &[f64]);
    fn add_outer_rows_paths() -> Vec<(&'static str, AddOuterRows)> {
        let mut paths: Vec<(&'static str, AddOuterRows)> =
            vec![("portable", portable::add_outer_rows)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            fn checked(g: &mut [f64], r: usize, c: usize, d: &[f64], x: &[f64]) {
                // SAFETY: listed only after `is_x86_feature_detected!("avx2")`
                // confirmed the running CPU supports AVX2.
                unsafe { avx2::add_outer_rows(g, r, c, d, x) }
            }
            paths.push(("avx2", checked));
        }
        paths
    }

    #[test]
    fn matvec_matches_the_scalar_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        for (rows, cols, _) in shapes() {
            for specials in [false, true] {
                let w = fill(&mut rng, rows * cols, specials);
                let x = fill(&mut rng, cols, specials);
                let mut want = vec![f64::NAN; rows];
                oracle_matvec(&w, cols, &x, &mut want);
                let mut got = vec![f64::NAN; rows];
                matvec(&w, cols, &x, &mut got);
                assert_bits(&got, &want, &format!("matvec {rows}x{cols}"));
            }
        }
    }

    #[test]
    fn matmul_nt_matches_the_scalar_chain_on_every_path() {
        let mut rng = StdRng::seed_from_u64(2);
        for (rows, cols, samples) in shapes() {
            for specials in [false, true] {
                let w = fill(&mut rng, rows * cols, specials);
                let x = fill(&mut rng, samples * cols, specials);
                let mut want = vec![f64::NAN; samples * rows];
                for s in 0..samples {
                    let xr = &x[s * cols..(s + 1) * cols];
                    oracle_matvec(&w, cols, xr, &mut want[s * rows..(s + 1) * rows]);
                }
                for (path, matmul_nt) in matmul_nt_paths() {
                    let mut got = vec![f64::NAN; samples * rows];
                    let mut panel = vec![f64::NAN; PANEL_LANES * cols];
                    matmul_nt(&w, rows, cols, &x, &mut got, &mut panel);
                    let what = format!("{path} matmul_nt {rows}x{cols} x {samples}");
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn forward_chains_start_from_positive_zero() {
        // -0.0 · 1 = -0.0 on every term: a chain seeded with its first
        // product would end at -0.0, the +0.0-seeded chain ends at +0.0.
        for cols in [1, 2, 5] {
            let w = vec![-0.0; 6 * cols];
            for samples in [1, 4, 8, 9, 17] {
                let x = vec![1.0; samples * cols];
                let want = vec![0.0; samples * 6];
                for (path, matmul_nt) in matmul_nt_paths() {
                    let mut got = vec![f64::NAN; samples * 6];
                    let mut panel = vec![f64::NAN; PANEL_LANES * cols];
                    matmul_nt(&w, 6, cols, &x, &mut got, &mut panel);
                    assert_bits(&got, &want, &format!("{path} matmul_nt -0.0 chain"));
                }
                let mut got = vec![f64::NAN; 6];
                matvec(&w, cols, &x[..cols], &mut got);
                assert_bits(&got, &want[..6], "matvec -0.0 chain");
            }
        }
    }

    #[test]
    fn add_outer_rows_matches_per_sample_add_outer_on_every_path() {
        let mut rng = StdRng::seed_from_u64(3);
        for (rows, cols, samples) in shapes() {
            for specials in [false, true] {
                let x = fill(&mut rng, samples * cols, specials);
                let d: Vec<f64> =
                    (0..samples * rows).map(|_| coefficient(&mut rng, specials)).collect();
                // the accumulator starts non-zero, with signed zeros
                let g0: Vec<f64> = (0..rows * cols).map(|_| coefficient(&mut rng, false)).collect();
                let mut want = g0.clone();
                for s in 0..samples {
                    let (dr, xr) = (&d[s * rows..(s + 1) * rows], &x[s * cols..(s + 1) * cols]);
                    oracle_add_outer(&mut want, cols, 1.0, dr, xr);
                }
                for (path, add_outer_rows) in add_outer_rows_paths() {
                    let mut got = g0.clone();
                    add_outer_rows(&mut got, rows, cols, &d, &x);
                    let what = format!("{path} add_outer_rows {rows}x{cols} x {samples}");
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn add_outer_rows_skips_exactly_the_zero_coefficients() {
        // A zero coefficient against an infinite input would add 0·∞ =
        // NaN, and against a -0.0 accumulator would turn it into +0.0;
        // the skip must leave both untouched, for every zero's position in
        // a group of four.
        for zero_at in 0..5 {
            for zero in [0.0, -0.0] {
                let (rows, cols, samples) = (3, 5, 5);
                let d: Vec<f64> = (0..samples * rows)
                    .map(|i| if i / rows == zero_at { zero } else { 0.5 + i as f64 })
                    .collect();
                let x: Vec<f64> = (0..samples * cols)
                    .map(|i| if i / cols == zero_at { f64::INFINITY } else { 1.0 })
                    .collect();
                let g0 = vec![-0.0; rows * cols];
                let mut want = g0.clone();
                for s in 0..samples {
                    let (dr, xr) = (&d[s * rows..(s + 1) * rows], &x[s * cols..(s + 1) * cols]);
                    oracle_add_outer(&mut want, cols, 1.0, dr, xr);
                }
                assert!(want.iter().all(|v| v.is_finite()), "oracle skipped the infinite row");
                for (path, add_outer_rows) in add_outer_rows_paths() {
                    let mut got = g0.clone();
                    add_outer_rows(&mut got, rows, cols, &d, &x);
                    assert_bits(&got, &want, &format!("{path} zero skip at sample {zero_at}"));
                }
            }
        }
    }

    #[test]
    fn matmul_t_add_matches_per_sample_matvec_t_add() {
        let mut rng = StdRng::seed_from_u64(4);
        for (rows, cols, samples) in shapes() {
            for specials in [false, true] {
                let w = crate::Matrix::from_vec(rows, cols, fill(&mut rng, rows * cols, specials));
                let dv: Vec<f64> =
                    (0..samples * rows).map(|_| coefficient(&mut rng, specials)).collect();
                let d = crate::Matrix::from_vec(samples, rows, dv);
                let o0 =
                    crate::Matrix::from_vec(samples, cols, fill(&mut rng, samples * cols, false));
                let mut want = o0.clone();
                for s in 0..samples {
                    oracle_matvec_t_add(w.as_slice(), cols, d.row(s), want.row_mut(s));
                }
                let mut got = o0;
                w.matmul_t_add_into(&d, &mut got);
                let what = format!("matmul_t_add {rows}x{cols} x {samples}");
                assert_bits(got.as_slice(), want.as_slice(), &what);
            }
        }
    }

    /// One sample through `net` with the oracle chains: product, bias
    /// add, activation, layer by layer.
    fn oracle_forward(net: &crate::Mlp, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for layer in net.layers() {
            let mut z = vec![0.0; layer.outputs()];
            oracle_matvec(layer.w.as_slice(), layer.inputs(), &cur, &mut z);
            for (zi, bi) in z.iter_mut().zip(layer.b.iter()) {
                *zi += bi;
            }
            cur = z.iter().map(|&zi| layer.act.apply(zi)).collect();
        }
        cur
    }

    /// The real nets, then random ones.
    fn nets() -> Vec<crate::Mlp> {
        use crate::{Activation, Mlp};
        let mut rng = StdRng::seed_from_u64(5);
        let mut nets = vec![
            Mlp::new(&[110, 32, 16, 1], Activation::Tanh, &mut rng),
            Mlp::new(&[25, 64, 32, 6], Activation::Tanh, &mut rng),
            Mlp::new(&[2, 4, 3], Activation::Tanh, &mut rng),
        ];
        for i in 0..12 {
            let depth = rng.gen_range(2..5usize);
            let dims: Vec<usize> = (0..depth).map(|_| rng.gen_range(1..131usize)).collect();
            let act = if i % 3 == 0 { Activation::Relu } else { Activation::Tanh };
            nets.push(Mlp::new(&dims, act, &mut rng));
        }
        nets
    }

    #[test]
    fn mlp_forwards_match_the_oracle_network() {
        let mut rng = StdRng::seed_from_u64(6);
        for net in nets() {
            // one batch inside a tile, one crossing it with a remainder, and
            // the fleet's shard size
            for batch in [1, 63, 64, 65, 150, 10_000] {
                if batch == 10_000 && net.input_dim() != 25 {
                    continue;
                }
                let n_in = net.input_dim();
                let x = crate::Matrix::from_vec(batch, n_in, fill(&mut rng, batch * n_in, false));
                let want: Vec<f64> =
                    (0..batch).flat_map(|s| oracle_forward(&net, x.row(s))).collect();
                let what = format!("net {n_in}->{} batch {batch}", net.output_dim());
                assert_bits(
                    net.forward_batch(&x).as_slice(),
                    &want,
                    &format!("forward_batch {what}"),
                );
                let mut cache = net.new_batch_cache(batch);
                let cached = net.forward_batch_cached(&x, &mut cache);
                assert_bits(cached.as_slice(), &want, &format!("forward_batch_cached {what}"));
                if batch <= 65 {
                    let per: Vec<f64> = (0..batch).flat_map(|s| net.forward(x.row(s))).collect();
                    assert_bits(&per, &want, &format!("forward {what}"));
                }
            }
        }
    }

    #[test]
    fn grads_batch_matches_the_oracle_backprop() {
        let mut rng = StdRng::seed_from_u64(7);
        for net in nets() {
            for batch in [1, 5, 64, 150] {
                let (n_in, n_out) = (net.input_dim(), net.output_dim());
                let x = crate::Matrix::from_vec(batch, n_in, fill(&mut rng, batch * n_in, false));
                let dl: Vec<f64> =
                    (0..batch * n_out).map(|_| coefficient(&mut rng, false)).collect();
                let dl = crate::Matrix::from_vec(batch, n_out, dl);
                let mut want = crate::MlpGrads::zeros_like(&net);
                for s in 0..batch {
                    // oracle forward keeping every layer's input and preact
                    let mut inputs = vec![x.row(s).to_vec()];
                    let mut preacts = Vec::new();
                    for layer in net.layers() {
                        let mut z = vec![0.0; layer.outputs()];
                        oracle_matvec(
                            layer.w.as_slice(),
                            layer.inputs(),
                            inputs.last().unwrap(),
                            &mut z,
                        );
                        for (zi, bi) in z.iter_mut().zip(layer.b.iter()) {
                            *zi += bi;
                        }
                        inputs.push(z.iter().map(|&zi| layer.act.apply(zi)).collect());
                        preacts.push(z);
                    }
                    let mut delta = dl.row(s).to_vec();
                    for (i, layer) in net.layers().iter().enumerate().rev() {
                        for (d, z) in delta.iter_mut().zip(preacts[i].iter()) {
                            *d *= layer.act.derivative(*z);
                        }
                        oracle_add_outer(
                            want.w[i].as_mut_slice(),
                            layer.inputs(),
                            1.0,
                            &delta,
                            &inputs[i],
                        );
                        for (gb, d) in want.b[i].iter_mut().zip(delta.iter()) {
                            *gb += d;
                        }
                        let mut prev = vec![0.0; layer.inputs()];
                        oracle_matvec_t_add(layer.w.as_slice(), layer.inputs(), &delta, &mut prev);
                        delta = prev;
                    }
                }
                let mut cache = net.new_batch_cache(batch);
                net.forward_batch_cached(&x, &mut cache);
                let mut got = crate::MlpGrads::zeros_like(&net);
                net.grads_batch(&cache, &dl, &mut got);
                for (i, (g, w)) in got.w.iter().zip(&want.w).enumerate() {
                    assert_bits(
                        g.as_slice(),
                        w.as_slice(),
                        &format!("layer {i} weights, batch {batch}"),
                    );
                }
                for (i, (g, w)) in got.b.iter().zip(&want.b).enumerate() {
                    assert_bits(g, w, &format!("layer {i} biases, batch {batch}"));
                }
            }
        }
    }
}
