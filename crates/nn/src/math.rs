//! The one `tanh` of every net: a bit-exact port of glibc's, owned here so
//! that no result depends on which libm the host runs.
//!
//! [`tanh`] is glibc 2.36's dbl-64 `s_tanh.c`, and the `expm1` it calls is
//! `s_expm1.c`, both in plain Rust. glibc picks an FMA-compiled build of
//! these functions when the CPU has FMA, and GCC contracts that build's
//! `a·b ± c` into one fused multiply-add wherever the product feeds only
//! that add. The port writes [`f64::mul_add`] at exactly those 13 sites
//! (all in `expm1`), so it reproduces the FMA build bit for bit. The
//! committed results were computed by that build.
//!
//! `mul_add` rounds once on every host, so every host gets the same bits;
//! only the speed differs. [`tanh`] runs its body in one of two
//! instantiations, picked by the running CPU:
//!
//! * with FMA (`is_x86_feature_detected!("fma")`), inside
//!   `#[target_feature(enable = "fma")]`, where each `mul_add` is one
//!   `vfmadd` instruction;
//! * otherwise the portable one, where each `mul_add` is a call to the
//!   `fma` of Rust's `compiler_builtins`, linked in statically, so glibc's
//!   tunables cannot change it; it is correctly rounded, with a software
//!   fallback on a CPU without FMA. It gives the same bits at roughly 2–3×
//!   libm's time per call.
//!
//! [`tanh_in_place`] also has a 4-lane AVX2+FMA instantiation, used when
//! the CPU has both features. It computes every branch of the scalar body
//! in all four lanes and selects per lane, so it returns the scalar body's
//! bits. A group of four that holds a zero, a `|x| < 2⁻⁵⁵`, a ±∞ or a NaN
//! runs the scalar body whole, as do the last `len % 4` values.
//!
//! This module is the only place in `nn` that uses FMA. The matrix
//! kernels (`kernel.rs`) keep their chains multiply-then-add, because
//! there the unfused rounding *is* the committed result. rustc never
//! contracts `a * b + c` by itself, so FMA appears only where a `mul_add`
//! is written.

/// `log(2)` split for exact argument reduction: the high part has 32
/// trailing zero bits, so `k · LN2_HI` is exact for every `|k| ≤ 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000); // 6.93147180369123816490e-01
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76); // 1.90821492927058770002e-10
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe); // 1.44269504088896338700e+00
/// Above this `expm1` overflows (`log(f64::MAX)`).
const O_THRESHOLD: f64 = f64::from_bits(0x4086_2e42_fefa_39ef); // 7.09782712893383973096e+02
/// Scaled coefficients of the rational approximation on `[−ln2/2, ln2/2]`.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4); // -3.33333333333331316428e-02
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585); // 1.58730158725481460165e-03
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7); // -7.93650757867487942473e-05
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239); // 4.00821782732936239552e-06
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d); // -2.01099218183624371326e-07

/// Hyperbolic tangent, bit-identical to glibc 2.36's FMA build of `tanh`
/// on every host.
#[inline]
pub fn tanh(x: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the running CPU supports FMA, checked just above.
        return unsafe { fma::tanh(x) };
    }
    tanh_body(x)
}

/// `xs[i] ← tanh(xs[i])` for every element, bit-identical to [`tanh`]
/// per element; four lanes at a time when the CPU has AVX2 and FMA.
pub fn tanh_in_place(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the running CPU supports AVX2 and FMA, checked just above.
        return unsafe { avx2_fma::tanh_in_place(xs) };
    }
    xs.iter_mut().for_each(|x| *x = tanh(*x));
}

/// The FMA instantiation of the scalar body. Calling it on a CPU without
/// FMA is undefined behaviour, so every call checks
/// `is_x86_feature_detected!("fma")` first.
#[cfg(target_arch = "x86_64")]
mod fma {
    #[target_feature(enable = "fma")]
    pub(super) fn tanh(x: f64) -> f64 {
        super::tanh_body(x)
    }
}

/// glibc's `__tanh` (dbl-64 `s_tanh.c`), line for line.
///
/// * `|x| < 2⁻⁵⁵`: `x·(1 + x)`, which is `x`;
/// * `|x| < 1`: `−t / (t + 2)` with `t = expm1(−2|x|)`;
/// * `1 ≤ |x| < 22`: `1 − 2 / (t + 2)` with `t = expm1(2|x|)`;
/// * `|x| ≥ 22`: 1 (`1 − 10⁻³⁰⁰` in glibc, to raise inexact);
///
/// with the sign of `x` put back at the end.
#[inline(always)]
fn tanh_body(x: f64) -> f64 {
    let bits = x.to_bits();
    let jx = (bits >> 32) as u32;
    let ix = jx & 0x7fff_ffff;
    let positive = jx >> 31 == 0;
    if ix >= 0x7ff0_0000 {
        // tanh(±∞) = ±1, tanh(NaN) = NaN
        return if positive { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    let z = if ix < 0x4036_0000 {
        if ix | bits as u32 == 0 {
            return x; // ±0
        }
        if ix < 0x3c80_0000 {
            return x * (1.0 + x);
        }
        if ix >= 0x3ff0_0000 {
            let t = expm1_body(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1_body(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0
    };
    if positive {
        z
    } else {
        -z
    }
}

/// glibc's `__expm1` (dbl-64 `s_expm1.c`), line for line, with `mul_add`
/// at the 13 sites the FMA build contracts.
///
/// `x = k·ln2 + r` with `|r| ≤ ln2/2`, then `expm1(r)` from a rational
/// approximation, then the result is rebuilt for `k` in one of five ways:
/// `k = 0`, `k = −1`, `k = 1`, `k ≤ −2` or `k > 56`, `2 ≤ k < 20`, and
/// `20 ≤ k ≤ 56`.
#[inline(always)]
fn expm1_body(x: f64) -> f64 {
    let bits = x.to_bits();
    let positive = bits >> 63 == 0;
    let hx = (bits >> 32) as u32 & 0x7fff_ffff;

    // huge and non-finite arguments
    if hx >= 0x4043_687a {
        // |x| ≥ 56·ln2
        if hx >= 0x4086_2e42 {
            // |x| ≥ 709.78…
            if hx >= 0x7ff0_0000 {
                if (hx & 0xf_ffff) | bits as u32 != 0 {
                    return x + x; // NaN
                }
                return if positive { x } else { -1.0 }; // expm1(±∞) = {∞, −1}
            }
            if x > O_THRESHOLD {
                return f64::INFINITY; // overflow
            }
        }
        if !positive {
            return -1.0; // x < −56·ln2
        }
    }

    // argument reduction: x = hi − lo + k·ln2, then x ← hi − lo, c its error
    let (k, x, c) = if hx > 0x3fd6_2e42 {
        // |x| > ln2/2
        let (k, hi, lo) = if hx < 0x3ff0_a2b2 {
            // and |x| < 1.5·ln2
            if positive {
                (1, x - LN2_HI, LN2_LO)
            } else {
                (-1, x + LN2_HI, -LN2_LO)
            }
        } else {
            let k = INVLN2.mul_add(x, if positive { 0.5 } else { -0.5 }) as i32;
            let t = k as f64;
            (k, (-t).mul_add(LN2_HI, x), t * LN2_LO) // t·LN2_HI is exact here
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    } else if hx < 0x3c90_0000 {
        return x; // |x| < 2⁻⁵⁴ (glibc also raises inexact when x ≠ 0)
    } else {
        (0, x, 0.0)
    };

    // x is now in [−ln2/2, ln2/2]
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let r2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-x).mul_add(t, 6.0));
    if k == 0 {
        return x - x.mul_add(e, -hxs); // c is 0
    }
    let e = x.mul_add(e - c, -c) - hxs;
    if k == -1 {
        return 0.5f64.mul_add(x - e, -0.5);
    }
    if k == 1 {
        return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 2.0f64.mul_add(x - e, 1.0) };
    }
    if k <= -2 || k > 56 {
        // exp(x) − 1 suffices
        let y = 1.0 - (e - x);
        let y = if k == 1024 {
            y * 2.0 * f64::from_bits(0x7fe0_0000_0000_0000) // 2¹⁰²³
        } else {
            add_to_exponent(y, k)
        };
        return y - 1.0;
    }
    if k < 20 {
        let t = f64::from_bits(u64::from(0x3ff0_0000u32 - (0x20_0000u32 >> k)) << 32); // 1 − 2⁻ᵏ
        add_to_exponent(t - (e - x), k)
    } else {
        let t = f64::from_bits(((0x3ff - k) as u64) << 52); // 2⁻ᵏ
        add_to_exponent((x - (e + t)) + 1.0, k)
    }
}

/// `y · 2ᵏ` by adding `k` to the biased exponent (`SET_HIGH_WORD(y, high +
/// (k << 20))`); exact while the result stays normal.
#[inline(always)]
fn add_to_exponent(y: f64, k: i32) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((i64::from(k) as u64) << 52))
}

/// The 4-lane instantiation. Calling it on a CPU without AVX2 and FMA is
/// undefined behaviour, so every call checks
/// `is_x86_feature_detected!` for both first.
#[cfg(target_arch = "x86_64")]
mod avx2_fma {
    use std::arch::x86_64::*;

    /// `2⁻⁵⁵`: below it (and at zero) `tanh` returns `x` from its own
    /// branch, which the lanes leave to the scalar body.
    const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
    /// The least `|a|` that `expm1` reduces (`hx > 0x3fd62e42`).
    const REDUCE: f64 = f64::from_bits(0x3fd6_2e43_0000_0000);

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn tanh_in_place(xs: &mut [f64]) {
        let mut quads = xs.chunks_exact_mut(4);
        for q in &mut quads {
            // SAFETY: `q` holds four f64s, and `loadu` takes any alignment.
            let x = unsafe { _mm256_loadu_pd(q.as_ptr()) };
            match tanh4(x) {
                // SAFETY: `q` holds four f64s, and `storeu` takes any alignment.
                Some(y) => unsafe { _mm256_storeu_pd(q.as_mut_ptr(), y) },
                None => q.iter_mut().for_each(|x| *x = super::tanh_body(*x)),
            }
        }
        for x in quads.into_remainder() {
            *x = super::tanh_body(*x);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn splat(v: f64) -> __m256d {
        _mm256_set1_pd(v)
    }

    /// `b` where `m` is set, else `a`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn select(m: __m256d, b: __m256d, a: __m256d) -> __m256d {
        _mm256_blendv_pd(a, b, m)
    }

    /// [`super::tanh_body`] on four lanes, or `None` when a lane holds a
    /// zero, a `|x| < 2⁻⁵⁵`, a ±∞ or a NaN.
    ///
    /// For every other lane `a = ±2|x|` lies in `[2⁻⁵⁴, 2)` negated
    /// (`|x| < 1`) or in `[2, 44]` (`|x| ≥ 1`, clamped at 22), so
    /// `expm1(a)` takes only these branches: `k = 0`, `k = −1` and
    /// `k ≤ −2` for negative `a`; `3 ≤ k < 20`, `20 ≤ k ≤ 56` and `k > 56`
    /// (the `k ≤ −2` branch) for positive `a`. All of them are computed,
    /// and each lane selects its own.
    #[target_feature(enable = "avx2,fma")]
    fn tanh4(x: __m256d) -> Option<__m256d> {
        let sign = splat(-0.0);
        let ax = _mm256_andnot_pd(sign, x);
        let ordinary = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(ax, splat(TINY)),
            _mm256_cmp_pd::<_CMP_LT_OQ>(ax, splat(f64::INFINITY)),
        );
        if _mm256_movemask_pd(ordinary) != 0b1111 {
            return None;
        }
        let ge1 = _mm256_cmp_pd::<_CMP_GE_OQ>(ax, splat(1.0));
        let ge22 = _mm256_cmp_pd::<_CMP_GE_OQ>(ax, splat(22.0));
        // lanes at or past 22 return 1; the clamp keeps their k in range
        let two_ax = _mm256_mul_pd(splat(2.0), _mm256_min_pd(ax, splat(22.0)));
        let a = select(ge1, two_ax, _mm256_xor_pd(two_ax, sign));

        // expm1(a): reduction, with k = 0 below ln2/2
        let k0 = _mm256_cmp_pd::<_CMP_LT_OQ>(two_ax, splat(REDUCE));
        let half = select(ge1, splat(0.5), splat(-0.5));
        let k32 = _mm256_cvttpd_epi32(_mm256_fmadd_pd(splat(super::INVLN2), a, half));
        let kf = _mm256_cvtepi32_pd(k32);
        let hi = _mm256_fnmadd_pd(kf, splat(super::LN2_HI), a);
        let lo = _mm256_mul_pd(kf, splat(super::LN2_LO));
        let reduced = _mm256_sub_pd(hi, lo);
        let c = _mm256_sub_pd(_mm256_sub_pd(hi, reduced), lo);
        let r = select(k0, a, reduced);

        let hfx = _mm256_mul_pd(splat(0.5), r);
        let hxs = _mm256_mul_pd(r, hfx);
        let r1 = _mm256_fmadd_pd(hxs, splat(super::Q1), splat(1.0));
        let h2 = _mm256_mul_pd(hxs, hxs);
        let r2 = _mm256_fmadd_pd(hxs, splat(super::Q3), splat(super::Q2));
        let h4 = _mm256_mul_pd(h2, h2);
        let r3 = _mm256_fmadd_pd(hxs, splat(super::Q5), splat(super::Q4));
        let r1 = _mm256_fmadd_pd(h4, r3, _mm256_fmadd_pd(h2, r2, r1));
        let t = _mm256_fnmadd_pd(r1, hfx, splat(3.0));
        let e = _mm256_mul_pd(
            hxs,
            _mm256_div_pd(_mm256_sub_pd(r1, t), _mm256_fnmadd_pd(r, t, splat(6.0))),
        );
        let y_k0 = _mm256_sub_pd(r, _mm256_fmsub_pd(r, e, hxs));
        let e = _mm256_sub_pd(_mm256_fmsub_pd(r, _mm256_sub_pd(e, c), c), hxs);
        let y_km1 = _mm256_fmsub_pd(splat(0.5), _mm256_sub_pd(r, e), splat(0.5));

        // the three branches that rebuild y·2ᵏ, before the scaling
        let k64 = _mm256_cvtepi32_epi64(k32);
        let two_mk = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_sub_epi64(
            _mm256_set1_epi64x(0x3ff),
            k64,
        )));
        let e_minus_r = _mm256_sub_pd(e, r);
        let y_far = _mm256_sub_pd(splat(1.0), e_minus_r);
        let y_low = _mm256_sub_pd(_mm256_sub_pd(splat(1.0), two_mk), e_minus_r);
        let y_mid = _mm256_add_pd(_mm256_sub_pd(r, _mm256_add_pd(e, two_mk)), splat(1.0));
        let far = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(kf, splat(-2.0)),
            _mm256_cmp_pd::<_CMP_GT_OQ>(kf, splat(56.0)),
        );
        let low = _mm256_cmp_pd::<_CMP_LT_OQ>(kf, splat(20.0));
        let y = select(far, y_far, select(low, y_low, y_mid));
        let y = _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_castpd_si256(y),
            _mm256_slli_epi64::<52>(k64),
        ));
        let y = select(far, _mm256_sub_pd(y, splat(1.0)), y);
        let km1 = _mm256_cmp_pd::<_CMP_EQ_OQ>(kf, splat(-1.0));
        let t = select(k0, y_k0, select(km1, y_km1, y));

        // tanh: 1 − 2/(t + 2) at |x| ≥ 1, −t/(t + 2) below, 1 from 22 on
        let q = _mm256_div_pd(
            select(ge1, splat(2.0), _mm256_xor_pd(t, sign)),
            _mm256_add_pd(t, splat(2.0)),
        );
        let z = select(ge1, _mm256_sub_pd(splat(1.0), q), q);
        let z = select(ge22, splat(1.0), z);
        // z > 0 in every lane, so or-ing in x's sign bit copies it
        Some(_mm256_or_pd(z, _mm256_and_pd(x, sign)))
    }
}

/// The oracle suite: a pinned table any host checks, a sweep against the
/// host's libm where that libm is glibc's FMA build, and every
/// instantiation against the scalar body.
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(x, tanh(x))` as bits, from glibc 2.36's FMA build: the specials,
    /// both sides of every branch bound (`expm1`'s `0x3fd62e42` and
    /// `0x3ff0a2b2` halved, since `tanh` passes `±2|x|`; 1; 22; the last
    /// and first `x` of `k` = 19/20 and 56/57), inputs under the
    /// `0x3fd62e42` high word whose result the reduction would change, and
    /// for each `mul_add` site that shows in `tanh`'s output, inputs where
    /// computing that site unfused changes the result.
    const TANH_TABLE: &[(u64, u64)] = &[
        (0x0000000000000000, 0x0000000000000000), // +0
        (0x8000000000000000, 0x8000000000000000), // -0
        (0x0000000000000001, 0x0000000000000001), // least subnormal
        (0x8000000000000001, 0x8000000000000001), // -least subnormal
        (0x000fffffffffffff, 0x000fffffffffffff), // greatest subnormal
        (0x0010000000000000, 0x0010000000000000), // least normal
        (0x3c7fffffffffffff, 0x3c7fffffffffffff), // 2^-55 - ulp
        (0x3c80000000000000, 0x3c80000000000000), // 2^-55
        (0x3c80000000000001, 0x3c80000000000001), // 2^-55 + ulp
        (0xbc7fffffffffffff, 0xbc7fffffffffffff), // -(2^-55 - ulp)
        (0xbc80000000000000, 0xbc80000000000000), // -2^-55
        (0xbc80000000000001, 0xbc80000000000001), // -(2^-55 + ulp)
        (0x7ff0000000000000, 0x3ff0000000000000), // +inf
        (0xfff0000000000000, 0xbff0000000000000), // -inf
        (0x7ff8000000000000, 0x7ff8000000000000), // NaN
        (0xfff8000000000000, 0xfff8000000000000), // -NaN
        (0x7fefffffffffffff, 0x3ff0000000000000), // f64::MAX
        (0xffefffffffffffff, 0xbff0000000000000), // -f64::MAX
        (0x3fc62e42ffffffff, 0x3fc5f619990a5491), // expm1 k = 0 below 0x3fd62e43, halved
        (0x3fc62e4300000000, 0x3fc5f619990a5491), // expm1 reduces from 0x3fd62e43, halved
        (0xbfc62e42ffffffff, 0xbfc5f619990a5491), // -(k = 0 bound - ulp)
        (0xbfc62e4300000000, 0xbfc5f619990a5491), // -(k = 0 bound)
        (0x3fe0a2b1ffffffff, 0x3fde90deb419e67b), // expm1 k = -1 below 0x3ff0a2b2, halved
        (0x3fe0a2b200000000, 0x3fde90deb419e67c), // expm1 general k from 0x3ff0a2b2, halved
        (0xbfe0a2b1ffffffff, 0xbfde90deb419e67b), // -(k = -1 bound - ulp)
        (0xbfe0a2b200000000, 0xbfde90deb419e67c), // -(k = -1 bound)
        (0x3fc62e4266155b72, 0x3fc5f61903a797b4), // k = 0 at high word 0x3fd62e42, halved: reducing changes it
        (0x3fc62e424bb5739d, 0x3fc5f618ea0e71c2), // k = 0 at high word 0x3fd62e42, halved: reducing changes it
        (0x3fefffffffffffff, 0x3fe85efab514f394), // 1 - ulp
        (0x3ff0000000000000, 0x3fe85efab514f394), // 1
        (0xbfefffffffffffff, 0xbfe85efab514f394), // -(1 - ulp)
        (0xbff0000000000000, 0xbfe85efab514f394), // -1
        (0x401b0861a6c0f69a, 0x3feffffa57d8e660), // k = 19, last
        (0x401b0861a6c0f69b, 0x3feffffa57d8e660), // k = 20, first
        (0x403394d72518e724, 0x3ff0000000000000), // k = 56, last
        (0x403394d72518e725, 0x3ff0000000000000), // k = 57, first
        (0x4035ffffffffffff, 0x3ff0000000000000), // 22 - ulp
        (0x4036000000000000, 0x3ff0000000000000), // 22
        (0xc035ffffffffffff, 0xbff0000000000000), // -(22 - ulp)
        (0xc036000000000000, 0xbff0000000000000), // -22
        (0x3ff8b91a481ef250, 0x3fed3733bec8743d), // 1 + hxs*Q1
        (0xbfe1dc24fad8cdf0, 0xbfe035eea6c23919), // 1 + hxs*Q1
        (0x3fc7c9f94ddc1400, 0x3fc784cfdc0cdb4a), // 1 + hxs*Q1
        (0xbff40f6f10188e88, 0xbfeb2dc488fa053a), // 3 - r1*hfx
        (0x3fea88bdf28d3170, 0x3fe5c2e767cf0465), // 3 - r1*hfx
        (0xbfe17b6e5e98b310, 0xbfdfdb37caa7123e), // 6 - x*t
        (0xbfcaf5ad6fb9f640, 0xbfca916645cee064), // 6 - x*t
        (0xbfc541c996351140, 0xbfc5104e6c24477d), // x*e - hxs
        (0xbfc313df70183100, 0xbfc2f0071481a769), // x*e - hxs
        (0xbfc81eafe7c11600, 0xbfc7d6a04ff39819), // x*(e - c) - c
        (0xbff313754993d9d8, 0xbfea99cf297cb3a8), // x*(e - c) - c
        (0x3fb999999999999a, 0x3fb983d7795f413a), // 0.1
        (0xbfd3333333333333, 0xbfd2a4dda7d914fa), // -0.3
        (0x3feccccccccccccd, 0x3fe6ebe982d6605d), // 0.9
        (0xc004000000000000, 0xbfef9258260a71c2), // -2.5
        (0x4024000000000000, 0x3feffffffdc96f35), // 10
        (0xc034000000000000, 0xbff0000000000000), // -20
        (0x4035e66666666666, 0x3ff0000000000000), // 21.9
    ];

    /// `(x, expm1(x))` as bits, from the same build: the specials, the
    /// overflow and `−56·ln2` bounds, `k = 1` and `k = 1024`, both sides of
    /// every branch bound, inputs next to a bound whose result the other
    /// side's branch would change, and inputs where an unfused site
    /// changes the result.
    const EXPM1_TABLE: &[(u64, u64)] = &[
        (0x0000000000000000, 0x0000000000000000), // +0
        (0x8000000000000000, 0x8000000000000000), // -0
        (0x3c8fffffffffffff, 0x3c8fffffffffffff), // 2^-54 - ulp
        (0xbc90000000000000, 0xbc90000000000000), // -2^-54
        (0x7ff0000000000000, 0x7ff0000000000000), // +inf
        (0xfff0000000000000, 0xbff0000000000000), // -inf
        (0x7ff8000000000000, 0x7ff8000000000000), // NaN
        (0x40862e42fefa39ef, 0x7fefffffffffff2a), // overflow threshold
        (0x40862e42fefa39f0, 0x7ff0000000000000), // past it
        (0x40862e0000000000, 0x7feef85a11e73f2d), // k = 1024
        (0x408628f5c28f5c29, 0x7fe07e933f347ebb), // k = 1023
        (0xc043687a00000000, 0xbff0000000000000), // -56 ln2 bound
        (0xc0436879ffffffff, 0xbff0000000000000), // just above it
        (0x3fd62e42ffffffff, 0x3fda82799b6f2364), // k = 0 bound - ulp
        (0x3fd62e4300000000, 0x3fda82799b6f2366), // k = 0 bound
        (0xbfd62e42ffffffff, 0xbfd2bec333baa280), // -(k = 0 bound - ulp)
        (0xbfd62e4300000000, 0xbfd2bec333baa280), // -(k = 0 bound)
        (0x3ff0a2b1ffffffff, 0x3ffd413c1a24d411), // k = 1 bound - ulp
        (0x3ff0a2b200000000, 0x3ffd413c1a24d414), // k = 1 bound
        (0xbff0a2b1ffffffff, 0xbfe4afb0a009f887), // -(k = -1 bound - ulp)
        (0xbff0a2b200000000, 0xbfe4afb0a009f888), // -(k = -1 bound)
        (0xbfd62e4266155b72, 0xbfd2bec2c6e4c1c3), // k = 0 at high word 0x3fd62e42: reducing changes it
        (0x3fd62e420a69ed44, 0x3fda8278401f702d), // k = 0 at high word 0x3fd62e42: reducing changes it
        (0x3fd999999999999a, 0x3fdf7a0e4beeff80), // k = 1, r < -0.25
        (0x3fe999999999999a, 0x3ff39bd0cdfc8dd1), // k = 1, r >= -0.25
        (0x402b0861a6c0f69a, 0x4126a09c667f3bbb), // k = 19, last
        (0x402b0861a6c0f69b, 0x4126a09c667f3bc6), // k = 20, first
        (0x404394d72518e724, 0x4376a09e667f3b97), // k = 56, last
        (0x404394d72518e725, 0x4376a09e667f3bc4), // k = 57, first
        (0x402a12915d162162, 0x411bfffc74ae8b21), // k = 19: the 20 <= k branch changes it
        (0x402bb8d393862cbf, 0x412fefff4d850b88), // k = 20: the k < 20 branch changes it
        (0x404343b70708f997, 0x436802d86e401a8e), // k = 56: the k > 56 branch changes it
        (0x4043a05d1bdbfd4b, 0x4378c24c36a80986), // k = 57: the k <= 56 branch changes it
        (0x4008b91a481ef250, 0x4034fc484edcc7ee), // 1 + hxs*Q1
        (0xbff1dc24fad8cdf0, 0xbfe58510487eecd1), // 1 + hxs*Q1
        (0x3feeda661228890a, 0x3ff9f61a6336042a), // 3 - r1*hfx
        (0xbfd0b324aba66fdc, 0xbfcd65c5119c195f), // 3 - r1*hfx
        (0x3feeaceab111106e, 0x3ff9baa0d2f8b2b3), // 6 - x*t
        (0xbfd36cabc6b18ce2, 0xbfd0c0ef6ca81fce), // 6 - x*t
        (0xbfd28c9964460338, 0xbfd01a623b5ee1d5), // x*e - hxs
        (0xbfc4dced970840a0, 0xbfc34060e657b20b), // x*e - hxs
        (0x3ff1212103dc9a37, 0x3ffeac6b6750bfdf), // x*(e - c) - c
        (0x3fdc3b322abc9788, 0x3fe1bdf166ab04cc), // x*(e - c) - c
        (0xbfe0000000000000, 0xbfd92e9a0720d3ec), // -0.5
        (0x3fe0000000000000, 0x3fe4c2531c3c0d38), // 0.5
        (0x4008000000000000, 0x403315e5bf6fb106), // 3
        (0xc008000000000000, 0xbfee6824f33314f5), // -3
        (0x403e000000000000, 0x42a370470aec26ed), // 30
        (0xc03e000000000000, 0xbfeffffffffffcb5), // -30
        (0x4049000000000000, 0x44719103e4080b45), // 50
        (0xc044000000000000, 0xbff0000000000000), // -40
    ];

    /// Bit equality, with any two NaNs equal.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn check(got: f64, want: f64, what: &str, x: f64) {
        assert!(
            same(got, want),
            "{what}({x:e} = {:#018x}) is {got:e} ({:#018x}), want {want:e} ({:#018x})",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }

    /// A named instantiation of a scalar body.
    type Path = (&'static str, fn(f64) -> f64);

    /// Every instantiation of the scalar `tanh` body this CPU can run.
    fn tanh_paths() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![("portable", |x| tanh_body(x)), ("dispatched", tanh)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            fn checked(x: f64) -> f64 {
                // SAFETY: listed only after `is_x86_feature_detected!("fma")`.
                unsafe { fma::tanh(x) }
            }
            paths.push(("fma", checked));
        }
        paths
    }

    /// Every instantiation of the scalar `expm1` body this CPU can run.
    fn expm1_paths() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![("portable", |x| expm1_body(x))];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            #[target_feature(enable = "fma")]
            fn fma_expm1(x: f64) -> f64 {
                expm1_body(x)
            }
            fn checked(x: f64) -> f64 {
                // SAFETY: listed only after `is_x86_feature_detected!("fma")`.
                unsafe { fma_expm1(x) }
            }
            paths.push(("fma", checked));
        }
        paths
    }

    /// The 4-lane instantiation over `xs`, or `false` on a CPU without
    /// AVX2 and FMA.
    fn lanes(xs: &mut [f64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: reached only after both features were detected.
            unsafe { avx2_fma::tanh_in_place(xs) };
            return true;
        }
        let _ = xs;
        false
    }

    /// A value that sends its group of four to the scalar body, or sits on
    /// a branch bound.
    fn special(rng: &mut StdRng) -> f64 {
        let x = match rng.gen_range(0..12u32) {
            0 => 0.0,
            1 => f64::from_bits(rng.gen_range(1..0x0010_0000_0000_0000u64)), // subnormal
            2 => f64::from_bits(rng.gen_range(0x0010_0000_0000_0000..0x3c80_0000_0000_0000u64)),
            3 => f64::from_bits(0x3c80_0000_0000_0000 + rng.gen_range(0..2u64)), // 2⁻⁵⁵ (+ulp)
            4 => f64::INFINITY,
            5 => f64::NAN,
            6 => f64::from_bits(rng.gen::<u64>() | 0x7ff0_0000_0000_0001), // any NaN
            7 => f64::from_bits(TANH_TABLE[rng.gen_range(0..TANH_TABLE.len())].0),
            8 => 22.0,
            9 => f64::MAX,
            10 => 1.0,
            _ => f64::from_bits(0x3fc6_2e43_0000_0000 - rng.gen_range(0..2u64)),
        };
        if rng.gen::<bool>() {
            -x
        } else {
            x
        }
    }

    /// Ordinary `tanh` inputs: every branch of the body, weighted to the
    /// range pre-activations live in.
    fn ordinary(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8u32) {
            0..=2 => rng.gen_range(-8.0..8.0),
            3 => rng.gen_range(-24.0..24.0),
            4 => rng.gen_range(-1.0..1.0) * f64::from_bits((1023 - rng.gen_range(0..56u64)) << 52),
            _ => f64::from_bits(rng.gen::<u64>()),
        }
    }

    #[test]
    fn the_pinned_table_holds_on_every_instantiation() {
        for &(xb, yb) in TANH_TABLE {
            let (x, want) = (f64::from_bits(xb), f64::from_bits(yb));
            for (path, tanh) in tanh_paths() {
                check(tanh(x), want, &format!("{path} tanh"), x);
            }
            // in each position of a group whose other lanes are ordinary
            for pos in 0..4 {
                let mut group = [0.5, -1.5, 7.0, -0.25];
                let others: Vec<f64> = group.iter().map(|&v| tanh_body(v)).collect();
                group[pos] = x;
                let mut dispatched = group;
                tanh_in_place(&mut dispatched);
                check(dispatched[pos], want, "tanh_in_place", x);
                if lanes(&mut group) {
                    check(group[pos], want, "lanes", x);
                }
                for (j, (&g, &o)) in group.iter().zip(&others).enumerate() {
                    if j != pos {
                        check(g, o, "lanes beside a table entry", o);
                    }
                }
            }
        }
        for &(xb, yb) in EXPM1_TABLE {
            let (x, want) = (f64::from_bits(xb), f64::from_bits(yb));
            for (path, expm1) in expm1_paths() {
                check(expm1(x), want, &format!("{path} expm1"), x);
            }
        }
    }

    /// Whether this host's libm is glibc's FMA build, judged by the
    /// pinned tables. Any other libm cannot serve as the sweep's oracle.
    fn libm_reproduces_the_tables() -> bool {
        let ok = TANH_TABLE.iter().all(|&(x, y)| same(f64::from_bits(x).tanh(), f64::from_bits(y)))
            && EXPM1_TABLE
                .iter()
                .all(|&(x, y)| same(f64::from_bits(x).exp_m1(), f64::from_bits(y)));
        if !ok {
            eprintln!(
                "math sweep skipped: this host's libm does not reproduce the pinned table \
                 (not glibc's FMA build), so it is no oracle for the port"
            );
        }
        ok
    }

    /// Inputs per sweep: 10⁸ in release, 10⁵ in a debug build.
    const SWEEP: usize = if cfg!(debug_assertions) { 100_000 } else { 100_000_000 };

    #[test]
    fn tanh_sweep_matches_the_host_libm() {
        if !libm_reproduces_the_tables() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x7a4e);
        let mut xs = vec![0.0; 4096];
        let mut ys = vec![0.0; 4096];
        for _ in 0..SWEEP / xs.len() {
            for x in xs.iter_mut() {
                *x = if rng.gen_range(0..64u32) == 0 {
                    special(&mut rng)
                } else {
                    ordinary(&mut rng)
                };
            }
            ys.copy_from_slice(&xs);
            tanh_in_place(&mut ys);
            for (&x, &y) in xs.iter().zip(&ys) {
                let want = x.tanh();
                check(tanh(x), want, "tanh against libm", x);
                check(y, want, "tanh_in_place against libm", x);
            }
        }
    }

    #[test]
    fn expm1_sweep_matches_the_host_libm() {
        if !libm_reproduces_the_tables() {
            return;
        }
        let (_, expm1) = *expm1_paths().last().expect("portable path");
        let mut rng = StdRng::seed_from_u64(0xe4b1);
        for _ in 0..SWEEP {
            let x = match rng.gen_range(0..8u32) {
                0..=2 => rng.gen_range(-1.2..1.2),
                3 => rng.gen_range(-50.0..50.0),
                4 => rng.gen_range(-800.0..800.0),
                5 => {
                    rng.gen_range(-1.0..1.0)
                        * f64::from_bits((1023 - rng.gen_range(0..60u64)) << 52)
                }
                6 => f64::from_bits(rng.gen::<u64>()),
                _ => f64::from_bits(EXPM1_TABLE[rng.gen_range(0..EXPM1_TABLE.len())].0),
            };
            check(expm1(x), x.exp_m1(), "expm1 against libm", x);
        }
    }

    #[test]
    fn every_instantiation_matches_the_scalar_body() {
        let n = if cfg!(debug_assertions) { 40_960 } else { 20_480_000 };
        let mut rng = StdRng::seed_from_u64(0x1a9e5);
        let paths = tanh_paths();
        let mut xs = vec![0.0; 4096];
        let mut ys = vec![0.0; 4096];
        for _ in 0..n / xs.len() {
            // about one group in four holds a special lane
            for x in xs.iter_mut() {
                *x = if rng.gen_range(0..16u32) == 0 {
                    special(&mut rng)
                } else {
                    ordinary(&mut rng)
                };
            }
            ys.copy_from_slice(&xs);
            let has_lanes = lanes(&mut ys);
            for (&x, &y) in xs.iter().zip(&ys) {
                let want = tanh_body(x);
                for (path, tanh) in &paths[1..] {
                    check(tanh(x), want, path, x);
                }
                if has_lanes {
                    check(y, want, "lanes", x);
                }
            }
        }
        let paths = expm1_paths();
        for _ in 0..n / 8 {
            let x = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(-1.2..1.2),
                1 => rng.gen_range(-800.0..800.0),
                2 => special(&mut rng),
                _ => f64::from_bits(rng.gen::<u64>()),
            };
            let want = expm1_body(x);
            for (path, expm1) in &paths[1..] {
                check(expm1(x), want, &format!("{path} expm1"), x);
            }
        }
    }

    #[test]
    fn tanh_in_place_matches_tanh_at_every_length_and_position() {
        // remainders of every length, and a special in every position
        let mut rng = StdRng::seed_from_u64(0x1e9);
        for len in 0..=13 {
            for at in 0..len.max(1) {
                let mut xs: Vec<f64> = (0..len).map(|_| ordinary(&mut rng)).collect();
                if len > 0 {
                    xs[at] = special(&mut rng);
                }
                let want: Vec<f64> = xs.iter().map(|&x| tanh(x)).collect();
                tanh_in_place(&mut xs);
                for (&g, &w) in xs.iter().zip(&want) {
                    check(g, w, &format!("tanh_in_place, length {len}"), w);
                }
            }
        }
    }
}
