//! Free numeric helpers shared by policy heads.

/// Numerically stable log-sum-exp.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    let s: f64 = xs.iter().map(|x| (x - m).exp()).sum();
    m + s.ln()
}

/// Softmax of `xs` (stable).
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let lse = log_sum_exp(xs);
    xs.iter().map(|x| (x - lse).exp()).collect()
}

/// Log-softmax of `xs` (stable).
pub fn log_softmax(xs: &[f64]) -> Vec<f64> {
    let lse = log_sum_exp(xs);
    xs.iter().map(|x| x - lse).collect()
}

/// Log-softmax of `xs` written into `out` (stable, no allocation).
///
/// Bit-identical to [`log_softmax`] element-for-element.
pub fn log_softmax_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "log_softmax_into: length mismatch");
    let lse = log_sum_exp(xs);
    for (o, x) in out.iter_mut().zip(xs.iter()) {
        *o = x - lse;
    }
}

/// Vectorized identity: copy `zs` into `out`.
///
/// Exists so batched layer kernels can dispatch every activation through the
/// same slice interface; see [`tanh_into`] / [`relu_into`].
pub fn linear_into(zs: &[f64], out: &mut [f64]) {
    assert_eq!(zs.len(), out.len(), "linear_into: length mismatch");
    out.copy_from_slice(zs);
}

/// Vectorized tanh over a slice.
///
/// [`crate::math::tanh`] of each element, four lanes at a time where the
/// CPU allows — bit-identical to calling the scalar activation per
/// element, which keeps batched forward passes bit-identical to
/// per-sample forwards.
pub fn tanh_into(zs: &[f64], out: &mut [f64]) {
    assert_eq!(zs.len(), out.len(), "tanh_into: length mismatch");
    out.copy_from_slice(zs);
    crate::math::tanh_in_place(out);
}

/// Vectorized ReLU over a slice (`max(z, 0.0)` per element, in order).
pub fn relu_into(zs: &[f64], out: &mut [f64]) {
    assert_eq!(zs.len(), out.len(), "relu_into: length mismatch");
    for (o, z) in out.iter_mut().zip(zs.iter()) {
        *o = z.max(0.0);
    }
}

/// Clamp `x` into `[lo, hi]`.
#[inline]
pub fn clip(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

/// Linearly map `x` from `[-1, 1]` to `[lo, hi]`, clamping outside.
#[inline]
pub fn scale_from_unit(x: f64, lo: f64, hi: f64) -> f64 {
    clip(lo + (x + 1.0) * 0.5 * (hi - lo), lo, hi)
}

/// Inverse of [`scale_from_unit`] (without clamping).
#[inline]
pub fn scale_to_unit(v: f64, lo: f64, hi: f64) -> f64 {
    2.0 * (v - lo) / (hi - lo) - 1.0
}

/// Mean of a slice; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Ascending sorted copy of `xs`; errors on NaN (any other float,
/// including infinities, orders totally). The shared sort-and-validate
/// step behind [`percentile`] / [`try_percentile`] and CDF builders such
/// as `adversary::report::qoe_cdf`.
pub fn try_sorted(xs: &[f64]) -> Result<Vec<f64>, String> {
    if xs.iter().any(|x| x.is_nan()) {
        return Err("NaN in percentile input".to_string());
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
    Ok(v)
}

/// `p`-th percentile (0..=100) by linear interpolation on sorted data.
/// Panics on empty input, NaN data, or a rank outside `[0, 100]`; see
/// [`try_percentile`] for the non-panicking variant (the workspace `try_*`
/// convention) used on untrusted or possibly-empty inputs.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    match try_percentile(xs, p) {
        Ok(v) => v,
        Err(msg) => panic!("{msg}"),
    }
}

/// `p`-th percentile (0..=100) by linear interpolation on sorted data,
/// returning a descriptive error instead of panicking on empty input,
/// NaN data, or a non-finite / out-of-range rank.
pub fn try_percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    if xs.is_empty() {
        return Err("percentile of empty slice".to_string());
    }
    if !p.is_finite() || !(0.0..=100.0).contains(&p) {
        return Err(format!("percentile rank {p} outside [0, 100]"));
    }
    let v = try_sorted(xs)?;
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Ok(if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let xs = [0.3, -1.2, 2.0, 0.0];
        let ls = log_softmax(&xs);
        let p = softmax(&xs);
        for (l, q) in ls.iter().zip(p.iter()) {
            assert!((l.exp() - q).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_scaling_roundtrip() {
        for &v in &[0.8, 2.0, 4.8] {
            let u = scale_to_unit(v, 0.8, 4.8);
            assert!((scale_from_unit(u, 0.8, 4.8) - v).abs() < 1e-12);
        }
        // out-of-range unit values clamp
        assert_eq!(scale_from_unit(5.0, 0.8, 4.8), 4.8);
        assert_eq!(scale_from_unit(-5.0, 0.8, 4.8), 0.8);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn into_variants_bit_identical_to_allocating() {
        let xs = [0.3, -1.2, 2.0, 0.0, 1e3];
        let mut out = [0.0; 5];
        log_softmax_into(&xs, &mut out);
        assert_eq!(out.to_vec(), log_softmax(&xs));
        tanh_into(&xs, &mut out);
        assert_eq!(out.to_vec(), xs.iter().map(|&z| crate::math::tanh(z)).collect::<Vec<_>>());
        relu_into(&xs, &mut out);
        assert_eq!(out.to_vec(), xs.iter().map(|z| z.max(0.0)).collect::<Vec<_>>());
        linear_into(&xs, &mut out);
        assert_eq!(out, xs);
    }

    #[test]
    fn try_percentile_matches_panicking_api_and_reports_errors() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        for p in [0.0, 5.0, 50.0, 95.0, 100.0] {
            assert_eq!(try_percentile(&xs, p).unwrap(), percentile(&xs, p));
        }
        assert!(try_percentile(&[], 50.0).unwrap_err().contains("empty"));
        assert!(try_percentile(&[1.0, f64::NAN], 50.0).unwrap_err().contains("NaN"));
        assert!(try_percentile(&xs, 101.0).unwrap_err().contains("outside"));
        assert!(try_percentile(&xs, f64::NAN).unwrap_err().contains("outside"));
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_still_panics_on_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn try_sorted_sorts_and_rejects_nan() {
        assert_eq!(try_sorted(&[3.0, 1.0, 2.0]).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(try_sorted(&[1.0, f64::NAN]).is_err());
        assert!(try_sorted(&[]).unwrap().is_empty());
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
