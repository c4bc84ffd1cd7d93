//! Shared numeric kernels: a vectorizable `exp` and canonical blocked
//! reductions.
//!
//! Every execution engine that must agree bit for bit — the tape
//! ([`crate::tape`]) and the engine crate's direct G-CLN equality kernel
//! and PBQU bound trainer — routes the *same* floating-point operations
//! through the *same* inlined helpers below. That single source of truth
//! is what makes them bit-identical to each other: there is exactly one
//! `exp` implementation and exactly one summation order.
//!
//! # Why not `f64::exp`?
//!
//! `f64::exp` is an opaque libm call, so LLVM cannot vectorize loops around
//! it; on the training hot path (`exp(−z²/2σ²)` per literal × sample ×
//! epoch) that serial call is ~25% of epoch time. [`exp64`] is a
//! branch-light polynomial implementation written so the autovectorizer can
//! turn a whole activation row into SIMD lanes. Accuracy is ~1–2 ulp over
//! the training range (validated against libm in the tests), which is far
//! below the noise floor of gradient descent.
//!
//! # Why blocked reductions?
//!
//! A sequential floating-point sum is a single dependency chain: one fused
//! multiply-add every ~4 cycles, no matter how wide the machine is. The
//! affine backward pass is dominated by exactly such sums
//! (`∂w_i = Σ_j x_j·g_j`). [`reduce_blocked4`] fixes *one* canonical
//! reassociation — four independent accumulators over the main blocks, a
//! sequential tail, combined as `((a₀+a₁)+(a₂+a₃))+tail` — which breaks the
//! latency chain (~3× faster) while remaining a deterministic, documented
//! summation order shared by every engine.

/// Fused multiply-add `a·b + c`, rounded once.
///
/// The single canonical FMA entry point for the crate: every engine that
/// fuses a product into a sum (the affine dot products, the [`exp64`]
/// polynomial, [`reduce_fma_blocked4`]) goes through here, so "what gets
/// fused" is decided in exactly one place. On hardware with FMA units
/// (any x86-64 since Haswell, all aarch64) `mul_add` compiles to the
/// single instruction; elsewhere it falls back to a correctly-rounded
/// soft-float routine — slower, but still deterministic and identical
/// across the crate's engines.
#[inline(always)]
pub fn fma64(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

/// Dot-product-style reduction with fused multiply-adds: accumulates
/// `x(j)·y(j)` pairs in the same four-block pattern as
/// [`reduce_blocked4`], but each accumulation step is a single rounded
/// FMA. The canonical order for every weight-gradient reduction
/// (`∂w = Σ_j x_j·g_j`) in the crate.
#[inline(always)]
pub fn reduce_fma_blocked4(n: usize, mut f: impl FnMut(usize) -> (f64, f64)) -> f64 {
    let mut a0 = 0.0;
    let mut a1 = 0.0;
    let mut a2 = 0.0;
    let mut a3 = 0.0;
    let mut j = 0;
    while j + 4 <= n {
        let (x0, y0) = f(j);
        let (x1, y1) = f(j + 1);
        let (x2, y2) = f(j + 2);
        let (x3, y3) = f(j + 3);
        a0 = fma64(x0, y0, a0);
        a1 = fma64(x1, y1, a1);
        a2 = fma64(x2, y2, a2);
        a3 = fma64(x3, y3, a3);
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        let (x, y) = f(j);
        tail = fma64(x, y, tail);
        j += 1;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// `1.5 × 2^52`: shifting magic constant for round-to-nearest-even via
/// addition (any |x| ≤ 2^51 rounds to an integer held in the low mantissa
/// bits).
const EXP_SHIFT: f64 = 6755399441055744.0;
/// `ln 2` split into a high part exact in ~32 bits and the remainder, so
/// the argument reduction `x − k·ln2` is exact to full precision.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Natural exponential, written for autovectorization.
///
/// Same algorithm as every libm: reduce `x = k·ln2 + r` with
/// `|r| ≤ ln2/2`, evaluate a degree-12 Taylor polynomial for `e^r`
/// (relative error < 1 ulp on the reduced interval), and scale by `2^k`
/// through direct exponent-bit arithmetic. All steps are straight-line
/// float/integer ops — no calls, no data-dependent branches — so loops
/// over slices of `exp64` compile to SIMD on any target with vector FP.
///
/// Deviations from `f64::exp`: results can differ from libm by ~1 ulp,
/// inputs below −708 underflow to exactly `0.0` a hair early (libm keeps
/// subnormals down to −745; flushing avoids feeding subnormals to the
/// backward pass), and inputs above 709 saturate to `exp64(709)` rather
/// than overflowing to `+∞`. NaN propagates.
///
/// # Examples
///
/// ```
/// use gcln_tensor::fastmath::exp64;
/// assert_eq!(exp64(0.0), 1.0);
/// assert!((exp64(1.0) - std::f64::consts::E).abs() < 1e-15);
/// assert_eq!(exp64(-1e4), 0.0);
/// ```
#[inline(always)]
pub fn exp64(x: f64) -> f64 {
    // Clamp so the 2^k reconstruction below stays inside the normal range.
    let xs = if x < -708.0 { -708.0 } else { x };
    let xs = if xs > 709.0 { 709.0 } else { xs };
    let kd = fma64(xs, std::f64::consts::LOG2_E, EXP_SHIFT);
    // The rounded integer k sits in the low mantissa bits of `kd`.
    let k = (kd.to_bits() as i64 & 0xffff_ffff) as i32 as i64;
    let kf = kd - EXP_SHIFT;
    let r = fma64(-kf, LN2_LO, fma64(-kf, LN2_HI, xs));
    // Taylor coefficients 1/n!; |r| ≤ 0.3466 puts the truncation error at
    // r¹³/13! ≈ 2e−16 relative — about one ulp. Each Horner step is one
    // FMA: half the op count of separate mul/add, and one rounding.
    let p = 1.0 / 479_001_600.0;
    let p = fma64(p, r, 1.0 / 39_916_800.0);
    let p = fma64(p, r, 1.0 / 3_628_800.0);
    let p = fma64(p, r, 1.0 / 362_880.0);
    let p = fma64(p, r, 1.0 / 40_320.0);
    let p = fma64(p, r, 1.0 / 5_040.0);
    let p = fma64(p, r, 1.0 / 720.0);
    let p = fma64(p, r, 1.0 / 120.0);
    let p = fma64(p, r, 1.0 / 24.0);
    let p = fma64(p, r, 1.0 / 6.0);
    let p = fma64(p, r, 0.5);
    let p = fma64(p, r, 1.0);
    let p = fma64(p, r, 1.0);
    // p ∈ [0.7, 1.42], so adding k to its exponent field is exact 2^k
    // scaling while k stays in the normal range (the clamp guarantees it).
    let scaled = f64::from_bits((p.to_bits() as i64).wrapping_add(k << 52) as u64);
    // True underflow flushes to exactly +0.0 (see the doc comment).
    if x < -708.0 {
        0.0
    } else {
        scaled
    }
}

/// The crate's canonical reassociated sum: `f(0) + f(1) + … + f(n−1)`
/// accumulated as four independent partial sums over the leading
/// `4·⌊n/4⌋` indices plus a sequential tail, combined as
/// `((a₀+a₁)+(a₂+a₃)) + tail`.
///
/// Every batch reduction in this crate — `SumBatch`, `MeanBatch`, the
/// fused PBQU loss, and the backward accumulation of a batch gradient
/// into a broadcast scalar — uses exactly this order, in the tape and
/// the engine's direct kernels alike, so their results agree
/// bit-for-bit.
#[inline(always)]
pub fn reduce_blocked4(n: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let mut a0 = 0.0;
    let mut a1 = 0.0;
    let mut a2 = 0.0;
    let mut a3 = 0.0;
    let mut j = 0;
    while j + 4 <= n {
        a0 += f(j);
        a1 += f(j + 1);
        a2 += f(j + 2);
        a3 += f(j + 3);
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        tail += f(j);
        j += 1;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// [`reduce_blocked4`] over a slice.
#[inline(always)]
pub fn sum_blocked(v: &[f64]) -> f64 {
    reduce_blocked4(v.len(), |j| v[j])
}

/// L1 subgradient with `0` at zero.
///
/// Unlike `f64::signum`, which maps `±0.0` to `±1.0`, this returns `0.0`
/// for both zeros. That is the mathematically standard subgradient choice
/// — and it is load-bearing for determinism: the sign of a zero is the
/// one place IEEE arithmetic lets two bit-identical-in-magnitude
/// computations diverge (e.g. `0·x` picks up the sign of `x`), and
/// `signum` would amplify that sign into a ±2·λ gradient difference.
#[inline(always)]
pub fn l1_subgrad(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp64_matches_libm_to_one_ulp() {
        let mut max_rel = 0.0f64;
        for i in 0..400_000 {
            let x = -120.0 + i as f64 * 0.0006; // [-120, 120]
            let got = exp64(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 5e-16, "max relative error {max_rel}");
    }

    #[test]
    fn exp64_edge_cases() {
        assert_eq!(exp64(0.0), 1.0);
        assert_eq!(exp64(-0.0), 1.0);
        assert_eq!(exp64(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp64(-1e9), 0.0);
        assert_eq!(exp64(-745.0), 0.0);
        assert!(exp64(-708.0) > 0.0);
        assert!(exp64(1e9).is_finite(), "saturates instead of overflowing");
        assert!(exp64(f64::NAN).is_nan());
        // Monotone non-decreasing on a dense grid (training relies on the
        // activation ordering, not its exact value).
        let mut prev = 0.0;
        for i in 0..100_000 {
            let x = -30.0 + i as f64 * 0.0006;
            let v = exp64(x);
            assert!(v >= prev, "non-monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn exp64_never_subnormal() {
        for x in [-708.1, -720.0, -744.9, -745.1, -1e6] {
            let v = exp64(x);
            assert!(v == 0.0 || v.is_normal(), "subnormal {v:e} at {x}");
        }
    }

    #[test]
    fn reduce_blocked4_matches_slice_helper_bitwise() {
        for n in 0..23 {
            let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37 - 1.0).sin()).collect();
            let a = reduce_blocked4(n, |j| v[j]);
            let b = sum_blocked(&v);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reduce_blocked4_is_accurate() {
        let v: Vec<f64> = (0..1001).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let blocked = sum_blocked(&v);
        let kahan = {
            let (mut s, mut c) = (0.0f64, 0.0f64);
            for &x in &v {
                let y = x - c;
                let t = s + y;
                c = (t - s) - y;
                s = t;
            }
            s
        };
        assert!((blocked - kahan).abs() <= 1e-12 * kahan.abs());
    }

    #[test]
    fn reduce_fma_blocked4_matches_manual_order() {
        for n in 0..23usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41 - 1.3).cos()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29 + 0.7).sin()).collect();
            let got = reduce_fma_blocked4(n, |j| (x[j], y[j]));
            // Re-derive via the documented order with explicit fma64.
            let mut a = [0.0f64; 4];
            let mut j = 0;
            while j + 4 <= n {
                for (s, acc) in a.iter_mut().enumerate() {
                    *acc = fma64(x[j + s], y[j + s], *acc);
                }
                j += 4;
            }
            let mut tail = 0.0;
            while j < n {
                tail = fma64(x[j], y[j], tail);
                j += 1;
            }
            let want = ((a[0] + a[1]) + (a[2] + a[3])) + tail;
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn l1_subgrad_zero_safe() {
        assert_eq!(l1_subgrad(3.0), 1.0);
        assert_eq!(l1_subgrad(-2.5), -1.0);
        assert_eq!(l1_subgrad(0.0), 0.0);
        assert_eq!(l1_subgrad(-0.0), 0.0);
    }
}
