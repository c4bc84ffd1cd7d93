//! The training kernel's shared arithmetic: one fused multiply-add, a
//! vectorizable `exp`, and a zero-safe L1 subgradient.
//!
//! The G-CLN training kernel ([`crate::model`]) and the test-only tape it
//! is pinned to route the *same* floating-point operations through these
//! inlined helpers, so there is exactly one `exp` and one decision of
//! what gets fused. That is what keeps the two bit-identical.
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

/// Fused multiply-add `a·b + c`, rounded once.
///
/// The single canonical FMA entry point: everything that fuses a product
/// into a sum (the kernel's and the tape's dot products and weight
/// gradients, the [`exp64`] polynomial) goes through here, so "what gets
/// fused" is decided in exactly one place. On hardware with FMA units
/// (any x86-64 since Haswell, all aarch64) `mul_add` compiles to the
/// single instruction; elsewhere it falls back to a correctly-rounded
/// soft-float routine — slower, but still deterministic and identical
/// across the crate's engines.
#[inline(always)]
pub fn fma64(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
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
    fn l1_subgrad_zero_safe() {
        assert_eq!(l1_subgrad(3.0), 1.0);
        assert_eq!(l1_subgrad(-2.5), -1.0);
        assert_eq!(l1_subgrad(0.0), 0.0);
        assert_eq!(l1_subgrad(-0.0), 0.0);
    }
}
