//! Exact rational numbers over `i128`.
//!
//! [`Rat`] is the workhorse of everything in this workspace that must be
//! exact: extracted invariant coefficients, polynomial arithmetic, Gröbner
//! bases, and the symbolic half of the invariant checker. Training stays in
//! `f64`; the boundary between the two worlds is [`Rat::approximate`]
//! (float → best bounded-denominator rational) and [`Rat::to_f64`].
//!
//! Values are kept normalized: the denominator is strictly positive and
//! `gcd(num, den) == 1`. All arithmetic is overflow-checked; on overflow the
//! operation panics with a descriptive message (see the `Panics` sections).
//! The polynomial layers keep coefficients small (content normalization), so
//! overflow indicates a genuine misuse rather than an expected event.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Greatest common divisor of two `i128` values; always non-negative.
///
/// `gcd_i128(0, 0) == 0` by convention.
///
/// # Examples
///
/// ```
/// use gcln_numeric::rat::gcd_i128;
/// assert_eq!(gcd_i128(12, -18), 6);
/// assert_eq!(gcd_i128(0, 5), 5);
/// ```
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    // a <= i128::MAX.unsigned_abs() unless both inputs were i128::MIN, which
    // cannot reach here because |i128::MIN| is not representable as a gcd of
    // normalized rationals; guard anyway.
    i128::try_from(a).expect("gcd overflowed i128")
}

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) == 1`.
///
/// # Examples
///
/// ```
/// use gcln_numeric::Rat;
/// let a = Rat::new(2, 4);
/// assert_eq!(a, Rat::new(1, 2));
/// assert_eq!((a + Rat::from(1)).to_string(), "3/2");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Zero (`0/1`).
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One (`1/1`).
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a new rational from a numerator and denominator, normalizing
    /// sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcln_numeric::Rat;
    /// assert_eq!(Rat::new(-4, -6), Rat::new(2, 3));
    /// assert_eq!(Rat::new(3, -6), Rat::new(-1, 2));
    /// ```
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational denominator must be nonzero");
        // Integer fast path: `n/1` is already normalized, no gcd needed.
        if den == 1 {
            return Rat { num, den: 1 };
        }
        let g = gcd_i128(num, den);
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = num.checked_neg().expect("rational normalization overflow");
            den = den.checked_neg().expect("rational normalization overflow");
        }
        Rat { num, den }
    }

    /// Creates an integer rational (`n/1`).
    pub const fn integer(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator of the normalized fraction (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator of the normalized fraction (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Whether this value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this value is an integer (denominator one).
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Whether this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Whether this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics on overflow (numerator `i128::MIN`).
    pub fn abs(&self) -> Rat {
        Rat { num: self.num.checked_abs().expect("rational abs overflow"), den: self.den }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(self.num != 0, "cannot invert zero");
        Rat::new(self.den, self.num)
    }

    /// Raises to an integer power. Negative exponents invert.
    ///
    /// # Panics
    ///
    /// Panics on overflow, or when raising zero to a negative power.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcln_numeric::Rat;
    /// assert_eq!(Rat::new(2, 3).pow(2), Rat::new(4, 9));
    /// assert_eq!(Rat::new(2, 1).pow(-2), Rat::new(1, 4));
    /// ```
    pub fn pow(&self, exp: i32) -> Rat {
        if exp < 0 {
            return self.recip().pow(-exp);
        }
        let mut result = Rat::ONE;
        let mut base = *self;
        let mut e = exp as u32;
        while e > 0 {
            if e & 1 == 1 {
                result *= base;
            }
            e >>= 1;
            if e > 0 {
                base = base * base;
            }
        }
        result
    }

    /// Checked exponentiation by a non-negative power; `None` on `i128`
    /// overflow (where [`Rat::pow`] would panic).
    pub fn checked_pow(&self, exp: u32) -> Option<Rat> {
        let mut result = Rat::ONE;
        let mut base = *self;
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = result.checked_mul(&base)?;
            }
            e >>= 1;
            if e > 0 {
                base = base.checked_mul(&base)?;
            }
        }
        Some(result)
    }

    /// Converts to `f64` (possibly lossy).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Floor: the largest integer not exceeding the value.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcln_numeric::Rat;
    /// assert_eq!(Rat::new(7, 2).floor(), 3);
    /// assert_eq!(Rat::new(-7, 2).floor(), -4);
    /// ```
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling: the smallest integer not less than the value.
    pub fn ceil(&self) -> i128 {
        -(-*self).floor()
    }

    /// Rounds to the nearest integer, ties away from zero.
    pub fn round(&self) -> i128 {
        let twice = *self * Rat::integer(2);
        if self.is_negative() {
            (twice - Rat::ONE).ceil().div_euclid(2) + (twice - Rat::ONE).ceil().rem_euclid(2).min(0)
        } else {
            (twice + Rat::ONE).floor().div_euclid(2)
        }
    }

    /// Best rational approximation of `x` with denominator at most
    /// `max_den`, computed with the Stern–Brocot / continued-fraction
    /// method. This is the rounding step of the paper's coefficient
    /// extraction (§3: "round to the nearest rational number using a
    /// maximum possible denominator").
    ///
    /// Returns `None` when `x` is not finite or its magnitude exceeds what
    /// `i128` can represent.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcln_numeric::Rat;
    /// assert_eq!(Rat::approximate(0.3333, 10), Some(Rat::new(1, 3)));
    /// assert_eq!(Rat::approximate(0.4999, 10), Some(Rat::new(1, 2)));
    /// assert_eq!(Rat::approximate(-2.0, 10), Some(Rat::integer(-2)));
    /// ```
    pub fn approximate(x: f64, max_den: i128) -> Option<Rat> {
        assert!(max_den >= 1, "max_den must be at least 1");
        if !x.is_finite() || x.abs() >= 1e30 {
            return None;
        }
        if x < 0.0 {
            return Rat::approximate(-x, max_den).map(|r| -r);
        }
        // Stern-Brocot walk: maintain lo = a/b <= x <= c/d = hi.
        let (mut a, mut b, mut c, mut d) = (0i128, 1i128, 1i128, 0i128);
        let mut best = Rat::integer(x.round() as i128);
        let mut best_err = (x - best.to_f64()).abs();
        loop {
            // Mediant
            let (mn, md) = (a + c, b + d);
            if md > max_den {
                break;
            }
            let m = mn as f64 / md as f64;
            let err = (x - m).abs();
            if err < best_err {
                best = Rat::new(mn, md);
                best_err = err;
            }
            if (m - x).abs() < 1e-15 {
                break;
            }
            if m < x {
                // Accelerate: find how many times we can add (c,d).
                let k = kmax(x, a, b, c, d, max_den, true);
                a += k * c;
                b += k * d;
            } else {
                let k = kmax(x, a, b, c, d, max_den, false);
                c += k * a;
                d += k * b;
            }
            if b > max_den && d > max_den {
                break;
            }
        }
        // Also consider the current bounds themselves.
        for (n, dd) in [(a, b), (c, d)] {
            if dd >= 1 && dd <= max_den {
                let cand = Rat::new(n, dd);
                let err = (x - cand.to_f64()).abs();
                if err < best_err {
                    best = cand;
                    best_err = err;
                }
            }
        }
        Some(best)
    }

    /// Exact checked addition; `None` on `i128` overflow.
    ///
    /// Small-int fast paths: integer ± integer needs no gcd at all, and
    /// integer ± fraction is already normalized (`gcd(a·d + n, d) =
    /// gcd(n, d) = 1`), so gcd normalization is deferred to the general
    /// fraction-fraction path — the one with real overflow pressure.
    pub fn checked_add(&self, rhs: &Rat) -> Option<Rat> {
        if self.den == 1 && rhs.den == 1 {
            return self.num.checked_add(rhs.num).map(Rat::integer);
        }
        if self.den == 1 {
            let num = self.num.checked_mul(rhs.den)?.checked_add(rhs.num)?;
            return Some(Rat { num, den: rhs.den });
        }
        if rhs.den == 1 {
            let num = rhs.num.checked_mul(self.den)?.checked_add(self.num)?;
            return Some(Rat { num, den: self.den });
        }
        let g = gcd_i128(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self.num.checked_mul(lhs_scale)?.checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Rat::new(num, den))
    }

    /// Exact checked multiplication; `None` on `i128` overflow.
    pub fn checked_mul(&self, rhs: &Rat) -> Option<Rat> {
        // Integer × integer: the product is already normalized.
        if self.den == 1 && rhs.den == 1 {
            return self.num.checked_mul(rhs.num).map(Rat::integer);
        }
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rat::new(num, den))
    }
}

/// How many mediant steps toward `x` fit within the denominator budget.
fn kmax(x: f64, a: i128, b: i128, c: i128, d: i128, max_den: i128, from_lo: bool) -> i128 {
    // Walking from lo: lo' = (a + k c)/(b + k d) must stay <= x.
    // Walking from hi: hi' = (c + k a)/(d + k b) must stay >= x.
    let mut k = 1i128;
    let mut step = 1i128;
    loop {
        let k2 = k + step;
        let ok = if from_lo {
            let den = b + k2 * d;
            den <= max_den && ((a + k2 * c) as f64) <= x * den as f64
        } else {
            let den = d + k2 * b;
            den <= max_den && ((c + k2 * a) as f64) >= x * den as f64
        };
        if ok {
            k = k2;
            step *= 2;
        } else if step > 1 {
            step = 1;
        } else {
            return k;
        }
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl PartialEq for Rat {
    fn eq(&self, other: &Self) -> bool {
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Rat {}

impl Hash for Rat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0). Use checked mul with a
        // widening fallback through f64 only if exact comparison overflows.
        match (self.num.checked_mul(other.den), other.num.checked_mul(self.den)) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .expect("rational comparison produced NaN"),
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::integer(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::integer(n as i128)
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::integer(n)
    }
}

impl Add for Rat {
    type Output = Rat;
    /// # Panics
    /// Panics on `i128` overflow.
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(&rhs).expect("rational addition overflow")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    /// # Panics
    /// Panics on `i128` overflow.
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(&rhs).expect("rational multiplication overflow")
    }
}

impl Div for Rat {
    type Output = Rat;
    /// # Panics
    /// Panics when dividing by zero or on overflow.
    #[allow(clippy::suspicious_arithmetic_impl)] // division via exact reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: self.num.checked_neg().expect("rational negation overflow"), den: self.den }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {:?}", self.input)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"a"`, `"a/b"`, or a decimal like `"1.25"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcln_numeric::Rat;
    /// assert_eq!("3/4".parse::<Rat>().unwrap(), Rat::new(3, 4));
    /// assert_eq!("-1.5".parse::<Rat>().unwrap(), Rat::new(-3, 2));
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let s = s.trim();
        let err = || ParseRatError { input: s.to_string() };
        if let Some((n, d)) = s.split_once('/') {
            let num: i128 = n.trim().parse().map_err(|_| err())?;
            let den: i128 = d.trim().parse().map_err(|_| err())?;
            if den == 0 {
                return Err(err());
            }
            Ok(Rat::new(num, den))
        } else if let Some((int, frac)) = s.split_once('.') {
            let negative = int.trim_start().starts_with('-');
            let int_part: i128 =
                if int.is_empty() || int == "-" { 0 } else { int.parse().map_err(|_| err())? };
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let scale = 10i128.checked_pow(frac.len() as u32).ok_or_else(err)?;
            let frac_part: i128 = frac.parse().map_err(|_| err())?;
            let unsigned = Rat::integer(int_part.abs()) + Rat::new(frac_part, scale);
            Ok(if negative { -unsigned } else { unsigned })
        } else {
            let n: i128 = s.parse().map_err(|_| err())?;
            Ok(Rat::integer(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
        assert_eq!(Rat::new(0, -5).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert_eq!(Rat::new(2, 4).cmp(&Rat::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::new(5, 1).floor(), 5);
        assert_eq!(Rat::new(1, 4).round(), 0);
        assert_eq!(Rat::new(3, 4).round(), 1);
        assert_eq!(Rat::new(-3, 4).round(), -1);
    }

    #[test]
    fn pow() {
        assert_eq!(Rat::new(2, 3).pow(0), Rat::ONE);
        assert_eq!(Rat::new(2, 3).pow(3), Rat::new(8, 27));
        assert_eq!(Rat::new(2, 1).pow(-3), Rat::new(1, 8));
        assert_eq!(Rat::ZERO.pow(5), Rat::ZERO);
    }

    #[test]
    fn approximate_basic() {
        assert_eq!(Rat::approximate(0.5, 10), Some(Rat::new(1, 2)));
        assert_eq!(Rat::approximate(0.333333, 10), Some(Rat::new(1, 3)));
        assert_eq!(Rat::approximate(0.666666, 10), Some(Rat::new(2, 3)));
        assert_eq!(Rat::approximate(1.0, 10), Some(Rat::ONE));
        assert_eq!(Rat::approximate(0.0, 10), Some(Rat::ZERO));
        assert_eq!(Rat::approximate(-0.75, 10), Some(Rat::new(-3, 4)));
        // pi with denominator budget 10 -> 22/7
        assert_eq!(Rat::approximate(std::f64::consts::PI, 10), Some(Rat::new(22, 7)));
        // with budget 120 -> 355/113
        assert_eq!(Rat::approximate(std::f64::consts::PI, 120), Some(Rat::new(355, 113)));
    }

    #[test]
    fn approximate_nonfinite() {
        assert_eq!(Rat::approximate(f64::NAN, 10), None);
        assert_eq!(Rat::approximate(f64::INFINITY, 10), None);
    }

    #[test]
    fn approximate_denominator_respected() {
        for &x in &[0.1234, 0.9876, 5.4321, -3.3333] {
            for &d in &[1i128, 10, 15, 30] {
                let r = Rat::approximate(x, d).unwrap();
                assert!(r.denom() <= d, "denominator {} exceeds budget {}", r.denom(), d);
            }
        }
    }

    #[test]
    fn parsing() {
        assert_eq!("5".parse::<Rat>().unwrap(), Rat::integer(5));
        assert_eq!("-5".parse::<Rat>().unwrap(), Rat::integer(-5));
        assert_eq!("3/4".parse::<Rat>().unwrap(), Rat::new(3, 4));
        assert_eq!("-3/4".parse::<Rat>().unwrap(), Rat::new(-3, 4));
        assert_eq!("1.25".parse::<Rat>().unwrap(), Rat::new(5, 4));
        assert_eq!("-0.5".parse::<Rat>().unwrap(), Rat::new(-1, 2));
        assert!("".parse::<Rat>().is_err());
        assert!("1/0".parse::<Rat>().is_err());
        assert!("a".parse::<Rat>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for r in [Rat::new(3, 4), Rat::integer(-7), Rat::ZERO, Rat::new(-22, 7)] {
            assert_eq!(r.to_string().parse::<Rat>().unwrap(), r);
        }
    }

    #[test]
    fn checked_ops_overflow() {
        let big = Rat::integer(i128::MAX / 2);
        assert!(big.checked_mul(&Rat::integer(4)).is_none());
        assert!(big.checked_add(&big).is_some());
        let huge = Rat::integer(i128::MAX);
        assert!(huge.checked_add(&Rat::ONE).is_none());
    }
}
