//! Multivariate polynomials over [`Rat`].
//!
//! These power the symbolic half of the invariant checker: loop bodies whose
//! updates are polynomial maps are composed into candidate invariants by
//! substitution ([`Poly::subst`]), and inductiveness is decided by ideal
//! membership over a Gröbner basis (see [`crate::groebner`]).
//!
//! Monomials are exponent vectors over a fixed arity; the term order is
//! graded reverse lexicographic (grevlex), the usual default for Gröbner
//! computations.
//!
//! # Representation
//!
//! Both types are optimized for the Gröbner/checker hot path:
//!
//! - [`Monomial`] packs its exponent vector into a single `u64` (one nibble
//!   per variable) whenever `arity ≤ 16` and every exponent is `≤ 15`, with
//!   a heap spill path above those limits. Packed monomials compare in
//!   grevlex order with two integer comparisons and multiply with one
//!   addition when no nibble can carry.
//! - [`Poly`] stores its terms as a flat `Vec<(Monomial, Rat)>` sorted in
//!   ascending grevlex order (no `BTreeMap` nodes, no per-term heap
//!   traffic). Arithmetic is implemented as sorted-list merges, and the
//!   Gröbner layer reuses scratch buffers across reductions via the
//!   `pub(crate)` term accessors.

use crate::rat::Rat;
use std::cmp::Ordering;
use std::fmt;

/// Max arity representable in the packed monomial encoding.
const PACK_ARITY: usize = 16;
/// Max per-variable exponent representable in the packed encoding.
const PACK_MAX_EXP: u32 = 15;
/// Nibbles whose high bit is set; used to detect possible carries in the
/// packed-multiply fast path.
const HIGH_NIBBLE_BITS: u64 = 0x8888_8888_8888_8888;

/// Internal monomial representation (canonical: `Small` is used whenever
/// the exponent vector fits, so derived `Eq`/`Hash` are consistent).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Repr {
    /// `arity ≤ 16`, every exponent `≤ 15`: variable `i` occupies bits
    /// `4i..4i+4` of `key`.
    Small { arity: u8, degree: u16, key: u64 },
    /// Spill path for wider or higher-degree exponent vectors.
    Big(Box<[u32]>),
}

/// A monomial: an exponent vector over `arity` variables.
///
/// The `Ord` implementation is **grevlex**: compare total degree first, then
/// reverse-lexicographically on reversed exponents.
///
/// # Examples
///
/// ```
/// use gcln_numeric::poly::Monomial;
/// let xy = Monomial::new(vec![1, 1, 0]);
/// let z2 = Monomial::new(vec![0, 0, 2]);
/// assert_eq!(xy.degree(), 2);
/// assert!(z2 < xy); // same degree; grevlex prefers earlier variables
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Monomial {
    repr: Repr,
}

impl Monomial {
    /// Creates a monomial from an exponent vector.
    pub fn new(exps: Vec<u32>) -> Monomial {
        Monomial::from_exps(&exps)
    }

    /// Creates a monomial from an exponent slice, choosing the packed
    /// representation whenever it fits.
    pub fn from_exps(exps: &[u32]) -> Monomial {
        if exps.len() <= PACK_ARITY && exps.iter().all(|&e| e <= PACK_MAX_EXP) {
            let mut key = 0u64;
            let mut degree = 0u32;
            for (i, &e) in exps.iter().enumerate() {
                key |= u64::from(e) << (4 * i);
                degree += e;
            }
            Monomial { repr: Repr::Small { arity: exps.len() as u8, degree: degree as u16, key } }
        } else {
            Monomial { repr: Repr::Big(exps.into()) }
        }
    }

    /// The constant monomial `1` over `arity` variables.
    pub fn one(arity: usize) -> Monomial {
        if arity <= PACK_ARITY {
            Monomial { repr: Repr::Small { arity: arity as u8, degree: 0, key: 0 } }
        } else {
            Monomial { repr: Repr::Big(vec![0; arity].into()) }
        }
    }

    /// The monomial `x_i` over `arity` variables.
    ///
    /// # Panics
    ///
    /// Panics if `i >= arity`.
    pub fn var(i: usize, arity: usize) -> Monomial {
        assert!(i < arity, "variable index out of range");
        let mut exps = vec![0; arity];
        exps[i] = 1;
        Monomial::from_exps(&exps)
    }

    /// The exponent vector (unpacked).
    pub fn exps(&self) -> Vec<u32> {
        match &self.repr {
            Repr::Small { arity, key, .. } => {
                (0..*arity as usize).map(|i| ((key >> (4 * i)) & 0xF) as u32).collect()
            }
            Repr::Big(exps) => exps.to_vec(),
        }
    }

    /// The exponent of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= arity` (the spill path panics via slice indexing;
    /// the packed path debug-asserts).
    #[inline]
    pub fn exp(&self, i: usize) -> u32 {
        match &self.repr {
            Repr::Small { arity, key, .. } => {
                debug_assert!(i < *arity as usize, "variable index out of range");
                ((key >> (4 * i)) & 0xF) as u32
            }
            Repr::Big(exps) => exps[i],
        }
    }

    /// Number of variables this monomial ranges over.
    #[inline]
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Small { arity, .. } => *arity as usize,
            Repr::Big(exps) => exps.len(),
        }
    }

    /// Total degree.
    #[inline]
    pub fn degree(&self) -> u32 {
        match &self.repr {
            Repr::Small { degree, .. } => u32::from(*degree),
            Repr::Big(exps) => exps.iter().sum(),
        }
    }

    /// Whether this is the constant monomial.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.degree() == 0
    }

    /// Product of two monomials.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        assert_eq!(self.arity(), other.arity(), "arity mismatch");
        if let (
            Repr::Small { arity, degree: d1, key: k1 },
            Repr::Small { degree: d2, key: k2, .. },
        ) = (&self.repr, &other.repr)
        {
            // Every exponent ≤ 7 on both sides ⇒ nibble sums ≤ 14: the
            // packed keys add without carrying between variables.
            if (k1 | k2) & HIGH_NIBBLE_BITS == 0 {
                return Monomial {
                    repr: Repr::Small { arity: *arity, degree: d1 + d2, key: k1 + k2 },
                };
            }
        }
        let exps: Vec<u32> = (0..self.arity()).map(|i| self.exp(i) + other.exp(i)).collect();
        Monomial::from_exps(&exps)
    }

    /// Whether `self` divides `other` (componentwise ≤).
    pub fn divides(&self, other: &Monomial) -> bool {
        self.arity() == other.arity()
            && self.degree() <= other.degree()
            && (0..self.arity()).all(|i| self.exp(i) <= other.exp(i))
    }

    /// The quotient `other / self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` does not divide `other`.
    pub fn quotient(&self, other: &Monomial) -> Monomial {
        assert!(self.divides(other), "monomial division is not exact");
        if let (
            Repr::Small { degree: d1, key: k1, .. },
            Repr::Small { arity, degree: d2, key: k2 },
        ) = (&self.repr, &other.repr)
        {
            // Componentwise ≤ means the nibble subtraction never borrows.
            return Monomial { repr: Repr::Small { arity: *arity, degree: d2 - d1, key: k2 - k1 } };
        }
        let exps: Vec<u32> = (0..self.arity()).map(|i| other.exp(i) - self.exp(i)).collect();
        Monomial::from_exps(&exps)
    }

    /// Least common multiple (componentwise max).
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn lcm(&self, other: &Monomial) -> Monomial {
        assert_eq!(self.arity(), other.arity(), "arity mismatch");
        let exps: Vec<u32> = (0..self.arity()).map(|i| self.exp(i).max(other.exp(i))).collect();
        Monomial::from_exps(&exps)
    }

    /// Evaluates at a rational point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.arity()`.
    pub fn eval(&self, point: &[Rat]) -> Rat {
        assert_eq!(point.len(), self.arity(), "point arity mismatch");
        let mut acc = Rat::ONE;
        for (i, x) in point.iter().enumerate() {
            let e = self.exp(i);
            if e > 0 {
                acc *= x.pow(e as i32);
            }
        }
        acc
    }

    /// Evaluates at an `f64` point.
    pub fn eval_f64(&self, point: &[f64]) -> f64 {
        let mut acc = 1.0;
        for (i, x) in point.iter().enumerate().take(self.arity()) {
            let e = self.exp(i);
            if e > 0 {
                acc *= x.powi(e as i32);
            }
        }
        acc
    }

    /// Renders with the given variable names, e.g. `x^2*y`.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Monomial, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.is_one() {
                    return write!(f, "1");
                }
                let mut first = true;
                for i in 0..self.0.arity() {
                    let e = self.0.exp(i);
                    if e == 0 {
                        continue;
                    }
                    if !first {
                        write!(f, "*")?;
                    }
                    first = false;
                    let name = self.1.get(i).map(String::as_str).unwrap_or("?");
                    if e == 1 {
                        write!(f, "{name}")?;
                    } else {
                        write!(f, "{name}^{e}")?;
                    }
                }
                Ok(())
            }
        }
        D(self, names)
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    /// Grevlex: higher total degree wins; ties broken by the *smallest*
    /// exponent on the *last* variable where they differ.
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(self.arity(), other.arity(), "comparing monomials of different arity");
        if let (
            Repr::Small { arity: a1, degree: d1, key: k1 },
            Repr::Small { arity: a2, degree: d2, key: k2 },
        ) = (&self.repr, &other.repr)
        {
            if a1 == a2 {
                // Equal degree: the most significant differing nibble is
                // the *last* variable where the exponents differ, and the
                // monomial with the smaller exponent there is greater —
                // so the key comparison is reversed.
                return d1.cmp(d2).then_with(|| k2.cmp(k1));
            }
        }
        match self.degree().cmp(&other.degree()) {
            Ordering::Equal => {
                for i in (0..self.arity()).rev() {
                    match self.exp(i).cmp(&other.exp(i)) {
                        Ordering::Equal => continue,
                        Ordering::Less => return Ordering::Greater,
                        Ordering::Greater => return Ordering::Less,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

/// One `(monomial, coefficient)` entry of a [`Poly`].
pub(crate) type Term = (Monomial, Rat);

/// A multivariate polynomial with [`Rat`] coefficients over a fixed arity.
///
/// Zero-coefficient terms are never stored; the zero polynomial has an empty
/// term list. Terms are kept sorted in ascending grevlex order.
///
/// # Examples
///
/// ```
/// use gcln_numeric::{poly::Poly, Rat};
/// // p = x^2 - y over (x, y)
/// let x = Poly::var(0, 2);
/// let y = Poly::var(1, 2);
/// let p = x.clone() * x.clone() - y.clone();
/// assert_eq!(p.eval(&[Rat::from(3), Rat::from(9)]), Rat::ZERO);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Poly {
    arity: usize,
    terms: Vec<Term>,
}

impl Poly {
    /// The zero polynomial over `arity` variables.
    pub fn zero(arity: usize) -> Poly {
        Poly { arity, terms: Vec::new() }
    }

    /// A constant polynomial.
    pub fn constant(c: Rat, arity: usize) -> Poly {
        let mut terms = Vec::new();
        if !c.is_zero() {
            terms.push((Monomial::one(arity), c));
        }
        Poly { arity, terms }
    }

    /// The polynomial `x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= arity`.
    pub fn var(i: usize, arity: usize) -> Poly {
        Poly::from_monomial(Monomial::var(i, arity), Rat::ONE)
    }

    /// A single-term polynomial `c * m`.
    pub fn from_monomial(m: Monomial, c: Rat) -> Poly {
        let arity = m.arity();
        let mut terms = Vec::new();
        if !c.is_zero() {
            terms.push((m, c));
        }
        Poly { arity, terms }
    }

    /// Builds a polynomial from `(coefficient, monomial)` pairs, combining
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics if monomial arities are inconsistent with `arity`.
    pub fn from_terms(arity: usize, terms: impl IntoIterator<Item = (Rat, Monomial)>) -> Poly {
        let mut p = Poly::zero(arity);
        for (c, m) in terms {
            assert_eq!(m.arity(), arity, "monomial arity mismatch");
            p.add_term(c, m);
        }
        p
    }

    /// Builds a polynomial directly from a term list that is already in
    /// ascending grevlex order with no duplicates or zero coefficients.
    pub(crate) fn from_sorted_terms(arity: usize, terms: Vec<Term>) -> Poly {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "terms must be strictly ascending"
        );
        debug_assert!(terms.iter().all(|(_, c)| !c.is_zero()), "zero coefficient stored");
        Poly { arity, terms }
    }

    /// The raw term list (ascending grevlex).
    pub(crate) fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this polynomial is a constant (including zero).
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|(m, _)| m.is_one())
    }

    /// Total degree (zero polynomial has degree 0).
    pub fn degree(&self) -> u32 {
        // Terms are grevlex-sorted, so the last term has maximal degree.
        self.terms.last().map_or(0, |(m, _)| m.degree())
    }

    /// Iterates over `(monomial, coefficient)` pairs in ascending grevlex order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, &Rat)> {
        self.terms.iter().map(|(m, c)| (m, c))
    }

    /// Number of nonzero terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The leading (grevlex-largest) term, or `None` for the zero polynomial.
    pub fn leading_term(&self) -> Option<(&Monomial, &Rat)> {
        self.terms.last().map(|(m, c)| (m, c))
    }

    /// Coefficient of a monomial (zero if absent).
    pub fn coeff(&self, m: &Monomial) -> Rat {
        match self.terms.binary_search_by(|(mm, _)| mm.cmp(m)) {
            Ok(i) => self.terms[i].1,
            Err(_) => Rat::ZERO,
        }
    }

    /// Adds `c * m` into the polynomial.
    pub fn add_term(&mut self, c: Rat, m: Monomial) {
        if c.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|(mm, _)| mm.cmp(&m)) {
            Ok(i) => {
                self.terms[i].1 += c;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (m, c)),
        }
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, c: Rat) -> Poly {
        if c.is_zero() {
            return Poly::zero(self.arity);
        }
        Poly {
            arity: self.arity,
            terms: self.terms.iter().map(|(m, v)| (m.clone(), *v * c)).collect(),
        }
    }

    /// Multiplies by a single term `c * m`.
    pub fn mul_term(&self, c: Rat, m: &Monomial) -> Poly {
        if c.is_zero() {
            return Poly::zero(self.arity);
        }
        // Multiplying every term by the same monomial preserves grevlex
        // order (monomial orders are multiplication-compatible).
        Poly {
            arity: self.arity,
            terms: self.terms.iter().map(|(mm, v)| (mm.mul(m), *v * c)).collect(),
        }
    }

    /// Evaluates at a rational point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.arity()` or on `i128` overflow.
    pub fn eval(&self, point: &[Rat]) -> Rat {
        self.terms.iter().fold(Rat::ZERO, |acc, (m, c)| acc + *c * m.eval(point))
    }

    /// Checked evaluation at a rational point: `None` on `i128` overflow
    /// anywhere in the computation (where [`Poly::eval`] would panic).
    pub fn try_eval(&self, point: &[Rat]) -> Option<Rat> {
        assert_eq!(point.len(), self.arity, "point arity mismatch");
        let mut acc = Rat::ZERO;
        for (m, c) in &self.terms {
            let mut term = *c;
            for (i, x) in point.iter().enumerate() {
                let e = m.exp(i);
                if e > 0 {
                    term = term.checked_mul(&x.checked_pow(e)?)?;
                }
            }
            acc = acc.checked_add(&term)?;
        }
        Some(acc)
    }

    /// Evaluates at an `f64` point.
    pub fn eval_f64(&self, point: &[f64]) -> f64 {
        self.terms.iter().fold(0.0, |acc, (m, c)| acc + c.to_f64() * m.eval_f64(point))
    }

    /// Substitutes each variable `x_i` with `subs[i]` (polynomial
    /// composition). All `subs` must share an arity, which becomes the
    /// arity of the result.
    ///
    /// This is how a loop-body transition `V := T(V)` is applied to a
    /// candidate invariant `p`: `p.subst(&T)` is `p ∘ T`.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != self.arity()` or `subs` is empty with
    /// nonzero arity.
    pub fn subst(&self, subs: &[Poly]) -> Poly {
        assert_eq!(subs.len(), self.arity, "substitution arity mismatch");
        let out_arity = subs.first().map_or(self.arity, Poly::arity);
        assert!(subs.iter().all(|s| s.arity() == out_arity), "inconsistent substitution arities");
        let mut result = Poly::zero(out_arity);
        for (m, c) in &self.terms {
            let mut term = Poly::constant(*c, out_arity);
            for (i, sub) in subs.iter().enumerate() {
                for _ in 0..m.exp(i) {
                    term = &term * sub;
                }
            }
            result = &result + &term;
        }
        result
    }

    /// The greatest common monomial divisor of all terms (the "monomial
    /// content"), e.g. `n` for `2na − nt + n`. Returns the constant
    /// monomial for the zero polynomial.
    pub fn monomial_content(&self) -> Monomial {
        let mut iter = self.terms.iter();
        let Some((first, _)) = iter.next() else {
            return Monomial::one(self.arity);
        };
        let mut exps = first.exps();
        for (m, _) in iter {
            for (i, e) in exps.iter_mut().enumerate() {
                *e = (*e).min(m.exp(i));
            }
        }
        Monomial::from_exps(&exps)
    }

    /// Divides every term by a monomial.
    ///
    /// # Panics
    ///
    /// Panics if some term is not divisible by `m`.
    pub fn div_monomial(&self, m: &Monomial) -> Poly {
        // Dividing every term by the same monomial preserves order.
        Poly {
            arity: self.arity,
            terms: self.terms.iter().map(|(mm, c)| (m.quotient(mm), *c)).collect(),
        }
    }

    /// Divides out the content: scales so coefficients are coprime integers
    /// with a positive leading coefficient. Keeps Gröbner intermediates
    /// small and makes invariant output canonical.
    pub fn normalize_content(&self) -> Poly {
        if self.is_zero() {
            return self.clone();
        }
        let coeffs: Vec<Rat> = self.terms.iter().map(|(_, c)| *c).collect();
        let ints = crate::linalg::integerize(coeffs);
        let flip = ints.last().expect("nonzero poly").is_negative();
        let terms: Vec<Term> = self
            .terms
            .iter()
            .zip(ints)
            .map(|((m, _), c)| (m.clone(), if flip { -c } else { c }))
            .collect();
        Poly { arity: self.arity, terms }
    }

    /// Renders with variable names.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Poly, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.is_zero() {
                    return write!(f, "0");
                }
                // Descending order reads more naturally.
                for (i, (m, c)) in self.0.terms.iter().rev().enumerate() {
                    let (sign, mag) = if c.is_negative() { ("-", -*c) } else { ("+", *c) };
                    if i == 0 {
                        if sign == "-" {
                            write!(f, "-")?;
                        }
                    } else {
                        write!(f, " {sign} ")?;
                    }
                    if m.is_one() {
                        write!(f, "{mag}")?;
                    } else if mag == Rat::ONE {
                        write!(f, "{}", m.display(self.1))?;
                    } else {
                        write!(f, "{mag}*{}", m.display(self.1))?;
                    }
                }
                Ok(())
            }
        }
        D(self, names)
    }
}

/// Merges two sorted term lists into `out` (cleared first) computing
/// `a + scale * b`, skipping cancelled terms. `shift`, when given, is a
/// monomial every `b` term is multiplied by first.
pub(crate) fn merge_add_scaled(
    a: &[Term],
    b: &[Term],
    scale: Rat,
    shift: Option<&Monomial>,
    out: &mut Vec<Term>,
) {
    out.clear();
    out.reserve(a.len() + b.len());
    let shift = shift.filter(|m| !m.is_one());
    let b_mono = |j: usize| -> Monomial {
        match shift {
            Some(s) => b[j].0.mul(s),
            None => b[j].0.clone(),
        }
    };
    let (mut i, mut j) = (0, 0);
    let mut bj: Option<Monomial> = (j < b.len()).then(|| b_mono(j));
    while i < a.len() {
        match &bj {
            None => {
                out.extend_from_slice(&a[i..]);
                return;
            }
            Some(bm) => match a[i].0.cmp(bm) {
                Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    let c = b[j].1 * scale;
                    if !c.is_zero() {
                        out.push((bj.take().expect("checked above"), c));
                    }
                    j += 1;
                    bj = (j < b.len()).then(|| b_mono(j));
                }
                Ordering::Equal => {
                    let c = a[i].1 + b[j].1 * scale;
                    if !c.is_zero() {
                        out.push((a[i].0.clone(), c));
                    }
                    i += 1;
                    j += 1;
                    bj = (j < b.len()).then(|| b_mono(j));
                }
            },
        }
    }
    while j < b.len() {
        let m = bj.take().unwrap_or_else(|| b_mono(j));
        let c = b[j].1 * scale;
        if !c.is_zero() {
            out.push((m, c));
        }
        j += 1;
        bj = None;
    }
}

impl std::ops::Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        assert_eq!(self.arity, rhs.arity, "arity mismatch");
        let mut terms = Vec::new();
        merge_add_scaled(&self.terms, &rhs.terms, Rat::ONE, None, &mut terms);
        Poly { arity: self.arity, terms }
    }
}

impl std::ops::Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        assert_eq!(self.arity, rhs.arity, "arity mismatch");
        let mut terms = Vec::new();
        merge_add_scaled(&self.terms, &rhs.terms, -Rat::ONE, None, &mut terms);
        Poly { arity: self.arity, terms }
    }
}

impl std::ops::Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        assert_eq!(self.arity, rhs.arity, "arity mismatch");
        // Collect all pairwise products, sort, then combine equal
        // monomials in one pass.
        let mut prods: Vec<Term> = Vec::with_capacity(self.terms.len() * rhs.terms.len());
        for (m1, c1) in &self.terms {
            for (m2, c2) in &rhs.terms {
                prods.push((m1.mul(m2), *c1 * *c2));
            }
        }
        prods.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut terms: Vec<Term> = Vec::with_capacity(prods.len());
        for (m, c) in prods {
            match terms.last_mut() {
                Some((lm, lc)) if *lm == m => {
                    *lc += c;
                    if lc.is_zero() {
                        terms.pop();
                    }
                }
                _ => terms.push((m, c)),
            }
        }
        Poly { arity: self.arity, terms }
    }
}

impl std::ops::Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        self.scale(-Rat::ONE)
    }
}

macro_rules! owned_ops {
    ($($trait:ident :: $method:ident),*) => {$(
        impl std::ops::$trait for Poly {
            type Output = Poly;
            fn $method(self, rhs: Poly) -> Poly {
                std::ops::$trait::$method(&self, &rhs)
            }
        }
    )*};
}
owned_ops!(Add::add, Sub::sub, Mul::mul);

impl std::ops::Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::integer(n)
    }

    #[test]
    fn monomial_grevlex_order() {
        // Over (x, y): deg ordering first.
        let one = Monomial::one(2);
        let x = Monomial::var(0, 2);
        let y = Monomial::var(1, 2);
        let x2 = x.mul(&x);
        let xy = x.mul(&y);
        let y2 = y.mul(&y);
        assert!(one < x && x > y && x2 > xy && xy > y2);
        let mut v = vec![y2.clone(), x2.clone(), one.clone(), xy.clone()];
        v.sort();
        assert_eq!(v, vec![one, y2, xy, x2]);
    }

    #[test]
    fn monomial_divides_quotient() {
        let xy = Monomial::new(vec![1, 1]);
        let x2y3 = Monomial::new(vec![2, 3]);
        assert!(xy.divides(&x2y3));
        assert_eq!(xy.quotient(&x2y3), Monomial::new(vec![1, 2]));
        assert!(!x2y3.divides(&xy));
    }

    #[test]
    fn packed_and_spill_agree() {
        // Exponent 16 and arity 17 both force the spill path; mixed
        // comparisons and products must agree with the packed path.
        let small = Monomial::new(vec![3, 7]);
        let big_exp = Monomial::new(vec![16, 0]);
        assert_eq!(small.mul(&small).exps(), vec![6, 14]);
        assert_eq!(big_exp.mul(&big_exp).exps(), vec![32, 0]);
        assert!(small < big_exp); // degree 10 < 16
        assert!(small.divides(&big_exp.mul(&small)));
        assert_eq!(small.quotient(&big_exp.mul(&small)), big_exp);
        let wide = Monomial::one(17);
        assert_eq!(wide.degree(), 0);
        assert!(wide.is_one());
        // Products that cross the 15-exponent boundary spill and come back:
        // (x^8)^2 = x^16 spills; x^16 / x^8 = x^8 re-packs.
        let x8 = Monomial::new(vec![8, 0]);
        let x16 = x8.mul(&x8);
        assert_eq!(x16.exps(), vec![16, 0]);
        assert_eq!(x8.quotient(&x16), x8);
    }

    #[test]
    fn poly_arithmetic() {
        let x = Poly::var(0, 2);
        let y = Poly::var(1, 2);
        let p = &x + &y; // x + y
        let q = &x - &y; // x - y
        let prod = &p * &q; // x^2 - y^2
        let expected = &(&x * &x) - &(&y * &y);
        assert_eq!(prod, expected);
        assert!((&p - &p).is_zero());
    }

    #[test]
    fn poly_eval() {
        // p = 2x^2 - 3y + 1
        let x = Poly::var(0, 2);
        let y = Poly::var(1, 2);
        let p = &(&(&x * &x).scale(r(2)) - &y.scale(r(3))) + &Poly::constant(r(1), 2);
        assert_eq!(p.eval(&[r(2), r(3)]), r(0));
        assert_eq!(p.eval_f64(&[2.0, 3.0]), 0.0);
        assert_eq!(p.try_eval(&[r(2), r(3)]), Some(r(0)));
    }

    #[test]
    fn try_eval_overflow_is_none() {
        let x = Poly::var(0, 1);
        let p = &x * &x;
        let big = Rat::integer(1i128 << 70);
        assert_eq!(p.try_eval(&[big]), None);
        assert_eq!(p.try_eval(&[r(5)]), Some(r(25)));
    }

    #[test]
    fn poly_subst_composes_loop_body() {
        // Invariant p = x - n^2 over (n, x); body: n' = n+1, x' = x + 2n + 1.
        let n = Poly::var(0, 2);
        let x = Poly::var(1, 2);
        let p = &x - &(&n * &n);
        let n1 = &n + &Poly::constant(r(1), 2);
        let x1 = &(&x + &n.scale(r(2))) + &Poly::constant(r(1), 2);
        let p_next = p.subst(&[n1, x1]);
        // p ∘ T = (x + 2n + 1) - (n+1)^2 = x - n^2 = p, so difference is 0.
        assert!((&p_next - &p).is_zero());
    }

    #[test]
    fn normalize_content() {
        let x = Poly::var(0, 1);
        let p = &x.scale(Rat::new(-2, 3)) + &Poly::constant(Rat::new(4, 3), 1);
        let n = p.normalize_content();
        // Leading coefficient positive, coprime integers: x - 2.
        let expected = &x - &Poly::constant(r(2), 1);
        assert_eq!(n, expected);
    }

    #[test]
    fn display_readable() {
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let x = Poly::var(0, 2);
        let y = Poly::var(1, 2);
        let p = &(&(&x * &x) - &y.scale(r(3))) + &Poly::constant(r(1), 2);
        assert_eq!(p.display(&names).to_string(), "x^2 - 3*y + 1");
        assert_eq!(Poly::zero(2).display(&names).to_string(), "0");
    }

    #[test]
    fn add_term_cancellation_removes_entry() {
        let mut p = Poly::var(0, 1);
        p.add_term(r(-1), Monomial::var(0, 1));
        assert!(p.is_zero());
        assert_eq!(p.num_terms(), 0);
    }

    #[test]
    fn leading_term_is_grevlex_max() {
        let x = Poly::var(0, 2);
        let y = Poly::var(1, 2);
        let p = &(&x * &x) + &(&y + &Poly::constant(r(5), 2));
        let (m, _) = p.leading_term().unwrap();
        assert_eq!(m, &Monomial::new(vec![2, 0]));
    }

    #[test]
    fn terms_stay_sorted_through_ops() {
        let x = Poly::var(0, 3);
        let y = Poly::var(1, 3);
        let z = Poly::var(2, 3);
        let p = &(&(&x * &y) + &(&z * &z)) - &(&y.scale(r(4)) + &Poly::constant(r(7), 3));
        let monos: Vec<&Monomial> = p.iter().map(|(m, _)| m).collect();
        assert!(monos.windows(2).all(|w| w[0] < w[1]), "terms out of order");
    }
}
