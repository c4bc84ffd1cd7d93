//! Gröbner bases via Buchberger's algorithm, with ideal-membership testing.
//!
//! This is the engine behind the *symbolic* invariant check: a polynomial
//! equality conjunct `p = 0` of a candidate invariant `I` is inductive for a
//! polynomial loop body `T` when `p ∘ T` lies in the ideal generated by the
//! equality conjuncts of `I` — which reduces to "the normal form of `p ∘ T`
//! modulo a Gröbner basis of that ideal is zero".
//!
//! The implementation uses the grevlex order from [`crate::poly`], the
//! first Buchberger criterion (coprime leading monomials), and content
//! normalization after every reduction to keep `i128` coefficients small.
//!
//! Reductions run over flat sorted term lists with a [`ReduceScratch`]
//! buffer pair that is reused across every S-polynomial reduction, so the
//! inner loop performs no steady-state allocation.

use crate::poly::{merge_add_scaled, Monomial, Poly};
use crate::rat::Rat;

/// Reusable buffers for polynomial reduction. One instance can (and
/// should) be shared across many [`normal_form_in`] calls: the buffers
/// grow to the working-set size once and are then recycled.
#[derive(Clone, Debug, Default)]
pub struct ReduceScratch {
    work: Vec<(Monomial, Rat)>,
    merged: Vec<(Monomial, Rat)>,
}

/// Reduces `p` to its normal form modulo the polynomials in `basis`
/// (multivariate division). If `basis` is a Gröbner basis, the result is
/// canonical and is zero iff `p` lies in the generated ideal.
///
/// # Panics
///
/// Panics if arities are inconsistent.
///
/// # Examples
///
/// ```
/// use gcln_numeric::{poly::Poly, groebner::normal_form};
/// let x = Poly::var(0, 2);
/// let y = Poly::var(1, 2);
/// // Reduce x^2 by { x^2 - y } -> y
/// let nf = normal_form(&(&x * &x), &[&(&x * &x) - &y]);
/// assert_eq!(nf, y);
/// ```
pub fn normal_form(p: &Poly, basis: &[Poly]) -> Poly {
    normal_form_in(p, basis, &mut ReduceScratch::default())
}

/// [`normal_form`] with caller-provided scratch buffers, for hot loops
/// that reduce many polynomials modulo the same (or similar) bases.
pub fn normal_form_in(p: &Poly, basis: &[Poly], scratch: &mut ReduceScratch) -> Poly {
    scratch.work.clear();
    scratch.work.extend_from_slice(p.terms());
    let mut remainder_rev: Vec<(Monomial, Rat)> = Vec::new();
    'outer: while let Some((lm, lc)) = scratch.work.last().cloned() {
        for g in basis {
            let Some((gm, gc)) = g.leading_term() else {
                continue; // zero polynomial in the basis
            };
            if gm.divides(&lm) {
                let q = gm.quotient(&lm);
                let factor = lc / *gc;
                // work := work - factor * q * g (the leading term cancels
                // exactly by choice of factor).
                merge_add_scaled(&scratch.work, g.terms(), -factor, Some(&q), &mut scratch.merged);
                std::mem::swap(&mut scratch.work, &mut scratch.merged);
                continue 'outer;
            }
        }
        // Leading term irreducible: move it to the remainder.
        remainder_rev.push((lm, lc));
        scratch.work.pop();
    }
    // Leading terms were peeled off in strictly descending grevlex order.
    remainder_rev.reverse();
    Poly::from_sorted_terms(p.arity(), remainder_rev)
}

/// Computes the S-polynomial of `f` and `g`.
fn s_poly(f: &Poly, g: &Poly) -> Poly {
    let (fm, fc) = f.leading_term().expect("s_poly of zero polynomial");
    let (gm, gc) = g.leading_term().expect("s_poly of zero polynomial");
    let l = fm.lcm(gm);
    let f_scaled = f.mul_term(Rat::ONE / *fc, &fm.quotient(&l));
    let mut terms = Vec::new();
    merge_add_scaled(
        f_scaled.terms(),
        g.terms(),
        -(Rat::ONE / *gc),
        Some(&gm.quotient(&l)),
        &mut terms,
    );
    Poly::from_sorted_terms(f.arity(), terms)
}

/// Configuration limits for Buchberger's algorithm.
///
/// Invariant checking only ever deals with small systems, so the defaults
/// are generous; they exist to turn pathological blowups into a clean
/// `None` instead of an effectively-hung process.
#[derive(Clone, Copy, Debug)]
pub struct GroebnerLimits {
    /// Maximum number of basis polynomials before giving up.
    pub max_basis: usize,
    /// Maximum number of S-polynomial reductions before giving up.
    pub max_reductions: usize,
}

impl Default for GroebnerLimits {
    fn default() -> Self {
        GroebnerLimits { max_basis: 200, max_reductions: 10_000 }
    }
}

/// Computes a reduced Gröbner basis of the ideal generated by `gens` under
/// grevlex, or `None` if the configured limits are exceeded.
///
/// The returned basis is *reduced*: every element is content-normalized and
/// no leading monomial divides another basis element's terms.
///
/// # Examples
///
/// ```
/// use gcln_numeric::{poly::Poly, groebner::{groebner_basis, GroebnerLimits}};
/// let x = Poly::var(0, 2);
/// let y = Poly::var(1, 2);
/// let gens = vec![&(&x * &x) - &y, &(&x * &y) - &x];
/// let gb = groebner_basis(&gens, GroebnerLimits::default()).unwrap();
/// assert!(!gb.is_empty());
/// ```
pub fn groebner_basis(gens: &[Poly], limits: GroebnerLimits) -> Option<Vec<Poly>> {
    let mut basis: Vec<Poly> =
        gens.iter().filter(|p| !p.is_zero()).map(Poly::normalize_content).collect();
    if basis.is_empty() {
        return Some(basis);
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..basis.len() {
        for j in (i + 1)..basis.len() {
            pairs.push((i, j));
        }
    }
    let mut scratch = ReduceScratch::default();
    let mut reductions = 0usize;
    while let Some((i, j)) = pairs.pop() {
        reductions += 1;
        if reductions > limits.max_reductions {
            return None;
        }
        let (fi, fj) = (&basis[i], &basis[j]);
        let (mi, _) = fi.leading_term().expect("basis polys are nonzero");
        let (mj, _) = fj.leading_term().expect("basis polys are nonzero");
        // Buchberger's first criterion: coprime leading monomials reduce to 0.
        if mi.mul(mj) == mi.lcm(mj) {
            continue;
        }
        let s = s_poly(fi, fj);
        let nf = normal_form_in(&s, &basis, &mut scratch).normalize_content();
        if nf.is_zero() {
            continue;
        }
        let k = basis.len();
        for idx in 0..k {
            pairs.push((idx, k));
        }
        basis.push(nf);
        if basis.len() > limits.max_basis {
            return None;
        }
    }
    Some(reduce_basis(basis, &mut scratch))
}

/// Minimizes and inter-reduces a Gröbner basis.
fn reduce_basis(mut basis: Vec<Poly>, scratch: &mut ReduceScratch) -> Vec<Poly> {
    // Minimize: drop polynomials whose leading monomial is divisible by
    // another's.
    let mut keep = vec![true; basis.len()];
    for i in 0..basis.len() {
        if !keep[i] {
            continue;
        }
        let (mi, _) = basis[i].leading_term().expect("nonzero");
        for j in 0..basis.len() {
            if i == j || !keep[j] {
                continue;
            }
            let (mj, _) = basis[j].leading_term().expect("nonzero");
            if mj.divides(mi) && (mj != mi || j < i) {
                keep[i] = false;
                break;
            }
        }
    }
    let minimized: Vec<Poly> =
        basis.drain(..).zip(keep).filter_map(|(p, k)| k.then_some(p)).collect();
    // Inter-reduce: replace each element with its normal form modulo the rest.
    let mut reduced = Vec::with_capacity(minimized.len());
    for i in 0..minimized.len() {
        let others: Vec<Poly> =
            minimized.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, p)| p.clone()).collect();
        let nf = normal_form_in(&minimized[i], &others, scratch).normalize_content();
        if !nf.is_zero() {
            reduced.push(nf);
        }
    }
    reduced.sort_by(|a, b| {
        a.leading_term().expect("nonzero").0.cmp(b.leading_term().expect("nonzero").0)
    });
    reduced
}

/// Tests whether `p` lies in the ideal generated by `gens`.
///
/// Returns `None` when the Gröbner computation exceeds its limits (the
/// caller should fall back to bounded checking). Callers testing many
/// polynomials against the *same* generators should compute
/// [`groebner_basis`] once and call [`normal_form_in`] per polynomial
/// instead.
///
/// # Examples
///
/// ```
/// use gcln_numeric::{poly::Poly, groebner::{ideal_member, GroebnerLimits}};
/// let x = Poly::var(0, 2);
/// let y = Poly::var(1, 2);
/// let p = &x - &y;
/// // (x - y)^2 is in the ideal <x - y>.
/// assert_eq!(ideal_member(&(&p * &p), &[p.clone()], GroebnerLimits::default()), Some(true));
/// // x is not.
/// assert_eq!(ideal_member(&x, &[p.clone()], GroebnerLimits::default()), Some(false));
/// ```
pub fn ideal_member(p: &Poly, gens: &[Poly], limits: GroebnerLimits) -> Option<bool> {
    if p.is_zero() {
        return Some(true);
    }
    let nonzero: Vec<Poly> = gens.iter().filter(|g| !g.is_zero()).cloned().collect();
    if nonzero.is_empty() {
        return Some(false);
    }
    let gb = groebner_basis(&nonzero, limits)?;
    Some(normal_form(p, &gb).is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::Rat;

    fn r(n: i128) -> Rat {
        Rat::integer(n)
    }

    fn vars2() -> (Poly, Poly) {
        (Poly::var(0, 2), Poly::var(1, 2))
    }

    #[test]
    fn normal_form_zero_when_in_ideal() {
        let (x, y) = vars2();
        let g = &x - &y;
        // x^2 - y^2 = (x + y)(x - y) in <x - y>
        let p = &(&x * &x) - &(&y * &y);
        assert!(normal_form(&p, &[g]).is_zero());
    }

    #[test]
    fn normal_form_remainder_when_not_in_ideal() {
        let (x, y) = vars2();
        let g = &x - &y;
        let p = &(&x * &x) + &Poly::constant(r(1), 2);
        let nf = normal_form(&p, &[g]);
        // x^2 + 1 mod (x - y) -> y^2 + 1
        let expected = &(&y * &y) + &Poly::constant(r(1), 2);
        assert_eq!(nf, expected);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let (x, y) = vars2();
        let g = vec![&(&x * &x) - &y];
        let mut scratch = ReduceScratch::default();
        for k in 0..5i128 {
            let p = &(&(&x * &x) * &x).scale(r(k + 1)) + &x.scale(r(k));
            assert_eq!(normal_form_in(&p, &g, &mut scratch), normal_form(&p, &g));
        }
    }

    #[test]
    fn buchberger_textbook_example() {
        // Classic: f1 = x^2 - y, f2 = x^3 - x over (x, y) [here as x^3 - x].
        let (x, y) = vars2();
        let f1 = &(&x * &x) - &y;
        let f2 = &(&(&x * &x) * &x) - &x;
        let gb = groebner_basis(&[f1.clone(), f2.clone()], GroebnerLimits::default()).unwrap();
        // x*y - x = x(y - 1) and y^2 - y should be consequences.
        let xy_minus_x = &(&x * &y) - &x;
        let y2_minus_y = &(&y * &y) - &y;
        assert!(normal_form(&xy_minus_x, &gb).is_zero());
        assert!(normal_form(&y2_minus_y, &gb).is_zero());
        // Original generators still reduce to zero.
        assert!(normal_form(&f1, &gb).is_zero());
        assert!(normal_form(&f2, &gb).is_zero());
    }

    #[test]
    fn ideal_membership_positive_and_negative() {
        let (x, y) = vars2();
        // Ideal of the parabola y = x^2.
        let g = &y - &(&x * &x);
        // y^2 - x^4 = (y - x^2)(y + x^2) is a member.
        let member = &(&y * &y) - &(&(&x * &x) * &(&x * &x));
        assert_eq!(
            ideal_member(&member, std::slice::from_ref(&g), GroebnerLimits::default()),
            Some(true)
        );
        // x*y is not.
        let non_member = &x * &y;
        assert_eq!(ideal_member(&non_member, &[g], GroebnerLimits::default()), Some(false));
    }

    #[test]
    fn ideal_member_trivial_cases() {
        let (x, _) = vars2();
        assert_eq!(ideal_member(&Poly::zero(2), &[], GroebnerLimits::default()), Some(true));
        assert_eq!(ideal_member(&x, &[], GroebnerLimits::default()), Some(false));
        assert_eq!(ideal_member(&x, &[Poly::zero(2)], GroebnerLimits::default()), Some(false));
    }

    #[test]
    fn reduced_basis_is_self_reduced() {
        let (x, y) = vars2();
        let gens = vec![&(&x * &x) - &y, &(&x * &y) - &x, &(&y * &y) - &y];
        let gb = groebner_basis(&gens, GroebnerLimits::default()).unwrap();
        for (i, g) in gb.iter().enumerate() {
            let others: Vec<Poly> =
                gb.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, p)| p.clone()).collect();
            let nf = normal_form(g, &others);
            assert_eq!(&nf, g, "basis element {} not reduced", i);
        }
    }

    #[test]
    fn consecution_check_cohencu_style() {
        // Variables (n, x, y, z); invariant conjuncts from the cube loop:
        //   p1: x - n^3 = 0, p2: y - 3n^2 - 3n - 1 = 0, p3: z - 6n - 6 = 0.
        // Body T: n+=1; x+=y; y+=z; z+=6.
        let arity = 4;
        let n = Poly::var(0, arity);
        let x = Poly::var(1, arity);
        let y = Poly::var(2, arity);
        let z = Poly::var(3, arity);
        let c = |k: i128| Poly::constant(r(k), arity);
        let n3 = &(&n * &n) * &n;
        let p1 = &x - &n3;
        let p2 = &(&y - &(&n * &n).scale(r(3))) - &(&n.scale(r(3)) + &c(1));
        let p3 = &(&z - &n.scale(r(6))) - &c(6);
        let body = vec![&n + &c(1), &x + &y, &y + &z, &z + &c(6)];
        let gens = vec![p1.clone(), p2.clone(), p3.clone()];
        for p in [&p1, &p2, &p3] {
            let p_next = p.subst(&body);
            assert_eq!(
                ideal_member(&p_next, &gens, GroebnerLimits::default()),
                Some(true),
                "conjunct not inductive"
            );
        }
        // A wrong invariant x - n^2 should NOT be inductive.
        let wrong = &x - &(&n * &n);
        let wrong_next = wrong.subst(&body);
        assert_eq!(ideal_member(&wrong_next, &[wrong], GroebnerLimits::default()), Some(false));
    }
}
