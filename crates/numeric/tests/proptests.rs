//! Property-based tests for the exact-arithmetic substrate.

use gcln_numeric::groebner::{groebner_basis, normal_form, GroebnerLimits};
use gcln_numeric::linalg::integerize;
use gcln_numeric::poly::{Monomial, Poly};
use gcln_numeric::{Matrix, Rat};
use proptest::prelude::*;

/// The seed's `BTreeMap`-backed polynomial arithmetic, retained verbatim
/// as an oracle for the flat sorted-`Vec` representation that replaced
/// it: every operation here mirrors the original implementation
/// term-for-term, including the division order of `normal_form`.
mod reference {
    use gcln_numeric::poly::Poly;
    use gcln_numeric::Rat;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    /// Exponent vector with the grevlex `Ord` of the original `Monomial`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RefMono(pub Vec<u32>);

    impl RefMono {
        fn degree(&self) -> u32 {
            self.0.iter().sum()
        }

        pub fn mul(&self, other: &RefMono) -> RefMono {
            RefMono(self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect())
        }

        pub fn divides(&self, other: &RefMono) -> bool {
            self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
        }

        pub fn quotient(&self, other: &RefMono) -> RefMono {
            RefMono(other.0.iter().zip(&self.0).map(|(b, a)| b - a).collect())
        }
    }

    impl PartialOrd for RefMono {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for RefMono {
        fn cmp(&self, other: &Self) -> Ordering {
            match self.degree().cmp(&other.degree()) {
                Ordering::Equal => {
                    for (a, b) in self.0.iter().zip(&other.0).rev() {
                        match a.cmp(b) {
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

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RefPoly {
        pub arity: usize,
        pub terms: BTreeMap<RefMono, Rat>,
    }

    impl RefPoly {
        pub fn from_poly(p: &Poly) -> RefPoly {
            let mut terms = BTreeMap::new();
            for (m, c) in p.iter() {
                terms.insert(RefMono(m.exps()), *c);
            }
            RefPoly { arity: p.arity(), terms }
        }

        /// Converts back through the public constructor so results can be
        /// compared with the flat representation via `Poly` equality.
        pub fn to_poly(&self) -> Poly {
            Poly::from_terms(
                self.arity,
                self.terms
                    .iter()
                    .map(|(m, c)| (*c, gcln_numeric::poly::Monomial::new(m.0.clone()))),
            )
        }

        pub fn is_zero(&self) -> bool {
            self.terms.is_empty()
        }

        pub fn add_term(&mut self, c: Rat, m: RefMono) {
            if c.is_zero() {
                return;
            }
            let entry = self.terms.entry(m.clone()).or_insert(Rat::ZERO);
            *entry += c;
            if entry.is_zero() {
                self.terms.remove(&m);
            }
        }

        pub fn add(&self, rhs: &RefPoly) -> RefPoly {
            let mut out = self.clone();
            for (m, c) in &rhs.terms {
                out.add_term(*c, m.clone());
            }
            out
        }

        pub fn sub(&self, rhs: &RefPoly) -> RefPoly {
            let mut out = self.clone();
            for (m, c) in &rhs.terms {
                out.add_term(-*c, m.clone());
            }
            out
        }

        pub fn mul(&self, rhs: &RefPoly) -> RefPoly {
            let mut out = RefPoly { arity: self.arity, terms: BTreeMap::new() };
            for (m1, c1) in &self.terms {
                for (m2, c2) in &rhs.terms {
                    out.add_term(*c1 * *c2, m1.mul(m2));
                }
            }
            out
        }

        pub fn scale(&self, c: Rat) -> RefPoly {
            if c.is_zero() {
                return RefPoly { arity: self.arity, terms: BTreeMap::new() };
            }
            RefPoly {
                arity: self.arity,
                terms: self.terms.iter().map(|(m, v)| (m.clone(), *v * c)).collect(),
            }
        }

        pub fn mul_term(&self, c: Rat, m: &RefMono) -> RefPoly {
            if c.is_zero() {
                return RefPoly { arity: self.arity, terms: BTreeMap::new() };
            }
            RefPoly {
                arity: self.arity,
                terms: self.terms.iter().map(|(mm, v)| (mm.mul(m), *v * c)).collect(),
            }
        }

        pub fn leading_term(&self) -> Option<(&RefMono, &Rat)> {
            self.terms.iter().next_back()
        }
    }

    /// The original multivariate division algorithm, operating on the
    /// retained representation (same basis iteration order as the flat
    /// implementation, so results are comparable even modulo non-Gröbner
    /// bases).
    pub fn normal_form(p: &RefPoly, basis: &[RefPoly]) -> RefPoly {
        let mut remainder = RefPoly { arity: p.arity, terms: BTreeMap::new() };
        let mut work = p.clone();
        'outer: while !work.is_zero() {
            let (lm, lc) = {
                let (m, c) = work.leading_term().expect("nonzero");
                (m.clone(), *c)
            };
            for g in basis {
                if g.is_zero() {
                    continue;
                }
                let (gm, gc) = g.leading_term().expect("nonzero");
                if gm.divides(&lm) {
                    let q = gm.quotient(&lm);
                    let factor = lc / *gc;
                    work = work.sub(&g.mul_term(factor, &q));
                    continue 'outer;
                }
            }
            remainder.add_term(lc, lm.clone());
            let mut single = RefPoly { arity: p.arity, terms: BTreeMap::new() };
            single.add_term(lc, lm);
            work = work.sub(&single);
        }
        remainder
    }
}

fn small_rat() -> impl Strategy<Value = Rat> {
    (-50i128..=50, 1i128..=12).prop_map(|(n, d)| Rat::new(n, d))
}

fn small_poly(arity: usize) -> impl Strategy<Value = Poly> {
    let term = (-9i128..=9, proptest::collection::vec(0u32..=2, arity));
    proptest::collection::vec(term, 0..5).prop_map(move |terms| {
        Poly::from_terms(
            arity,
            terms.into_iter().map(|(c, exps)| (Rat::integer(c), Monomial::new(exps))),
        )
    })
}

proptest! {
    #[test]
    fn rat_addition_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rat_addition_associates(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn rat_multiplication_distributes(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rat_additive_inverse(a in small_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
    }

    #[test]
    fn rat_multiplicative_inverse(a in small_rat()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.recip(), Rat::ONE);
    }

    #[test]
    fn rat_order_matches_f64(a in small_rat(), b in small_rat()) {
        // Small rationals are exactly representable in f64, so orders agree.
        let exact = a.cmp(&b);
        let float = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
        prop_assert_eq!(exact, float);
    }

    #[test]
    fn rat_approximate_recovers_exact_fractions(n in -30i128..=30, d in 1i128..=10) {
        let r = Rat::new(n, d);
        let approx = Rat::approximate(r.to_f64(), 10).unwrap();
        prop_assert_eq!(approx, r);
    }

    #[test]
    fn rat_approximate_is_best(x in -5.0f64..5.0, max_den in 1i128..=15) {
        let approx = Rat::approximate(x, max_den).unwrap();
        let err = (x - approx.to_f64()).abs();
        // No fraction with denominator <= max_den is strictly closer.
        for d in 1..=max_den {
            let n = (x * d as f64).round() as i128;
            let cand = Rat::new(n, d);
            prop_assert!(
                (x - cand.to_f64()).abs() >= err - 1e-12,
                "candidate {} beats {}", cand, approx
            );
        }
    }

    #[test]
    fn rat_floor_ceil_bracket(a in small_rat()) {
        let f = Rat::integer(a.floor());
        let c = Rat::integer(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(c - f <= Rat::ONE);
    }

    #[test]
    fn rat_parse_display_roundtrip(a in small_rat()) {
        prop_assert_eq!(a.to_string().parse::<Rat>().unwrap(), a);
    }

    #[test]
    fn poly_ring_commutative(p in small_poly(3), q in small_poly(3)) {
        prop_assert_eq!(&p * &q, &q * &p);
        prop_assert_eq!(&p + &q, &q + &p);
    }

    #[test]
    fn poly_mul_distributes(p in small_poly(2), q in small_poly(2), r in small_poly(2)) {
        prop_assert_eq!(&p * &(&q + &r), &(&p * &q) + &(&p * &r));
    }

    #[test]
    fn poly_eval_is_ring_hom(
        p in small_poly(2),
        q in small_poly(2),
        x in -5i128..=5,
        y in -5i128..=5,
    ) {
        let pt = [Rat::integer(x), Rat::integer(y)];
        prop_assert_eq!((&p + &q).eval(&pt), p.eval(&pt) + q.eval(&pt));
        prop_assert_eq!((&p * &q).eval(&pt), p.eval(&pt) * q.eval(&pt));
    }

    #[test]
    fn poly_subst_then_eval_is_eval_composed(
        p in small_poly(2),
        x in -3i128..=3,
        y in -3i128..=3,
    ) {
        // Substitute x -> x + y, y -> x*y and compare with direct evaluation.
        let vx = Poly::var(0, 2);
        let vy = Poly::var(1, 2);
        let subs = [&vx + &vy, &vx * &vy];
        let composed = p.subst(&subs);
        let pt = [Rat::integer(x), Rat::integer(y)];
        let inner = [subs[0].eval(&pt), subs[1].eval(&pt)];
        prop_assert_eq!(composed.eval(&pt), p.eval(&inner));
    }

    #[test]
    fn poly_normalize_content_preserves_zero_set(p in small_poly(2), x in -4i128..=4, y in -4i128..=4) {
        let n = p.normalize_content();
        let pt = [Rat::integer(x), Rat::integer(y)];
        prop_assert_eq!(p.eval(&pt).is_zero(), n.eval(&pt).is_zero());
    }

    #[test]
    fn normal_form_of_multiple_is_zero(p in small_poly(2), g in small_poly(2)) {
        prop_assume!(!g.is_zero());
        let prod = &p * &g;
        prop_assert!(normal_form(&prod, &[g]).is_zero());
    }

    #[test]
    fn normal_form_is_linear(p in small_poly(2), q in small_poly(2), g in small_poly(2)) {
        prop_assume!(!g.is_zero());
        let basis = [g];
        let lhs = normal_form(&(&p + &q), &basis);
        let rhs = &normal_form(&p, &basis) + &normal_form(&q, &basis);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn null_space_vectors_are_in_kernel(
        rows in proptest::collection::vec(
            proptest::collection::vec(-6i128..=6, 4), 1..5
        )
    ) {
        let m = Matrix::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(Rat::integer).collect())
                .collect(),
        );
        let ns = m.null_space();
        prop_assert_eq!(m.rank() + ns.len(), m.ncols());
        for v in &ns {
            prop_assert!(m.mul_vec(v).iter().all(Rat::is_zero));
        }
    }

    #[test]
    fn integerize_keeps_direction(v in proptest::collection::vec(small_rat(), 1..5)) {
        let w = integerize(v.clone());
        prop_assume!(v.iter().any(|r| !r.is_zero()));
        // w = s * v for some positive or negative rational s: check cross ratios.
        let i = v.iter().position(|r| !r.is_zero()).unwrap();
        let scale = w[i] / v[i];
        prop_assert!(!scale.is_zero());
        for (a, b) in v.iter().zip(&w) {
            prop_assert_eq!(*a * scale, *b);
        }
        // All integers, coprime.
        prop_assert!(w.iter().all(Rat::is_integer));
    }

    #[test]
    fn flat_poly_matches_btreemap_reference_arithmetic(
        p in small_poly(3),
        q in small_poly(3),
        c in small_rat(),
    ) {
        use reference::RefPoly;
        let (rp, rq) = (RefPoly::from_poly(&p), RefPoly::from_poly(&q));
        prop_assert_eq!(&p + &q, rp.add(&rq).to_poly());
        prop_assert_eq!(&p - &q, rp.sub(&rq).to_poly());
        prop_assert_eq!(&p * &q, rp.mul(&rq).to_poly());
        prop_assert_eq!(p.scale(c), rp.scale(c).to_poly());
        if let Some((m, lc)) = q.leading_term() {
            let rm = reference::RefMono(m.exps());
            prop_assert_eq!(p.mul_term(*lc, m), rp.mul_term(*lc, &rm).to_poly());
        }
    }

    #[test]
    fn flat_poly_iterates_in_reference_order(p in small_poly(3)) {
        // The sorted Vec must iterate exactly like the BTreeMap keyed by
        // the reference grevlex order, leading term included.
        let rp = reference::RefPoly::from_poly(&p);
        let flat: Vec<(Vec<u32>, Rat)> = p.iter().map(|(m, c)| (m.exps(), *c)).collect();
        let reference: Vec<(Vec<u32>, Rat)> =
            rp.terms.iter().map(|(m, c)| (m.0.clone(), *c)).collect();
        prop_assert_eq!(flat, reference);
        prop_assert_eq!(
            p.leading_term().map(|(m, c)| (m.exps(), *c)),
            rp.leading_term().map(|(m, c)| (m.0.clone(), *c))
        );
    }

    #[test]
    fn spilled_monomials_match_reference(
        exps_a in proptest::collection::vec(0u32..=20, 3),
        exps_b in proptest::collection::vec(0u32..=20, 3),
        ca in -9i128..=9,
        cb in -9i128..=9,
    ) {
        // Exponents above 15 exercise the heap-spill path; products and
        // order must agree with the packed path and the reference.
        let p = Poly::from_monomial(Monomial::new(exps_a), Rat::integer(ca));
        let q = Poly::from_monomial(Monomial::new(exps_b), Rat::integer(cb));
        let (rp, rq) = (reference::RefPoly::from_poly(&p), reference::RefPoly::from_poly(&q));
        prop_assert_eq!(&p * &q, rp.mul(&rq).to_poly());
        prop_assert_eq!(&p + &q, rp.add(&rq).to_poly());
    }

    #[test]
    fn normal_form_matches_btreemap_reference(
        p in small_poly(2),
        g1 in small_poly(2),
        g2 in small_poly(2),
    ) {
        let basis = vec![g1, g2];
        let ref_basis: Vec<reference::RefPoly> =
            basis.iter().map(reference::RefPoly::from_poly).collect();
        let flat = normal_form(&p, &basis);
        let oracle = reference::normal_form(&reference::RefPoly::from_poly(&p), &ref_basis);
        prop_assert_eq!(flat, oracle.to_poly());
    }

    #[test]
    fn groebner_basis_validates_against_reference_division(
        g1 in small_poly(2),
        g2 in small_poly(2),
    ) {
        prop_assume!(!g1.is_zero() && !g2.is_zero());
        let limits = GroebnerLimits { max_basis: 60, max_reductions: 2000 };
        let Some(gb) = groebner_basis(&[g1.clone(), g2.clone()], limits) else {
            return Ok(()); // limits exceeded: nothing to validate
        };
        let ref_gb: Vec<reference::RefPoly> =
            gb.iter().map(reference::RefPoly::from_poly).collect();
        // Every generator lies in the ideal: its reference-division
        // normal form modulo the flat-engine basis must vanish.
        for gen in [&g1, &g2] {
            let nf = reference::normal_form(&reference::RefPoly::from_poly(gen), &ref_gb);
            prop_assert!(nf.is_zero(), "generator does not reduce to zero");
        }
        // And the flat normal form agrees with the reference on the
        // computed basis for arbitrary polynomials.
        let probe = &g1 * &g2;
        prop_assert_eq!(
            normal_form(&probe, &gb),
            reference::normal_form(&reference::RefPoly::from_poly(&probe), &ref_gb).to_poly()
        );
    }

    #[test]
    fn groebner_membership_agrees_with_product_construction(
        g1 in small_poly(2),
        g2 in small_poly(2),
        a in small_poly(2),
        b in small_poly(2),
    ) {
        prop_assume!(!g1.is_zero() && !g2.is_zero());
        prop_assume!(g1.degree() <= 3 && g2.degree() <= 3);
        // a*g1 + b*g2 is always a member of <g1, g2>.
        let member = &(&a * &g1) + &(&b * &g2);
        let limits = GroebnerLimits { max_basis: 60, max_reductions: 2000 };
        if let Some(result) = gcln_numeric::groebner::ideal_member(&member, &[g1, g2], limits) {
            prop_assert!(result, "explicit combination not recognized as member");
        }
    }
}
