//! Property tests for formulas and relaxations.

use gcln_logic::compile::CompiledFormula;
use gcln_logic::formula::{Atom, Formula, Pred};
use gcln_logic::fuzzy::{gated_tconorm, gated_tnorm, TNorm};
use gcln_logic::parse_formula;
use gcln_logic::relax::{relax_formula, RelaxKind};
use gcln_numeric::poly::{Monomial, Poly};
use gcln_numeric::Rat;
use proptest::prelude::*;

const ARITY: usize = 2;

fn small_poly() -> impl Strategy<Value = Poly> {
    let term = (-5i128..=5, proptest::collection::vec(0u32..=2, ARITY));
    proptest::collection::vec(term, 1..4).prop_map(|terms| {
        Poly::from_terms(ARITY, terms.into_iter().map(|(c, e)| (Rat::integer(c), Monomial::new(e))))
    })
}

fn pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        Just(Pred::Eq),
        Just(Pred::Ne),
        Just(Pred::Lt),
        Just(Pred::Le),
        Just(Pred::Gt),
        Just(Pred::Ge),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    let atom = (small_poly(), pred()).prop_map(|(p, pr)| Formula::Atom(Atom::new(p, pr)));
    atom.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::Or),
            inner.prop_map(|f| Formula::Not(Box::new(f))),
        ]
    })
}

proptest! {
    #[test]
    fn simplify_preserves_semantics(f in formula(), x in -6i128..=6, y in -6i128..=6) {
        let point = [x, y];
        prop_assert_eq!(f.eval_i128(&point), f.simplify().eval_i128(&point));
    }

    #[test]
    fn display_parse_roundtrip_evaluates_same(
        f in formula(),
        x in -4i128..=4,
        y in -4i128..=4,
    ) {
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let text = f.display(&names).to_string();
        let reparsed = parse_formula(&text, &names).unwrap();
        prop_assert_eq!(f.eval_i128(&[x, y]), reparsed.eval_i128(&[x, y]), "text: {}", text);
    }

    #[test]
    fn negation_is_complement_exactly(f in formula(), x in -4i128..=4, y in -4i128..=4) {
        let not_f = Formula::Not(Box::new(f.clone()));
        prop_assert_eq!(f.eval_i128(&[x, y]), !not_f.eval_i128(&[x, y]));
    }

    #[test]
    fn relaxation_respects_negation(f in formula(), x in -3.0f64..3.0, y in -3.0f64..3.0) {
        let not_f = Formula::Not(Box::new(f.clone()));
        let kind = RelaxKind::paper_training();
        let a = relax_formula(&f, &[x, y], kind, TNorm::Product);
        let b = relax_formula(&not_f, &[x, y], kind, TNorm::Product);
        prop_assert!((a + b - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn tnorm_axioms_hold(
        t1 in 0.0f64..=1.0,
        t2 in 0.0f64..=1.0,
        t3 in 0.0f64..=1.0,
    ) {
        for norm in [TNorm::Product, TNorm::Godel, TNorm::Lukasiewicz] {
            // Commutativity and associativity (§2.2).
            prop_assert!((norm.apply(t1, t2) - norm.apply(t2, t1)).abs() < 1e-12);
            let assoc_l = norm.apply(t1, norm.apply(t2, t3));
            let assoc_r = norm.apply(norm.apply(t1, t2), t3);
            prop_assert!((assoc_l - assoc_r).abs() < 1e-12);
            // Monotonicity: t1 <= t2 => t1 ⊗ t3 <= t2 ⊗ t3.
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(norm.apply(lo, t3) <= norm.apply(hi, t3) + 1e-12);
            // Range.
            prop_assert!((0.0..=1.0).contains(&norm.apply(t1, t2)));
        }
    }

    #[test]
    fn gated_connectives_interpolate(
        x in 0.0f64..=1.0,
        y in 0.0f64..=1.0,
        g1 in 0.0f64..=1.0,
        g2 in 0.0f64..=1.0,
    ) {
        let t = TNorm::Product;
        let tg = gated_tnorm(t, &[x, y], &[g1, g2]);
        let cg = gated_tconorm(t, &[x, y], &[g1, g2]);
        prop_assert!((0.0..=1.0).contains(&tg));
        prop_assert!((0.0..=1.0).contains(&cg));
        // Fully-open gates recover the ungated connectives.
        prop_assert!((gated_tnorm(t, &[x, y], &[1.0, 1.0]) - t.apply(x, y)).abs() < 1e-12);
        prop_assert!((gated_tconorm(t, &[x, y], &[1.0, 1.0]) - t.conorm(x, y)).abs() < 1e-12);
    }

    #[test]
    fn pbqu_prefers_tighter_satisfied_bounds(slack1 in 0.0f64..50.0, slack2 in 0.0f64..50.0) {
        // Monotone decreasing in slack (this is what makes bounds tight).
        let (lo, hi) = if slack1 <= slack2 { (slack1, slack2) } else { (slack2, slack1) };
        let v_lo = gcln_logic::relax::pbqu_ge(lo, 1.0, 50.0);
        let v_hi = gcln_logic::relax::pbqu_ge(hi, 1.0, 50.0);
        prop_assert!(v_lo >= v_hi);
    }

    #[test]
    fn compiled_matches_tree_eval_on_small_points(
        f in formula(),
        x in -6i128..=6,
        y in -6i128..=6,
    ) {
        // Small coefficients, exponents, and points cannot overflow: the
        // bytecode evaluator must agree with the tree walker exactly.
        let compiled = CompiledFormula::compile(&f);
        prop_assert_eq!(compiled.eval(&[x, y]), Some(f.eval_i128(&[x, y])));
    }

    #[test]
    fn compiled_agrees_with_checked_tree_eval_on_huge_points(
        f in formula(),
        sx in -3i128..=3,
        sy in -3i128..=3,
    ) {
        // Points near 2^66 overflow i128 inside cubic terms. The checked
        // tree evaluator is the semantic reference: wherever it is
        // defined the bytecode must match, and a bytecode `None`
        // (overflow even through the exact fallback) implies the tree
        // walker would have overflowed too.
        let point = [sx << 66, sy << 66];
        let compiled = CompiledFormula::compile(&f);
        let fast = compiled.eval(&point);
        let reference = f.try_eval_i128(&point);
        if let Some(b) = reference {
            prop_assert_eq!(fast, Some(b), "bytecode diverged from checked tree eval");
        }
        if fast.is_none() {
            prop_assert_eq!(reference, None, "bytecode overflowed where tree eval succeeds");
        }
    }

    #[test]
    fn compiled_batch_matches_tree_eval(f in formula()) {
        let compiled = CompiledFormula::compile(&f);
        let points: Vec<Vec<i128>> =
            (-3..=3).flat_map(|x| (-3..=3).map(move |y| vec![x, y])).collect();
        let mut out = Vec::new();
        compiled.eval_batch(&points, &mut out);
        prop_assert_eq!(out.len(), points.len());
        for (p, r) in points.iter().zip(out) {
            prop_assert_eq!(r, Some(f.eval_i128(p)));
        }
    }

    #[test]
    fn try_eval_agrees_with_eval_when_defined(
        f in formula(),
        x in -6i128..=6,
        y in -6i128..=6,
    ) {
        // On small points the checked evaluator never bails and matches
        // the panicking one.
        prop_assert_eq!(f.try_eval_i128(&[x, y]), Some(f.eval_i128(&[x, y])));
    }

    #[test]
    fn float_eval_matches_exact_on_integer_points(
        f in formula(),
        x in -4i128..=4,
        y in -4i128..=4,
    ) {
        // Small-integer evaluation is exact in f64, so the two agree with
        // a tolerance below 1/2.
        let exactly = f.eval_i128(&[x, y]);
        let float = f.eval_f64(&[x as f64, y as f64], 0.25);
        prop_assert_eq!(exactly, float);
    }
}
