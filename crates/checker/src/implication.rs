//! Implication testing between invariants.
//!
//! The Table 2 "solved" criterion requires the learned invariant to be at
//! least as strong as the documented ground truth. Two tests are
//! provided:
//!
//! - [`equalities_imply`]: *symbolic* — every target equality polynomial
//!   must lie in the ideal generated by the learned equality conjuncts
//!   (sufficient condition; exact for the benchmark's invariants).
//! - [`implies_bounded`]: *bounded* — on every supplied state where the
//!   learned invariant holds, the target must hold. Used for inequality
//!   conjuncts and disjunctive structure.

use gcln_logic::{Formula, Pred};
use gcln_numeric::groebner::{groebner_basis, normal_form, GroebnerLimits};
use gcln_numeric::Poly;

/// The equality-conjunct polynomials of a formula (over its full variable
/// space).
pub fn equality_polys(formula: &Formula) -> Vec<Poly> {
    formula
        .conjuncts()
        .iter()
        .filter_map(|c| match c {
            Formula::Atom(a) if a.pred == Pred::Eq => Some(a.poly.clone()),
            _ => None,
        })
        .collect()
}

/// Symbolically tests whether the learned equalities imply each target
/// equality: `target ∈ ideal(learned equalities)`.
///
/// Returns `None` if the Gröbner computation exceeds `limits` (fall back
/// to [`implies_bounded`]), `Some(false)` if some target is not implied.
pub fn equalities_imply(
    learned: &Formula,
    targets: &[Poly],
    limits: GroebnerLimits,
) -> Option<bool> {
    let gens = equality_polys(learned);
    if targets.is_empty() {
        return Some(true);
    }
    if gens.is_empty() {
        return Some(false);
    }
    let gb = groebner_basis(&gens, limits)?;
    Some(targets.iter().all(|t| normal_form(t, &gb).is_zero()))
}

/// Bounded implication: on every state where `learned` holds, `target`
/// must hold. Returns the first witness state violating the implication.
pub fn implies_bounded<'a>(
    learned: &Formula,
    target: &Formula,
    states: impl IntoIterator<Item = &'a Vec<i128>>,
) -> Option<&'a Vec<i128>> {
    states.into_iter().find(|s| learned.eval_i128(s) && !target.eval_i128(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_logic::parse_formula;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn symbolic_implication_for_linear_combos() {
        let ns = names(&["x", "y", "z"]);
        // Learned: x == y && y == z. Target: x == z (their difference).
        let learned = parse_formula("x == y && y == z", &ns).unwrap();
        let target = parse_formula("x == z", &ns).unwrap();
        let targets = equality_polys(&target);
        assert_eq!(equalities_imply(&learned, &targets, GroebnerLimits::default()), Some(true));
        // x == 2z is not implied.
        let wrong = equality_polys(&parse_formula("x == 2 * z", &ns).unwrap());
        assert_eq!(equalities_imply(&learned, &wrong, GroebnerLimits::default()), Some(false));
    }

    #[test]
    fn symbolic_implication_nonlinear() {
        let ns = names(&["a", "s", "t"]);
        // sqrt1 invariants: s = (a+1)^2, t = 2a+1 imply s == a^2 + t... i.e.
        // s - a^2 - t = (a^2+2a+1) - a^2 - (2a+1) = 0.
        let learned = parse_formula("s == a^2 + 2*a + 1 && t == 2*a + 1", &ns).unwrap();
        let target = equality_polys(&parse_formula("s == a^2 + t", &ns).unwrap());
        assert_eq!(equalities_imply(&learned, &target, GroebnerLimits::default()), Some(true));
    }

    #[test]
    fn empty_cases() {
        let ns = names(&["x"]);
        let learned = parse_formula("x >= 0", &ns).unwrap(); // no equalities
        assert_eq!(equalities_imply(&learned, &[], GroebnerLimits::default()), Some(true));
        let target = equality_polys(&parse_formula("x == 0", &ns).unwrap());
        assert_eq!(equalities_imply(&learned, &target, GroebnerLimits::default()), Some(false));
    }

    #[test]
    fn bounded_implication_finds_witness() {
        let ns = names(&["x", "y"]);
        let learned = parse_formula("x >= 0", &ns).unwrap();
        let target = parse_formula("x >= 1", &ns).unwrap();
        let states = vec![vec![0i128, 5], vec![3, 4]];
        let witness = implies_bounded(&learned, &target, &states);
        assert_eq!(witness, Some(&vec![0i128, 5]));
        let target_ok = parse_formula("x >= 0 && y >= y", &ns).unwrap();
        assert_eq!(implies_bounded(&learned, &target_ok, &states), None);
    }
}
