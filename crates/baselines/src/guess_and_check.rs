//! Guess-and-Check-style polynomial **equality** solving (Sharma et al.,
//! ESOP'13 — the paper's \[33\]): the exact null space of the expanded
//! trace matrix is the space of equality invariants over the candidate
//! terms. Learns only equalities — no disjunctions, no inequalities —
//! which is precisely the limitation Table 2's comparison turns on.

use gcln_engine::data::collect_loop_states;
use gcln_engine::kernel::kernel_equalities;
use gcln_engine::terms::{growth_filter_with_duplicates, TermSpace};
use gcln_logic::{Atom, Formula};
use gcln_problems::Problem;

/// Equality invariants for one loop, via the polynomial kernel.
pub fn guess_and_check(problem: &Problem, loop_id: usize) -> Vec<Atom> {
    let points = collect_loop_states(problem, loop_id, 120, 2);
    if points.is_empty() {
        return Vec::new();
    }
    let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
    let filtered = growth_filter_with_duplicates(&space, &points, 1e10);
    let mut atoms: Vec<Atom> = filtered
        .duplicates
        .iter()
        .map(|&(dropped, kept)| {
            use gcln_numeric::{Poly, Rat};
            let poly = (&Poly::from_monomial(space.monomials[dropped].clone(), Rat::ONE)
                - &Poly::from_monomial(space.monomials[kept].clone(), Rat::ONE))
                .normalize_content();
            Atom::new(poly, gcln_logic::Pred::Eq)
        })
        .collect();
    let space = space.select(&filtered.keep);
    atoms.extend(kernel_equalities(&space, &points, 250, 1_000_000));
    atoms
}

/// The conjunction of all per-loop equality invariants.
pub fn guess_and_check_formula(problem: &Problem, loop_id: usize) -> Formula {
    Formula::and(guess_and_check(problem, loop_id).into_iter().map(Formula::Atom)).simplify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_checker::{equalities_imply, equality_polys};
    use gcln_numeric::groebner::GroebnerLimits;
    use gcln_problems::nla::nla_problem;

    #[test]
    fn finds_cohencu_equalities() {
        let problem = nla_problem("cohencu").unwrap();
        let formula = guess_and_check_formula(&problem, 0);
        let names = problem.extended_names();
        let gt = gcln_logic::parse_formula(
            "x == n^3 && y == 3 * n^2 + 3 * n + 1 && z == 6 * n + 6",
            &names,
        )
        .unwrap();
        assert_eq!(
            equalities_imply(&formula, &equality_polys(&gt), GroebnerLimits::default()),
            Some(true),
            "G&C misses cohencu equalities: {}",
            formula.display(&names)
        );
    }

    #[test]
    fn cannot_express_inequalities() {
        // sqrt1's crucial invariant n >= a^2 is invisible to G&C.
        let problem = nla_problem("sqrt1").unwrap();
        let atoms = guess_and_check(&problem, 0);
        assert!(atoms.iter().all(|a| a.pred == gcln_logic::Pred::Eq));
    }
}
