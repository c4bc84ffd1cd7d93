//! A PIE-style enumerative baseline (Padhi et al., the paper's \[26\]):
//! guess atomic predicates from a template grammar in increasing size,
//! conjoin the consistent ones, and give up when the feature budget is
//! exhausted. On nonlinear problems the predicate space explodes — the
//! paper reports PIE timing out on every attempted NLA problem — and
//! this reproduction exposes the same blow-up via its budget counter.

use gcln_engine::data::collect_loop_states;
use gcln_engine::extract::FitPoints;
use gcln_engine::terms::TermSpace;
use gcln_logic::{Atom, Formula, Pred};
use gcln_numeric::{Poly, Rat};
use gcln_problems::Problem;

/// Outcome of an enumeration run.
#[derive(Clone, Debug)]
pub struct PieResult {
    /// Consistent predicates found within budget.
    pub formula: Formula,
    /// Predicates enumerated.
    pub enumerated: usize,
    /// Whether the budget ran out before the grammar was exhausted
    /// (the "timeout" of Table 2).
    pub budget_exhausted: bool,
}

/// Enumerates candidate predicates `±t ± t' + c ⋈ 0` with small integer
/// constants over the term grammar, keeping those consistent with traces.
pub fn pie_enumerate(problem: &Problem, loop_id: usize, budget: usize) -> PieResult {
    let points = collect_loop_states(problem, loop_id, 60, 1);
    // One point conversion shared by every enumerated candidate.
    let fit = FitPoints::new(&points);
    let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
    let arity = problem.extended_names().len();
    let mut enumerated = 0;
    let mut kept = Vec::new();
    let mut budget_exhausted = false;
    'outer: for i in 0..space.len() {
        for j in 0..space.len() {
            for (si, sj) in [(1i128, 0i128), (1, 1), (1, -1)] {
                for c in -4i128..=4 {
                    for pred in [Pred::Eq, Pred::Ge] {
                        enumerated += 1;
                        if enumerated > budget {
                            budget_exhausted = true;
                            break 'outer;
                        }
                        let mut poly = Poly::constant(Rat::integer(c), arity);
                        poly.add_term(Rat::integer(si), space.monomials[i].clone());
                        if sj != 0 && j != i {
                            poly.add_term(Rat::integer(sj), space.monomials[j].clone());
                        }
                        if poly.is_zero() || poly.is_constant() {
                            continue;
                        }
                        if kept.len() < 64 && fit.fits(&poly, pred, 1e-9) {
                            // Output stays bounded; enumeration continues
                            // so the budget counter reflects the grammar.
                            kept.push(Formula::Atom(Atom::new(poly, pred)));
                        }
                    }
                }
            }
        }
    }
    PieResult { formula: Formula::and(kept).simplify(), enumerated, budget_exhausted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_problems::nla::nla_problem;

    #[test]
    fn explodes_on_nonlinear_term_space() {
        // With the budget the linear problems need, the nonlinear grammar
        // is not even half enumerated: the Table 2 "timeout" shape.
        let problem = nla_problem("ps4").unwrap();
        let result = pie_enumerate(&problem, 0, 20_000);
        assert!(result.budget_exhausted, "ps4 grammar should exhaust the budget");
    }

    #[test]
    fn handles_simple_linear_problem() {
        let problem = gcln_problems::find_problem("lin-up-01").unwrap();
        let result = pie_enumerate(&problem, 0, 200_000);
        assert!(!result.budget_exhausted);
        let names = problem.extended_names();
        let text = result.formula.display(&names).to_string();
        assert!(text.contains(">="), "some bound found: {text}");
    }
}
