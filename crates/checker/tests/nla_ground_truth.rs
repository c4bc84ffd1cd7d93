//! The checker must accept every documented NLA ground-truth invariant
//! and reject corrupted versions of them. This is the end-to-end
//! validation of the Z3-substitute.

use gcln_checker::{check, Candidate, CheckReport, CheckerConfig};
use gcln_logic::{Formula, Pred};
use gcln_numeric::{Poly, Rat};
use gcln_problems::{nla::nla_suite, sample_inputs, Problem};

fn check_problem(problem: &Problem, candidates: Vec<Candidate>) -> CheckReport {
    let tuples = sample_inputs(problem, 120);
    let extend = |s: &[i128]| problem.extend_state(s);
    check(&problem.program, &tuples, &extend, &candidates, &CheckerConfig::default())
}

#[test]
fn all_nla_ground_truths_are_accepted() {
    for problem in nla_suite() {
        let candidates: Vec<Candidate> = problem
            .parsed_ground_truth()
            .into_iter()
            .map(|(loop_id, formula)| Candidate { loop_id, formula })
            .collect();
        let report = check_problem(&problem, candidates);
        assert!(
            report.is_valid(),
            "`{}` ground truth rejected: {:?}",
            problem.name,
            report.counterexamples.first()
        );
    }
}

#[test]
fn symbolic_phase_proves_polynomial_equalities() {
    // Problems whose loop bodies are polynomial maps must get their
    // equality conjuncts Gröbner-proved, not just sampled.
    for name in [
        "cohencu", "sqrt1", "ps2", "ps3", "ps4", "ps5", "ps6", "geo1", "geo2", "geo3", "freire1",
        "freire2", "fermat2",
    ] {
        let problem = gcln_problems::nla::nla_problem(name).unwrap();
        let candidates: Vec<Candidate> = problem
            .parsed_ground_truth()
            .into_iter()
            .map(|(loop_id, formula)| Candidate { loop_id, formula })
            .collect();
        let report = check_problem(&problem, candidates);
        assert!(
            report.symbolically_proved > 0,
            "`{name}` should have symbolically proved equalities"
        );
    }
}

#[test]
fn corrupted_ground_truths_are_rejected() {
    // Corrupt each solvable problem's first ground-truth equality by
    // adding 1 to the polynomial; the checker must find a counterexample.
    for problem in nla_suite() {
        let truths = problem.parsed_ground_truth();
        let Some((loop_id, formula)) = truths.into_iter().next() else {
            continue;
        };
        let corrupted = corrupt_first_equality(&formula);
        let Some(corrupted) = corrupted else { continue };
        let report = check_problem(&problem, vec![Candidate { loop_id, formula: corrupted }]);
        assert!(!report.is_valid(), "`{}`: corrupted invariant slipped through", problem.name);
    }
}

/// Adds 1 to the first equality atom's polynomial, producing an invariant
/// that is false at (at least) the initial state.
fn corrupt_first_equality(f: &Formula) -> Option<Formula> {
    match f {
        Formula::Atom(a) if a.pred == Pred::Eq => {
            let bumped = &a.poly + &Poly::constant(Rat::ONE, a.poly.arity());
            Some(Formula::atom(bumped, Pred::Eq))
        }
        Formula::And(fs) => {
            for (i, part) in fs.iter().enumerate() {
                if let Some(c) = corrupt_first_equality(part) {
                    let mut out = fs.clone();
                    out[i] = c;
                    return Some(Formula::And(out));
                }
            }
            None
        }
        _ => None,
    }
}
