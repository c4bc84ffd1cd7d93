//! NumInv-style **octahedral** inequality inference (Nguyen et al., the
//! paper's \[21\]): bounds of the form `±x ±y ≤ c` over program variables
//! only — coefficients in {−1, 0, 1}, at most two variables. The paper's
//! point (§7): NumInv cannot infer the nonlinear or three-variable
//! inequalities the benchmark needs; this module reproduces exactly that
//! expressiveness ceiling.

use gcln_engine::data::collect_loop_states;
use gcln_logic::{Atom, Pred};
use gcln_numeric::{Monomial, Poly, Rat};
use gcln_problems::Problem;

/// Infers octahedral bounds for one loop from traces.
pub fn octahedral_bounds(problem: &Problem, loop_id: usize) -> Vec<Atom> {
    let points = collect_loop_states(problem, loop_id, 120, 2);
    if points.is_empty() {
        return Vec::new();
    }
    let arity = problem.extended_names().len();
    let nvars = problem.program.num_vars();
    let mut out = Vec::new();
    let mut directions: Vec<Vec<(usize, i128)>> = Vec::new();
    for i in 0..nvars {
        directions.push(vec![(i, 1)]);
        directions.push(vec![(i, -1)]);
        for j in (i + 1)..nvars {
            for (si, sj) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
                directions.push(vec![(i, si), (j, sj)]);
            }
        }
    }
    for dir in directions {
        let value = |p: &Vec<f64>| dir.iter().map(|&(v, s)| s as f64 * p[v]).sum::<f64>();
        let min = points.iter().map(value).fold(f64::INFINITY, f64::min);
        if !min.is_finite() || min.abs() > 1e15 {
            continue;
        }
        // dir·x >= min  ⇔  dir·x − min >= 0
        let mut poly = Poly::constant(Rat::integer(-(min as i128)), arity);
        for &(v, s) in &dir {
            poly.add_term(Rat::integer(s), Monomial::var(v, arity));
        }
        out.push(Atom::new(poly, Pred::Ge));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_problems::nla::nla_problem;

    #[test]
    fn bounds_are_valid_and_octahedral() {
        let problem = nla_problem("ps2").unwrap();
        let atoms = octahedral_bounds(&problem, 0);
        assert!(!atoms.is_empty());
        let points = gcln_engine::data::collect_loop_states(&problem, 0, 60, 1);
        for a in &atoms {
            assert!(a.poly.degree() <= 1, "octahedral bounds are linear");
            assert!(
                gcln_engine::extract::atom_fits(&a.poly, Pred::Ge, &points, 1e-9),
                "bound violated on data"
            );
        }
    }
}
