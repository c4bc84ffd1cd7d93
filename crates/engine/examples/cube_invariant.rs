//! The paper's Fig. 1a cube loop: a conjunction of three equalities of
//! different magnitudes (cubic, quadratic, linear) that a data-driven
//! model must learn simultaneously.
//!
//! Run with `cargo run --release --example cube_invariant`.

use gcln_checker::{equalities_imply, equality_polys};
use gcln_engine::{Engine, Job};
use gcln_logic::parse_formula;
use gcln_numeric::groebner::GroebnerLimits;
use gcln_problems::nla::nla_problem;

fn main() {
    let problem = nla_problem("cohencu").expect("cohencu in NLA suite");
    let outcome = Engine::new().run(&Job::new(problem.clone()));
    let names = problem.extended_names();
    let formula = outcome.formula_for(0).expect("loop 0 learned");
    println!("learned:\n  {}", formula.display(&names));
    let gt = parse_formula("x == n^3 && y == 3*n^2 + 3*n + 1 && z == 6*n + 6", &names)
        .expect("ground truth parses");
    let implied = equalities_imply(formula, &equality_polys(&gt), GroebnerLimits::default());
    println!("implies the paper's invariant: {:?}", implied);
}
