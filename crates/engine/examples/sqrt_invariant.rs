//! The paper's Fig. 1b walkthrough: the integer square-root loop needs the
//! *tight* bound a² ≤ n — looser bounds cannot verify the postcondition.
//!
//! Run with `cargo run --release --example sqrt_invariant`.

use gcln_engine::{Engine, Job};
use gcln_problems::nla::nla_problem;

fn main() {
    let problem = nla_problem("sqrt1").expect("sqrt1 in NLA suite");
    println!("program:\n{}\n", problem.source);
    let outcome = Engine::new().run(&Job::new(problem.clone()));
    let names = problem.extended_names();
    let formula = outcome.formula_for(0).expect("loop 0 learned");
    println!("checker accepted: {}", outcome.valid);
    println!("learned invariant:\n  {}", formula.display(&names));
    // The paper's §3 expected result.
    println!("\npaper's invariant: a^2 <= n  &&  t == 2a + 1  &&  s == (a + 1)^2");
}
