//! Run the pipeline on a few problems of the 124-problem linear suite
//! (the paper's §6.4 Code2Inv experiment, regenerated — see the
//! `gcln_problems::linear` module docs), with the same reduced profile
//! as `gcln suite linear --fast`.
//!
//! Run with `cargo run --release --example linear_suite`.

use gcln_engine::{Engine, Job, PipelineConfig};
use gcln_problems::linear::linear_suite;

fn main() {
    for problem in linear_suite().into_iter().take(8) {
        let outcome =
            Engine::new().run(&Job::new(problem.clone()).with_config(PipelineConfig::fast()));
        let names = problem.extended_names();
        println!(
            "{:<14} valid={} {}",
            problem.name,
            outcome.valid,
            outcome.formula_for(0).map(|f| f.display(&names).to_string()).unwrap_or_default()
        );
    }
}
