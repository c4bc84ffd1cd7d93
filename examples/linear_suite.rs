//! Run the pipeline on a few problems of the 124-problem linear suite
//! (the paper's §6.4 Code2Inv experiment, regenerated — see the
//! `gcln_problems::linear` module docs).
//!
//! Run with `cargo run --release --example linear_suite`.

use gcln_repro::gcln::pipeline::{infer_invariants, PipelineConfig};
use gcln_repro::gcln_problems::linear::linear_suite;

fn main() {
    let config = PipelineConfig {
        gcln: gcln_repro::gcln::GclnConfig {
            max_epochs: 1000,
            ..gcln_repro::gcln::GclnConfig::default()
        },
        max_attempts: 2,
        ..PipelineConfig::default()
    };
    for problem in linear_suite().into_iter().take(8) {
        let outcome = infer_invariants(&problem, &config);
        let names = problem.extended_names();
        println!(
            "{:<14} valid={} {}",
            problem.name,
            outcome.valid,
            outcome.formula_for(0).map(|f| f.display(&names).to_string()).unwrap_or_default()
        );
    }
}
