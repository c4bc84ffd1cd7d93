//! Quickstart: infer a nonlinear loop invariant end to end with
//! `gcln-engine` — configuration auto-derived from the source, progress
//! streamed as JSON-line events.
//!
//! Run with `cargo run --release --example quickstart`.
//! (The same program ships as `examples/squares.loop` for the CLI:
//! `gcln run examples/squares.loop --json`.)

use gcln_engine::{Engine, Job, ProblemSpec};

fn main() {
    // Any loop program in the C-like surface syntax works; this one sums
    // odd numbers, so the invariant is x = i² ∧ i ≤ n. Degree, input
    // ranges, and extended terms are derived from the source — no
    // hand-tuned configuration.
    let spec = ProblemSpec::from_source_str(
        "squares",
        "program squares; inputs n; pre n >= 0; post x == n * n;
         x = 0; i = 0;
         while (i < n) { i = i + 1; x = x + 2 * i - 1; }",
    )
    .expect("program parses");
    for note in &spec.derived {
        println!("auto: {note}");
    }
    let job = Job::new(spec);
    let outcome = Engine::new().run_with_events(&job, &mut |event| {
        println!("{}", event.to_json());
    });
    let names = job.spec.problem.extended_names();
    println!("valid:     {}", outcome.valid);
    println!("runtime:   {:.1}s", outcome.runtime.as_secs_f64());
    println!(
        "invariant: {}",
        outcome.formula_for(0).expect("loop 0 learned").display(&names)
    );
}
