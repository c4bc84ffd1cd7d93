//! # gcln-bench — experiment harnesses for every table and figure
//!
//! One `gcln` binary fronts every experiment (see [`cli`]):
//! `gcln suite nla` (Table 2, the NLA results), `gcln suite linear` (the
//! §6.4 linear suite), `gcln table3` (ablation), `gcln table4`
//! (stability), `gcln fig <n>` (figure data series; Table 1 is part of
//! `fig 4`), `gcln run <file.loop>` (arbitrary programs through the
//! staged engine), and `gcln inspect` (single-problem diagnostics).
//! `--fast` on `run` and `suite` selects the one reduced profile,
//! [`gcln_engine::PipelineConfig::fast`].
//! Criterion benches live in `benches/`; per-stage timings come from the
//! stage events of `gcln run <problem> --json`.
//!
//! The [`driver`] module owns the shared suite machinery (scheduler
//! fan-out, completion-order progress, tallying, JSON records); this
//! root holds the shared "solved" criterion: a problem counts as solved
//! when the pipeline's invariant (a) passes the checker and (b) implies
//! the documented ground truth — equalities symbolically via Gröbner
//! ideal membership, inequalities bounded over the widened state
//! sample.

pub mod cli;
pub mod driver;
pub mod figs;
pub mod mixed;
pub mod tables;

use gcln_checker::{equalities_imply, equality_polys, implies_bounded};
use gcln_engine::InferenceOutcome;
use gcln_logic::Formula;
use gcln_numeric::groebner::GroebnerLimits;
use gcln_problems::Problem;

/// Why a problem failed the solved criterion (for diagnostics).
#[derive(Clone, Debug, PartialEq)]
pub enum SolveFailure {
    /// The checker rejected the final candidates.
    InvalidInvariant,
    /// A ground-truth equality is not implied by the learned equalities.
    MissingEquality(String),
    /// A ground-truth inequality fails on a state satisfying the learned
    /// invariant.
    MissingInequality(String),
}

/// Applies the Table 2 "solved" criterion.
pub fn solve_status(problem: &Problem, outcome: &InferenceOutcome) -> Result<(), SolveFailure> {
    if !outcome.valid {
        return Err(SolveFailure::InvalidInvariant);
    }
    let names = problem.extended_names();
    for (loop_id, gt) in problem.parsed_ground_truth() {
        let Some(learned) = outcome.formula_for(loop_id) else {
            return Err(SolveFailure::MissingEquality(format!("loop {loop_id} unlearned")));
        };
        // Equalities: symbolic implication.
        let targets = equality_polys(&gt);
        match equalities_imply(learned, &targets, GroebnerLimits::default()) {
            Some(true) => {}
            _ => {
                return Err(SolveFailure::MissingEquality(format!(
                    "loop {loop_id}: {}",
                    gt.display(&names)
                )))
            }
        }
        // Remaining (non-equality) conjuncts: bounded implication over
        // states around the learned invariant's zero set.
        let states = implication_states(problem, loop_id);
        for conjunct in gt.conjuncts() {
            if let Formula::Atom(a) = conjunct {
                if a.pred == gcln_logic::Pred::Eq {
                    continue;
                }
            } else {
                continue;
            }
            if let Some(witness) = implies_bounded(learned, conjunct, &states) {
                return Err(SolveFailure::MissingInequality(format!(
                    "loop {loop_id}: {} fails at {witness:?}",
                    conjunct.display(&names)
                )));
            }
        }
    }
    Ok(())
}

/// States (extended space) for bounded implication testing: widened-range
/// trace states plus ±-perturbations of them.
fn implication_states(problem: &Problem, loop_id: usize) -> Vec<Vec<i128>> {
    use gcln_lang::interp::{run_program, Outcome, RunConfig};
    let mut widened = problem.clone();
    for (lo, hi) in &mut widened.input_ranges {
        let span = (*hi - *lo).max(1);
        *hi += span;
    }
    let mut states = Vec::new();
    for (i, inputs) in gcln_problems::sample_inputs(&widened, 80).into_iter().enumerate() {
        let run = run_program(
            &widened.program,
            &inputs,
            &RunConfig { max_steps: 200_000, seed: i as u64 },
        );
        if run.outcome != Outcome::Completed {
            continue;
        }
        for snap in run.trace.iter().filter(|s| s.loop_id == loop_id) {
            states.push(problem.extend_state(&snap.state));
        }
        if states.len() > 4000 {
            break;
        }
    }
    states
}

/// Formats a duration in seconds with one decimal.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}
