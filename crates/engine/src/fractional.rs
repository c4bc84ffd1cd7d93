//! Fractional sampling (paper §4.3, Fig. 8).
//!
//! When integer traces are too sparse for stable equality learning (high
//! polynomial degree makes dominant terms crush the small ones), the loop
//! semantics are relaxed to the reals: the loop's local variables get
//! *fractional initial values* around their true initialization, the body
//! is iterated with the `f64` interpreter, and the relaxed invariant is
//! learned over the doubled variable space `V ∪ V₀` (current values plus
//! initial-value columns). Pinning `V₀` back to the true initial values
//! recovers an invariant of the original program — Eq. (5)–(7) of the
//! paper.

use gcln_lang::interp::{loop_guard_holds, run_program, step_loop, Outcome, RunConfig};
use gcln_problems::Problem;

/// The first grid interval for initial-value offsets; the paper starts
/// at 0.5 and refines to 0.25.
pub const INTERVAL: f64 = 0.5;
/// Offsets applied per variable: `-RADIUS ..= RADIUS` in steps of the
/// interval.
const RADIUS: f64 = 1.0;
/// Loop iterations sampled per fractional start.
const STEPS: usize = 6;
/// Cap on relaxed variables (grid size is exponential in them).
const MAX_RELAXED_VARS: usize = 4;

/// Fractional samples for one loop: rows over `[V..., V0...]`.
#[derive(Clone, Debug)]
pub struct FractionalData {
    /// Variable names: relaxed variables then their `<name>0` copies.
    pub names: Vec<String>,
    /// Program-variable indices of the relaxed variables.
    pub var_indices: Vec<usize>,
    /// The true initial values (for pinning `V0` after learning).
    pub init_values: Vec<f64>,
    /// Sample rows, length `2 * var_indices.len()`.
    pub points: Vec<Vec<f64>>,
}

/// Generates fractional samples for `loop_id` on an offset grid of the
/// given `interval`, or `None` when the loop is unsuitable (its local
/// variables are not initialized to run-independent constants, or there
/// are too many of them).
pub fn fractional_points(
    problem: &Problem,
    loop_id: usize,
    interval: f64,
) -> Option<FractionalData> {
    let program = &problem.program;
    let num_inputs = program.inputs.len();

    // 1. The loop's first-visit state must be constant across runs for
    // every non-input variable (paper: relax the initialized variables).
    let mut first_states: Vec<Vec<i128>> = Vec::new();
    for inputs in gcln_problems::sample_inputs(problem, 12) {
        let run = run_program(program, &inputs, &RunConfig::default());
        if run.outcome != Outcome::Completed {
            continue;
        }
        if let Some(snap) = run.trace.iter().find(|s| s.loop_id == loop_id) {
            first_states.push(snap.state.clone());
        }
    }
    if first_states.len() < 2 {
        return None;
    }
    let var_indices: Vec<usize> = (num_inputs..program.num_vars()).collect();
    if var_indices.is_empty() || var_indices.len() > MAX_RELAXED_VARS {
        return None;
    }
    for s in &first_states[1..] {
        for &v in &var_indices {
            if s[v] != first_states[0][v] {
                return None;
            }
        }
    }
    let init_values: Vec<f64> = var_indices.iter().map(|&v| first_states[0][v] as f64).collect();

    // 2. A base environment whose inputs keep the guard alive long enough:
    // use each input's upper sampling bound.
    let mut base_env: Vec<f64> = vec![0.0; program.num_vars()];
    for (i, &(_, hi)) in problem.input_ranges.iter().enumerate() {
        base_env[i] = hi as f64;
    }

    // 3. Fractional starts on the offset grid, iterated with the real
    // interpreter.
    let mut offsets = vec![0.0f64];
    let mut o = interval;
    while o <= RADIUS + 1e-9 {
        offsets.push(o);
        offsets.push(-o);
        o += interval;
    }
    let mut starts: Vec<Vec<f64>> = vec![Vec::new()];
    for _ in &var_indices {
        let mut next = Vec::new();
        for prefix in &starts {
            for &off in &offsets {
                let mut p = prefix.clone();
                p.push(off);
                next.push(p);
            }
        }
        starts = next;
        if starts.len() > 4096 {
            return None;
        }
    }

    let mut points = Vec::new();
    for start in &starts {
        let mut env = base_env.clone();
        for ((&v, init), off) in var_indices.iter().zip(&init_values).zip(start) {
            env[v] = init + off;
        }
        let v0: Vec<f64> = var_indices.iter().map(|&v| env[v]).collect();
        for _ in 0..STEPS {
            let mut row: Vec<f64> = var_indices.iter().map(|&v| env[v]).collect();
            row.extend(&v0);
            points.push(row);
            if loop_guard_holds(program, loop_id, &env, 0) != Some(true) {
                break;
            }
            match step_loop(program, loop_id, &env, &RunConfig::default()) {
                Ok(next) => env = next,
                Err(_) => break,
            }
        }
    }
    if points.len() < 8 {
        return None;
    }

    let mut names: Vec<String> = var_indices.iter().map(|&v| program.vars[v].clone()).collect();
    names.extend(var_indices.iter().map(|&v| format!("{}0", program.vars[v])));
    Some(FractionalData { names, var_indices, init_values, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_problems::nla::nla_problem;

    #[test]
    fn ps4_fractional_samples_match_figure_8() {
        // Fig. 8: relaxed ps4 samples satisfy the *relaxed* invariant
        // 4x − y⁴ − 2y³ − y² − 4x₀ + y₀⁴ + 2y₀³ + y₀² = 0.
        let problem = nla_problem("ps4").unwrap();
        let data = fractional_points(&problem, 0, INTERVAL).unwrap();
        assert_eq!(data.names, vec!["x", "y", "x0", "y0"]);
        assert!(data.points.len() > 50);
        let mut fractional_seen = false;
        for p in &data.points {
            let (x, y, x0, y0) = (p[0], p[1], p[2], p[3]);
            let lhs = 4.0 * x - y.powi(4) - 2.0 * y.powi(3) - y * y;
            let rhs = 4.0 * x0 - y0.powi(4) - 2.0 * y0.powi(3) - y0 * y0;
            assert!((lhs - rhs).abs() < 1e-6, "relaxed invariant violated at {p:?}");
            if y.fract() != 0.0 {
                fractional_seen = true;
            }
        }
        assert!(fractional_seen, "no fractional samples generated");
    }

    #[test]
    fn pinning_values_are_the_true_initials() {
        let problem = nla_problem("ps4").unwrap();
        let data = fractional_points(&problem, 0, INTERVAL).unwrap();
        assert_eq!(data.init_values, vec![0.0, 0.0]); // x = 0, y = 0
    }

    #[test]
    fn input_dependent_initialization_is_rejected() {
        // divbin's r starts at A (input-dependent): no constant pin
        // exists, so fractional sampling must decline.
        let problem = nla_problem("divbin").unwrap();
        assert!(fractional_points(&problem, 0, INTERVAL).is_none());
    }

    #[test]
    fn finer_interval_generates_more_points() {
        let problem = nla_problem("ps5").unwrap();
        let coarse = fractional_points(&problem, 0, 0.5).unwrap();
        let fine = fractional_points(&problem, 0, 0.25).unwrap();
        assert!(fine.points.len() > coarse.points.len());
    }
}
