//! A 124-problem linear-invariant suite shaped like the Code2Inv benchmark
//! (paper §6.4).
//!
//! The original Code2Inv distribution (133 C + SMT files, of which the
//! paper solves the 124 theoretically solvable ones) is not redistributable
//! here, so the suite is regenerated from the benchmark's recurring
//! template families — guarded counters, lockstep linear relations,
//! nondeterministic branch sums, converging pairs, nested counters — with
//! varied constants, matching its scale and shape.
//!
//! Every problem carries a ground-truth linear invariant that is
//! sufficient to prove its postcondition.

use crate::{Problem, ProblemBuilder, Suite};

fn b(name: &str, source: &str) -> ProblemBuilder {
    ProblemBuilder::new(name, Suite::Linear, source)
}

/// Builds the 124-problem linear suite.
pub fn linear_suite() -> Vec<Problem> {
    let mut problems = Vec::new();

    // Family 1: count up to an input bound (12 instances).
    // Invariant: c0 <= x <= n.
    for (i, start) in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11].iter().enumerate() {
        let name = format!("lin-up-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= {start}; post x == n;
             x = {start};
             while (x < n) {{ x = x + 1; }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(*start, *start + 20)])
                .truth(0, &format!("x <= n && x >= {start}"))
                .build(),
        );
    }

    // Family 2: count down to a constant floor (12 instances).
    // Invariant: floor <= x <= n.
    for (i, floor) in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11].iter().enumerate() {
        let name = format!("lin-down-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= {floor}; post x == {floor};
             x = n;
             while (x > {floor}) {{ x = x - 1; }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(*floor, *floor + 20)])
                .truth(0, &format!("x >= {floor} && x <= n"))
                .build(),
        );
    }

    // Family 3: lockstep linear relation y = k·x + b (12 instances).
    for (i, (k, c)) in [
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 3),
        (3, 0),
        (3, 1),
        (4, 2),
        (5, 0),
        (5, 5),
        (6, 1),
        (7, 0),
        (7, 4),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("lin-rel-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= 0; post y == {k} * n + {c};
             x = 0; y = {c};
             while (x < n) {{ x = x + 1; y = y + {k}; }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, 18)])
                .truth(0, &format!("y == {k} * x + {c} && x <= n && x >= 0"))
                .build(),
        );
    }

    // Family 4: accumulate a constant step (12 instances).
    for (i, step) in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12].iter().enumerate() {
        let name = format!("lin-acc-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= 0; post s == {step} * n;
             s = 0; i = 0;
             while (i < n) {{ i = i + 1; s = s + {step}; }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, 18)])
                .truth(0, &format!("s == {step} * i && i <= n && i >= 0"))
                .build(),
        );
    }

    // Family 5: offset tracking x = x0 + d·y (12 instances).
    for (i, (x0, d)) in [
        (0, 1),
        (1, 1),
        (5, 2),
        (0, 3),
        (2, 3),
        (7, 1),
        (0, 4),
        (3, 4),
        (1, 5),
        (0, 6),
        (4, 2),
        (9, 3),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("lin-off-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= 0; post x == {x0} + {d} * n;
             x = {x0}; y = 0;
             while (y < n) {{ x = x + {d}; y = y + 1; }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, 18)])
                .truth(0, &format!("x == {x0} + {d} * y && y <= n && y >= 0"))
                .build(),
        );
    }

    // Family 6: nondeterministic branch sum a + b = i (12 instances with
    // varying extra increments on the taken branch).
    for (i, extra) in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12].iter().enumerate() {
        let name = format!("lin-branch-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= 0; post a + b == {extra} * n;
             i = 0; a = 0; b = 0;
             while (i < n) {{
               if (nondet()) {{ a = a + {extra}; }} else {{ b = b + {extra}; }}
               i = i + 1;
             }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, 18)])
                .truth(0, &format!("a + b == {extra} * i && i <= n && a >= 0 && b >= 0"))
                .build(),
        );
    }

    // Family 7: converging pair x ↑, y ↓ with x + y conserved
    // (12 instances over different conserved weights).
    for (i, (up, down)) in [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (1, 3),
        (3, 1),
        (2, 3),
        (3, 2),
        (1, 4),
        (4, 1),
        (3, 3),
        (2, 4),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("lin-pair-{:02}", i + 1);
        let pname = name.replace('-', "_");
        // Invariant: down·x + up·y == up·m (weighted conservation).
        let source = format!(
            "program {pname}; inputs m; pre m >= 0; post {down} * x + {up} * y == {up} * m && x + 1 >= y;
             x = 0; y = m;
             while (x < y) {{ x = x + {up}; y = y - {down}; }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, 24)])
                .truth(0, &format!("{down} * x + {up} * y == {up} * m && y <= m"))
                .build(),
        );
    }

    // Family 8: two-phase counter with break-style upper clamp
    // (12 instances): i counts to n but never past the cap.
    for (i, cap) in [10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32].iter().enumerate() {
        let name = format!("lin-clamp-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs n; pre n >= 0 && n <= {cap}; post i == n;
             i = 0;
             while (i < n) {{ i = i + 1; if (i >= {cap}) {{ break; }} }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, *cap)])
                .truth(0, &format!("i <= n && i >= 0 && i <= {cap}"))
                .build(),
        );
    }

    // Family 9: nested counters t = c·i + j (13 instances).
    for (i, c) in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13].iter().enumerate() {
        let name = format!("lin-nest-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname}; inputs m; pre m >= 0; post t == {c} * m;
             i = 0; t = 0;
             while (i < m) {{
               j = 0;
               while (j < {c}) {{ j = j + 1; t = t + 1; }}
               i = i + 1;
             }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[(0, 12)])
                .truth(0, &format!("t == {c} * i && i <= m && i >= 0"))
                .truth(1, &format!("t == {c} * i + j && j <= {c} && j >= 0 && i < m"))
                .build(),
        );
    }

    // Family 10: monotone gap (x stays ahead of y) — the shape of
    // Code2Inv problem 1 (13 instances over the loop bound).
    for (i, bound) in [20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80].iter().enumerate() {
        let name = format!("lin-gap-{:02}", i + 1);
        let pname = name.replace('-', "_");
        let source = format!(
            "program {pname};
             post x >= y;
             x = 1; y = 0;
             while (y < {bound}) {{
               if (nondet()) {{ break; }}
               x = x + y; y = y + 1;
             }}"
        );
        problems.push(
            b(&name, &source)
                .max_degree(1)
                .ranges(&[])
                .truth(0, "x >= y && y >= 0 && x >= 1")
                .build(),
        );
    }

    // Named specials used by the stability study (paper Table 4).
    problems.push(conj_eq());
    problems.push(disj_eq());

    assert_eq!(problems.len(), 124, "linear suite must have 124 problems");
    problems
}

/// `conj-eq`: a loop whose invariant is a conjunction of two equalities
/// (the CLN2INV-style stability example from Table 4).
pub fn conj_eq() -> Problem {
    b(
        "conj-eq",
        "program conj_eq; inputs n; pre n >= 0; post y == 2 * n && x == n;
         t = 0; x = 0; y = 0;
         while (t < n) { t = t + 1; x = x + 1; y = y + 2; }",
    )
    .max_degree(1)
    .ranges(&[(0, 20)])
    .truth(0, "x == t && y == 2 * t && t <= n")
    .build()
}

/// `disj-eq`: a loop whose invariant is a disjunction of two equalities,
/// `(x == y) ∨ (x == -y)` (the CLN2INV-style stability example from
/// Table 4). Equivalently `x² == y²`, which is how a degree-2 model can
/// also express it.
pub fn disj_eq() -> Problem {
    b(
        "disj-eq",
        "program disj_eq; inputs n, s; pre n >= 0 && s >= 0 && s <= 1;
         post x * x == y * y;
         x = 0; y = 0;
         while (y < n) {
           y = y + 1;
           if (s == 1) { x = x + 1; } else { x = x - 1; }
         }",
    )
    .max_degree(2)
    .ranges(&[(0, 15), (0, 1)])
    .truth(0, "x == y || x == -y")
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_lang::interp::{eval_bool_in, run_program, Outcome, RunConfig};

    #[test]
    fn suite_has_124_problems_with_unique_names() {
        let suite = linear_suite();
        assert_eq!(suite.len(), 124);
        let mut names: Vec<&str> = suite.iter().map(|p| p.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 124, "duplicate problem names");
    }

    #[test]
    fn ground_truths_hold_on_traces() {
        for problem in linear_suite() {
            let truths = problem.parsed_ground_truth();
            let mut checked = 0usize;
            for (seed, inputs) in crate::sample_inputs(&problem, 25).into_iter().enumerate() {
                let run = run_program(
                    &problem.program,
                    &inputs,
                    &RunConfig { max_steps: 100_000, seed: seed as u64 },
                );
                if run.outcome != Outcome::Completed {
                    continue;
                }
                for snap in &run.trace {
                    for (loop_id, formula) in &truths {
                        if snap.loop_id == *loop_id {
                            let ext = problem.extend_state(&snap.state);
                            assert!(
                                formula.eval_i128(&ext),
                                "`{}` loop {} violates ground truth at {:?}",
                                problem.name,
                                loop_id,
                                snap.state
                            );
                            checked += 1;
                        }
                    }
                }
            }
            assert!(checked > 0, "`{}` never checked its ground truth", problem.name);
        }
    }

    #[test]
    fn postconditions_hold_on_completed_runs() {
        for problem in linear_suite() {
            let mut completed = 0;
            for (seed, inputs) in crate::sample_inputs(&problem, 20).into_iter().enumerate() {
                let run = run_program(
                    &problem.program,
                    &inputs,
                    &RunConfig { max_steps: 100_000, seed: seed as u64 },
                );
                if run.outcome != Outcome::Completed {
                    continue;
                }
                completed += 1;
                assert_eq!(
                    eval_bool_in(&problem.program.post, &run.env, 0),
                    Some(true),
                    "`{}` post fails on {:?}",
                    problem.name,
                    inputs
                );
            }
            assert!(completed > 0, "`{}` never completed", problem.name);
        }
    }

    #[test]
    fn stability_examples_present() {
        let suite = linear_suite();
        assert!(suite.iter().any(|p| p.name == "conj-eq"));
        assert!(suite.iter().any(|p| p.name == "disj-eq"));
    }
}
