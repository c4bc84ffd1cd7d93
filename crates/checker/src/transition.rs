//! Extraction of polynomial transition relations from loop bodies.
//!
//! When a loop body is straight-line polynomial code (assignments built
//! from `+`, `-`, `*`, constants, possibly under `if`/`else`), one body
//! execution is a polynomial map `V ↦ T(V)` per control-flow path. The
//! symbolic consecution check composes candidate invariants with these
//! maps and decides inductiveness by ideal membership (see
//! [`crate::check()`](crate::check())).
//!
//! Bodies containing division, remainder, calls, `nondet`, inner loops, or
//! `break` are not polynomial; extraction returns `None` and the checker
//! falls back to bounded checking.

use gcln_lang::{Expr, Program, Stmt};
use gcln_numeric::{Poly, Rat};

/// All polynomial control-flow paths through the body of loop `loop_id`.
///
/// Each path is a substitution: `result[p][v]` is the polynomial giving
/// variable `v`'s next value on path `p`, over the program's variables.
/// Branch conditions are *ignored* (the check that uses these maps proves
/// a stronger, guard-free statement, which is sound).
///
/// Returns `None` if the loop does not exist or its body is not
/// straight-line polynomial code. The number of paths is capped at 64 to
/// bound the blowup from nested branching.
///
/// # Examples
///
/// ```
/// use gcln_lang::parse_program;
/// use gcln_checker::transition::transition_paths;
/// let p = parse_program("n = 0; x = 0; while (n < 9) { n += 1; x += 2 * n; }").unwrap();
/// let paths = transition_paths(&p, 0).unwrap();
/// assert_eq!(paths.len(), 1);       // no branches: one path
/// assert_eq!(paths[0].len(), 2);    // (n, x)
/// ```
pub fn transition_paths(program: &Program, loop_id: usize) -> Option<Vec<Vec<Poly>>> {
    let Some(Stmt::While { body, .. }) = program.find_loop(loop_id) else {
        return None;
    };
    let arity = program.num_vars();
    let identity: Vec<Poly> = (0..arity).map(|i| Poly::var(i, arity)).collect();
    let mut paths = vec![identity];
    extend_paths(&mut paths, body, arity)?;
    Some(paths)
}

fn extend_paths(paths: &mut Vec<Vec<Poly>>, stmts: &[Stmt], arity: usize) -> Option<()> {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { var, value, .. } => {
                let var = var.expect("resolved program");
                for path in paths.iter_mut() {
                    let rhs = poly_of_expr(value, path, arity)?;
                    path[var] = rhs;
                }
            }
            Stmt::If { then_body, else_body, .. } => {
                let mut then_paths = paths.clone();
                extend_paths(&mut then_paths, then_body, arity)?;
                let mut else_paths = std::mem::take(paths);
                extend_paths(&mut else_paths, else_body, arity)?;
                then_paths.extend(else_paths);
                if then_paths.len() > 64 {
                    return None;
                }
                *paths = then_paths;
            }
            // Inner loops, breaks, and assumes leave the polynomial
            // fragment.
            Stmt::While { .. } | Stmt::Break | Stmt::Assume(_) => return None,
        }
    }
    Some(())
}

/// Evaluates an expression to a polynomial over the *pre-state* variables,
/// given the current symbolic environment `env`.
fn poly_of_expr(e: &Expr, env: &[Poly], arity: usize) -> Option<Poly> {
    match e {
        Expr::Int(n) => Some(Poly::constant(Rat::integer(*n), arity)),
        Expr::Var(id) => Some(env[*id].clone()),
        Expr::Name(_) => None,
        Expr::Neg(a) => Some(-&poly_of_expr(a, env, arity)?),
        Expr::Bin(op, a, b) => {
            let l = poly_of_expr(a, env, arity)?;
            let r = poly_of_expr(b, env, arity)?;
            match op {
                gcln_lang::BinOp::Add => Some(&l + &r),
                gcln_lang::BinOp::Sub => Some(&l - &r),
                gcln_lang::BinOp::Mul => Some(&l * &r),
                // Division/remainder are not polynomial in general; a
                // constant exact division would be, but benchmark loops
                // use `d / 2` on data-dependent values, so bail out.
                gcln_lang::BinOp::Div | gcln_lang::BinOp::Rem => None,
            }
        }
        Expr::Call(..) | Expr::NondetInt(..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_lang::parse_program;
    use gcln_numeric::Rat;

    #[test]
    fn straight_line_body() {
        let p = parse_program(
            "inputs a; n = 0; x = 0; y = 1; z = 6;
             while (n != a) { n = n + 1; x = x + y; y = y + z; z = z + 6; }",
        )
        .unwrap();
        let paths = transition_paths(&p, 0).unwrap();
        assert_eq!(paths.len(), 1);
        let t = &paths[0];
        // Variables: a, n, x, y, z (inputs first).
        let names = &p.vars;
        assert_eq!(names[1], "n");
        // n' = n + 1
        let n_next = &t[1];
        assert_eq!(
            n_next.eval(&[Rat::ZERO, Rat::from(4), Rat::ZERO, Rat::ZERO, Rat::ZERO]),
            Rat::from(5)
        );
        // x' = x + y (uses PRE-state y even though y is updated later).
        let x_next = &t[2];
        assert_eq!(
            x_next.eval(&[Rat::ZERO, Rat::ZERO, Rat::from(10), Rat::from(7), Rat::from(100)]),
            Rat::from(17)
        );
    }

    #[test]
    fn sequential_updates_compose() {
        // y is updated before x reads it: x' must use the NEW y.
        let p = parse_program("x = 0; y = 0; while (x < 5) { y = y + 1; x = x + y; }").unwrap();
        let t = &transition_paths(&p, 0).unwrap()[0];
        // From (x, y) = (0, 0): y' = 1, x' = 0 + y' = 1.
        assert_eq!(t[1].eval(&[Rat::ZERO, Rat::ZERO]), Rat::ONE);
        assert_eq!(t[0].eval(&[Rat::ZERO, Rat::ZERO]), Rat::ONE);
    }

    #[test]
    fn branches_fork_paths() {
        let p = parse_program(
            "x = 0; y = 0;
             while (x < 5) { if (y > 2) { x = x + 1; } else { x = x + 2; } y = y + 1; }",
        )
        .unwrap();
        let paths = transition_paths(&p, 0).unwrap();
        assert_eq!(paths.len(), 2);
        // Both paths bump y by 1, x by 1 or by 2.
        let bumps: Vec<Rat> = paths.iter().map(|t| t[0].eval(&[Rat::ZERO, Rat::ZERO])).collect();
        assert!(bumps.contains(&Rat::ONE) && bumps.contains(&Rat::from(2)));
    }

    #[test]
    fn division_disqualifies() {
        let p = parse_program("x = 8; while (x > 1) { x = x / 2; }").unwrap();
        assert!(transition_paths(&p, 0).is_none());
    }

    #[test]
    fn inner_loop_disqualifies() {
        let p = parse_program(
            "x = 0; while (x < 5) { y = 0; while (y < 3) { y = y + 1; } x = x + 1; }",
        )
        .unwrap();
        assert!(transition_paths(&p, 0).is_none());
        // But the inner loop itself is polynomial.
        assert!(transition_paths(&p, 1).is_some());
    }

    #[test]
    fn nondet_disqualifies() {
        let p = parse_program("x = 0; while (x < 5) { x = x + nondet(1, 2); }").unwrap();
        assert!(transition_paths(&p, 0).is_none());
    }

    #[test]
    fn missing_loop_is_none() {
        let p = parse_program("x = 1;").unwrap();
        assert!(transition_paths(&p, 0).is_none());
    }
}
