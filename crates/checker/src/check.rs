//! Invariant checking: the reproduction's Z3 substitute.
//!
//! A candidate loop invariant is validated on three fronts, mirroring the
//! Hoare conditions of §2.1:
//!
//! 1. **Initiation / reachability** — every loop-head state observed while
//!    executing the program over the sampled input space must satisfy the
//!    candidate (this covers `P ⇒ I` along real executions).
//! 2. **Consecution** — `{I ∧ LC} C {I}`:
//!    - *symbolically* for polynomial-equality conjuncts when the body is
//!      a polynomial map: `p ∘ T` must lie in the ideal generated by the
//!      equality conjuncts (Gröbner basis / ideal membership). Guards are
//!      ignored, which proves a stronger statement and is therefore sound;
//!    - *bounded* otherwise: trace states and their mutations that satisfy
//!      `I ∧ LC` are stepped one iteration and re-checked.
//! 3. **Postcondition** — for programs ending in a loop, sampled states
//!    satisfying `I ∧ ¬LC` must satisfy `Q`.
//!
//! Violations come back as [`Counterexample`]s; reachable ones are what
//! the CEGIS loop (paper Fig. 3) feeds back into training.

use crate::transition::transition_paths;
use gcln_lang::interp::{
    eval_bool_in, loop_guard_holds, run_program, step_loop, Outcome, RunConfig,
};
use gcln_lang::{BoolExpr, Expr, Program, Stmt};
use gcln_logic::{CompiledFormula, Formula, Pred};
use gcln_numeric::groebner::{groebner_basis, normal_form_in, GroebnerLimits, ReduceScratch};
use gcln_numeric::poly::{Monomial, Poly};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A candidate invariant for one loop, over the *extended* variable space
/// (program variables followed by external-function terms).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Dense loop id.
    pub loop_id: usize,
    /// The invariant formula.
    pub formula: Formula,
}

/// Which Hoare condition a counterexample violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CexKind {
    /// A reachable loop-head state falsifies the candidate.
    Initiation,
    /// A state satisfying `I ∧ LC` stepped to a state falsifying `I`.
    Consecution,
    /// A state satisfying `I ∧ ¬LC` falsifies the postcondition.
    Postcondition,
}

/// A state witnessing a violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The loop the candidate belongs to.
    pub loop_id: usize,
    /// Program-variable state (not extended) at the loop head.
    pub state: Vec<i128>,
    /// Violated condition.
    pub kind: CexKind,
    /// Whether the state was observed on a real execution (reachable) as
    /// opposed to generated by mutation (possibly spurious). Only
    /// reachable counterexamples should be fed back into training data.
    pub reachable: bool,
}

/// `nondet` seeds tried per input tuple (1 suffices for deterministic
/// programs).
const NONDET_SEEDS: u64 = 2;
/// Mutations generated around each sampled trace state for the bounded
/// consecution and postcondition checks.
const MUTATIONS_PER_STATE: usize = 6;
/// Max |Δ| applied to a variable by one mutation.
const MUTATION_RADIUS: i128 = 3;
/// Cap on trace states used per loop for bounded checks.
const MAX_STATES_PER_LOOP: usize = 150;
/// RNG seed for mutations.
const MUTATION_SEED: u64 = 0xC0FFEE;

/// Result of checking a set of candidates.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Violations that falsify the candidate: reachable-state violations
    /// and postcondition-implication failures (empty ⇒ valid within
    /// budgets).
    pub counterexamples: Vec<Counterexample>,
    /// Consecution violations found only from *mutated, possibly
    /// unreachable* states. These do not falsify the candidate on their
    /// own (the benchmark's documented invariants are inductive only
    /// relative to reachability structure such as "b is B·2^k", which
    /// plain mutation sampling cannot see) but are reported for
    /// diagnostics. See the crate docs on the checker's soundness posture.
    pub warnings: Vec<Counterexample>,
    /// Equality conjuncts proven inductive symbolically.
    pub symbolically_proved: usize,
    /// Number of bounded state checks performed.
    pub bounded_checks: usize,
}

impl CheckReport {
    /// Whether no violation was found.
    pub fn is_valid(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// The reachable counterexample states for a loop (CEGIS feedback).
    pub fn reachable_cex_states(&self, loop_id: usize) -> Vec<Vec<i128>> {
        self.counterexamples
            .iter()
            .filter(|c| c.reachable && c.loop_id == loop_id)
            .map(|c| c.state.clone())
            .collect()
    }
}

/// Restricts a polynomial over the extended space to the first
/// `program_arity` variables, or `None` if it uses extended terms.
pub fn project_to_program(poly: &Poly, program_arity: usize) -> Option<Poly> {
    let mut out = Poly::zero(program_arity);
    for (m, c) in poly.iter() {
        let exps = m.exps();
        if exps[program_arity..].iter().any(|&e| e != 0) {
            return None;
        }
        out.add_term(*c, Monomial::new(exps[..program_arity].to_vec()));
    }
    Some(out)
}

/// The equality-conjunct polynomials of a formula (projected to program
/// variables); conjuncts that are disjunctions or use extended terms are
/// skipped.
fn equality_conjuncts(formula: &Formula, program_arity: usize) -> Vec<Poly> {
    formula
        .conjuncts()
        .iter()
        .filter_map(|c| match c {
            Formula::Atom(a) if a.pred == Pred::Eq => project_to_program(&a.poly, program_arity),
            _ => None,
        })
        .collect()
}

/// Whether the program uses `nondet` anywhere.
pub fn has_nondet(program: &Program) -> bool {
    fn expr(e: &Expr) -> bool {
        match e {
            Expr::NondetInt(..) => true,
            Expr::Bin(_, a, b) => expr(a) || expr(b),
            Expr::Neg(a) => expr(a),
            Expr::Call(_, args) => args.iter().any(expr),
            Expr::Int(_) | Expr::Var(_) | Expr::Name(_) => false,
        }
    }
    fn bexpr(b: &BoolExpr) -> bool {
        match b {
            BoolExpr::Nondet => true,
            BoolExpr::Cmp(_, l, r) => expr(l) || expr(r),
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => bexpr(a) || bexpr(b),
            BoolExpr::Not(a) => bexpr(a),
            BoolExpr::Const(_) => false,
        }
    }
    fn stmts(ss: &[Stmt]) -> bool {
        ss.iter().any(|s| match s {
            Stmt::Assign { value, .. } => expr(value),
            Stmt::If { cond, then_body, else_body } => {
                bexpr(cond) || stmts(then_body) || stmts(else_body)
            }
            Stmt::While { cond, body, .. } => bexpr(cond) || stmts(body),
            Stmt::Assume(c) => bexpr(c),
            Stmt::Break => false,
        })
    }
    stmts(&program.body) || bexpr(&program.pre) || bexpr(&program.post)
}

/// Keeps at most `max` elements, evenly spaced across the input order
/// (so a cap does not bias sampled data toward small inputs).
pub fn evenly_subsample<T>(items: Vec<T>, max: usize) -> Vec<T> {
    let n = items.len();
    if n <= max || max == 0 {
        return items;
    }
    let mut out = Vec::with_capacity(max);
    let mut next_pick = 0usize;
    for (i, item) in items.into_iter().enumerate() {
        if i * max >= next_pick * n {
            out.push(item);
            next_pick += 1;
        }
    }
    out
}

/// The precondition conjuncts that mention only variables the program
/// never assigns. Such conjuncts hold in *every* reachable state (the
/// variables are immutable), so sampled states may soundly be restricted
/// to them.
pub fn immutable_pre_conjuncts(program: &Program) -> Vec<BoolExpr> {
    use std::collections::HashSet;
    fn assigned(ss: &[Stmt], out: &mut HashSet<usize>) {
        for s in ss {
            match s {
                Stmt::Assign { var, .. } => {
                    out.insert(var.expect("resolved program"));
                }
                Stmt::If { then_body, else_body, .. } => {
                    assigned(then_body, out);
                    assigned(else_body, out);
                }
                Stmt::While { body, .. } => assigned(body, out),
                Stmt::Assume(_) | Stmt::Break => {}
            }
        }
    }
    fn expr_vars(e: &Expr, out: &mut HashSet<usize>) {
        match e {
            Expr::Var(id) => {
                out.insert(*id);
            }
            Expr::Bin(_, a, b) => {
                expr_vars(a, out);
                expr_vars(b, out);
            }
            Expr::Neg(a) => expr_vars(a, out),
            Expr::Call(_, args) => args.iter().for_each(|a| expr_vars(a, out)),
            Expr::NondetInt(lo, hi) => {
                expr_vars(lo, out);
                expr_vars(hi, out);
            }
            Expr::Int(_) | Expr::Name(_) => {}
        }
    }
    fn bexpr_vars(b: &BoolExpr, out: &mut HashSet<usize>) {
        match b {
            BoolExpr::Cmp(_, l, r) => {
                expr_vars(l, out);
                expr_vars(r, out);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                bexpr_vars(a, out);
                bexpr_vars(b, out);
            }
            BoolExpr::Not(a) => bexpr_vars(a, out),
            BoolExpr::Const(_) | BoolExpr::Nondet => {}
        }
    }
    fn conjuncts(b: &BoolExpr, out: &mut Vec<BoolExpr>) {
        match b {
            BoolExpr::And(a, b) => {
                conjuncts(a, out);
                conjuncts(b, out);
            }
            other => out.push(other.clone()),
        }
    }
    let mut mutated = HashSet::new();
    assigned(&program.body, &mut mutated);
    let mut parts = Vec::new();
    conjuncts(&program.pre, &mut parts);
    parts.retain(|c| {
        let mut vars = HashSet::new();
        bexpr_vars(c, &mut vars);
        vars.is_disjoint(&mutated)
    });
    parts
}

/// Per-candidate results of the consecution phase, merged into the
/// report in candidate order so the fan-out stays bit-identical at any
/// `RAYON_NUM_THREADS`.
#[derive(Default)]
struct ConsecutionOutcome {
    counterexamples: Vec<Counterexample>,
    warnings: Vec<Counterexample>,
    symbolically_proved: usize,
    bounded_checks: usize,
}

/// Checks candidates against a program over the given input tuples.
///
/// `extend` maps a program state to the extended space the formulas are
/// written over (identity when there are no external-function terms). It
/// is invoked once per distinct state: extended states are cached and
/// candidate formulas are compiled to bytecode
/// ([`CompiledFormula`]) before the evaluation loops run.
pub fn check(
    program: &Program,
    input_tuples: &[Vec<i128>],
    extend: &(dyn Fn(&[i128]) -> Vec<i128> + Sync),
    candidates: &[Candidate],
) -> CheckReport {
    let mut report = CheckReport::default();
    let seeds = if has_nondet(program) { NONDET_SEEDS } else { 1 };
    let immutable_pre = immutable_pre_conjuncts(program);
    let respects_pre =
        |state: &[i128]| immutable_pre.iter().all(|c| eval_bool_in(c, state, 0) == Some(true));

    // Phase 1: collect traces; reachable states must satisfy candidates.
    let mut loop_states: Vec<Vec<Vec<i128>>> = vec![Vec::new(); program.num_loops];
    let mut exit_envs: Vec<Vec<i128>> = Vec::new();
    for inputs in input_tuples {
        for seed in 0..seeds {
            let run = run_program(program, inputs, &RunConfig { seed, ..RunConfig::default() });
            if run.outcome != Outcome::Completed {
                continue;
            }
            for snap in &run.trace {
                loop_states[snap.loop_id].push(snap.state.clone());
            }
            exit_envs.push(run.env.clone());
        }
    }
    // Subsample evenly so the cap keeps states from across the whole
    // input range rather than only the smallest inputs.
    for states in &mut loop_states {
        *states = evenly_subsample(std::mem::take(states), MAX_STATES_PER_LOOP);
    }

    // Extend each surviving trace state once; phases 1–2 evaluate every
    // candidate against these cached extended states.
    let ext_states: Vec<Vec<Vec<i128>>> =
        loop_states.iter().map(|states| states.iter().map(|s| extend(s)).collect()).collect();

    // Compile each candidate once; `eval` falls back to the exact tree
    // evaluator in the (practically unreachable) overflow case, which
    // panics exactly where the uncompiled checker did.
    let compiled: Vec<CompiledFormula> =
        candidates.iter().map(|c| CompiledFormula::compile(&c.formula)).collect();
    let eval = |ci: usize, ext_state: &[i128]| -> bool {
        compiled[ci].eval(ext_state).unwrap_or_else(|| candidates[ci].formula.eval_i128(ext_state))
    };

    let mut batch: Vec<Option<bool>> = Vec::new();
    for (ci, cand) in candidates.iter().enumerate() {
        compiled[ci].eval_batch(&ext_states[cand.loop_id], &mut batch);
        for (state, sat) in loop_states[cand.loop_id].iter().zip(&batch) {
            report.bounded_checks += 1;
            let sat = sat.unwrap_or_else(|| cand.formula.eval_i128(&extend(state)));
            if !sat {
                report.counterexamples.push(Counterexample {
                    loop_id: cand.loop_id,
                    state: state.clone(),
                    kind: CexKind::Initiation,
                    reachable: true,
                });
            }
        }
    }

    // Phase 2: consecution. Mutation offsets are pre-drawn sequentially
    // (the exact draw order of the historical per-candidate loop), then
    // the per-candidate work fans out over rayon with an order-preserving
    // merge — results are bit-identical at any thread count.
    let mut rng = StdRng::seed_from_u64(MUTATION_SEED);
    let mutation_plans: Vec<Vec<(usize, i128)>> = candidates
        .iter()
        .map(|cand| {
            let mut plan = Vec::new();
            for state in &loop_states[cand.loop_id] {
                for _ in 0..MUTATIONS_PER_STATE {
                    let idx = rng.gen_range(0..state.len());
                    let delta = rng.gen_range(-MUTATION_RADIUS..=MUTATION_RADIUS);
                    plan.push((idx, delta));
                }
            }
            plan
        })
        .collect();

    let outcomes: Vec<ConsecutionOutcome> = (0..candidates.len())
        .into_par_iter()
        .map(|ci| {
            check_consecution(
                program,
                extend,
                &candidates[ci],
                &compiled[ci],
                &loop_states[candidates[ci].loop_id],
                &ext_states[candidates[ci].loop_id],
                &mutation_plans[ci],
                &respects_pre,
                seeds,
            )
        })
        .collect();
    for outcome in outcomes {
        report.counterexamples.extend(outcome.counterexamples);
        report.warnings.extend(outcome.warnings);
        report.symbolically_proved += outcome.symbolically_proved;
        report.bounded_checks += outcome.bounded_checks;
    }

    // Phase 3: postcondition sufficiency for programs ending in a loop.
    if let Some(Stmt::While { id: last_loop, .. }) = program.body.last() {
        if let Some((ci, _)) = candidates.iter().enumerate().find(|(_, c)| c.loop_id == *last_loop)
        {
            let mut post_states: Vec<(Vec<i128>, bool)> =
                exit_envs.iter().map(|s| (s.clone(), true)).collect();
            // Mutations of exit states that still satisfy I ∧ ¬LC,
            // collected separately so the exit states need no bulk clone.
            let mut mutated_states: Vec<(Vec<i128>, bool)> = Vec::new();
            for (state, _) in &post_states {
                for _ in 0..MUTATIONS_PER_STATE {
                    let mut m = state.clone();
                    let idx = rng.gen_range(0..m.len());
                    m[idx] += rng.gen_range(-MUTATION_RADIUS..=MUTATION_RADIUS);
                    if respects_pre(&m) {
                        mutated_states.push((m, false));
                    }
                }
            }
            post_states.extend(mutated_states);
            for (state, reachable) in post_states {
                if !eval(ci, &extend(&state)) {
                    continue;
                }
                if loop_guard_holds(program, *last_loop, &state, 0) != Some(false) {
                    continue;
                }
                report.bounded_checks += 1;
                if eval_bool_in(&program.post, &state, 0) == Some(false) {
                    report.counterexamples.push(Counterexample {
                        loop_id: *last_loop,
                        state,
                        kind: CexKind::Postcondition,
                        reachable,
                    });
                }
            }
        }
    }

    report
}

/// The consecution checks (phase 2) for one candidate: symbolic proof of
/// equality conjuncts (Gröbner basis computed once, reused for every
/// path composition) plus bounded checks from trace states and the
/// pre-drawn mutation plan.
#[allow(clippy::too_many_arguments)] // internal fan-out worker
fn check_consecution(
    program: &Program,
    extend: &(dyn Fn(&[i128]) -> Vec<i128> + Sync),
    cand: &Candidate,
    compiled: &CompiledFormula,
    states: &[Vec<i128>],
    ext_states: &[Vec<i128>],
    mutation_plan: &[(usize, i128)],
    respects_pre: &(dyn Fn(&[i128]) -> bool + Sync),
    seeds: u64,
) -> ConsecutionOutcome {
    let mut out = ConsecutionOutcome::default();
    let eval = |ext_state: &[i128]| -> bool {
        compiled.eval(ext_state).unwrap_or_else(|| cand.formula.eval_i128(ext_state))
    };

    // 2a: symbolic proof for equality conjuncts.
    let eqs = equality_conjuncts(&cand.formula, program.num_vars());
    if !eqs.is_empty() {
        if let Some(paths) = transition_paths(program, cand.loop_id) {
            // One Gröbner basis for the whole candidate instead of one
            // per (conjunct, path) composition.
            let nonzero: Vec<Poly> = eqs.iter().filter(|g| !g.is_zero()).cloned().collect();
            let gb = if nonzero.is_empty() {
                None
            } else {
                groebner_basis(&nonzero, GroebnerLimits::default())
            };
            let mut scratch = ReduceScratch::default();
            let mut all_proved = true;
            'outer: for p in &eqs {
                for t in &paths {
                    let composed = p.subst(t);
                    let proved = if composed.is_zero() {
                        true
                    } else if let Some(gb) = &gb {
                        normal_form_in(&composed, gb, &mut scratch).is_zero()
                    } else {
                        false
                    };
                    if !proved {
                        all_proved = false;
                        break 'outer;
                    }
                }
            }
            if all_proved {
                out.symbolically_proved += eqs.len();
            }
            // Note: symbolic failure is not a counterexample by
            // itself — guards were ignored — the bounded phase will
            // hunt for a concrete witness.
        }
    }

    // 2b: bounded consecution from trace states and mutations.
    let mut plan = mutation_plan.iter();
    for (state, ext_state) in states.iter().zip(ext_states) {
        // The trace state satisfies I (or was already reported); its
        // successor is reachable too, so any violation is real.
        if let Some(true) = loop_guard_holds(program, cand.loop_id, state, 0) {
            // Evaluated lazily (only once a step succeeds) and cached
            // across seeds — the same evaluation surface as checking it
            // inside every step.
            let mut sat_here: Option<bool> = None;
            for seed in 0..seeds {
                if let Ok(next) = step_loop(
                    program,
                    cand.loop_id,
                    state,
                    &RunConfig { seed, ..RunConfig::default() },
                ) {
                    out.bounded_checks += 1;
                    if *sat_here.get_or_insert_with(|| eval(ext_state)) && !eval(&extend(&next)) {
                        out.counterexamples.push(Counterexample {
                            loop_id: cand.loop_id,
                            state: next.clone(),
                            kind: CexKind::Consecution,
                            reachable: true,
                        });
                    }
                }
            }
        }
        // Mutated neighbours: possibly-unreachable states satisfying
        // I ∧ LC whose successors must stay in I.
        for _ in 0..MUTATIONS_PER_STATE {
            let &(idx, delta) = plan.next().expect("mutation plan covers all states");
            let mut mutated = state.clone();
            mutated[idx] += delta;
            if !respects_pre(&mutated) || !eval(&extend(&mutated)) {
                continue;
            }
            if loop_guard_holds(program, cand.loop_id, &mutated, 0) != Some(true) {
                continue;
            }
            if let Ok(next) = step_loop(program, cand.loop_id, &mutated, &RunConfig::default()) {
                out.bounded_checks += 1;
                if !eval(&extend(&next)) {
                    out.warnings.push(Counterexample {
                        loop_id: cand.loop_id,
                        state: mutated,
                        kind: CexKind::Consecution,
                        reachable: false,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_lang::parse_program;
    use gcln_logic::parse_formula;

    fn sqrt_program() -> Program {
        parse_program(
            "program sqrt1; inputs n; pre n >= 0;
             post a * a <= n && n < (a + 1) * (a + 1);
             a = 0; s = 1; t = 1;
             while (s <= n) { a = a + 1; t = t + 2; s = s + t; }",
        )
        .unwrap()
    }

    fn inputs(hi: i128) -> Vec<Vec<i128>> {
        (0..=hi).map(|n| vec![n]).collect()
    }

    #[test]
    fn accepts_ground_truth_sqrt_invariant() {
        let p = sqrt_program();
        let names = p.vars.clone();
        let f =
            parse_formula("t == 2 * a + 1 && s == a^2 + 2 * a + 1 && a^2 <= n", &names).unwrap();
        let report =
            check(&p, &inputs(40), &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: f }]);
        assert!(report.is_valid(), "cex: {:?}", report.counterexamples.first());
        assert!(report.symbolically_proved >= 2, "equalities should be Gröbner-proved");
        assert!(report.bounded_checks > 50);
    }

    #[test]
    fn rejects_wrong_equality() {
        let p = sqrt_program();
        let names = p.vars.clone();
        // t == 2a (wrong offset) fails immediately on the first state.
        let f = parse_formula("t == 2 * a", &names).unwrap();
        let report =
            check(&p, &inputs(10), &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: f }]);
        assert!(!report.is_valid());
        assert!(report
            .counterexamples
            .iter()
            .any(|c| c.kind == CexKind::Initiation && c.reachable));
    }

    #[test]
    fn rejects_non_inductive_inequality() {
        // x <= 5 holds on traces up to bound but is not inductive
        // (mutated states near the boundary step past it)... here use a
        // loop to 8 with candidate x <= 8: valid; candidate x <= 7 is
        // falsified by a reachable state.
        let p = parse_program("x = 0; while (x < 8) { x = x + 1; }").unwrap();
        let names = p.vars.clone();
        let good = parse_formula("x <= 8", &names).unwrap();
        let bad = parse_formula("x <= 7", &names).unwrap();
        let r_good =
            check(&p, &[vec![]], &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: good }]);
        assert!(r_good.is_valid(), "cex: {:?}", r_good.counterexamples.first());
        let r_bad =
            check(&p, &[vec![]], &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: bad }]);
        assert!(!r_bad.is_valid());
    }

    #[test]
    fn postcondition_violations_detected() {
        // Candidate invariant too weak to prove the post: mutated exit
        // states satisfying I ∧ ¬LC violate Q.
        let p = parse_program(
            "inputs n; pre n >= 0; post x == n;
             x = 0; while (x < n) { x = x + 1; }",
        )
        .unwrap();
        let names = p.vars.clone();
        // `true` is inductive but cannot prove post.
        let weak = Formula::True;
        let report =
            check(&p, &inputs(6), &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: weak }]);
        assert!(
            report.counterexamples.iter().any(|c| c.kind == CexKind::Postcondition),
            "weak invariant should fail the post check"
        );
        // The proper invariant x <= n passes.
        let strong = parse_formula("x <= n", &names).unwrap();
        let report =
            check(&p, &inputs(6), &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: strong }]);
        assert!(report.is_valid(), "cex: {:?}", report.counterexamples.first());
    }

    #[test]
    fn extended_terms_check_via_extension() {
        // gcd is preserved by the Euclidean step; check with extension.
        let p = parse_program(
            "inputs a, b; pre a >= 1 && b >= 1;
             x = a; y = b;
             while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }",
        )
        .unwrap();
        let mut names = p.vars.clone();
        names.push("gcd(x,y)".into());
        names.push("gcd(a,b)".into());
        let f = parse_formula("gcd(x, y) == gcd(a, b) && x >= 1 && y >= 1", &names).unwrap();
        fn gcd(mut a: i128, mut b: i128) -> i128 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a.abs()
        }
        let extend = |s: &[i128]| {
            let mut v = s.to_vec();
            v.push(gcd(s[2], s[3]));
            v.push(gcd(s[0], s[1]));
            v
        };
        let tuples: Vec<Vec<i128>> =
            (1..=8).flat_map(|a| (1..=8).map(move |b| vec![a, b])).collect();
        let report = check(&p, &tuples, &extend, &[Candidate { loop_id: 0, formula: f }]);
        assert!(report.is_valid(), "cex: {:?}", report.counterexamples.first());
    }

    #[test]
    fn has_nondet_detection() {
        let det = parse_program("x = 1;").unwrap();
        assert!(!has_nondet(&det));
        let nd = parse_program("x = 0; while (nondet()) { x = x + 1; }").unwrap();
        assert!(has_nondet(&nd));
        let nd2 = parse_program("x = nondet(0, 5);").unwrap();
        assert!(has_nondet(&nd2));
    }

    #[test]
    fn project_to_program_filters_extended_dims() {
        // Poly over 3 dims (2 program vars + 1 ext).
        let x = Poly::var(0, 3);
        let g = Poly::var(2, 3);
        assert!(project_to_program(&x, 2).is_some());
        assert!(project_to_program(&g, 2).is_none());
        let proj = project_to_program(&x, 2).unwrap();
        assert_eq!(proj.arity(), 2);
    }
}
