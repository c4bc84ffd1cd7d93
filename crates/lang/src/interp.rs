//! Interpreters and trace collection.
//!
//! Programs run over any [`Num`] domain. Two are provided:
//!
//! - `i128` — the benchmark programs' native integer semantics, with
//!   overflow-checked arithmetic and C-style truncating division.
//! - `f64` — the paper's *fractional sampling* relaxation (§4.3): the same
//!   operations on the real domain, so traces can be collected from
//!   non-integer initial values. Division/remainder keep their discrete
//!   behaviour relative to their inputs (truncation), as the relaxation
//!   requires.
//!
//! A trace records the full variable environment at **every loop-head
//! test**, which matches the paper's instrumentation (Fig. 4a: a log at
//! the top of the body each iteration, plus one after exit — i.e. one per
//! guard evaluation).

use crate::ast::{BinOp, BoolExpr, CmpOp, Expr, Program, Stmt, VarId};
use std::fmt;

/// Numeric domains a program can execute over.
///
/// This trait is sealed in spirit: the two implementations (`i128`, `f64`)
/// cover the paper's integer semantics and its real relaxation.
pub trait Num: Copy + PartialEq + PartialOrd + fmt::Debug + fmt::Display {
    /// Injects an integer constant.
    fn from_i128(n: i128) -> Self;
    /// Checked addition (`None` = overflow / non-finite).
    fn add_checked(self, other: Self) -> Option<Self>;
    /// Checked subtraction.
    fn sub_checked(self, other: Self) -> Option<Self>;
    /// Checked multiplication.
    fn mul_checked(self, other: Self) -> Option<Self>;
    /// Checked truncating division (`None` on division by zero/overflow).
    fn div_trunc_checked(self, other: Self) -> Option<Self>;
    /// Checked truncating remainder.
    fn rem_trunc_checked(self, other: Self) -> Option<Self>;
    /// Lossy view as `f64` (used when exporting traces for training).
    fn to_f64(self) -> f64;
    /// Exact integer view, if the value is integral (used by `gcd`).
    fn as_integer(self) -> Option<i128>;
}

impl Num for i128 {
    fn from_i128(n: i128) -> Self {
        n
    }
    fn add_checked(self, other: Self) -> Option<Self> {
        self.checked_add(other)
    }
    fn sub_checked(self, other: Self) -> Option<Self> {
        self.checked_sub(other)
    }
    fn mul_checked(self, other: Self) -> Option<Self> {
        self.checked_mul(other)
    }
    fn div_trunc_checked(self, other: Self) -> Option<Self> {
        self.checked_div(other)
    }
    fn rem_trunc_checked(self, other: Self) -> Option<Self> {
        self.checked_rem(other)
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn as_integer(self) -> Option<i128> {
        Some(self)
    }
}

impl Num for f64 {
    fn from_i128(n: i128) -> Self {
        n as f64
    }
    fn add_checked(self, other: Self) -> Option<Self> {
        let r = self + other;
        r.is_finite().then_some(r)
    }
    fn sub_checked(self, other: Self) -> Option<Self> {
        let r = self - other;
        r.is_finite().then_some(r)
    }
    fn mul_checked(self, other: Self) -> Option<Self> {
        let r = self * other;
        r.is_finite().then_some(r)
    }
    fn div_trunc_checked(self, other: Self) -> Option<Self> {
        if other == 0.0 {
            return None;
        }
        let r = (self / other).trunc();
        r.is_finite().then_some(r)
    }
    fn rem_trunc_checked(self, other: Self) -> Option<Self> {
        let q = self.div_trunc_checked(other)?;
        let r = self - other * q;
        r.is_finite().then_some(r)
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn as_integer(self) -> Option<i128> {
        (self.fract() == 0.0 && self.abs() < 1e30).then_some(self as i128)
    }
}

/// Deterministic source for `nondet()` / `nondet(lo, hi)` (SplitMix64).
///
/// Kept dependency-free so `gcln-lang` stands alone; callers that want
/// varied executions supply different seeds.
#[derive(Clone, Debug)]
pub struct Nondet {
    state: u64,
}

impl Nondet {
    /// Creates a source from a seed.
    pub fn new(seed: u64) -> Nondet {
        Nondet { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A nondeterministic boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A nondeterministic integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: i128, hi: i128) -> i128 {
        assert!(lo <= hi, "empty nondet range");
        let span = (hi - lo + 1) as u128;
        lo + (self.next_u64() as u128 % span) as i128
    }
}

/// Why an execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion.
    Completed,
    /// The precondition or an `assume` failed; the run is discarded.
    AssumeFailed,
    /// The step budget was exhausted (probable non-termination).
    StepLimit,
    /// Arithmetic fault: division by zero, overflow, or a non-integral
    /// argument to an integer-only builtin.
    ArithError,
}

/// One recorded loop-head state.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot<N> {
    /// Which `while` loop (dense source-order id).
    pub loop_id: usize,
    /// The full environment, indexed by [`VarId`].
    pub state: Vec<N>,
}

/// The result of running a program.
#[derive(Clone, Debug, PartialEq)]
pub struct Run<N> {
    /// Loop-head snapshots in execution order.
    pub trace: Vec<Snapshot<N>>,
    /// Final environment (meaningful when `outcome == Completed`).
    pub env: Vec<N>,
    /// Why execution stopped.
    pub outcome: Outcome,
}

/// Execution limits and nondeterminism seed.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Maximum number of statements executed before [`Outcome::StepLimit`].
    pub max_steps: usize,
    /// Seed for `nondet` choices.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { max_steps: 1_000_000, seed: 0 }
    }
}

/// Arithmetic fault raised during evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArithFault;

enum Flow {
    Normal,
    Break,
    Stop(Outcome),
}

struct Interp<N> {
    env: Vec<N>,
    trace: Vec<Snapshot<N>>,
    nondet: Nondet,
    fuel: usize,
    record: bool,
}

impl<N: Num> Interp<N> {
    fn eval_expr(&mut self, e: &Expr) -> Result<N, ArithFault> {
        match e {
            Expr::Int(n) => Ok(N::from_i128(*n)),
            Expr::Var(id) => Ok(self.env[*id]),
            Expr::Name(n) => unreachable!("unresolved name `{n}` reached the interpreter"),
            Expr::Neg(a) => {
                let v = self.eval_expr(a)?;
                N::from_i128(0).sub_checked(v).ok_or(ArithFault)
            }
            Expr::Bin(op, a, b) => {
                let l = self.eval_expr(a)?;
                let r = self.eval_expr(b)?;
                let result = match op {
                    BinOp::Add => l.add_checked(r),
                    BinOp::Sub => l.sub_checked(r),
                    BinOp::Mul => l.mul_checked(r),
                    BinOp::Div => l.div_trunc_checked(r),
                    BinOp::Rem => l.rem_trunc_checked(r),
                };
                result.ok_or(ArithFault)
            }
            Expr::Call(name, args) => {
                let vals: Vec<N> =
                    args.iter().map(|a| self.eval_expr(a)).collect::<Result<_, _>>()?;
                call_builtin(name, &vals)
            }
            Expr::NondetInt(lo, hi) => {
                let lo = self.eval_expr(lo)?.as_integer().ok_or(ArithFault)?;
                let hi = self.eval_expr(hi)?.as_integer().ok_or(ArithFault)?;
                if lo > hi {
                    return Err(ArithFault);
                }
                Ok(N::from_i128(self.nondet.next_range(lo, hi)))
            }
        }
    }

    fn eval_bool(&mut self, b: &BoolExpr) -> Result<bool, ArithFault> {
        match b {
            BoolExpr::Const(v) => Ok(*v),
            BoolExpr::Nondet => Ok(self.nondet.next_bool()),
            BoolExpr::Not(a) => Ok(!self.eval_bool(a)?),
            BoolExpr::And(a, b) => Ok(self.eval_bool(a)? && self.eval_bool(b)?),
            BoolExpr::Or(a, b) => Ok(self.eval_bool(a)? || self.eval_bool(b)?),
            BoolExpr::Cmp(op, l, r) => {
                let lv = self.eval_expr(l)?;
                let rv = self.eval_expr(r)?;
                Ok(compare(*op, lv, rv))
            }
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Flow {
        for s in stmts {
            match self.exec_stmt(s) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Flow {
        if self.fuel == 0 {
            return Flow::Stop(Outcome::StepLimit);
        }
        self.fuel -= 1;
        match s {
            Stmt::Assign { var, value, .. } => {
                let id: VarId = var.expect("program must be resolved before execution");
                match self.eval_expr(value) {
                    Ok(v) => {
                        self.env[id] = v;
                        Flow::Normal
                    }
                    Err(ArithFault) => Flow::Stop(Outcome::ArithError),
                }
            }
            Stmt::If { cond, then_body, else_body } => match self.eval_bool(cond) {
                Ok(true) => self.exec_stmts(then_body),
                Ok(false) => self.exec_stmts(else_body),
                Err(ArithFault) => Flow::Stop(Outcome::ArithError),
            },
            Stmt::While { id, cond, body } => loop {
                if self.record {
                    self.trace.push(Snapshot { loop_id: *id, state: self.env.clone() });
                }
                if self.fuel == 0 {
                    return Flow::Stop(Outcome::StepLimit);
                }
                self.fuel -= 1;
                match self.eval_bool(cond) {
                    Ok(true) => match self.exec_stmts(body) {
                        Flow::Normal => {}
                        Flow::Break => return Flow::Normal,
                        stop => return stop,
                    },
                    Ok(false) => return Flow::Normal,
                    Err(ArithFault) => return Flow::Stop(Outcome::ArithError),
                }
            },
            Stmt::Assume(cond) => match self.eval_bool(cond) {
                Ok(true) => Flow::Normal,
                Ok(false) => Flow::Stop(Outcome::AssumeFailed),
                Err(ArithFault) => Flow::Stop(Outcome::ArithError),
            },
            Stmt::Break => Flow::Break,
        }
    }
}

fn call_builtin<N: Num>(name: &str, args: &[N]) -> Result<N, ArithFault> {
    match name {
        "gcd" => {
            let a = args[0].as_integer().ok_or(ArithFault)?;
            let b = args[1].as_integer().ok_or(ArithFault)?;
            let mut a = a.unsigned_abs();
            let mut b = b.unsigned_abs();
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            Ok(N::from_i128(a as i128))
        }
        "min" => Ok(if args[0] <= args[1] { args[0] } else { args[1] }),
        "max" => Ok(if args[0] >= args[1] { args[0] } else { args[1] }),
        "abs" => {
            if args[0] >= N::from_i128(0) {
                Ok(args[0])
            } else {
                N::from_i128(0).sub_checked(args[0]).ok_or(ArithFault)
            }
        }
        other => unreachable!("unknown builtin `{other}` survived resolution"),
    }
}

fn compare<N: Num>(op: CmpOp, l: N, r: N) -> bool {
    match op {
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::Ge => l >= r,
    }
}

/// Runs a resolved program on the given input values, collecting a trace.
///
/// Inputs are bound positionally to [`Program::inputs`]; local variables
/// start at zero. The precondition is treated as an implicit `assume`.
///
/// # Panics
///
/// Panics if `inputs.len() != program.inputs.len()` or the program is
/// unresolved.
///
/// # Examples
///
/// ```
/// use gcln_lang::{parse_program, interp::{run_program, RunConfig, Outcome}};
/// let p = parse_program(
///     "inputs n; pre n >= 0; post x == n * n;
///      x = 0; i = 0;
///      while (i != n) { i = i + 1; x = x + 2 * i - 1; }",
/// ).unwrap();
/// let run = run_program(&p, &[5i128], &RunConfig::default());
/// assert_eq!(run.outcome, Outcome::Completed);
/// assert_eq!(run.env[p.var_id("x").unwrap()], 25);
/// assert_eq!(run.trace.len(), 6); // one snapshot per guard test
/// ```
pub fn run_program<N: Num>(program: &Program, inputs: &[N], config: &RunConfig) -> Run<N> {
    assert_eq!(inputs.len(), program.inputs.len(), "wrong number of inputs");
    let mut env = vec![N::from_i128(0); program.num_vars()];
    env[..inputs.len()].copy_from_slice(inputs);
    let mut interp = Interp {
        env,
        trace: Vec::new(),
        nondet: Nondet::new(config.seed),
        fuel: config.max_steps,
        record: true,
    };
    let pre = program.pre.clone();
    let outcome = match interp.eval_bool(&pre) {
        Ok(false) => Outcome::AssumeFailed,
        Err(ArithFault) => Outcome::ArithError,
        Ok(true) => match interp.exec_stmts(&program.body) {
            Flow::Normal | Flow::Break => Outcome::Completed,
            Flow::Stop(o) => o,
        },
    };
    Run { trace: interp.trace, env: interp.env, outcome }
}

/// Evaluates a boolean expression in a given environment (no trace, no
/// stepping). `nondet()` uses the provided seed.
///
/// Returns `None` on arithmetic faults.
pub fn eval_bool_in<N: Num>(b: &BoolExpr, env: &[N], seed: u64) -> Option<bool> {
    let mut interp = Interp {
        env: env.to_vec(),
        trace: Vec::new(),
        nondet: Nondet::new(seed),
        fuel: usize::MAX,
        record: false,
    };
    interp.eval_bool(b).ok()
}

/// Executes the body of loop `loop_id` once from `state` (assuming the
/// guard already held), returning the successor state.
///
/// Inner loops inside the body run to completion (bounded by
/// `config.max_steps`). Used by the checker's bounded consecution test.
///
/// # Panics
///
/// Panics if the loop id does not exist or the program is unresolved.
pub fn step_loop<N: Num>(
    program: &Program,
    loop_id: usize,
    state: &[N],
    config: &RunConfig,
) -> Result<Vec<N>, Outcome> {
    let Some(Stmt::While { body, .. }) = program.find_loop(loop_id) else {
        panic!("loop {loop_id} not found in `{}`", program.name);
    };
    let mut interp = Interp {
        env: state.to_vec(),
        trace: Vec::new(),
        nondet: Nondet::new(config.seed),
        fuel: config.max_steps,
        record: false,
    };
    match interp.exec_stmts(body) {
        Flow::Normal | Flow::Break => Ok(interp.env),
        Flow::Stop(o) => Err(o),
    }
}

/// Evaluates a loop guard in a given state.
///
/// Returns `None` on arithmetic faults (or if the loop id is unknown).
pub fn loop_guard_holds<N: Num>(
    program: &Program,
    loop_id: usize,
    state: &[N],
    seed: u64,
) -> Option<bool> {
    let Some(Stmt::While { cond, .. }) = program.find_loop(loop_id) else {
        return None;
    };
    eval_bool_in(cond, state, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const SQRT_SRC: &str = "program sqrt1; inputs n; pre n >= 0;
        post a * a <= n && n < (a + 1) * (a + 1);
        a = 0; s = 1; t = 1;
        while (s <= n) { a = a + 1; t = t + 2; s = s + t; }";

    #[test]
    fn sqrt_program_runs_and_satisfies_post() {
        let p = parse_program(SQRT_SRC).unwrap();
        for n in 0..50i128 {
            let run = run_program(&p, &[n], &RunConfig::default());
            assert_eq!(run.outcome, Outcome::Completed);
            assert_eq!(eval_bool_in(&p.post, &run.env, 0), Some(true), "post failed for n={n}");
            let a = run.env[p.var_id("a").unwrap()];
            assert_eq!(a, (n as f64).sqrt().floor() as i128);
        }
    }

    #[test]
    fn trace_matches_paper_figure_4b() {
        // Figure 4b: sqrt on n = 12 visits (a, s, t) = (0,1,1), (1,4,3),
        // (2,9,5), (3,16,7).
        let p = parse_program(SQRT_SRC).unwrap();
        let run = run_program(&p, &[12i128], &RunConfig::default());
        let ids: Vec<usize> = ["a", "s", "t"].iter().map(|v| p.var_id(v).unwrap()).collect();
        let rows: Vec<Vec<i128>> =
            run.trace.iter().map(|s| ids.iter().map(|&i| s.state[i]).collect()).collect();
        assert_eq!(rows, vec![vec![0, 1, 1], vec![1, 4, 3], vec![2, 9, 5], vec![3, 16, 7],]);
    }

    #[test]
    fn fractional_execution_matches_integer_on_integers() {
        let p = parse_program(SQRT_SRC).unwrap();
        let int_run = run_program(&p, &[20i128], &RunConfig::default());
        let real_run = run_program(&p, &[20.0f64], &RunConfig::default());
        assert_eq!(int_run.trace.len(), real_run.trace.len());
        for (a, b) in int_run.trace.iter().zip(&real_run.trace) {
            for (x, y) in a.state.iter().zip(&b.state) {
                assert_eq!(*x as f64, *y);
            }
        }
    }

    #[test]
    fn fractional_execution_from_real_inputs() {
        // ps2: x += y after y++; runs on fractional start just as well.
        let p = parse_program(
            "inputs k; pre k >= 0; x = 0; y = 0;
             while (y < k) { y = y + 1; x = x + y; }",
        )
        .unwrap();
        let run = run_program(&p, &[3.5f64], &RunConfig::default());
        assert_eq!(run.outcome, Outcome::Completed);
        let x = run.env[p.var_id("x").unwrap()];
        // y goes 1, 2, 3, 4 -> x = 10 (loop exits at y=4 >= 3.5).
        assert_eq!(x, 10.0);
    }

    #[test]
    fn precondition_acts_as_assume() {
        let p = parse_program("inputs n; pre n >= 0; x = n;").unwrap();
        let run = run_program(&p, &[-3i128], &RunConfig::default());
        assert_eq!(run.outcome, Outcome::AssumeFailed);
    }

    #[test]
    fn division_by_zero_is_arith_error() {
        let p = parse_program("inputs n; x = 1 / n;").unwrap();
        let run = run_program(&p, &[0i128], &RunConfig::default());
        assert_eq!(run.outcome, Outcome::ArithError);
    }

    #[test]
    fn truncating_division_matches_c() {
        let p = parse_program("inputs a, b; q = a / b; r = a % b;").unwrap();
        let run = run_program(&p, &[-7i128, 2], &RunConfig::default());
        assert_eq!(run.env[p.var_id("q").unwrap()], -3);
        assert_eq!(run.env[p.var_id("r").unwrap()], -1);
    }

    #[test]
    fn step_limit_catches_divergence() {
        let p = parse_program("x = 0; while (x >= 0) { x = x + 1; }").unwrap();
        let run = run_program(&p, &[] as &[i128], &RunConfig { max_steps: 1000, seed: 0 });
        assert_eq!(run.outcome, Outcome::StepLimit);
    }

    #[test]
    fn gcd_builtin() {
        let p = parse_program("inputs a, b; g = gcd(a, b);").unwrap();
        let run = run_program(&p, &[54i128, 24], &RunConfig::default());
        assert_eq!(run.env[p.var_id("g").unwrap()], 6);
        let run = run_program(&p, &[0i128, 0], &RunConfig::default());
        assert_eq!(run.env[p.var_id("g").unwrap()], 0);
    }

    #[test]
    fn nondet_is_deterministic_per_seed() {
        let p = parse_program("x = nondet(0, 100); y = nondet(0, 100);").unwrap();
        let a = run_program(&p, &[] as &[i128], &RunConfig { max_steps: 100, seed: 7 });
        let b = run_program(&p, &[] as &[i128], &RunConfig { max_steps: 100, seed: 7 });
        let c = run_program(&p, &[] as &[i128], &RunConfig { max_steps: 100, seed: 8 });
        assert_eq!(a.env, b.env);
        assert_ne!(a.env, c.env, "different seeds should (almost surely) differ");
    }

    #[test]
    fn step_loop_advances_one_iteration() {
        let p = parse_program(SQRT_SRC).unwrap();
        // State (n, a, s, t) = (30, 2, 9, 5): one body execution gives (30, 3, 16, 7).
        let state = vec![30i128, 2, 9, 5];
        let next = step_loop(&p, 0, &state, &RunConfig::default()).unwrap();
        assert_eq!(next, vec![30, 3, 16, 7]);
        assert_eq!(loop_guard_holds(&p, 0, &state, 0), Some(true));
        assert_eq!(loop_guard_holds(&p, 0, &[3i128, 2, 9, 5], 0), Some(false));
    }

    #[test]
    fn break_exits_innermost_loop() {
        let p = parse_program(
            "x = 0; y = 0;
             while (x < 3) {
               x = x + 1;
               while (true) { y = y + 1; break; }
             }",
        )
        .unwrap();
        let run = run_program(&p, &[] as &[i128], &RunConfig::default());
        assert_eq!(run.outcome, Outcome::Completed);
        assert_eq!(run.env[p.var_id("y").unwrap()], 3);
    }

    #[test]
    fn overflow_detected() {
        let p = parse_program("x = 1; while (x > 0) { x = x * 2; }").unwrap();
        let run = run_program(&p, &[] as &[i128], &RunConfig::default());
        assert_eq!(run.outcome, Outcome::ArithError);
    }

    #[test]
    fn min_max_abs_builtins() {
        let p = parse_program("a = min(3, -2); b = max(3, -2); c = abs(-5);").unwrap();
        let run = run_program(&p, &[] as &[i128], &RunConfig::default());
        assert_eq!(run.env[p.var_id("a").unwrap()], -2);
        assert_eq!(run.env[p.var_id("b").unwrap()], 3);
        assert_eq!(run.env[p.var_id("c").unwrap()], 5);
    }
}
