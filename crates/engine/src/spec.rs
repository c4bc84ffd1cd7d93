//! Problem specifications for the engine, including arbitrary
//! user-supplied loop programs.
//!
//! The benchmark registries ship fully-configured [`Problem`]s; a
//! [`ProblemSpec`] generalizes that to *any* `.loop` source file by
//! auto-deriving the configuration the registries hand-tune:
//!
//! - **term degree** from the post-condition and assignment right-hand
//!   sides (the paper's `maxDeg`),
//! - **input sampling ranges** from constant bounds in the `pre`
//!   header (defaulting to `0..=20` per input otherwise),
//! - **extended terms** (paper §5.3) from builtin calls such as
//!   `gcd(x, y)` appearing anywhere in the source.
//!
//! Registry problems become pre-canned specs via `From<Problem>`.

use gcln_lang::{BoolExpr, CmpOp, Expr, Program, Stmt};
use gcln_problems::{ExtTerm, Problem, Suite};
use std::fmt;
use std::path::Path;

/// Default sampling range for inputs unconstrained by `pre`.
const DEFAULT_RANGE: (i128, i128) = (0, 20);
/// Span used to complete half-bounded ranges (`x >= 3` → `3..=23`).
const DEFAULT_SPAN: i128 = 20;
/// Degree clamp: below 2 the equality layer cannot express the paper's
/// benchmarks; above 6 term enumeration explodes combinatorially.
const MIN_DEGREE: u32 = 2;
const MAX_DEGREE: u32 = 6;

/// Error from building a spec out of source text.
#[derive(Clone, Debug)]
pub enum SpecError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// OS error text.
        error: String,
    },
    /// The source failed to parse or resolve.
    Program(gcln_lang::ProgramError),
    /// An override does not fit the program (see
    /// [`ProblemSpec::apply_overrides`]).
    Override(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Io { path, error } => write!(f, "cannot read `{path}`: {error}"),
            SpecError::Program(e) => write!(f, "{e}"),
            SpecError::Override(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<gcln_lang::ProgramError> for SpecError {
    fn from(e: gcln_lang::ProgramError) -> Self {
        SpecError::Program(e)
    }
}

/// A fully-configured inference target: the problem plus a record of
/// which settings were auto-derived (for diagnostics and event output).
#[derive(Clone, Debug)]
pub struct ProblemSpec {
    /// The configured problem.
    pub problem: Problem,
    /// Human-readable notes on auto-derived settings (empty for
    /// registry problems, whose configuration is hand-tuned).
    pub derived: Vec<String>,
}

impl From<Problem> for ProblemSpec {
    fn from(problem: Problem) -> Self {
        ProblemSpec { problem, derived: Vec::new() }
    }
}

impl ProblemSpec {
    /// Reads and configures an arbitrary `.loop` program from a file.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the file is unreadable or the source
    /// fails to parse/resolve.
    pub fn from_source(path: impl AsRef<Path>) -> Result<ProblemSpec, SpecError> {
        let path = path.as_ref();
        let source = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        let fallback = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| gcln_lang::Program::DEFAULT_NAME.to_string());
        ProblemSpec::from_source_str(&fallback, &source)
    }

    /// Configures an arbitrary loop program from source text.
    /// `fallback_name` is used when the source has no `program <name>;`
    /// header.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Program`] on parse/resolution failures.
    pub fn from_source_str(fallback_name: &str, source: &str) -> Result<ProblemSpec, SpecError> {
        let program = gcln_lang::parse_program(source)?;
        let mut derived = Vec::new();

        let max_degree = derive_degree(&program);
        derived.push(format!("max_degree {max_degree} (from post-condition and assignments)"));

        let ranged = derive_ranges_with_provenance(&program);
        for (name, ((lo, hi), from_pre)) in program.inputs.iter().zip(&ranged) {
            let origin = if *from_pre { "from pre" } else { "default" };
            derived.push(format!("range {name} in {lo}..={hi} ({origin})"));
        }
        let input_ranges: Vec<(i128, i128)> = ranged.into_iter().map(|(r, _)| r).collect();

        let ext_terms = derive_ext_terms(&program);
        for t in &ext_terms {
            derived.push(format!("extended term {} (builtin call in source)", t.name()));
        }

        let name = if program.has_explicit_name() {
            program.name.clone()
        } else {
            fallback_name.to_string()
        };
        let table_degree = max_degree;
        let table_vars = program.num_vars();
        Ok(ProblemSpec {
            problem: Problem {
                name,
                suite: Suite::Linear,
                source: source.to_string(),
                program,
                max_degree,
                input_ranges,
                ext_terms,
                ground_truth: Vec::new(),
                table_degree,
                table_vars,
                expected_solved: true,
            },
            derived,
        })
    }

    /// Looks up a registry problem (NLA or linear suite) as a spec.
    pub fn from_registry(name: &str) -> Option<ProblemSpec> {
        gcln_problems::find_problem(name).map(ProblemSpec::from)
    }

    /// Applies CLI-style overrides on top of the (auto-derived)
    /// configuration: an explicit term degree and per-input sampling
    /// ranges in declaration order. Each override drops the
    /// [`derived`](ProblemSpec::derived) note of the setting it replaces.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Override`], leaving the spec unchanged, when
    /// there are more ranges than program inputs or a range is empty
    /// (`lo > hi`).
    pub fn apply_overrides(
        &mut self,
        max_degree: Option<u32>,
        ranges: &[(i128, i128)],
    ) -> Result<(), SpecError> {
        let inputs = &self.problem.program.inputs;
        if ranges.len() > inputs.len() {
            return Err(SpecError::Override(format!(
                "{} ranges given, but `{}` has {} input(s)",
                ranges.len(),
                self.problem.name,
                inputs.len()
            )));
        }
        if let Some((name, (lo, hi))) = inputs.iter().zip(ranges).find(|(_, (lo, hi))| lo > hi) {
            return Err(SpecError::Override(format!(
                "range {lo}:{hi} for input {name} is empty (LO > HI)"
            )));
        }
        if let Some(d) = max_degree {
            self.problem.max_degree = d;
            self.derived.retain(|note| !note.starts_with("max_degree "));
        }
        for name in &inputs[..ranges.len()] {
            let prefix = format!("range {name} in ");
            self.derived.retain(|note| !note.starts_with(&prefix));
        }
        self.problem.input_ranges[..ranges.len()].copy_from_slice(ranges);
        Ok(())
    }
}

/// Derives the term-enumeration degree: the maximum syntactic polynomial
/// degree over the post-condition and all assignment right-hand sides,
/// clamped to `[2, 6]`.
pub fn derive_degree(program: &Program) -> u32 {
    let mut d = bool_degree(&program.post);
    let mut stack: Vec<&Stmt> = program.body.iter().collect();
    while let Some(s) = stack.pop() {
        match s {
            Stmt::Assign { value, .. } => d = d.max(expr_degree(value)),
            Stmt::If { then_body, else_body, .. } => {
                stack.extend(then_body.iter());
                stack.extend(else_body.iter());
            }
            Stmt::While { body, .. } => stack.extend(body.iter()),
            Stmt::Assume(_) | Stmt::Break => {}
        }
    }
    d.clamp(MIN_DEGREE, MAX_DEGREE)
}

/// Syntactic degree of an expression, treating variables, builtin calls
/// (extended-term dimensions), and nondeterministic choices as degree 1.
fn expr_degree(e: &Expr) -> u32 {
    match e {
        Expr::Int(_) => 0,
        Expr::Name(_) | Expr::Var(_) | Expr::Call(..) | Expr::NondetInt(..) => 1,
        Expr::Neg(inner) => expr_degree(inner),
        Expr::Bin(op, lhs, rhs) => {
            let (l, r) = (expr_degree(lhs), expr_degree(rhs));
            match op {
                gcln_lang::BinOp::Mul => l + r,
                // Truncating div/rem do not divide degrees syntactically;
                // take the max so `x * y / 2` still reads as degree 2.
                _ => l.max(r),
            }
        }
    }
}

/// Maximum comparison-side degree within a boolean expression.
fn bool_degree(b: &BoolExpr) -> u32 {
    match b {
        BoolExpr::Const(_) | BoolExpr::Nondet => 0,
        BoolExpr::Cmp(_, l, r) => expr_degree(l).max(expr_degree(r)),
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => bool_degree(a).max(bool_degree(b)),
        BoolExpr::Not(a) => bool_degree(a),
    }
}

/// Derives per-input sampling ranges from constant bounds in `pre`.
///
/// Only conjuncts of the form `input <cmp> constant` (either side)
/// contribute; disjunctions and negations are skipped conservatively.
/// Unconstrained inputs (including purely nondeterministic ones) keep
/// the default `0..=20`; half-bounded constraints are completed with a
/// span of 20.
pub fn derive_ranges(program: &Program) -> Vec<(i128, i128)> {
    derive_ranges_with_provenance(program).into_iter().map(|(r, _)| r).collect()
}

/// [`derive_ranges`], with a per-input flag recording whether `pre`
/// contributed a bound (false = the hard-coded default range).
fn derive_ranges_with_provenance(program: &Program) -> Vec<((i128, i128), bool)> {
    let mut lows: Vec<Option<i128>> = vec![None; program.inputs.len()];
    let mut highs: Vec<Option<i128>> = vec![None; program.inputs.len()];
    let mut conjuncts: Vec<&BoolExpr> = vec![&program.pre];
    while let Some(b) = conjuncts.pop() {
        match b {
            BoolExpr::And(a, b) => {
                conjuncts.push(a);
                conjuncts.push(b);
            }
            BoolExpr::Cmp(op, lhs, rhs) => {
                let bound = match (input_index(program, lhs), const_eval(rhs)) {
                    (Some(i), Some(c)) => Some((i, *op, c)),
                    _ => match (const_eval(lhs), input_index(program, rhs)) {
                        (Some(c), Some(i)) => Some((i, op.flip(), c)),
                        _ => None,
                    },
                };
                if let Some((i, op, c)) = bound {
                    match op {
                        CmpOp::Ge => merge_low(&mut lows[i], c),
                        CmpOp::Gt => merge_low(&mut lows[i], c + 1),
                        CmpOp::Le => merge_high(&mut highs[i], c),
                        CmpOp::Lt => merge_high(&mut highs[i], c - 1),
                        CmpOp::Eq => {
                            merge_low(&mut lows[i], c);
                            merge_high(&mut highs[i], c);
                        }
                        CmpOp::Ne => {}
                    }
                }
            }
            // `x >= 0 || …` does not bound x; skip non-conjunctive
            // structure entirely.
            _ => {}
        }
    }
    lows.iter()
        .zip(&highs)
        .map(|(lo, hi)| match (lo, hi) {
            (Some(lo), Some(hi)) if lo <= hi => ((*lo, *hi), true),
            // Contradictory pre (e.g. `x >= 5 && x <= 1`): trust the
            // lower bound and restore a usable span.
            (Some(lo), Some(_)) => ((*lo, lo + DEFAULT_SPAN), true),
            (Some(lo), None) => ((*lo, lo + DEFAULT_SPAN), true),
            // Span-20 completion on the upper side too: a huge `x <= C`
            // must not widen sampling to a million-wide window.
            (None, Some(hi)) => ((hi - DEFAULT_SPAN, *hi), true),
            (None, None) => (DEFAULT_RANGE, false),
        })
        .collect()
}

fn merge_low(slot: &mut Option<i128>, c: i128) {
    *slot = Some(slot.map_or(c, |v| v.max(c)));
}

fn merge_high(slot: &mut Option<i128>, c: i128) {
    *slot = Some(slot.map_or(c, |v| v.min(c)));
}

/// If the expression is a bare reference to an *input* variable, its
/// input index.
fn input_index(program: &Program, e: &Expr) -> Option<usize> {
    let name = match e {
        Expr::Name(n) => n.clone(),
        Expr::Var(id) => program.vars.get(*id)?.clone(),
        _ => return None,
    };
    program.inputs.iter().position(|i| *i == name)
}

/// Constant-folds an expression, if it is constant.
fn const_eval(e: &Expr) -> Option<i128> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Neg(inner) => const_eval(inner)?.checked_neg(),
        Expr::Bin(op, lhs, rhs) => {
            let (l, r) = (const_eval(lhs)?, const_eval(rhs)?);
            match op {
                gcln_lang::BinOp::Add => l.checked_add(r),
                gcln_lang::BinOp::Sub => l.checked_sub(r),
                gcln_lang::BinOp::Mul => l.checked_mul(r),
                gcln_lang::BinOp::Div => (r != 0).then(|| l / r),
                gcln_lang::BinOp::Rem => (r != 0).then(|| l % r),
            }
        }
        _ => None,
    }
}

/// Collects extended terms from builtin calls (`gcd`, `min`, `max`,
/// `abs`) whose arguments are all bare variables, anywhere in the
/// source (pre, post, or body). Calls over compound expressions are
/// skipped — they have no stable variable-space name.
pub fn derive_ext_terms(program: &Program) -> Vec<ExtTerm> {
    let mut out: Vec<ExtTerm> = Vec::new();
    let mut exprs: Vec<&Expr> = Vec::new();
    collect_bool_exprs(&program.pre, &mut exprs);
    collect_bool_exprs(&program.post, &mut exprs);
    let mut stack: Vec<&Stmt> = program.body.iter().collect();
    while let Some(s) = stack.pop() {
        match s {
            Stmt::Assign { value, .. } => exprs.push(value),
            Stmt::If { cond, then_body, else_body } => {
                collect_bool_exprs(cond, &mut exprs);
                stack.extend(then_body.iter());
                stack.extend(else_body.iter());
            }
            Stmt::While { cond, body, .. } => {
                collect_bool_exprs(cond, &mut exprs);
                stack.extend(body.iter());
            }
            Stmt::Assume(cond) => collect_bool_exprs(cond, &mut exprs),
            Stmt::Break => {}
        }
    }
    while let Some(e) = exprs.pop() {
        match e {
            Expr::Call(func, args) if matches!(func.as_str(), "gcd" | "min" | "max" | "abs") => {
                let names: Option<Vec<String>> = args
                    .iter()
                    .map(|a| match a {
                        Expr::Name(n) => Some(n.clone()),
                        Expr::Var(id) => program.vars.get(*id).cloned(),
                        _ => None,
                    })
                    .collect();
                if let Some(names) = names {
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    let t = ExtTerm::new(func, &refs);
                    if !out.iter().any(|o| o.name() == t.name()) {
                        out.push(t);
                    }
                }
                exprs.extend(args.iter());
            }
            Expr::Call(_, args) => exprs.extend(args.iter()),
            Expr::Bin(_, l, r) => {
                exprs.push(l);
                exprs.push(r);
            }
            Expr::Neg(inner) => exprs.push(inner),
            Expr::NondetInt(lo, hi) => {
                exprs.push(lo);
                exprs.push(hi);
            }
            Expr::Int(_) | Expr::Name(_) | Expr::Var(_) => {}
        }
    }
    out.sort_by_key(ExtTerm::name);
    out
}

fn collect_bool_exprs<'a>(b: &'a BoolExpr, out: &mut Vec<&'a Expr>) {
    match b {
        BoolExpr::Const(_) | BoolExpr::Nondet => {}
        BoolExpr::Cmp(_, l, r) => {
            out.push(l);
            out.push(r);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            collect_bool_exprs(a, out);
            collect_bool_exprs(b, out);
        }
        BoolExpr::Not(a) => collect_bool_exprs(a, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_degree_from_post() {
        let spec = ProblemSpec::from_source_str(
            "cube",
            "inputs a; pre a >= 0; post x == a * a * a;
             n = 0; x = 0; y = 1; z = 6;
             while (n != a) { n += 1; x += y; y += z; z += 6; }",
        )
        .unwrap();
        assert_eq!(spec.problem.max_degree, 3);
        assert!(spec.derived.iter().any(|d| d.contains("max_degree 3")), "{:?}", spec.derived);
    }

    #[test]
    fn derives_degree_from_assignments() {
        // Post is linear, but the body multiplies two variables.
        let spec = ProblemSpec::from_source_str(
            "prod",
            "inputs a; pre a >= 1; post p >= 0; p = 1; i = 0;
             while (i < a) { i += 1; p = p * i; }",
        )
        .unwrap();
        assert_eq!(spec.problem.max_degree, 2);
    }

    #[test]
    fn degree_clamps_to_floor_of_two() {
        let spec = ProblemSpec::from_source_str(
            "lin",
            "inputs n; pre n >= 0; post x == 2 * n; x = 0; i = 0;
             while (i < n) { i += 1; x += 2; }",
        )
        .unwrap();
        assert_eq!(spec.problem.max_degree, 2);
    }

    #[test]
    fn derives_ranges_from_pre_bounds() {
        let spec = ProblemSpec::from_source_str(
            "r",
            "inputs a, b, c; pre a >= 3 && a <= 9 && 5 > b && c == 7; post a >= 0; x = a;",
        )
        .unwrap();
        assert_eq!(spec.problem.input_ranges, vec![(3, 9), (-16, 4), (7, 7)]);
    }

    #[test]
    fn no_pre_gets_default_ranges() {
        let spec = ProblemSpec::from_source_str("d", "inputs n; post x >= 0; x = n;").unwrap();
        assert_eq!(spec.problem.input_ranges, vec![DEFAULT_RANGE]);
    }

    #[test]
    fn half_bounded_pre_completes_the_span() {
        let spec =
            ProblemSpec::from_source_str("h", "inputs n; pre n > 1; post x >= 0; x = n;").unwrap();
        assert_eq!(spec.problem.input_ranges, vec![(2, 22)]);
        // Upper-only bounds get the same span-20 completion — a large
        // constant must not widen the sampling window.
        let spec = ProblemSpec::from_source_str(
            "h2",
            "inputs n; pre n <= 1000000; post x >= 0; x = n;",
        )
        .unwrap();
        assert_eq!(spec.problem.input_ranges, vec![(999_980, 1_000_000)]);
    }

    #[test]
    fn derivation_notes_distinguish_pre_from_default() {
        let spec = ProblemSpec::from_source_str(
            "p",
            "inputs a, b; pre a >= 3; post x >= 0; x = a + b;",
        )
        .unwrap();
        assert!(spec.derived.iter().any(|d| d.contains("range a in 3..=23 (from pre)")));
        assert!(spec.derived.iter().any(|d| d.contains("range b in 0..=20 (default)")));
    }

    #[test]
    fn overrides_replace_their_notes_and_reject_bad_ranges() {
        let source = "inputs a, b; pre a >= 3; post x >= 0; x = a + b;";
        let mut spec = ProblemSpec::from_source_str("p", source).unwrap();
        let before = spec.clone();
        for bad in [&[(0, 1), (0, 1), (0, 1)][..], &[(0, 9), (9, 3)][..]] {
            assert!(matches!(spec.apply_overrides(Some(4), bad), Err(SpecError::Override(_))));
            assert_eq!(spec.problem.input_ranges, before.problem.input_ranges);
            assert_eq!(spec.derived, before.derived);
        }
        spec.apply_overrides(Some(4), &[(5, 5)]).unwrap();
        assert_eq!(spec.problem.max_degree, 4);
        assert_eq!(spec.problem.input_ranges, vec![(5, 5), (0, 20)]);
        assert_eq!(spec.derived, vec!["range b in 0..=20 (default)".to_string()]);
    }

    #[test]
    fn nondet_inputs_keep_defaults_and_disjunctions_are_ignored() {
        // `k` only appears in a disjunction (no sound constant bound) and
        // the loop exit is nondeterministic; both fall back to defaults.
        let spec = ProblemSpec::from_source_str(
            "nd",
            "inputs k; pre k >= 100 || k <= -100; post x >= 0;
             x = 0; while (nondet()) { x += nondet(0, k); }",
        )
        .unwrap();
        assert_eq!(spec.problem.input_ranges, vec![DEFAULT_RANGE]);
    }

    #[test]
    fn derives_gcd_ext_term_from_source() {
        let spec = ProblemSpec::from_source_str(
            "g",
            "inputs x, y; pre x >= 1 && y >= 1; post a == gcd(x, y);
             a = x; b = y;
             while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } }",
        )
        .unwrap();
        let names: Vec<String> = spec.problem.ext_terms.iter().map(ExtTerm::name).collect();
        assert_eq!(names, vec!["gcd(x,y)"]);
    }

    #[test]
    fn skips_calls_over_compound_arguments() {
        let spec = ProblemSpec::from_source_str(
            "c",
            "inputs x; pre x >= 0; post y == min(x + 1, 5); y = 0;",
        )
        .unwrap();
        assert!(spec.problem.ext_terms.is_empty());
    }

    #[test]
    fn registry_problems_are_precanned_specs() {
        let spec = ProblemSpec::from_registry("sqrt1").unwrap();
        assert_eq!(spec.problem.name, "sqrt1");
        assert!(spec.derived.is_empty());
        assert!(ProblemSpec::from_registry("no-such").is_none());
    }

    #[test]
    fn file_and_name_fallbacks() {
        let err = ProblemSpec::from_source("/nonexistent/x.loop").unwrap_err();
        assert!(matches!(err, SpecError::Io { .. }));
        let spec = ProblemSpec::from_source_str("fallback", "inputs n; x = n;").unwrap();
        assert_eq!(spec.problem.name, "fallback");
        let spec = ProblemSpec::from_source_str("fb", "program named; inputs n; x = n;").unwrap();
        assert_eq!(spec.problem.name, "named");
    }
}
