//! # gcln-problems — the benchmark suites of the G-CLN paper
//!
//! Two suites:
//!
//! - [`nla`]: the 27-problem **NLA** nonlinear-invariant benchmark
//!   (Nguyen et al.), the subject of the paper's Table 2/3 — every program
//!   transcribed into the [`gcln_lang`] loop language, with documented
//!   ground-truth invariants per loop.
//! - [`linear`]: a 124-problem **linear** suite shaped like the Code2Inv
//!   benchmark (§6.4). The original C/SMT files are not redistributable
//!   here; the suite regenerates the same scale from the benchmark's
//!   template families with varied constants.
//!
//! A [`Problem`] bundles the program, sampling ranges, term-enumeration
//! degree, extended (external-function) terms such as `gcd(x,y)`, and
//! ground-truth invariants used by tests and the experiment harnesses.

use gcln_lang::interp::Num;
use gcln_lang::Program;
use gcln_logic::{parse_formula, Formula};

pub mod linear;
pub mod nla;

/// Which suite a problem belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The 27-problem nonlinear NLA benchmark (paper Table 2).
    Nla,
    /// The 124-problem linear suite (paper §6.4).
    Linear,
}

/// A derived term computed from an external function over program
/// variables, e.g. `gcd(x, y)` (paper §5.3). Extended terms become extra
/// dimensions of the invariant's variable space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtTerm {
    /// Builtin name (`gcd`, `min`, `max`, `abs`).
    pub func: String,
    /// Argument variable names.
    pub args: Vec<String>,
}

impl ExtTerm {
    /// Creates an extended term.
    pub fn new(func: &str, args: &[&str]) -> ExtTerm {
        ExtTerm { func: func.to_string(), args: args.iter().map(|s| s.to_string()).collect() }
    }

    /// Canonical display name, e.g. `gcd(x,y)` — this is the variable name
    /// the formula layer sees.
    pub fn name(&self) -> String {
        format!("{}({})", self.func, self.args.join(","))
    }

    /// Evaluates the term in an environment.
    ///
    /// # Panics
    ///
    /// Panics if an argument name is missing from the program or the
    /// function is unknown.
    pub fn eval<N: Num>(&self, program: &Program, env: &[N]) -> N {
        let vals: Vec<N> = self
            .args
            .iter()
            .map(|a| {
                let id = program
                    .var_id(a)
                    .unwrap_or_else(|| panic!("extended term references unknown variable `{a}`"));
                env[id]
            })
            .collect();
        match self.func.as_str() {
            "gcd" => {
                let a = vals[0].as_integer().expect("gcd needs integral arguments");
                let b = vals[1].as_integer().expect("gcd needs integral arguments");
                let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
                while b != 0 {
                    let t = a % b;
                    a = b;
                    b = t;
                }
                N::from_i128(a as i128)
            }
            "min" => {
                if vals[0] <= vals[1] {
                    vals[0]
                } else {
                    vals[1]
                }
            }
            "max" => {
                if vals[0] >= vals[1] {
                    vals[0]
                } else {
                    vals[1]
                }
            }
            "abs" => {
                if vals[0] >= N::from_i128(0) {
                    vals[0]
                } else {
                    N::from_i128(0).sub_checked(vals[0]).expect("abs overflow")
                }
            }
            other => panic!("unknown extended function `{other}`"),
        }
    }
}

/// A ground-truth invariant for one loop, stated as formula text over the
/// extended variable space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    /// Dense loop id (source order).
    pub loop_id: usize,
    /// Formula text (parse with [`Problem::extended_names`]).
    pub formula: String,
}

/// A benchmark problem: program + inference configuration + ground truth.
#[derive(Clone, Debug)]
pub struct Problem {
    /// Unique problem name (matches the paper's Table 2 where applicable).
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// Loop-language source text.
    pub source: String,
    /// Parsed, resolved program.
    pub program: Program,
    /// Maximum monomial degree for term enumeration (the paper's
    /// `maxDeg`).
    pub max_degree: u32,
    /// Inclusive sampling ranges for each input, in input order.
    pub input_ranges: Vec<(i128, i128)>,
    /// Extended (external-function) terms, if any.
    pub ext_terms: Vec<ExtTerm>,
    /// Documented ground-truth invariants.
    pub ground_truth: Vec<GroundTruth>,
    /// Polynomial degree reported in the paper's Table 2 (NLA only).
    pub table_degree: u32,
    /// Variable count reported in the paper's Table 2 (NLA only).
    pub table_vars: usize,
    /// Whether the paper's G-CLN solves it (only `knuth` is false).
    pub expected_solved: bool,
}

impl Problem {
    /// The extended variable-name space: program variables followed by
    /// extended-term names. Invariant formulas live over this space.
    pub fn extended_names(&self) -> Vec<String> {
        let mut names = self.program.vars.clone();
        names.extend(self.ext_terms.iter().map(ExtTerm::name));
        names
    }

    /// Extends a program state with the extended-term values.
    pub fn extend_state<N: Num>(&self, env: &[N]) -> Vec<N> {
        let mut out = env.to_vec();
        out.extend(self.ext_terms.iter().map(|t| t.eval(&self.program, env)));
        out
    }

    /// Parses all ground-truth invariants.
    ///
    /// # Panics
    ///
    /// Panics if a stored formula fails to parse — that is a bug in the
    /// suite, caught by tests.
    pub fn parsed_ground_truth(&self) -> Vec<(usize, Formula)> {
        let names = self.extended_names();
        self.ground_truth
            .iter()
            .map(|gt| {
                let f = parse_formula(&gt.formula, &names).unwrap_or_else(|e| {
                    panic!(
                        "ground truth for `{}` loop {} does not parse: {e}",
                        self.name, gt.loop_id
                    )
                });
                (gt.loop_id, f)
            })
            .collect()
    }
}

/// Builder used by the suite modules.
pub(crate) struct ProblemBuilder {
    name: String,
    suite: Suite,
    source: String,
    max_degree: u32,
    input_ranges: Vec<(i128, i128)>,
    ext_terms: Vec<ExtTerm>,
    ground_truth: Vec<GroundTruth>,
    table_degree: u32,
    table_vars: usize,
    expected_solved: bool,
}

impl ProblemBuilder {
    pub(crate) fn new(name: &str, suite: Suite, source: &str) -> ProblemBuilder {
        ProblemBuilder {
            name: name.to_string(),
            suite,
            source: source.to_string(),
            max_degree: 2,
            input_ranges: Vec::new(),
            ext_terms: Vec::new(),
            ground_truth: Vec::new(),
            table_degree: 2,
            table_vars: 0,
            expected_solved: true,
        }
    }

    pub(crate) fn max_degree(mut self, d: u32) -> Self {
        self.max_degree = d;
        self
    }

    pub(crate) fn ranges(mut self, r: &[(i128, i128)]) -> Self {
        self.input_ranges = r.to_vec();
        self
    }

    pub(crate) fn ext(mut self, t: ExtTerm) -> Self {
        self.ext_terms.push(t);
        self
    }

    pub(crate) fn truth(mut self, loop_id: usize, formula: &str) -> Self {
        self.ground_truth.push(GroundTruth { loop_id, formula: formula.to_string() });
        self
    }

    pub(crate) fn table(mut self, degree: u32, vars: usize) -> Self {
        self.table_degree = degree;
        self.table_vars = vars;
        self
    }

    pub(crate) fn unsolved(mut self) -> Self {
        self.expected_solved = false;
        self
    }

    pub(crate) fn build(self) -> Problem {
        let program = gcln_lang::parse_program(&self.source)
            .unwrap_or_else(|e| panic!("problem `{}` does not parse: {e}", self.name));
        assert_eq!(
            program.inputs.len(),
            self.input_ranges.len(),
            "problem `{}`: one sampling range per input",
            self.name
        );
        Problem {
            name: self.name,
            suite: self.suite,
            source: self.source,
            program,
            max_degree: self.max_degree,
            input_ranges: self.input_ranges,
            ext_terms: self.ext_terms,
            ground_truth: self.ground_truth,
            table_degree: self.table_degree,
            table_vars: self.table_vars,
            expected_solved: self.expected_solved,
        }
    }
}

/// Deterministically samples up to `max_samples` input tuples from a
/// problem's declared ranges (a near-uniform grid including the range
/// endpoints). The pipeline filters tuples through the precondition by
/// running the program.
///
/// # Examples
///
/// ```
/// let p = gcln_problems::nla::nla_problem("sqrt1").unwrap();
/// let inputs = gcln_problems::sample_inputs(&p, 10);
/// assert!(inputs.len() <= 10 && !inputs.is_empty());
/// ```
pub fn sample_inputs(problem: &Problem, max_samples: usize) -> Vec<Vec<i128>> {
    let dims = problem.input_ranges.len();
    if dims == 0 {
        return vec![Vec::new()];
    }
    let per_dim = (max_samples as f64).powf(1.0 / dims as f64).floor().max(1.0) as usize;
    let axes: Vec<Vec<i128>> = problem
        .input_ranges
        .iter()
        .map(|&(lo, hi)| {
            let span = (hi - lo).max(0) as usize;
            let count = per_dim.min(span + 1).max(1);
            let mut vals: Vec<i128> = (0..count)
                .map(|i| if count == 1 { lo } else { lo + (span * i / (count - 1)) as i128 })
                .collect();
            vals.dedup();
            vals
        })
        .collect();
    let mut out = vec![Vec::new()];
    for axis in &axes {
        let mut next = Vec::with_capacity(out.len() * axis.len());
        for prefix in &out {
            for &v in axis {
                let mut tuple = prefix.clone();
                tuple.push(v);
                next.push(tuple);
            }
        }
        out = next;
    }
    out.truncate(max_samples.max(1));
    out
}

/// All problems from both suites.
pub fn all_problems() -> Vec<Problem> {
    let mut v = nla::nla_suite();
    v.extend(linear::linear_suite());
    v
}

/// Looks up a problem by name across both suites.
pub fn find_problem(name: &str) -> Option<Problem> {
    all_problems().into_iter().find(|p| p.name == name)
}

/// Looks up a whole suite by its CLI label (`nla` or `linear`).
///
/// # Examples
///
/// ```
/// assert_eq!(gcln_problems::suite_by_name("nla").unwrap().len(), 27);
/// assert!(gcln_problems::suite_by_name("jupiter").is_none());
/// ```
pub fn suite_by_name(name: &str) -> Option<Vec<Problem>> {
    match name {
        "nla" => Some(nla::nla_suite()),
        "linear" => Some(linear::linear_suite()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_term_name_and_eval() {
        let p = gcln_lang::parse_program("inputs x, y; g = 0;").unwrap();
        let t = ExtTerm::new("gcd", &["x", "y"]);
        assert_eq!(t.name(), "gcd(x,y)");
        assert_eq!(t.eval(&p, &[12i128, 18, 0]), 6);
    }

    #[test]
    fn find_problem_by_name() {
        assert!(find_problem("sqrt1").is_some());
        assert!(find_problem("no-such-problem").is_none());
    }

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(nla::nla_suite().len(), 27);
        assert_eq!(linear::linear_suite().len(), 124);
    }
}
