//! Compiled formula evaluation: flat bytecode over integer states.
//!
//! [`Formula::eval_i128`] walks the formula tree recursively and converts
//! every point to a fresh `Vec<Rat>` per call — fine for one evaluation,
//! ruinous for the checker, which evaluates the same candidate over
//! thousands of `state × mutation` combinations. [`CompiledFormula`]
//! compiles a formula once into:
//!
//! - a flat instruction sequence with short-circuit jumps that mirrors the
//!   tree's left-to-right `&&`/`||` evaluation order exactly, and
//! - one `CompiledAtom` per polynomial constraint, with coefficients
//!   scaled to a common denominator so evaluation is pure overflow-checked
//!   `i128` arithmetic — no recursion, no per-call allocation.
//!
//! Evaluation returns `None` where the interpreted path would panic on
//! `i128` overflow (callers fall back to the exact evaluator, which in
//! practice never happens on checker states). [`CompiledPoly`] is the
//! rational-point analogue used by extraction's atom fitting.

use crate::formula::{Atom, Formula, Pred};
use gcln_numeric::{Poly, Rat};

/// A polynomial compiled to flat term arrays for repeated evaluation.
///
/// Terms are stored as a coefficient plus a run of `(variable, exponent)`
/// factors; evaluation walks the two arrays with no heap traffic.
#[derive(Clone, Debug)]
pub struct CompiledPoly {
    arity: usize,
    coeffs: Vec<Rat>,
    /// Exclusive end offset of each term's factor run in `factors`.
    term_ends: Vec<u32>,
    factors: Vec<(u16, u16)>,
}

/// Extracts the flat term layout shared by [`CompiledPoly`] and
/// [`IntPoly`]: per-term factor runs and their exclusive end offsets.
/// `None` when a variable index or exponent exceeds `u16`, or the factor
/// count exceeds `u32` (far beyond anything the pipeline builds).
#[allow(clippy::type_complexity)] // (term_ends, factors) pair, used twice
fn flat_layout(poly: &Poly) -> Option<(Vec<u32>, Vec<(u16, u16)>)> {
    let mut term_ends = Vec::with_capacity(poly.num_terms());
    let mut factors = Vec::new();
    for (m, _) in poly.iter() {
        for i in 0..m.arity() {
            let e = m.exp(i);
            if e > 0 {
                factors.push((u16::try_from(i).ok()?, u16::try_from(e).ok()?));
            }
        }
        term_ends.push(u32::try_from(factors.len()).ok()?);
    }
    Some((term_ends, factors))
}

impl CompiledPoly {
    /// Compiles a polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the arity exceeds `u16::MAX` variables or an exponent
    /// exceeds `u16::MAX` (far beyond anything the pipeline builds).
    pub fn compile(poly: &Poly) -> CompiledPoly {
        let (term_ends, factors) = flat_layout(poly).expect("arity or exponent exceeds u16");
        let coeffs = poly.iter().map(|(_, c)| *c).collect();
        CompiledPoly { arity: poly.arity(), coeffs, term_ends, factors }
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Evaluates at a rational point, matching [`Poly::eval`] (including
    /// its panics on `i128` overflow).
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.arity()` or on overflow.
    pub fn eval_rat(&self, point: &[Rat]) -> Rat {
        assert_eq!(point.len(), self.arity, "point arity mismatch");
        let mut acc = Rat::ZERO;
        let mut start = 0usize;
        for (c, &end) in self.coeffs.iter().zip(&self.term_ends) {
            // Monomial product first, then the coefficient — the same
            // association as `Poly::eval`.
            let mut mono = Rat::ONE;
            for &(var, exp) in &self.factors[start..end as usize] {
                mono *= point[var as usize].pow(i32::from(exp));
            }
            acc += *c * mono;
            start = end as usize;
        }
        acc
    }

    /// Evaluates at an `f64` point, matching [`Poly::eval_f64`]
    /// bit-for-bit (same multiplication association, so tolerance-based
    /// fit decisions cannot drift between the two evaluators).
    pub fn eval_f64(&self, point: &[f64]) -> f64 {
        let mut acc = 0.0;
        let mut start = 0usize;
        for (c, &end) in self.coeffs.iter().zip(&self.term_ends) {
            let mut mono = 1.0;
            for &(var, exp) in &self.factors[start..end as usize] {
                mono *= point[var as usize].powi(i32::from(exp));
            }
            acc += c.to_f64() * mono;
            start = end as usize;
        }
        acc
    }
}

/// Integer-scaled flat polynomial: all coefficients multiplied by the
/// (positive) common denominator, so the value's *sign* matches the
/// original and evaluation is pure checked `i128` arithmetic.
#[derive(Clone, Debug)]
struct IntPoly {
    coeffs: Vec<i128>,
    term_ends: Vec<u32>,
    factors: Vec<(u16, u16)>,
}

impl IntPoly {
    /// Scales the polynomial's coefficients to integers, or `None` when
    /// the common denominator or a scaled coefficient overflows `i128`
    /// (or the term layout exceeds the flat encoding's limits).
    fn compile(poly: &Poly) -> Option<IntPoly> {
        let mut lcm: i128 = 1;
        for (_, c) in poly.iter() {
            let d = c.denom();
            let g = gcln_numeric::rat::gcd_i128(lcm, d);
            lcm = (lcm / g).checked_mul(d)?;
        }
        let (term_ends, factors) = flat_layout(poly)?;
        let coeffs = poly
            .iter()
            .map(|(_, c)| c.numer().checked_mul(lcm / c.denom()))
            .collect::<Option<Vec<i128>>>()?;
        Some(IntPoly { coeffs, term_ends, factors })
    }

    /// Checked evaluation; `None` on overflow.
    #[inline]
    fn eval(&self, point: &[i128]) -> Option<i128> {
        let mut acc: i128 = 0;
        let mut start = 0usize;
        for (&c, &end) in self.coeffs.iter().zip(&self.term_ends) {
            let mut term = c;
            for &(var, exp) in &self.factors[start..end as usize] {
                term = term.checked_mul(pow_checked(point[var as usize], exp)?)?;
            }
            acc = acc.checked_add(term)?;
            start = end as usize;
        }
        Some(acc)
    }
}

/// Checked integer exponentiation by squaring.
#[inline]
fn pow_checked(base: i128, exp: u16) -> Option<i128> {
    let mut result: i128 = 1;
    let mut base = base;
    let mut e = exp;
    while e > 0 {
        if e & 1 == 1 {
            result = result.checked_mul(base)?;
        }
        e >>= 1;
        if e > 0 {
            base = base.checked_mul(base)?;
        }
    }
    Some(result)
}

/// A compiled polynomial constraint `p ⋈ 0`.
#[derive(Clone, Debug)]
struct CompiledAtom {
    pred: Pred,
    /// Integer-scaled fast path; `None` when scaling overflowed, in which
    /// case `exact` is evaluated over a `Rat` point instead.
    int: Option<IntPoly>,
    exact: Poly,
}

impl CompiledAtom {
    fn compile(atom: &Atom) -> CompiledAtom {
        CompiledAtom {
            pred: atom.pred,
            int: IntPoly::compile(&atom.poly),
            exact: atom.poly.clone(),
        }
    }

    /// Evaluates at an integer point; `None` where exact evaluation would
    /// overflow `i128`.
    fn eval(&self, point: &[i128]) -> Option<bool> {
        if let Some(int) = &self.int {
            if let Some(v) = int.eval(point) {
                return Some(match self.pred {
                    Pred::Eq => v == 0,
                    Pred::Ne => v != 0,
                    Pred::Lt => v < 0,
                    Pred::Le => v <= 0,
                    Pred::Gt => v > 0,
                    Pred::Ge => v >= 0,
                });
            }
        }
        // Cold path: scaled-integer evaluation overflowed (or scaling
        // itself did); retry with exact rational arithmetic, which
        // cross-reduces and may still fit.
        let rats: Vec<Rat> = point.iter().map(|&n| Rat::integer(n)).collect();
        Some(self.pred.holds(self.exact.try_eval(&rats)?))
    }
}

/// One instruction of a compiled formula.
///
/// Evaluation is a single boolean accumulator plus a program counter; the
/// jump targets implement the tree evaluator's short-circuiting exactly,
/// so atoms are evaluated in the same order and under the same skipping
/// as [`Formula::eval_i128`].
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Evaluate atom `i` into the accumulator.
    Atom(u32),
    /// Jump when the accumulator is false (short-circuit `&&`).
    JumpIfFalse(u32),
    /// Jump when the accumulator is true (short-circuit `||`).
    JumpIfTrue(u32),
    /// Negate the accumulator.
    Not,
    /// Load a constant.
    Const(bool),
}

/// A formula compiled for repeated evaluation over integer states.
///
/// # Examples
///
/// ```
/// use gcln_logic::{parse_formula, CompiledFormula};
/// let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
/// let f = parse_formula("x + y >= 0 && x != y", &names).unwrap();
/// let compiled = CompiledFormula::compile(&f);
/// assert_eq!(compiled.eval(&[3, 2]), Some(true));
/// assert_eq!(compiled.eval(&[2, 2]), Some(false));
/// ```
#[derive(Clone, Debug)]
pub struct CompiledFormula {
    ops: Vec<Op>,
    atoms: Vec<CompiledAtom>,
}

impl CompiledFormula {
    /// Compiles a formula.
    pub fn compile(formula: &Formula) -> CompiledFormula {
        let mut c = CompiledFormula { ops: Vec::new(), atoms: Vec::new() };
        c.emit(formula);
        c
    }

    fn emit(&mut self, formula: &Formula) {
        match formula {
            Formula::True => self.ops.push(Op::Const(true)),
            Formula::False => self.ops.push(Op::Const(false)),
            Formula::Atom(a) => {
                self.atoms.push(CompiledAtom::compile(a));
                let idx = u32::try_from(self.atoms.len() - 1).expect("atom count exceeds u32");
                self.ops.push(Op::Atom(idx));
            }
            Formula::Not(f) => {
                self.emit(f);
                self.ops.push(Op::Not);
            }
            Formula::And(fs) => self.emit_chain(fs, true),
            Formula::Or(fs) => self.emit_chain(fs, false),
        }
    }

    /// Emits an `&&` (`conjunction = true`) or `||` chain with
    /// short-circuit jumps to the end of the chain.
    fn emit_chain(&mut self, parts: &[Formula], conjunction: bool) {
        if parts.is_empty() {
            // `all` of nothing is true, `any` of nothing is false.
            self.ops.push(Op::Const(conjunction));
            return;
        }
        let mut jumps = Vec::new();
        for (i, f) in parts.iter().enumerate() {
            self.emit(f);
            if i + 1 < parts.len() {
                jumps.push(self.ops.len());
                self.ops.push(if conjunction { Op::JumpIfFalse(0) } else { Op::JumpIfTrue(0) });
            }
        }
        let end = u32::try_from(self.ops.len()).expect("op count exceeds u32");
        for j in jumps {
            self.ops[j] = if conjunction { Op::JumpIfFalse(end) } else { Op::JumpIfTrue(end) };
        }
    }

    /// Number of compiled atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Evaluates at an integer point.
    ///
    /// Returns `None` where [`Formula::eval_i128`] would panic on `i128`
    /// overflow; otherwise the result is identical (the same atoms are
    /// evaluated, in the same short-circuit order).
    pub fn eval(&self, point: &[i128]) -> Option<bool> {
        let mut acc = true;
        let mut pc = 0usize;
        while let Some(op) = self.ops.get(pc) {
            match *op {
                Op::Const(b) => acc = b,
                Op::Not => acc = !acc,
                Op::Atom(i) => acc = self.atoms[i as usize].eval(point)?,
                Op::JumpIfFalse(target) => {
                    if !acc {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue(target) => {
                    if acc {
                        pc = target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Some(acc)
    }

    /// Evaluates a batch of states, appending one result per state to
    /// `out` (cleared first).
    pub fn eval_batch(&self, points: &[Vec<i128>], out: &mut Vec<Option<bool>>) {
        out.clear();
        out.reserve(points.len());
        out.extend(points.iter().map(|p| self.eval(p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula;
    use gcln_numeric::poly::Monomial;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn matches_tree_eval_on_connectives() {
        let ns = names(&["x", "y"]);
        let f = parse_formula("(x >= 0 && y >= 0) || !(x == y)", &ns).unwrap();
        let c = CompiledFormula::compile(&f);
        for x in -3..=3i128 {
            for y in -3..=3i128 {
                assert_eq!(c.eval(&[x, y]), Some(f.eval_i128(&[x, y])), "at ({x}, {y})");
            }
        }
    }

    #[test]
    fn constants_and_empty_connectives() {
        assert_eq!(CompiledFormula::compile(&Formula::True).eval(&[]), Some(true));
        assert_eq!(CompiledFormula::compile(&Formula::False).eval(&[]), Some(false));
        assert_eq!(CompiledFormula::compile(&Formula::And(vec![])).eval(&[]), Some(true));
        assert_eq!(CompiledFormula::compile(&Formula::Or(vec![])).eval(&[]), Some(false));
    }

    #[test]
    fn rational_coefficients_are_scaled() {
        // x/2 - 1/3 >= 0 scaled to 3x - 2 >= 0.
        let poly = Poly::from_terms(
            1,
            [
                (Rat::new(1, 2), Monomial::var(0, 1)),
                (Rat::new(-1, 3), Monomial::one(1)),
            ],
        );
        let f = Formula::atom(poly, Pred::Ge);
        let c = CompiledFormula::compile(&f);
        for x in -2..=2i128 {
            assert_eq!(c.eval(&[x]), Some(f.eval_i128(&[x])), "at {x}");
        }
    }

    #[test]
    fn overflow_yields_none() {
        let ns = names(&["x"]);
        let f = parse_formula("x^3 >= 0", &ns).unwrap();
        let c = CompiledFormula::compile(&f);
        assert_eq!(c.eval(&[1 << 60]), None);
        assert_eq!(c.eval(&[2]), Some(true));
    }

    #[test]
    fn short_circuit_skips_overflowing_atoms() {
        // `false && overflow` must short-circuit to false without
        // touching the overflowing atom — same as the tree evaluator.
        let ns = names(&["x"]);
        let f = parse_formula("x < 0 && x^3 >= 0", &ns).unwrap();
        let c = CompiledFormula::compile(&f);
        assert_eq!(c.eval(&[1 << 60]), Some(false));
        // `true || overflow` likewise.
        let g = parse_formula("x > 0 || x^3 >= 0", &ns).unwrap();
        let cg = CompiledFormula::compile(&g);
        assert_eq!(cg.eval(&[1 << 60]), Some(true));
    }

    #[test]
    fn batch_eval_matches_single() {
        let ns = names(&["x", "y"]);
        let f = parse_formula("x^2 + y^2 <= 25 && x <= y", &ns).unwrap();
        let c = CompiledFormula::compile(&f);
        let points: Vec<Vec<i128>> =
            (-4..=4).flat_map(|x| (-4..=4).map(move |y| vec![x, y])).collect();
        let mut out = Vec::new();
        c.eval_batch(&points, &mut out);
        assert_eq!(out.len(), points.len());
        for (p, r) in points.iter().zip(&out) {
            assert_eq!(*r, c.eval(p));
            assert_eq!(*r, Some(f.eval_i128(p)));
        }
    }

    #[test]
    fn compiled_poly_matches_eval() {
        let ns = names(&["x", "y"]);
        let f = parse_formula("2*x^2 - 3*y + 1 == 0", &ns).unwrap();
        let atom = f.atoms()[0];
        let cp = CompiledPoly::compile(&atom.poly);
        for x in -3..=3i128 {
            for y in -3..=3i128 {
                let pt = [Rat::integer(x), Rat::integer(y)];
                assert_eq!(cp.eval_rat(&pt), atom.poly.eval(&pt));
                let fpt = [x as f64, y as f64];
                assert_eq!(cp.eval_f64(&fpt), atom.poly.eval_f64(&fpt));
            }
        }
    }
}
