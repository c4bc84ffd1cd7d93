//! Quantifier-free SMT formulas over polynomial atoms.
//!
//! An [`Atom`] is a polynomial constraint `p ⋈ 0` over an *extended
//! variable space*: the program variables plus any derived terms the
//! pipeline introduces (e.g. `gcd(x, y)` for the gcd/lcm problems, §5.3 of
//! the paper). [`Formula`] closes atoms under `∧`, `∨`, `¬`.
//!
//! Everything evaluates exactly over [`Rat`] points and approximately over
//! `f64` points; the continuous (fuzzy) semantics lives in
//! [`crate::relax`].

use gcln_numeric::{Poly, Rat};
use std::fmt;

/// Comparison of a polynomial against zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `p = 0`
    Eq,
    /// `p ≠ 0`
    Ne,
    /// `p < 0`
    Lt,
    /// `p ≤ 0`
    Le,
    /// `p > 0`
    Gt,
    /// `p ≥ 0`
    Ge,
}

impl Pred {
    /// The negated predicate (`¬(p ⋈ 0)`).
    pub fn negate(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Lt => Pred::Ge,
            Pred::Le => Pred::Gt,
            Pred::Gt => Pred::Le,
            Pred::Ge => Pred::Lt,
        }
    }

    /// Applies the predicate to an exact value.
    pub fn holds(self, v: Rat) -> bool {
        match self {
            Pred::Eq => v.is_zero(),
            Pred::Ne => !v.is_zero(),
            Pred::Lt => v.is_negative(),
            Pred::Le => !v.is_positive(),
            Pred::Gt => v.is_positive(),
            Pred::Ge => !v.is_negative(),
        }
    }

    /// Applies the predicate to a float with tolerance `eps` for the
    /// equality family.
    pub fn holds_f64(self, v: f64, eps: f64) -> bool {
        match self {
            Pred::Eq => v.abs() <= eps,
            Pred::Ne => v.abs() > eps,
            Pred::Lt => v < -eps,
            Pred::Le => v <= eps,
            Pred::Gt => v > eps,
            Pred::Ge => v >= -eps,
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pred::Eq => "==",
            Pred::Ne => "!=",
            Pred::Lt => "<",
            Pred::Le => "<=",
            Pred::Gt => ">",
            Pred::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A polynomial constraint `poly ⋈ 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct Atom {
    /// Left-hand side; the right-hand side is always zero.
    pub poly: Poly,
    /// The comparison.
    pub pred: Pred,
}

impl Atom {
    /// Creates an atom `poly ⋈ 0`.
    pub fn new(poly: Poly, pred: Pred) -> Atom {
        Atom { poly, pred }
    }

    /// Exact evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` does not match the polynomial's arity.
    pub fn eval(&self, point: &[Rat]) -> bool {
        self.pred.holds(self.poly.eval(point))
    }

    /// Float evaluation with equality tolerance `eps`.
    pub fn eval_f64(&self, point: &[f64], eps: f64) -> bool {
        self.pred.holds_f64(self.poly.eval_f64(point), eps)
    }

    /// Renders with variable names, normalizing `p == 0` style.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Atom, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {} 0", self.0.poly.display(self.1), self.0.pred)
            }
        }
        D(self, names)
    }
}

/// A quantifier-free formula over polynomial atoms.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// A polynomial constraint.
    Atom(Atom),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// Convenience: the atom `poly ⋈ 0` as a formula.
    pub fn atom(poly: Poly, pred: Pred) -> Formula {
        Formula::Atom(Atom::new(poly, pred))
    }

    /// Conjunction of a collection (flattens trivial cases).
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let parts: Vec<Formula> = parts.into_iter().collect();
        match parts.len() {
            0 => Formula::True,
            1 => parts.into_iter().next().expect("len checked"),
            _ => Formula::And(parts),
        }
    }

    /// Disjunction of a collection (flattens trivial cases).
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let parts: Vec<Formula> = parts.into_iter().collect();
        match parts.len() {
            0 => Formula::False,
            1 => parts.into_iter().next().expect("len checked"),
            _ => Formula::Or(parts),
        }
    }

    /// Exact evaluation at a rational point.
    pub fn eval(&self, point: &[Rat]) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval(point),
            Formula::And(fs) => fs.iter().all(|f| f.eval(point)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(point)),
            Formula::Not(f) => !f.eval(point),
        }
    }

    /// Float evaluation with equality tolerance `eps`.
    pub fn eval_f64(&self, point: &[f64], eps: f64) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval_f64(point, eps),
            Formula::And(fs) => fs.iter().all(|f| f.eval_f64(point, eps)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval_f64(point, eps)),
            Formula::Not(f) => !f.eval_f64(point, eps),
        }
    }

    /// Evaluation at an integer point (convenience for checker grids).
    ///
    /// Hot loops should compile the formula once with
    /// [`crate::compile::CompiledFormula`] instead of calling this
    /// repeatedly.
    pub fn eval_i128(&self, point: &[i128]) -> bool {
        let rats: Vec<Rat> = point.iter().map(|&n| Rat::integer(n)).collect();
        self.eval(&rats)
    }

    /// Checked exact evaluation: `None` on `i128` overflow anywhere in
    /// the computation (where [`Formula::eval`] would panic). Evaluates
    /// atoms in the same left-to-right short-circuit order as
    /// [`Formula::eval`].
    pub fn try_eval(&self, point: &[Rat]) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => Some(a.pred.holds(a.poly.try_eval(point)?)),
            Formula::And(fs) => {
                for f in fs {
                    if !f.try_eval(point)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.try_eval(point)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Formula::Not(f) => f.try_eval(point).map(|b| !b),
        }
    }

    /// Checked [`Formula::eval_i128`]: `None` instead of panicking on
    /// overflow.
    pub fn try_eval_i128(&self, point: &[i128]) -> Option<bool> {
        let rats: Vec<Rat> = point.iter().map(|&n| Rat::integer(n)).collect();
        self.try_eval(&rats)
    }

    /// The conjuncts of a top-level conjunction (a non-`And` formula is a
    /// single conjunct).
    pub fn conjuncts(&self) -> Vec<&Formula> {
        match self {
            Formula::And(fs) => fs.iter().collect(),
            Formula::True => Vec::new(),
            other => vec![other],
        }
    }

    /// All atoms, in syntactic order.
    pub fn atoms(&self) -> Vec<&Atom> {
        let mut out = Vec::new();
        fn walk<'a>(f: &'a Formula, out: &mut Vec<&'a Atom>) {
            match f {
                Formula::Atom(a) => out.push(a),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| walk(f, out)),
                Formula::Not(f) => walk(f, out),
                Formula::True | Formula::False => {}
            }
        }
        walk(self, &mut out);
        out
    }

    /// Structural simplification: flattens nested `And`/`Or`, removes
    /// `True`/`False` units, collapses single-element connectives, and
    /// pushes `Not` into atoms.
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => {
                // Normalize trivially-constant atoms.
                if a.poly.is_constant() {
                    let v = a.poly.eval(&vec![Rat::ZERO; a.poly.arity()]);
                    return if a.pred.holds(v) { Formula::True } else { Formula::False };
                }
                Formula::Atom(a.clone())
            }
            Formula::Not(f) => match f.simplify() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Atom(a) => Formula::Atom(Atom::new(a.poly, a.pred.negate())),
                Formula::Not(inner) => *inner,
                other => Formula::Not(Box::new(other)),
            },
            Formula::And(fs) => {
                let mut parts = Vec::new();
                for f in fs {
                    match f.simplify() {
                        Formula::True => {}
                        Formula::False => return Formula::False,
                        Formula::And(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                parts.dedup();
                Formula::and(parts)
            }
            Formula::Or(fs) => {
                let mut parts = Vec::new();
                for f in fs {
                    match f.simplify() {
                        Formula::False => {}
                        Formula::True => return Formula::True,
                        Formula::Or(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                parts.dedup();
                Formula::or(parts)
            }
        }
    }

    /// Applies a polynomial substitution to every atom (see
    /// [`Poly::subst`]). Used to map invariants of the *relaxed* program
    /// (fractional sampling, §4.3) back to the original one by pinning the
    /// initial-value variables.
    pub fn subst(&self, subs: &[Poly]) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(Atom::new(a.poly.subst(subs), a.pred)),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.subst(subs)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.subst(subs)).collect()),
            Formula::Not(f) => Formula::Not(Box::new(f.subst(subs))),
        }
    }

    /// Renders with variable names.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Formula, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Formula::True => write!(f, "true"),
                    Formula::False => write!(f, "false"),
                    Formula::Atom(a) => write!(f, "{}", a.display(self.1)),
                    Formula::And(fs) => {
                        let parts: Vec<String> =
                            fs.iter().map(|x| format!("({})", D(x, self.1))).collect();
                        write!(f, "{}", parts.join(" && "))
                    }
                    Formula::Or(fs) => {
                        let parts: Vec<String> =
                            fs.iter().map(|x| format!("({})", D(x, self.1))).collect();
                        write!(f, "{}", parts.join(" || "))
                    }
                    Formula::Not(x) => write!(f, "!({})", D(x, self.1)),
                }
            }
        }
        D(self, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_numeric::poly::Poly;

    fn r(n: i128) -> Rat {
        Rat::integer(n)
    }

    /// x - y over (x, y)
    fn x_minus_y() -> Poly {
        &Poly::var(0, 2) - &Poly::var(1, 2)
    }

    #[test]
    fn pred_negation_involutive() {
        for p in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            assert_eq!(p.negate().negate(), p);
        }
    }

    #[test]
    fn pred_holds_trichotomy() {
        for v in [-2, 0, 3].map(r) {
            assert!(Pred::Lt.holds(v) || Pred::Eq.holds(v) || Pred::Gt.holds(v));
            assert_eq!(Pred::Le.holds(v), !Pred::Gt.holds(v));
            assert_eq!(Pred::Ge.holds(v), !Pred::Lt.holds(v));
            assert_eq!(Pred::Ne.holds(v), !Pred::Eq.holds(v));
        }
    }

    #[test]
    fn atom_eval() {
        let a = Atom::new(x_minus_y(), Pred::Ge); // x - y >= 0
        assert!(a.eval(&[r(3), r(2)]));
        assert!(a.eval(&[r(2), r(2)]));
        assert!(!a.eval(&[r(1), r(2)]));
    }

    #[test]
    fn formula_eval_connectives() {
        let ge = Formula::atom(x_minus_y(), Pred::Ge);
        let ne = Formula::atom(x_minus_y(), Pred::Ne);
        let conj = Formula::and([ge.clone(), ne.clone()]); // x > y
        assert!(conj.eval(&[r(3), r(2)]));
        assert!(!conj.eval(&[r(2), r(2)]));
        let disj = Formula::or([ge, Formula::Not(Box::new(ne))]); // x >= y || x == y
        assert!(disj.eval(&[r(2), r(2)]));
        assert!(!disj.eval(&[r(1), r(2)]));
    }

    #[test]
    fn eval_f64_tolerance() {
        let eq = Formula::atom(x_minus_y(), Pred::Eq);
        assert!(eq.eval_f64(&[1.0, 1.0 + 1e-9], 1e-6));
        assert!(!eq.eval_f64(&[1.0, 1.1], 1e-6));
    }

    #[test]
    fn simplify_flattens_and_prunes() {
        let a = Formula::atom(x_minus_y(), Pred::Ge);
        let nested =
            Formula::And(vec![Formula::True, Formula::And(vec![a.clone(), Formula::True])]);
        assert_eq!(nested.simplify(), a);
        let with_false = Formula::And(vec![a.clone(), Formula::False]);
        assert_eq!(with_false.simplify(), Formula::False);
        let or_true = Formula::Or(vec![a.clone(), Formula::True]);
        assert_eq!(or_true.simplify(), Formula::True);
    }

    #[test]
    fn simplify_pushes_not_into_atoms() {
        let a = Formula::atom(x_minus_y(), Pred::Ge);
        let double_neg = Formula::Not(Box::new(Formula::Not(Box::new(a.clone()))));
        assert_eq!(double_neg.simplify(), a);
        let neg = Formula::Not(Box::new(a)).simplify();
        let Formula::Atom(at) = neg else { panic!() };
        assert_eq!(at.pred, Pred::Lt);
    }

    #[test]
    fn simplify_constant_atoms() {
        let trivially_true = Formula::atom(Poly::constant(r(0), 2), Pred::Eq);
        assert_eq!(trivially_true.simplify(), Formula::True);
        let trivially_false = Formula::atom(Poly::constant(r(1), 2), Pred::Eq);
        assert_eq!(trivially_false.simplify(), Formula::False);
    }

    #[test]
    fn conjuncts_and_atoms() {
        let a = Formula::atom(x_minus_y(), Pred::Ge);
        let b = Formula::atom(x_minus_y(), Pred::Ne);
        let f = Formula::and([a.clone(), b.clone()]);
        assert_eq!(f.conjuncts().len(), 2);
        assert_eq!(f.atoms().len(), 2);
        assert_eq!(Formula::True.conjuncts().len(), 0);
        assert_eq!(a.conjuncts().len(), 1);
    }

    #[test]
    fn subst_pins_initial_values() {
        // Relaxed invariant over (x, x0): x - x0 - 3 == 0. Pin x0 = 0 →
        // invariant over (x): x - 3 == 0.
        let relaxed = Formula::atom(
            &(&Poly::var(0, 2) - &Poly::var(1, 2)) - &Poly::constant(r(3), 2),
            Pred::Eq,
        );
        let subs = [Poly::var(0, 1), Poly::zero(1)];
        let pinned = relaxed.subst(&subs);
        assert!(pinned.eval(&[r(3)]));
        assert!(!pinned.eval(&[r(0)]));
    }

    #[test]
    fn display_readable() {
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let f = Formula::and([
            Formula::atom(x_minus_y(), Pred::Ge),
            Formula::atom(x_minus_y(), Pred::Ne),
        ]);
        assert_eq!(f.display(&names).to_string(), "(x - y >= 0) && (x - y != 0)");
    }
}
