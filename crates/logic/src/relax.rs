//! The parametric relaxation `S` mapping SMT formulas to continuous truth
//! values (paper §2.3 and §4.2).
//!
//! Two families of atom relaxations are provided:
//!
//! - **Sigmoid** (original CLN, §2.3): `S(t ≥ u) = σ(B(t−u+ε))`. Loose
//!   bounds score *higher* — the flaw Fig. 7a illustrates.
//! - **PBQU + Gaussian** (G-CLN, §4.2): the Piecewise Biased Quadratic
//!   Unit `S(t ≥ u) = c₁²/((t−u)²+c₁²)` below the boundary and
//!   `c₂²/((t−u)²+c₂²)` above, which *penalizes slack* and so prefers
//!   tight bounds (Fig. 7b); equalities use the Gaussian
//!   `exp(−(t−u)²/2σ²)`.
//!
//! [`relax_formula`] evaluates a whole [`Formula`] continuously, combining
//! atoms with a [`TNorm`]; this realizes the paper's `S` operator and
//! regenerates Fig. 2.

use crate::formula::{Formula, Pred};
use crate::fuzzy::TNorm;

/// Sigmoid relaxation of `x ≥ 0` with sharpness `b` and shift `eps`
/// (paper §2.3, `S(x₁ ≥ x₂) = 1/(1+e^{−B(x₁−x₂+ε)})`).
pub fn sigmoid_ge(x: f64, b: f64, eps: f64) -> f64 {
    1.0 / (1.0 + (-b * (x + eps)).exp())
}

/// Sigmoid relaxation of `x > 0` (shifted by `−ε`).
pub fn sigmoid_gt(x: f64, b: f64, eps: f64) -> f64 {
    1.0 / (1.0 + (-b * (x - eps)).exp())
}

/// The PBQU relaxation of `x ≥ 0` (paper Eq. 3):
/// `c₁²/(x²+c₁²)` for `x < 0`, `c₂²/(x²+c₂²)` for `x ≥ 0`.
///
/// As `c₁ → 0, c₂ → ∞` this approaches the discrete `≥`. Its key property
/// (Theorem 4.2) is that maximizing it over samples learns a *tight*
/// bound.
///
/// # Examples
///
/// ```
/// use gcln_logic::relax::pbqu_ge;
/// // Satisfied but loose (x far above 0) scores below a just-satisfied x.
/// assert!(pbqu_ge(0.1, 0.5, 5.0) > pbqu_ge(40.0, 0.5, 5.0));
/// // Violations score lower still.
/// assert!(pbqu_ge(-1.0, 0.5, 5.0) < pbqu_ge(1.0, 0.5, 5.0));
/// ```
pub fn pbqu_ge(x: f64, c1: f64, c2: f64) -> f64 {
    if x < 0.0 {
        c1 * c1 / (x * x + c1 * c1)
    } else {
        c2 * c2 / (x * x + c2 * c2)
    }
}

/// Gaussian relaxation of `x = 0` (paper §4.2): `exp(−x²/2σ²)`.
pub fn gaussian_eq(x: f64, sigma: f64) -> f64 {
    (-x * x / (2.0 * sigma * sigma)).exp()
}

/// Which atom relaxation family to use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RelaxKind {
    /// Original-CLN sigmoids for inequalities, Gaussian for equalities.
    Sigmoid {
        /// Sharpness `B`.
        b: f64,
        /// Shift `ε`.
        eps: f64,
        /// Gaussian width `σ` for equalities.
        sigma: f64,
    },
    /// G-CLN PBQUs for inequalities, Gaussian for equalities.
    Pbqu {
        /// Below-boundary constant `c₁` (small → sharp penalty).
        c1: f64,
        /// Above-boundary constant `c₂` (large → slack penalty is mild
        /// but nonzero).
        c2: f64,
        /// Strict-inequality shift `ε`.
        eps: f64,
        /// Gaussian width `σ` for equalities.
        sigma: f64,
    },
}

impl RelaxKind {
    /// The paper's plotting hyperparameters for Fig. 7 (`B=5, ε=0.5,
    /// c₁=0.5, c₂=5`) with σ = 0.1.
    pub fn paper_fig7_sigmoid() -> RelaxKind {
        RelaxKind::Sigmoid { b: 5.0, eps: 0.5, sigma: 0.1 }
    }

    /// See [`RelaxKind::paper_fig7_sigmoid`].
    pub fn paper_fig7_pbqu() -> RelaxKind {
        RelaxKind::Pbqu { c1: 0.5, c2: 5.0, eps: 0.5, sigma: 0.1 }
    }

    /// The paper's training hyperparameters (§6: σ=0.1, c₁=1, c₂=50).
    pub fn paper_training() -> RelaxKind {
        RelaxKind::Pbqu { c1: 1.0, c2: 50.0, eps: 0.5, sigma: 0.1 }
    }

    /// Relaxes `v ⋈ 0` to a continuous truth value, where `v` is the
    /// evaluated atom polynomial.
    pub fn atom(&self, pred: Pred, v: f64) -> f64 {
        match *self {
            RelaxKind::Sigmoid { b, eps, sigma } => match pred {
                Pred::Ge => sigmoid_ge(v, b, eps),
                Pred::Gt => sigmoid_gt(v, b, eps),
                Pred::Le => sigmoid_ge(-v, b, eps),
                Pred::Lt => sigmoid_gt(-v, b, eps),
                Pred::Eq => gaussian_eq(v, sigma),
                Pred::Ne => 1.0 - gaussian_eq(v, sigma),
            },
            RelaxKind::Pbqu { c1, c2, eps, sigma } => match pred {
                Pred::Ge => pbqu_ge(v, c1, c2),
                Pred::Gt => pbqu_ge(v - eps, c1, c2),
                Pred::Le => pbqu_ge(-v, c1, c2),
                Pred::Lt => pbqu_ge(-v - eps, c1, c2),
                Pred::Eq => gaussian_eq(v, sigma),
                Pred::Ne => 1.0 - gaussian_eq(v, sigma),
            },
        }
    }
}

/// Continuously evaluates a formula at a point: the paper's `S(F)(x)`.
///
/// Conjunction maps to the t-norm, disjunction to its conorm, negation to
/// `1 − t`.
///
/// # Examples
///
/// Regenerating the shape of Fig. 2 for
/// `F(x) = (x = 1) ∨ (x ≥ 5) ∨ (x ≥ 2 ∧ x ≤ 3)`:
///
/// ```
/// use gcln_logic::{parse_formula, relax::{relax_formula, RelaxKind}, fuzzy::TNorm};
/// let names = vec!["x".to_string()];
/// let f = parse_formula("x == 1 || x >= 5 || (x >= 2 && x <= 3)", &names).unwrap();
/// let relax = RelaxKind::Sigmoid { b: 20.0, eps: 0.01, sigma: 0.1 };
/// let at = |x: f64| relax_formula(&f, &[x], relax, TNorm::Product);
/// assert!(at(1.0) > 0.9);       // satisfied: x == 1
/// assert!(at(2.5) > 0.9);       // satisfied: middle clause
/// assert!(at(4.0) < 0.5);       // unsatisfied gap
/// ```
pub fn relax_formula(f: &Formula, point: &[f64], kind: RelaxKind, tnorm: TNorm) -> f64 {
    match f {
        Formula::True => 1.0,
        Formula::False => 0.0,
        Formula::Atom(a) => kind.atom(a.pred, a.poly.eval_f64(point)),
        Formula::And(fs) => {
            let vals: Vec<f64> = fs.iter().map(|f| relax_formula(f, point, kind, tnorm)).collect();
            tnorm.apply_many(&vals)
        }
        Formula::Or(fs) => {
            let vals: Vec<f64> = fs.iter().map(|f| relax_formula(f, point, kind, tnorm)).collect();
            tnorm.conorm_many(&vals)
        }
        Formula::Not(f) => 1.0 - relax_formula(f, point, kind, tnorm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sigmoid_limits() {
        assert!(sigmoid_ge(10.0, 5.0, 0.5) > 0.999);
        assert!(sigmoid_ge(-10.0, 5.0, 0.5) < 0.001);
        // Monotone increasing.
        let mut prev = 0.0;
        for i in -20..=20 {
            let v = sigmoid_ge(i as f64 * 0.5, 5.0, 0.5);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn pbqu_penalizes_loose_fits() {
        // Fig. 7b: beyond the boundary the value decays as x grows,
        // unlike the sigmoid which saturates at 1.
        let (c1, c2) = (0.5, 5.0);
        assert!(pbqu_ge(0.0, c1, c2) == 1.0);
        assert!(pbqu_ge(1.0, c1, c2) > pbqu_ge(10.0, c1, c2));
        assert!(pbqu_ge(10.0, c1, c2) > pbqu_ge(100.0, c1, c2));
        // Violations decay much faster (c1 << c2).
        assert!(pbqu_ge(-1.0, c1, c2) < pbqu_ge(1.0, c1, c2));
    }

    #[test]
    fn pbqu_approaches_discrete_semantics() {
        // c1 -> 0, c2 -> inf recovers the indicator of x >= 0 (§4.2).
        for x in [-5.0, -0.1, 0.1, 5.0_f64] {
            let v = pbqu_ge(x, 1e-9, 1e9);
            let expected = if x >= 0.0 { 1.0 } else { 0.0 };
            assert!((v - expected).abs() < 1e-6, "x={x}, v={v}");
        }
    }

    #[test]
    fn gaussian_peak_at_zero() {
        assert_eq!(gaussian_eq(0.0, 0.1), 1.0);
        assert!(gaussian_eq(0.5, 0.1) < 1e-5);
        assert_eq!(gaussian_eq(0.3, 0.1), gaussian_eq(-0.3, 0.1));
    }

    #[test]
    fn relaxation_orders_valid_above_invalid() {
        // CLN condition 1 (§2.3): valid assignments score above invalid
        // ones.
        let ns = names(&["x"]);
        let f = parse_formula("x >= 2 && x <= 3", &ns).unwrap();
        for kind in [RelaxKind::paper_fig7_sigmoid(), RelaxKind::paper_fig7_pbqu()] {
            let valid = relax_formula(&f, &[2.5], kind, TNorm::Product);
            let invalid = relax_formula(&f, &[5.0], kind, TNorm::Product);
            assert!(valid > invalid, "{kind:?}: {valid} <= {invalid}");
        }
    }

    #[test]
    fn figure2_profile() {
        // The Fig. 2 formula peaks near x=1, on [2,3], and at x>=5.
        let ns = names(&["x"]);
        let f = parse_formula("x == 1 || x >= 5 || (x >= 2 && x <= 3)", &ns).unwrap();
        let kind = RelaxKind::Sigmoid { b: 20.0, eps: 0.01, sigma: 0.15 };
        let at = |x: f64| relax_formula(&f, &[x], kind, TNorm::Product);
        assert!(at(1.0) > 0.9);
        assert!(at(2.5) > 0.9);
        assert!(at(5.5) > 0.9);
        assert!(at(1.5) < 0.6);
        assert!(at(4.2) < 0.6);
    }

    #[test]
    fn negation_complements() {
        let ns = names(&["x"]);
        let f = parse_formula("x >= 0", &ns).unwrap();
        let not_f = Formula::Not(Box::new(f.clone()));
        let kind = RelaxKind::paper_fig7_pbqu();
        for x in [-2.0, 0.0, 3.0] {
            let a = relax_formula(&f, &[x], kind, TNorm::Product);
            let b = relax_formula(&not_f, &[x], kind, TNorm::Product);
            assert!((a + b - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tnorm_choice_changes_conjunction_smoothly() {
        let ns = names(&["x"]);
        let f = parse_formula("x >= 0 && x <= 10", &ns).unwrap();
        let kind = RelaxKind::paper_fig7_pbqu();
        let prod = relax_formula(&f, &[5.0], kind, TNorm::Product);
        let godel = relax_formula(&f, &[5.0], kind, TNorm::Godel);
        assert!(prod <= godel, "product t-norm is below min");
    }
}
