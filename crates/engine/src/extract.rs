//! Formula extraction (paper Algorithm 1 + §3 coefficient rounding).
//!
//! Walks a trained [`TrainedGcln`]: clauses whose t-norm gate exceeds 0.5
//! contribute a disjunction of the literals whose t-conorm gates exceed
//! 0.5. Each literal's weight vector is scaled so its largest coefficient
//! is 1, rounded to rationals with bounded denominator (trying the
//! paper's denominators 10, 15, 30 in turn), and validated against the
//! training points — invalid roundings are discarded. Disjunctive clauses
//! are validated as a whole (every sample must satisfy at least one
//! disjunct).

use crate::model::TrainedGcln;
use crate::terms::TermSpace;
use gcln_logic::{Atom, CompiledPoly, Formula, Pred};
use gcln_numeric::{Poly, Rat};

/// Extraction settings.
#[derive(Clone, Debug)]
pub struct ExtractConfig {
    /// Denominator budgets to try, in order (§6: 10, 15, 30).
    pub denominators: Vec<i128>,
    /// Gate threshold for keeping clauses/literals (Algorithm 1: 0.5).
    pub gate_threshold: f64,
    /// Float fallback tolerance for fit checking (used only when a point
    /// cannot be represented exactly).
    pub fit_tol: f64,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig { denominators: vec![10, 15, 30], gate_threshold: 0.5, fit_tol: 1e-4 }
    }
}

/// Converts an f64 point to exact rationals (training points are integers
/// or dyadic fractions from fractional sampling, so this is exact).
fn rat_point(point: &[f64]) -> Option<Vec<Rat>> {
    point.iter().map(|&x| Rat::approximate(x, 1 << 20)).collect()
}

/// Training points pre-converted for fit checking.
///
/// The exact-rational image of every point is computed **once** here;
/// fitting a candidate atom then compiles its polynomial to a flat
/// [`CompiledPoly`] and evaluates it over the cached conversions —
/// previously both happened per `(atom, point)` pair, which dominated
/// extraction time.
pub struct FitPoints<'a> {
    raw: &'a [Vec<f64>],
    /// Exact rational image where representable and small enough for
    /// exact arithmetic; `None` falls back to tolerance-based `f64`
    /// evaluation for that point.
    exact: Vec<Option<Vec<Rat>>>,
}

impl<'a> FitPoints<'a> {
    /// Pre-converts `points`.
    pub fn new(points: &'a [Vec<f64>]) -> FitPoints<'a> {
        let exact = points
            .iter()
            .map(|p| rat_point(p).filter(|rp| rp.iter().all(|r| r.to_f64().abs() < 1e12)))
            .collect();
        FitPoints { raw: points, exact }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Whether `poly ⋈ 0` holds on every point (exact where possible).
    pub fn fits(&self, poly: &Poly, pred: Pred, tol: f64) -> bool {
        let compiled = CompiledPoly::compile(poly);
        (0..self.len()).all(|i| self.holds_at(&compiled, pred, i, tol))
    }

    /// Per-point satisfaction mask for `poly ⋈ 0`.
    fn cover(&self, poly: &Poly, pred: Pred, tol: f64) -> Vec<bool> {
        let compiled = CompiledPoly::compile(poly);
        (0..self.len()).map(|i| self.holds_at(&compiled, pred, i, tol)).collect()
    }

    fn holds_at(&self, compiled: &CompiledPoly, pred: Pred, i: usize, tol: f64) -> bool {
        match &self.exact[i] {
            Some(rp) => pred.holds(compiled.eval_rat(rp)),
            None => pred.holds_f64(compiled.eval_f64(&self.raw[i]), tol),
        }
    }
}

/// Whether `poly ⋈ 0` holds on every training point (exact where
/// possible). Callers testing many atoms against the same points should
/// build one [`FitPoints`] and use [`FitPoints::fits`].
pub fn atom_fits(poly: &Poly, pred: Pred, points: &[Vec<f64>], tol: f64) -> bool {
    FitPoints::new(points).fits(poly, pred, tol)
}

/// Rounds a literal's weights to a polynomial atom `p = 0` that fits the
/// data, or `None`. Weights are scaled so `max |w| = 1` first (§3).
pub fn round_equality(
    weights: &[f64],
    space: &TermSpace,
    points: &[Vec<f64>],
    config: &ExtractConfig,
) -> Option<Atom> {
    round_equality_on(weights, space, &FitPoints::new(points), config)
}

/// [`round_equality`] over pre-converted points.
fn round_equality_on(
    weights: &[f64],
    space: &TermSpace,
    fit: &FitPoints<'_>,
    config: &ExtractConfig,
) -> Option<Atom> {
    let max_abs = weights.iter().fold(0.0f64, |a, &w| a.max(w.abs()));
    if max_abs < 1e-9 {
        return None;
    }
    let arity = space.names.len();
    for &den in &config.denominators {
        let mut poly = Poly::zero(arity);
        for (w, m) in weights.iter().zip(&space.monomials) {
            let c = Rat::approximate(w / max_abs, den)?;
            if !c.is_zero() {
                poly.add_term(c, m.clone());
            }
        }
        if poly.is_zero() || poly.is_constant() {
            continue;
        }
        let poly = reduce_monomial_content(poly.normalize_content(), fit, config.fit_tol);
        if fit.fits(&poly, Pred::Eq, config.fit_tol) {
            return Some(Atom::new(poly, Pred::Eq));
        }
    }
    None
}

/// If every term shares a monomial factor (e.g. `n·(2a − t + 1)`), try the
/// factored-out polynomial; keep it when it still fits the data (it is
/// the stronger invariant).
fn reduce_monomial_content(poly: Poly, fit: &FitPoints<'_>, tol: f64) -> Poly {
    let content = poly.monomial_content();
    if content.is_one() {
        return poly;
    }
    let reduced = poly.div_monomial(&content).normalize_content();
    if !reduced.is_constant() && fit.fits(&reduced, Pred::Eq, tol) {
        reduced
    } else {
        poly
    }
}

/// Rounds a literal without requiring a full fit (used inside
/// disjunctions, where an atom only needs to cover part of the data).
/// Returns the best-fitting rounded atom and the points it satisfies.
fn round_equality_partial(
    weights: &[f64],
    space: &TermSpace,
    fit: &FitPoints<'_>,
    config: &ExtractConfig,
) -> Option<(Atom, Vec<bool>)> {
    let max_abs = weights.iter().fold(0.0f64, |a, &w| a.max(w.abs()));
    if max_abs < 1e-9 {
        return None;
    }
    let arity = space.names.len();
    let mut best: Option<(Atom, Vec<bool>, usize)> = None;
    for &den in &config.denominators {
        let mut poly = Poly::zero(arity);
        for (w, m) in weights.iter().zip(&space.monomials) {
            let c = Rat::approximate(w / max_abs, den)?;
            if !c.is_zero() {
                poly.add_term(c, m.clone());
            }
        }
        if poly.is_zero() || poly.is_constant() {
            continue;
        }
        let poly = reduce_monomial_content(poly.normalize_content(), fit, config.fit_tol);
        let cover = fit.cover(&poly, Pred::Eq, config.fit_tol);
        let count = cover.iter().filter(|&&b| b).count();
        if best.as_ref().is_none_or(|(_, _, c)| count > *c) {
            best = Some((Atom::new(poly, Pred::Eq), cover, count));
        }
    }
    best.map(|(a, c, _)| (a, c))
}

/// Algorithm 1: extracts the CNF formula of a trained model, validated
/// against the training points.
pub fn extract_formula(
    model: &TrainedGcln,
    space: &TermSpace,
    points: &[Vec<f64>],
    config: &ExtractConfig,
) -> Formula {
    let fit = FitPoints::new(points);
    let mut clauses: Vec<Formula> = Vec::new();
    for (ci, &cg) in model.clause_gates.iter().enumerate() {
        if cg <= config.gate_threshold {
            continue;
        }
        let open_literals: Vec<usize> = model.literal_gates[ci]
            .iter()
            .enumerate()
            .filter_map(|(li, &g)| (g > config.gate_threshold).then_some(li))
            .collect();
        match open_literals.len() {
            0 => continue,
            1 => {
                // Single literal: must fit everything.
                if let Some(atom) =
                    round_equality_on(&model.weights[ci][open_literals[0]], space, &fit, config)
                {
                    clauses.push(Formula::Atom(atom));
                }
            }
            _ => {
                // Disjunction: the union of the disjuncts must cover all
                // points.
                let mut parts = Vec::new();
                let mut covered = vec![false; points.len()];
                for &li in &open_literals {
                    if let Some((atom, cover)) =
                        round_equality_partial(&model.weights[ci][li], space, &fit, config)
                    {
                        for (c, &k) in covered.iter_mut().zip(&cover) {
                            *c = *c || k;
                        }
                        parts.push(Formula::Atom(atom));
                    }
                }
                if !parts.is_empty() && covered.iter().all(|&c| c) {
                    parts.sort_by_key(|f| f.display(&space.names).to_string());
                    parts.dedup();
                    clauses.push(Formula::or(parts));
                }
            }
        }
    }
    clauses.sort_by_key(|f| f.display(&space.names).to_string());
    clauses.dedup();
    Formula::and(clauses).simplify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::model::{train_equality_gcln, GclnConfig};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn round_equality_recovers_exact_invariant() {
        // Weights approximating (3, 2, -1)/sqrt(14) over (1, x, y) with
        // data from y = 2x + 3.
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let points: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 2.0 * i as f64 + 3.0]).collect();
        let idx = |n: &str| (0..space.len()).find(|&i| space.term_name(i) == n).unwrap();
        let mut w = vec![0.0; space.len()];
        w[idx("1")] = 3.0 / 14.0f64.sqrt() + 1e-3;
        w[idx("x")] = 2.0 / 14.0f64.sqrt();
        w[idx("y")] = -1.0 / 14.0f64.sqrt();
        let atom = round_equality(&w, &space, &points, &ExtractConfig::default()).unwrap();
        // 3 + 2x - y = 0 (content-normalized, leading coefficient sign
        // canonical).
        assert_eq!(atom.pred, Pred::Eq);
        assert!(atom_fits(&atom.poly, Pred::Eq, &points, 1e-6));
        assert_eq!(atom.poly.num_terms(), 3);
    }

    #[test]
    fn round_equality_rejects_bad_directions() {
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let points: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 2.0 * i as f64 + 3.0]).collect();
        // A direction that fits nothing: x + y = 0.
        let idx = |n: &str| (0..space.len()).find(|&i| space.term_name(i) == n).unwrap();
        let mut w = vec![0.0; space.len()];
        w[idx("x")] = 1.0;
        w[idx("y")] = 1.0;
        assert!(round_equality(&w, &space, &points, &ExtractConfig::default()).is_none());
    }

    #[test]
    fn end_to_end_extraction_on_figure_1a_style_data() {
        // cohencu-style columns: terms over (n, z) degree 1 with z = 6n+6.
        let space = TermSpace::enumerate(names(&["n", "z"]), 1);
        let raw: Vec<Vec<f64>> = (0..10).map(|n| vec![n as f64, 6.0 * n as f64 + 6.0]).collect();
        let ds = Dataset::from_points(raw.clone(), &space, Some(10.0));
        let cfg = GclnConfig {
            num_clauses: 4,
            dropout_rate: 0.0,
            max_epochs: 1500,
            ..GclnConfig::default()
        };
        let model = train_equality_gcln(&ds.columns(), &cfg);
        let formula = extract_formula(&model, &space, &raw, &ExtractConfig::default());
        let expected = gcln_logic::parse_formula("z == 6 * n + 6", &space.names).unwrap();
        // Every extracted conjunct must hold on data; the expected
        // invariant must appear among them.
        let display = formula.display(&space.names).to_string();
        let target = {
            let Formula::Atom(a) = &expected else { unreachable!() };
            a.poly.normalize_content()
        };
        let found = formula.atoms().iter().any(|a| a.poly.normalize_content() == target);
        assert!(found, "expected z == 6n + 6 in `{display}`");
    }

    #[test]
    fn extraction_of_empty_model_is_true() {
        let space = TermSpace::enumerate(names(&["x"]), 1);
        let model = TrainedGcln {
            clause_gates: vec![0.0, 0.0],
            literal_gates: vec![vec![0.0, 0.0]; 2],
            weights: vec![vec![vec![0.0; 2]; 2]; 2],
            masks: vec![vec![vec![true; 2]; 2]; 2],
            final_loss: 0.0,
            epochs_run: 1,
        };
        let f = extract_formula(&model, &space, &[vec![1.0]], &ExtractConfig::default());
        assert_eq!(f, Formula::True);
    }

    #[test]
    fn figure_6_formula_roundtrip() {
        // The Fig. 6 example: (3y - 3z - 2 = 0) ∧ ((x - 3z = 0) ∨ (x + y + z = 0)).
        // Build a model whose gates/weights encode it and extract.
        let space = TermSpace::enumerate(names(&["x", "y", "z"]), 1); // 1, x, y, z ... grevlex order
                                                                      // Identify term indices.
        let idx = |name: &str| (0..space.len()).find(|&i| space.term_name(i) == name).unwrap();
        let (i1, ix, iy, iz) = (idx("1"), idx("x"), idx("y"), idx("z"));
        let mut w_a = vec![0.0; 4];
        w_a[iy] = 3.0;
        w_a[iz] = -3.0;
        w_a[i1] = -2.0;
        let mut w_b = vec![0.0; 4];
        w_b[ix] = 1.0;
        w_b[iz] = -3.0;
        let mut w_c = vec![0.0; 4];
        w_c[ix] = 1.0;
        w_c[iy] = 1.0;
        w_c[iz] = 1.0;
        let model = TrainedGcln {
            clause_gates: vec![1.0, 1.0],
            literal_gates: vec![vec![1.0, 0.0], vec![1.0, 1.0]],
            weights: vec![vec![w_a, vec![0.0; 4]], vec![w_b, w_c]],
            masks: vec![vec![vec![true; 4]; 2]; 2],
            final_loss: 0.0,
            epochs_run: 1,
        };
        // Points satisfying the formula: y = z + 2/3 scaled... use exact
        // solutions: pick z, y = z + 2/3, and x = 3z or x = -y-z.
        let mut points = Vec::new();
        for k in 0..6 {
            let z = k as f64 / 3.0; // thirds stay exactly representable? use dyadic-safe: z = k/4
            let _ = z;
        }
        for k in 0..6 {
            let z = k as f64;
            let y = z + 2.0 / 3.0;
            // 2/3 is not dyadic; scale by 3: use z multiples of 3 so y has
            // denominator 3 -> allow approximate path via exactness of
            // Rat::approximate (1/3 is recovered exactly within 2^20).
            points.push(vec![3.0 * z, y, z]);
            points.push(vec![-(y + z), y, z]);
        }
        let f = extract_formula(&model, &space, &points, &ExtractConfig::default());
        let text = f.display(&space.names).to_string();
        assert!(text.contains("||"), "disjunction survives: {text}");
        assert_eq!(f.conjuncts().len(), 2, "two conjuncts: {text}");
        for p in &points {
            assert!(f.eval_f64(p, 1e-6), "extracted formula must fit data");
        }
    }
}
