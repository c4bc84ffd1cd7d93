//! Exact equality completion over the term space.
//!
//! Gradient training reliably surfaces *which terms matter* and finds the
//! sparse, human-readable equality directions, but a conjunction of
//! several equalities is a multi-dimensional null space and gradient
//! descent alone does not deterministically enumerate a basis of it. This
//! module closes that gap the way Guess-and-Check (Sharma et al.,
//! ESOP'13 — the paper's citation \[33\]) does: the exact rational null
//! space of the expanded data matrix *is* the space of equality
//! invariants over the candidate terms.
//!
//! The pipeline runs this as its own Kernel task beside G-CLN training
//! (see `PipelineConfig::kernel_completion`); the ablation of Table 3
//! and the stability study of Table 4 disable it to measure the pure
//! neural path. EXPERIMENTS.md ("Kernel completion: a deviation from
//! the paper") records this deviation and the G-CLN-only solve counts.

use crate::terms::TermSpace;
use gcln_logic::{Atom, Pred};
use gcln_numeric::{Matrix, Poly, Rat};

/// Computes validated equality atoms from the exact null space of the
/// data matrix over `space`. Rows are deduplicated and capped at
/// `max_rows`; vectors whose integerized coefficients exceed
/// `max_coefficient` are discarded as numerically implausible invariants.
pub fn kernel_equalities(
    space: &TermSpace,
    points: &[Vec<f64>],
    max_rows: usize,
    max_coefficient: i128,
) -> Vec<Atom> {
    if points.is_empty() || space.is_empty() {
        return Vec::new();
    }
    let mut rows: Vec<Vec<Rat>> = Vec::new();
    for p in points.iter().take(max_rows) {
        let row: Option<Vec<Rat>> =
            space.monomials.iter().map(|m| Rat::approximate(m.eval_f64(p), 1 << 20)).collect();
        let Some(row) = row else { continue };
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Vec::new();
    }
    let matrix = Matrix::from_rows(rows);
    let arity = space.names.len();
    let fit = crate::extract::FitPoints::new(points);
    let mut out = Vec::new();
    for v in matrix.null_space() {
        if v.iter().any(|c| c.numer().abs() > max_coefficient) {
            continue;
        }
        let mut poly = Poly::zero(arity);
        for (c, m) in v.iter().zip(&space.monomials) {
            poly.add_term(*c, m.clone());
        }
        if poly.is_zero() || poly.is_constant() {
            continue;
        }
        let poly = poly.normalize_content();
        // Null-space membership makes the fit exact on the used rows;
        // validate on everything anyway (rows were capped).
        if fit.fits(&poly, Pred::Eq, 1e-6) {
            out.push(Atom::new(poly, Pred::Eq));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn recovers_full_sqrt_basis() {
        // (n, a, s, t) with s = (a+1)^2, t = 2a+1: nullity over deg-2
        // terms includes both pinning equalities.
        let space = TermSpace::enumerate(names(&["n", "a", "s", "t"]), 2);
        let points: Vec<Vec<f64>> = (0..40)
            .map(|n| {
                let a = (n as f64).sqrt().floor();
                vec![n as f64, a, (a + 1.0) * (a + 1.0), 2.0 * a + 1.0]
            })
            .collect();
        let atoms = kernel_equalities(&space, &points, 200, 1_000_000);
        assert!(!atoms.is_empty());
        // The ideal of the found equalities must contain t - 2a - 1 and
        // s - (a+1)^2.
        let polys: Vec<Poly> = atoms.iter().map(|a| a.poly.clone()).collect();
        for target_text in ["t - 2*a - 1", "s - a^2 - 2*a - 1"] {
            let target = gcln_logic::parse_poly(target_text, &space.names).unwrap();
            let member = gcln_numeric::groebner::ideal_member(
                &target,
                &polys,
                gcln_numeric::groebner::GroebnerLimits::default(),
            );
            assert_eq!(member, Some(true), "{target_text} not implied");
        }
    }

    #[test]
    fn no_equalities_on_generic_data() {
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        // Generic position: no linear relation.
        let points = vec![vec![0.0, 1.0], vec![1.0, 3.0], vec![2.0, 2.0], vec![5.0, 11.0]];
        let atoms = kernel_equalities(&space, &points, 100, 1000);
        assert!(atoms.is_empty(), "spurious: {atoms:?}");
    }

    #[test]
    fn coefficient_cap_filters_wild_vectors() {
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let points: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 997.0 * i as f64]).collect();
        // With a tiny cap the (997, -1) relation is rejected...
        assert!(kernel_equalities(&space, &points, 100, 10).is_empty());
        // ...with a generous one it is found.
        assert_eq!(kernel_equalities(&space, &points, 100, 10_000).len(), 1);
    }
}
