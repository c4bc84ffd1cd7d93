//! Basic Fuzzy Logic: t-norms, t-conorms, and their *gated* variants
//! (paper §2.2 and §4.1).
//!
//! A t-norm `⊗ : [0,1]² → [0,1]` generalizes boolean conjunction to
//! continuous truth values; t-conorms `⊕` are its DeMorgan dual. The gated
//! forms add learnable activation gates `g ∈ [0,1]` per operand:
//!
//! ```text
//! T_G(x, y; g1, g2)  = (1 + g1(x − 1)) ⊗ (1 + g2(y − 1))
//! T'_G(x, y; g1, g2) = 1 − (1 − g1·x) ⊗ (1 − g2·y)
//! ```
//!
//! With `g = 1` the operand participates normally; with `g = 0` it is
//! discarded (identity of the connective). This is what frees G-CLNs from
//! needing a formula template.

/// The t-norm families used by CLNs.
///
/// The paper's implementation uses [`TNorm::Product`]; Gödel (min) and
/// Łukasiewicz are provided for the ablations and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TNorm {
    /// `x ⊗ y = x · y` — strictly positive on (0,1]², satisfies the
    /// paper's Property 1.
    #[default]
    Product,
    /// `x ⊗ y = min(x, y)`.
    Godel,
    /// `x ⊗ y = max(0, x + y − 1)`.
    Lukasiewicz,
}

impl TNorm {
    /// Applies the t-norm.
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            TNorm::Product => x * y,
            TNorm::Godel => x.min(y),
            TNorm::Lukasiewicz => (x + y - 1.0).max(0.0),
        }
    }

    /// The DeMorgan-dual t-conorm `x ⊕ y = 1 − (1−x) ⊗ (1−y)`.
    pub fn conorm(self, x: f64, y: f64) -> f64 {
        1.0 - self.apply(1.0 - x, 1.0 - y)
    }

    /// Folds the t-norm over many operands (`1` for an empty slice).
    pub fn apply_many(self, xs: &[f64]) -> f64 {
        xs.iter().fold(1.0, |acc, &x| self.apply(acc, x))
    }

    /// Folds the t-conorm over many operands (`0` for an empty slice).
    pub fn conorm_many(self, xs: &[f64]) -> f64 {
        xs.iter().fold(0.0, |acc, &x| self.conorm(acc, x))
    }

    /// Whether this t-norm satisfies the paper's Property 1
    /// (`t > 0 ∧ u > 0 ⇒ t ⊗ u > 0`), required by Theorem 4.1.
    pub fn satisfies_property_1(self) -> bool {
        !matches!(self, TNorm::Lukasiewicz)
    }
}

/// Gated t-norm over any number of operands:
/// `⊗ᵢ (1 + gᵢ(xᵢ − 1))` (paper §4.1).
///
/// # Panics
///
/// Panics if `xs` and `gates` differ in length.
///
/// # Examples
///
/// ```
/// use gcln_logic::fuzzy::{gated_tnorm, TNorm};
/// // Gate closed on the second operand: behaves like the first alone.
/// let v = gated_tnorm(TNorm::Product, &[0.3, 0.9], &[1.0, 0.0]);
/// assert!((v - 0.3).abs() < 1e-12);
/// ```
pub fn gated_tnorm(tnorm: TNorm, xs: &[f64], gates: &[f64]) -> f64 {
    assert_eq!(xs.len(), gates.len(), "one gate per operand");
    xs.iter().zip(gates).fold(1.0, |acc, (&x, &g)| tnorm.apply(acc, 1.0 + g * (x - 1.0)))
}

/// Gated t-conorm over any number of operands:
/// `1 − ⊗ᵢ (1 − gᵢ·xᵢ)` (paper §4.1).
///
/// # Panics
///
/// Panics if `xs` and `gates` differ in length.
///
/// # Examples
///
/// ```
/// use gcln_logic::fuzzy::{gated_tconorm, TNorm};
/// // Both gates closed: identity of ∨ is 0.
/// let v = gated_tconorm(TNorm::Product, &[0.3, 0.9], &[0.0, 0.0]);
/// assert_eq!(v, 0.0);
/// ```
pub fn gated_tconorm(tnorm: TNorm, xs: &[f64], gates: &[f64]) -> f64 {
    assert_eq!(xs.len(), gates.len(), "one gate per operand");
    1.0 - xs.iter().zip(gates).fold(1.0, |acc, (&x, &g)| tnorm.apply(acc, 1.0 - g * x))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NORMS: [TNorm; 3] = [TNorm::Product, TNorm::Godel, TNorm::Lukasiewicz];

    #[test]
    fn tnorm_consistency_axioms() {
        // t ⊗ 1 = t and t ⊗ 0 = 0 (paper §2.2).
        for norm in NORMS {
            for t in [0.0, 0.25, 0.5, 1.0] {
                assert!((norm.apply(t, 1.0) - t).abs() < 1e-12, "{norm:?}");
                assert_eq!(norm.apply(t, 0.0), 0.0, "{norm:?}");
            }
        }
    }

    #[test]
    fn tconorm_duality() {
        for norm in NORMS {
            for t in [0.0, 0.3, 0.7, 1.0] {
                assert!((norm.conorm(t, 0.0) - t).abs() < 1e-12);
                assert_eq!(norm.conorm(t, 1.0), 1.0);
            }
        }
    }

    #[test]
    fn property_1() {
        assert!(TNorm::Product.satisfies_property_1());
        assert!(TNorm::Godel.satisfies_property_1());
        // Łukasiewicz violates it: 0.4 ⊗ 0.4 = 0.
        assert!(!TNorm::Lukasiewicz.satisfies_property_1());
        assert_eq!(TNorm::Lukasiewicz.apply(0.4, 0.4), 0.0);
    }

    #[test]
    fn gated_tnorm_truth_table() {
        // Paper §4.1: the four gate configurations.
        let (x, y) = (0.6, 0.8);
        let t = TNorm::Product;
        assert!((gated_tnorm(t, &[x, y], &[1.0, 1.0]) - x * y).abs() < 1e-12);
        assert!((gated_tnorm(t, &[x, y], &[1.0, 0.0]) - x).abs() < 1e-12);
        assert!((gated_tnorm(t, &[x, y], &[0.0, 1.0]) - y).abs() < 1e-12);
        assert!((gated_tnorm(t, &[x, y], &[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gated_tconorm_truth_table() {
        let (x, y) = (0.6, 0.8);
        let t = TNorm::Product;
        let or = t.conorm(x, y);
        assert!((gated_tconorm(t, &[x, y], &[1.0, 1.0]) - or).abs() < 1e-12);
        assert!((gated_tconorm(t, &[x, y], &[1.0, 0.0]) - x).abs() < 1e-12);
        assert!((gated_tconorm(t, &[x, y], &[0.0, 1.0]) - y).abs() < 1e-12);
        assert_eq!(gated_tconorm(t, &[x, y], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn gated_tnorm_three_operands() {
        // §4.1 extends gates to n operands; spot-check n = 3.
        let xs = [0.9, 0.5, 0.7];
        let v = gated_tnorm(TNorm::Product, &xs, &[1.0, 0.0, 1.0]);
        assert!((v - 0.9 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn gated_monotone_in_operands() {
        // ∀ gates, the gated t-norm is monotonically nondecreasing in x, y.
        let t = TNorm::Product;
        for g1 in [0.0, 0.3, 0.7, 1.0] {
            for g2 in [0.0, 0.5, 1.0] {
                let mut prev = -1.0;
                for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let v = gated_tnorm(t, &[x, 0.5], &[g1, g2]);
                    assert!(v >= prev - 1e-12);
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn apply_many_identities() {
        assert_eq!(TNorm::Product.apply_many(&[]), 1.0);
        assert_eq!(TNorm::Product.conorm_many(&[]), 0.0);
        let xs = [0.5, 0.5, 0.5];
        assert!((TNorm::Product.apply_many(&xs) - 0.125).abs() < 1e-12);
    }
}
