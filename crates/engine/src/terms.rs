//! Candidate-term enumeration and filtering (paper §3, §5.1.3).
//!
//! The invariant search space is the set of monomials over the extended
//! variable space (program variables plus external-function terms) up to
//! `max_degree`. Before training, terms are filtered: duplicate columns
//! (identical values over all samples) and numerically exploding columns
//! are dropped — the reproduction's rendition of the growth-rate heuristic
//! the paper adopts from Guess-and-Check.

use gcln_numeric::poly::Monomial;

/// The term space an invariant is learned over.
#[derive(Clone, Debug)]
pub struct TermSpace {
    /// Names of the underlying variables (extended space).
    pub names: Vec<String>,
    /// The candidate monomials, constant term first.
    pub monomials: Vec<Monomial>,
}

impl TermSpace {
    /// Enumerates all monomials of total degree ≤ `max_degree` over
    /// `names` (including the constant term), in ascending grevlex order.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcln_engine::terms::TermSpace;
    /// let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
    /// let space = TermSpace::enumerate(names, 2);
    /// // 1, x, y, x^2, xy, y^2
    /// assert_eq!(space.monomials.len(), 6);
    /// ```
    pub fn enumerate(names: Vec<String>, max_degree: u32) -> TermSpace {
        let arity = names.len();
        let mut monomials = Vec::new();
        let mut exps = vec![0u32; arity];
        enumerate_rec(&mut monomials, &mut exps, 0, max_degree);
        monomials.sort();
        TermSpace { names, monomials }
    }

    /// Number of candidate terms.
    pub fn len(&self) -> usize {
        self.monomials.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.monomials.is_empty()
    }

    /// Evaluates every term at a point, producing one data row.
    pub fn row(&self, point: &[f64]) -> Vec<f64> {
        self.monomials.iter().map(|m| m.eval_f64(point)).collect()
    }

    /// Restricts the space to the monomials at `keep` indices.
    pub fn select(&self, keep: &[usize]) -> TermSpace {
        TermSpace {
            names: self.names.clone(),
            monomials: keep.iter().map(|&i| self.monomials[i].clone()).collect(),
        }
    }

    /// The display name of term `i` (e.g. `x^2*y`).
    pub fn term_name(&self, i: usize) -> String {
        self.monomials[i].display(&self.names).to_string()
    }
}

fn enumerate_rec(out: &mut Vec<Monomial>, exps: &mut Vec<u32>, var: usize, budget: u32) {
    if var == exps.len() {
        out.push(Monomial::new(exps.clone()));
        return;
    }
    for e in 0..=budget {
        exps[var] = e;
        enumerate_rec(out, exps, var + 1, budget - e);
    }
    exps[var] = 0;
}

/// Filters terms against the data (rows are *unexpanded* variable points):
/// drops exploding columns (max |value| above `magnitude_cap`) and exact
/// duplicate columns (keeping the grevlex-smaller term). Returns the
/// surviving term indices.
///
/// The paper filters with the growth-rate heuristic of Guess-and-Check;
/// magnitude capping plus duplicate elimination achieves the same effect
/// for these benchmarks (dominating high-order terms never join useful
/// invariants because no other term can balance them numerically).
pub fn growth_filter(space: &TermSpace, points: &[Vec<f64>], magnitude_cap: f64) -> Vec<usize> {
    growth_filter_with_duplicates(space, points, magnitude_cap).keep
}

/// Result of [`growth_filter_with_duplicates`].
#[derive(Clone, Debug)]
pub struct FilteredTerms {
    /// Surviving term indices.
    pub keep: Vec<usize>,
    /// `(dropped, kept)` pairs of term indices whose columns were exactly
    /// equal over the data. Each pair *is* an equality invariant
    /// (`m_dropped − m_kept = 0` on every sample) that would otherwise be
    /// unexpressible in the filtered space.
    pub duplicates: Vec<(usize, usize)>,
}

/// [`growth_filter`] that also reports the equality invariants implied by
/// duplicate-column elimination.
pub fn growth_filter_with_duplicates(
    space: &TermSpace,
    points: &[Vec<f64>],
    magnitude_cap: f64,
) -> FilteredTerms {
    let n = space.len();
    let mut keep = Vec::new();
    let mut duplicates = Vec::new();
    let mut kept_columns: Vec<Vec<f64>> = Vec::new();
    for i in 0..n {
        let column: Vec<f64> = points.iter().map(|p| space.monomials[i].eval_f64(p)).collect();
        let max_abs = column.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if !max_abs.is_finite() || max_abs > magnitude_cap {
            continue;
        }
        if let Some(pos) =
            kept_columns.iter().position(|c| c.iter().zip(&column).all(|(a, b)| a == b))
        {
            duplicates.push((i, keep[pos]));
            continue;
        }
        kept_columns.push(column);
        keep.push(i);
    }
    FilteredTerms { keep, duplicates }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn enumeration_counts_match_binomial() {
        // #monomials of degree <= d over k vars = C(k + d, d).
        let space = TermSpace::enumerate(names(&["a", "b", "c"]), 2);
        assert_eq!(space.len(), 10);
        let space = TermSpace::enumerate(names(&["a", "b", "c", "d", "e"]), 3);
        assert_eq!(space.len(), 56);
        // The paper's Fig. 1a observation: 35 terms for 4 vars at degree 3.
        let space = TermSpace::enumerate(names(&["n", "x", "y", "z"]), 3);
        assert_eq!(space.len(), 35);
    }

    #[test]
    fn constant_term_is_first() {
        let space = TermSpace::enumerate(names(&["x", "y"]), 2);
        assert!(space.monomials[0].is_one());
        assert_eq!(space.term_name(0), "1");
    }

    #[test]
    fn row_expansion_matches_figure_4b() {
        // sqrt samples (a, s, t) with n: row over (n, a, s, t) at deg 2
        // contains a*s and t^2 columns with the documented values.
        let space = TermSpace::enumerate(names(&["a", "s", "t"]), 2);
        let row = space.row(&[1.0, 4.0, 3.0]);
        let as_idx = space.monomials.iter().position(|m| m.exps() == [1, 1, 0]).unwrap();
        let t2_idx = space.monomials.iter().position(|m| m.exps() == [0, 0, 2]).unwrap();
        assert_eq!(row[as_idx], 4.0); // a*s = 1*4
        assert_eq!(row[t2_idx], 9.0); // t^2 = 9
    }

    #[test]
    fn growth_filter_drops_exploding_and_duplicate_columns() {
        let space = TermSpace::enumerate(names(&["x", "y"]), 3);
        // y == x on all samples -> y, y^2, ... duplicate columns dropped.
        let points: Vec<Vec<f64>> = (1..=6).map(|i| vec![i as f64, i as f64]).collect();
        let keep = growth_filter(&space, &points, 1e2);
        let kept_names: Vec<String> = keep.iter().map(|&i| space.term_name(i)).collect();
        // Exactly one of the two duplicated columns survives.
        let x_kept = kept_names.contains(&"x".to_string());
        let y_kept = kept_names.contains(&"y".to_string());
        assert!(x_kept ^ y_kept, "exactly one of x/y should survive: {kept_names:?}");
        // x^3 reaches 216 > cap 100: dropped (and its duplicate y^3).
        assert!(!kept_names.contains(&"x^3".to_string()));
        assert!(!kept_names.contains(&"y^3".to_string()));
    }

    #[test]
    fn select_restricts() {
        let space = TermSpace::enumerate(names(&["x"]), 3);
        let sub = space.select(&[0, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.term_name(1), "x");
    }
}
