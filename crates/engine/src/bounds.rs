//! Inequality-bound learning (paper §4.2, §5.2.2).
//!
//! Candidate inequalities are linear forms over small term subsets — all
//! single terms of degree ≤ 2, pairs of such terms, and triples of
//! degree-1 terms (the paper considers "all possible combinations of
//! variables up to 3 terms and 2nd degree"). The paper trains a PBQU
//! neuron `S(w·t + b ≥ 0)` per subset, and Theorem 4.2 says the trained
//! bound is a tight supporting hyperplane of the data. On integer traces
//! those hyperplanes are convex-hull facets, so they are computed exactly
//! here instead of trained:
//!
//! - a single term takes the directions ±1;
//! - a pair takes the inward normals of its points' 2-D convex hull
//!   (exact `i128` arithmetic), next to the canonical directions: every
//!   ±1 sign pattern and every `{1,2}`-ratio pattern, with both signs;
//! - a triple takes the canonical directions only.
//!
//! Each direction's weights are rounded to small rationals, the bias is
//! recomputed exactly as the tightest valid value, and bounds whose mean
//! PBQU activation falls below a threshold (loose fits, Fig. 10's dashed
//! lines) are discarded.
//!
//! At most 64 bounds are kept, one subset's best at a time in subset
//! order before any second bounds. Subsets are therefore learned in order
//! and learning stops once the cap is full: on wide term spaces the
//! single-term subsets alone fill it.

use crate::optim::project_unit_l2;
use crate::terms::TermSpace;
use gcln_logic::relax::pbqu_ge;
use gcln_logic::{Atom, Pred};
use gcln_numeric::rat::gcd_i128;
use gcln_numeric::{Poly, Rat};
use rayon::prelude::*;

/// PBQU below-boundary constant (§6 training value).
const C1: f64 = 1.0;
/// PBQU above-boundary constant (§6 training value).
const C2: f64 = 50.0;
/// Keep a bound only if its mean PBQU activation reaches this.
const ACTIVATION_THRESHOLD: f64 = 0.55;
/// Denominator budgets for rounding weights.
const DENOMINATORS: [i128; 3] = [1, 2, 4];
/// Hard cap on emitted bounds: each subset's tightest bound first, in
/// subset order, then each one's second, and so on (see [`learn_bounds`]).
const MAX_BOUNDS: usize = 64;

/// A learned bound with its tightness score.
#[derive(Clone, Debug)]
pub struct LearnedBound {
    /// The inequality `poly >= 0`.
    pub atom: Atom,
    /// Mean PBQU activation over the data (1 = everything on the
    /// boundary).
    pub score: f64,
}

/// Learns tight inequality bounds over the raw (unnormalized) term-space
/// `points`.
///
/// At most 64 bounds are returned, deduplicated by
/// polynomial and allocated **round-robin across subsets**: every
/// subset's best bound is admitted, in subset order, before any subset
/// places its second. A global score-only cut would let large families
/// of near-duplicate tight bounds crowd out structurally distinct ones
/// (e.g. `n - a² >= 0`, whose slack grows with the data range).
///
/// Subsets are learned in order, a chunk at a time, and the first pass
/// of the round-robin is taken as the chunks arrive, so learning stops
/// at the subset that fills the cap. Wide term spaces fill it within
/// their single-term subsets; later subsets could only have contributed
/// past the cap. Only when every subset has been learned without filling
/// the cap does the round-robin go on to second and later bounds. The
/// output equals learning every subset first (see the
/// `early_stop_matches_full_round_robin` test).
pub fn learn_bounds(space: &TermSpace, points: &[Vec<f64>]) -> Vec<Atom> {
    learn_bounds_capped(space, points, MAX_BOUNDS)
}

/// [`learn_bounds`] with at most `max_bounds` bounds.
fn learn_bounds_capped(space: &TermSpace, points: &[Vec<f64>], max_bounds: usize) -> Vec<Atom> {
    if points.is_empty() {
        return Vec::new();
    }
    let subsets = candidate_subsets(space);
    let n = subsets.len();
    let chunk = rayon::current_num_threads() * SUBSETS_PER_THREAD;
    let mut out = Vec::new();
    let mut learned: Vec<Vec<LearnedBound>> = Vec::with_capacity(n);
    for start in (0..n).step_by(chunk) {
        let chunk_results: Vec<Vec<LearnedBound>> = (start..n.min(start + chunk))
            .into_par_iter()
            .map(|si| learn_subset(space, points, &subsets[si]))
            .collect();
        for subset_bounds in chunk_results {
            if let Some(best) = subset_bounds.first() {
                if admit(&mut out, best, max_bounds) {
                    return out;
                }
            }
            learned.push(subset_bounds);
        }
    }
    let mut rank = 1;
    loop {
        let mut any = false;
        for subset_bounds in &learned {
            let Some(b) = subset_bounds.get(rank) else { continue };
            any = true;
            if admit(&mut out, b, max_bounds) {
                return out;
            }
        }
        if !any {
            return out;
        }
        rank += 1;
    }
}

/// Subsets learned per rayon thread between two looks at the cap. Each
/// chunk is one fan-out, which the rayon shim runs on freshly scoped
/// threads. Wider chunks spread that cost over more subsets but learn
/// more of them past the cap: at 32 per thread, egcd2's loop 0 (which
/// fills the cap within its single terms) took 4× as long at 2 threads.
const SUBSETS_PER_THREAD: usize = 8;

/// Appends `bound` unless an admitted bound has the same polynomial, and
/// returns whether that filled the cap.
fn admit(out: &mut Vec<Atom>, bound: &LearnedBound, max_bounds: usize) -> bool {
    if out.iter().any(|a| a.poly == bound.atom.poly) {
        return false;
    }
    out.push(bound.atom.clone());
    out.len() >= max_bounds
}

/// The candidate term subsets, in learning order: single terms of degree
/// 1–2, then pairs of them of total degree ≤ 3, then triples of degree-1
/// terms (the constant term is never part of one).
fn candidate_subsets(space: &TermSpace) -> Vec<Vec<usize>> {
    let deg1: Vec<usize> = (0..space.len()).filter(|&i| space.monomials[i].degree() == 1).collect();
    let deg12: Vec<usize> =
        (0..space.len()).filter(|&i| (1..=2).contains(&space.monomials[i].degree())).collect();
    let mut subsets: Vec<Vec<usize>> = deg12.iter().map(|&i| vec![i]).collect();
    for (a, &i) in deg12.iter().enumerate() {
        for &j in deg12.iter().skip(a + 1) {
            if space.monomials[i].degree() + space.monomials[j].degree() <= 3 {
                subsets.push(vec![i, j]);
            }
        }
    }
    for (a, &i) in deg1.iter().enumerate() {
        for (b, &j) in deg1.iter().enumerate().skip(a + 1) {
            for &k in deg1.iter().skip(b + 1) {
                subsets.push(vec![i, j, k]);
            }
        }
    }
    subsets
}

/// Learns one subset's bounds that pass the activation threshold,
/// tightest first.
fn learn_subset(space: &TermSpace, points: &[Vec<f64>], subset: &[usize]) -> Vec<LearnedBound> {
    // Raw term columns for this subset, evaluated once — the hull and
    // every direction × denominator rounding below reuse them.
    let raw_cols: Vec<Vec<f64>> = subset
        .iter()
        .map(|&t| points.iter().map(|p| space.monomials[t].eval_f64(p)).collect())
        .collect();
    let mut directions = canonical_directions(subset.len());
    if let [xs, ys] = raw_cols.as_slice() {
        // Non-integer or overflowing columns keep the canonical
        // directions only.
        let normals = hull_normals(xs, ys).unwrap_or_default();
        directions.extend(normals.into_iter().map(|[a, b]| vec![a as f64, b as f64]));
    }
    let mut subset_bounds: Vec<LearnedBound> = directions
        .iter()
        .filter_map(|dir| round_and_tighten(subset, dir, &raw_cols, space))
        .filter(|bound| bound.score >= ACTIVATION_THRESHOLD)
        .collect();
    subset_bounds.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    subset_bounds
}

/// The fixed directions of a `k`-term subset: every sign pattern of
/// every `{1,2}^k` magnitude pattern, each with both global signs. All-2
/// is skipped (it is all-1 scaled), so one term gets just ±1. Tight
/// directions of integer loops often have 2:1 coefficient ratios (e.g.
/// dijkstra's `r < 2p + q`), and rounding with exact-bias recomputation
/// keeps only the ones the data supports.
///
/// Each direction is scaled to unit L2 norm. That scaling puts a 2:1
/// pattern's small weight just below half the large one, so its
/// denominator-1 rounding keeps the large term alone instead of turning
/// into a ±1 pattern, which is a direction of its own; lin-branch-07's
/// invariant is valid only with that rounding.
fn canonical_directions(k: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for mags in 0u32..((1 << k) - 1) {
        for bits in 0..(1u32 << (k - 1)) {
            let mut w: Vec<f64> = (0..k)
                .map(|i| {
                    let mag = if (mags >> i) & 1 == 1 { 2.0 } else { 1.0 };
                    let sign = if i > 0 && (bits >> (i - 1)) & 1 == 1 { -1.0 } else { 1.0 };
                    mag * sign
                })
                .collect();
            project_unit_l2(&mut w);
            out.push(w.clone());
            out.push(w.iter().map(|x| -x).collect());
        }
    }
    out
}

/// The inward normals of the convex hull of the points `(xs[j], ys[j])`,
/// gcd-normalized, one per hull edge in counter-clockwise order.
///
/// Andrew's monotone chain in exact `i128` arithmetic. Collinear points
/// (fewer than three hull vertices) have no facets: their one direction
/// is an equality, which the equality learner owns. `None` when a value
/// is not an integer or the arithmetic would overflow.
fn hull_normals(xs: &[f64], ys: &[f64]) -> Option<Vec<[i128; 2]>> {
    // Below 2^126, no coordinate difference reaches `i128::MIN`, whose
    // magnitude `gcd_i128` could not return.
    let to_int = |v: f64| (v.fract() == 0.0 && v.abs() < 2f64.powi(126)).then_some(v as i128);
    let mut pts: Vec<[i128; 2]> =
        xs.iter().zip(ys).map(|(&x, &y)| Some([to_int(x)?, to_int(y)?])).collect::<Option<_>>()?;
    pts.sort_unstable();
    pts.dedup();
    // `(a − o) × (b − o)`: positive when `o → a → b` turns left.
    let cross = |o: [i128; 2], a: [i128; 2], b: [i128; 2]| -> Option<i128> {
        let lhs = a[0].checked_sub(o[0])?.checked_mul(b[1].checked_sub(o[1])?)?;
        let rhs = a[1].checked_sub(o[1])?.checked_mul(b[0].checked_sub(o[0])?)?;
        lhs.checked_sub(rhs)
    };
    // Lower hull left to right, then upper hull right to left, keeping
    // only strict left turns; the upper pass never pops the lower hull.
    let mut hull: Vec<[i128; 2]> = Vec::with_capacity(pts.len() + 1);
    let mut floor = 1;
    for (i, &p) in pts.iter().chain(pts.iter().rev().skip(1)).enumerate() {
        if i == pts.len() {
            floor = hull.len();
        }
        while hull.len() > floor && cross(hull[hull.len() - 2], hull[hull.len() - 1], p)? <= 0 {
            hull.pop();
        }
        hull.push(p);
    }
    // The upper pass ends where the lower one started.
    hull.pop();
    if hull.len() < 3 {
        return Some(Vec::new());
    }
    let mut normals = Vec::with_capacity(hull.len());
    for (i, &p) in hull.iter().enumerate() {
        let q = hull[(i + 1) % hull.len()];
        // The interior lies left of `p → q`: normal (−dy, dx).
        let (dx, dy) = (q[0].checked_sub(p[0])?, q[1].checked_sub(p[1])?);
        let g = gcd_i128(dx, dy);
        normals.push([dy.checked_neg()? / g, dx / g]);
    }
    Some(normals)
}

/// Rounds a direction to small rationals, recomputes the bias exactly as
/// the tightest value valid on all points (Theorem 4.2's "desired"
/// inequality: valid everywhere, tight somewhere), and scores tightness
/// by mean PBQU activation. `raw_cols` holds the subset's term columns
/// over the raw points, computed once per subset.
fn round_and_tighten(
    subset: &[usize],
    direction: &[f64],
    raw_cols: &[Vec<f64>],
    space: &TermSpace,
) -> Option<LearnedBound> {
    let max_abs = direction.iter().fold(0.0f64, |a, &w| a.max(w.abs()));
    if max_abs < 1e-9 {
        return None;
    }
    let num_points = raw_cols.first().map_or(0, Vec::len);
    let mut best: Option<LearnedBound> = None;
    let mut tried: Vec<Vec<Rat>> = Vec::with_capacity(DENOMINATORS.len());
    for den in DENOMINATORS {
        let Some(coeffs) = direction
            .iter()
            .map(|&w| Rat::approximate(w / max_abs, den))
            .collect::<Option<Vec<Rat>>>()
        else {
            continue;
        };
        // A rounding equal to an earlier denominator's (every ±1 or {1, 2}
        // direction at 2 and 4) would score the same and never replace
        // `best`, which needs a strictly higher score.
        if coeffs.iter().all(Rat::is_zero) || tried.contains(&coeffs) {
            continue;
        }
        tried.push(coeffs.clone());
        // Evaluate w·t over the cached raw columns.
        let float_coeffs: Vec<f64> = coeffs.iter().map(Rat::to_f64).collect();
        let mut values: Vec<f64> = Vec::with_capacity(num_points);
        for pi in 0..num_points {
            let v: f64 = float_coeffs.iter().zip(raw_cols).map(|(c, col)| c * col[pi]).sum();
            values.push(v);
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        if !min.is_finite() {
            continue;
        }
        // Constant slack means the direction is an equality (or a shifted
        // one) — the equality learner owns those; emitting them as bounds
        // would crowd out genuine inequalities.
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if (max - min).abs() < 1e-9 {
            continue;
        }
        // Tight bias: -min, as a rational (training data is integral or
        // dyadic so this is exact in practice).
        let bias = Rat::approximate(-min, 1 << 20)?;
        let score =
            values.iter().map(|v| pbqu_ge(v - min, C1, C2)).sum::<f64>() / values.len() as f64;
        let arity = space.names.len();
        let mut poly = Poly::constant(bias, arity);
        for (&t, c) in subset.iter().zip(&coeffs) {
            poly.add_term(*c, space.monomials[t].clone());
        }
        if poly.is_zero() || poly.is_constant() {
            continue;
        }
        let poly = scale_to_integer_coeffs(poly);
        if best.as_ref().is_none_or(|b| score > b.score) {
            best = Some(LearnedBound { atom: Atom::new(poly, Pred::Ge), score });
        }
    }
    best
}

/// Clears denominators (×lcm) without flipping the sign, keeping the
/// inequality equivalent.
fn scale_to_integer_coeffs(poly: Poly) -> Poly {
    let mut lcm: i128 = 1;
    for (_, c) in poly.iter() {
        let d = c.denom();
        lcm = lcm / gcln_numeric::rat::gcd_i128(lcm, d) * d;
    }
    poly.scale(Rat::integer(lcm))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sqrt_points() -> Vec<Vec<f64>> {
        // (n, a) pairs with a = isqrt-ish: a^2 <= n.
        let mut out = Vec::new();
        for n in 0..40 {
            let a = (n as f64).sqrt().floor();
            out.push(vec![n as f64, a]);
        }
        out
    }

    fn shown(bounds: &[Atom], space: &TermSpace) -> Vec<String> {
        bounds.iter().map(|b| b.display(&space.names).to_string()).collect()
    }

    #[test]
    fn learns_tight_sqrt_bound() {
        // Figure 1b / 10b: among bounds over (n, a^2) the tight one is
        // n - a^2 >= 0.
        let space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let points = sqrt_points();
        let bounds = learn_bounds(&space, &points);
        assert!(!bounds.is_empty());
        let target = gcln_logic::parse_poly("n - a^2", &space.names).unwrap();
        let found = bounds.iter().any(|b| b.poly.normalize_content() == target.normalize_content());
        assert!(found, "expected n - a^2 >= 0 among {:?}", shown(&bounds, &space));
    }

    #[test]
    fn all_learned_bounds_are_valid_on_data() {
        let space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let points = sqrt_points();
        let bounds = learn_bounds(&space, &points);
        for b in &bounds {
            assert!(
                crate::extract::atom_fits(&b.poly, Pred::Ge, &points, 1e-9),
                "bound {} violated on data",
                b.display(&space.names)
            );
        }
    }

    #[test]
    fn tight_bounds_score_above_loose_ones() {
        // Directly exercise the scoring: slack-0 data scores 1.
        let space = TermSpace::enumerate(names(&["x"]), 1);
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let bounds = learn_bounds(&space, &points);
        // x >= 0 should be found (bias 0, tight at x=0).
        let target = gcln_logic::parse_poly("x", &space.names).unwrap();
        assert!(
            bounds.iter().any(|b| b.poly == target),
            "x >= 0 missing from {:?}",
            shown(&bounds, &space)
        );
    }

    /// The triangle (0,0), (4,0), (0,2) with interior and edge points.
    fn triangle_points() -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for x in 0..=4 {
            for y in 0..=2 {
                if x + 2 * y <= 4 {
                    out.push(vec![x as f64, y as f64]);
                }
            }
        }
        out
    }

    #[test]
    fn hull_normals_of_a_triangle() {
        let points = triangle_points();
        let xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
        let ys: Vec<f64> = points.iter().map(|p| p[1]).collect();
        let mut normals = hull_normals(&xs, &ys).unwrap();
        normals.sort_unstable();
        assert_eq!(normals, vec![[-1, -2], [0, 1], [1, 0]]);

        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let bounds = learn_bounds(&space, &points);
        let target = gcln_logic::parse_poly("4 - x - 2*y", &space.names).unwrap();
        assert!(
            bounds.iter().any(|b| b.poly == target),
            "expected 4 - x - 2*y >= 0 among {:?}",
            shown(&bounds, &space)
        );
    }

    #[test]
    fn collinear_data_has_no_facet_bound() {
        // y = 2x + 1: the one direction across the data is an equality.
        let points: Vec<Vec<f64>> = (0..10).map(|x| vec![x as f64, 2.0 * x as f64 + 1.0]).collect();
        let xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
        let ys: Vec<f64> = points.iter().map(|p| p[1]).collect();
        assert_eq!(hull_normals(&xs, &ys), Some(Vec::new()));
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let bounds = learn_bounds(&space, &points);
        assert!(!bounds.is_empty());
        for b in &bounds {
            let values: Vec<f64> = points.iter().map(|p| b.poly.eval_f64(p)).collect();
            let spread = values.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v))
                - values.iter().fold(f64::INFINITY, |a, &v| a.min(v));
            assert!(spread > 0.0, "equality {} emitted as a bound", b.display(&space.names));
        }
    }

    #[test]
    fn unusable_hull_input_falls_back_to_canonical_directions() {
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let mut fractional = triangle_points();
        fractional.push(vec![0.5, 0.25]);
        let mut huge = triangle_points();
        // A right triangle with legs of 2^100: the hull's cross products
        // reach 2^200.
        huge.extend([vec![2f64.powi(100), 0.0], vec![0.0, 2f64.powi(100)]]);
        for points in [fractional, huge] {
            let xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
            let ys: Vec<f64> = points.iter().map(|p| p[1]).collect();
            assert_eq!(hull_normals(&xs, &ys), None);
            let bounds = learn_bounds(&space, &points);
            assert!(!bounds.is_empty());
            for b in &bounds {
                assert!(
                    crate::extract::atom_fits(&b.poly, Pred::Ge, &points, 1e-9),
                    "bound {} violated on data",
                    b.display(&space.names)
                );
            }
        }
    }

    /// `learn_bounds` before the early stop: learn every subset, then run
    /// the round-robin pass by pass. Also returns where the cap filled,
    /// as `(pass, subset)`.
    fn learn_bounds_reference(
        space: &TermSpace,
        points: &[Vec<f64>],
        max_bounds: usize,
    ) -> (Vec<Atom>, Option<(usize, usize)>) {
        let results: Vec<Vec<LearnedBound>> = candidate_subsets(space)
            .iter()
            .map(|subset| learn_subset(space, points, subset))
            .collect();
        let mut seen: Vec<Poly> = Vec::new();
        let mut out = Vec::new();
        let mut rank = 0;
        loop {
            let mut any = false;
            for (si, subset_bounds) in results.iter().enumerate() {
                let Some(b) = subset_bounds.get(rank) else { continue };
                any = true;
                if seen.contains(&b.atom.poly) {
                    continue;
                }
                seen.push(b.atom.poly.clone());
                out.push(b.atom.clone());
                if out.len() >= max_bounds {
                    return (out, Some((rank, si)));
                }
            }
            if !any {
                return (out, None);
            }
            rank += 1;
        }
    }

    #[test]
    fn early_stop_matches_full_round_robin() {
        // Three variables of degree ≤ 2: 9 single-term subsets, then 21
        // pairs and one triple.
        let space = TermSpace::enumerate(names(&["x", "y", "z"]), 2);
        let singles = 9;
        let pairs_end = singles + 21;
        let points: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let (x, y) = ((i % 6) as f64, (i / 6) as f64);
                vec![x, y, x * y + 2.0 * x + 1.0]
            })
            .collect();
        let sqrt_space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let cases = [
            // The cap fills inside the single-term subsets.
            ("singles", &space, points.clone(), 5),
            // It fills partway through the pairs.
            ("pairs", &space, points.clone(), singles + 6),
            // The sqrt1 data never fills the default cap on the first pass.
            ("sqrt1", &sqrt_space, sqrt_points(), MAX_BOUNDS),
            // The cap exceeds the number of bounds found.
            ("uncapped", &space, points, 10_000),
        ];
        for (name, space, points, max_bounds) in cases {
            let (want, filled) = learn_bounds_reference(space, &points, max_bounds);
            match name {
                "singles" => assert!(matches!(filled, Some((0, si)) if si < singles), "{filled:?}"),
                "pairs" => assert!(
                    matches!(filled, Some((0, si)) if (singles..pairs_end).contains(&si)),
                    "{filled:?}"
                ),
                "sqrt1" => assert!(!matches!(filled, Some((0, _))), "{filled:?}"),
                _ => assert!(filled.is_none() && want.len() < max_bounds),
            }
            let got = learn_bounds_capped(space, &points, max_bounds);
            assert_eq!(got, want, "{name}: early stop changed the bounds");
        }
    }

    #[test]
    fn empty_data_yields_no_bounds() {
        let space = TermSpace::enumerate(names(&["x"]), 1);
        let bounds = learn_bounds(&space, &[]);
        assert!(bounds.is_empty());
    }

    #[test]
    fn triple_bounds_over_three_variables() {
        // dijkstra-style: r < 2p + q i.e. 2p + q - r >= 0 (with slack
        // small on data): generate states satisfying r = 2p + q - 1.
        let space = TermSpace::enumerate(names(&["p", "q", "r"]), 2);
        // r stays below 2p + q with *varying* slack (as in the real
        // dijkstra loop), so the bound is a genuine inequality.
        let mut points = Vec::new();
        for p in 0..8 {
            for q in [1i64, 4, 16] {
                for gap in [1i64, 2, 3] {
                    let r = 2 * p + q - gap;
                    if r >= 0 {
                        points.push(vec![p as f64, q as f64, r as f64]);
                    }
                }
            }
        }
        let bounds = learn_bounds(&space, &points);
        let target = gcln_logic::parse_poly("2*p + q - r - 1", &space.names).unwrap();
        assert!(
            bounds.iter().any(|b| b.poly.normalize_content() == target.normalize_content()),
            "expected 2p + q - r - 1 >= 0 among {:?}",
            shown(&bounds, &space)
        );
    }
}
