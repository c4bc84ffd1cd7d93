//! Inequality-bound learning with PBQU activations (paper §4.2, §5.2.2).
//!
//! Candidate inequalities are linear forms over small term subsets — all
//! single terms of degree ≤ 2, pairs of such terms, and triples of
//! degree-1 terms (the paper considers "all possible combinations of
//! variables up to 3 terms and 2nd degree"). For each subset a PBQU
//! neuron `S(w·t + b ≥ 0)` is trained; Theorem 4.2 guarantees the learned
//! bound is tight on the data. Weights are rounded to small rationals,
//! the bias is recomputed exactly as the tightest valid value, and bounds
//! whose mean PBQU activation falls below a threshold (loose fits,
//! Fig. 10's dashed lines) are discarded.
//!
//! At most 64 bounds are kept, one subset's
//! best at a time in subset order before any second bounds. Subsets are
//! therefore learned in order and learning stops once the cap is full:
//! on wide term spaces the single-term subsets alone fill it.

use crate::terms::TermSpace;
use gcln_logic::relax::pbqu_ge;
use gcln_logic::{Atom, Pred};
use gcln_numeric::{Poly, Rat};
use gcln_tensor::fastmath::{fma64, reduce_blocked4, reduce_fma_blocked4};
use gcln_tensor::optim::{project_unit_l2, Adam, OptimizerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// PBQU below-boundary constant (§6 training value).
const C1: f64 = 1.0;
/// PBQU above-boundary constant (§6 training value).
const C2: f64 = 50.0;
/// Adam settings for bound training.
const OPTIMIZER: OptimizerConfig = OptimizerConfig { learning_rate: 0.05, decay: 0.999 };
/// Keep a bound only if its mean PBQU activation reaches this.
const ACTIVATION_THRESHOLD: f64 = 0.55;
/// Denominator budgets for rounding weights.
const DENOMINATORS: [i128; 3] = [1, 2, 4];
/// RNG seed for weight initialization.
const SEED: u64 = 11;

/// The bound-learning settings this module's tests vary; the pipeline
/// always learns at the default.
#[derive(Clone, Debug)]
struct BoundsConfig {
    /// Epochs per candidate subset.
    epochs: usize,
    /// Hard cap on emitted bounds: each subset's tightest bound first, in
    /// subset order, then each one's second, and so on (see
    /// [`learn_bounds`]).
    max_bounds: usize,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig { epochs: 150, max_bounds: 64 }
    }
}

/// A learned bound with its tightness score.
#[derive(Clone, Debug)]
pub struct LearnedBound {
    /// The inequality `poly >= 0`.
    pub atom: Atom,
    /// Mean PBQU activation over the data (1 = everything on the
    /// boundary).
    pub score: f64,
}

/// Learns tight inequality bounds over the data.
///
/// `points` are raw (unnormalized) term-space points; `columns` are the
/// normalized per-term columns used for gradient training.
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
/// their single-term subsets, which need no training; later subsets
/// could only have contributed past the cap. Only when every subset has
/// been learned without filling the cap does the round-robin go on to
/// second and later bounds. The output equals learning every subset
/// first (see the `early_stop_matches_full_round_robin` test).
pub fn learn_bounds(space: &TermSpace, points: &[Vec<f64>], columns: &[Vec<f64>]) -> Vec<Atom> {
    learn_bounds_with(space, points, columns, &BoundsConfig::default())
}

/// [`learn_bounds`] at the given settings.
fn learn_bounds_with(
    space: &TermSpace,
    points: &[Vec<f64>],
    columns: &[Vec<f64>],
    config: &BoundsConfig,
) -> Vec<Atom> {
    if points.is_empty() {
        return Vec::new();
    }
    let candidates = Candidates::new(space, points, columns, config.epochs);
    let n = candidates.subsets.len();
    let chunk = rayon::current_num_threads() * SUBSETS_PER_THREAD;
    let mut out = Vec::new();
    let mut learned: Vec<Vec<LearnedBound>> = Vec::with_capacity(n);
    for start in (0..n).step_by(chunk) {
        let chunk_results: Vec<Vec<LearnedBound>> =
            (start..n.min(start + chunk)).into_par_iter().map(|si| candidates.learn(si)).collect();
        for subset_bounds in chunk_results {
            if let Some(best) = subset_bounds.first() {
                if admit(&mut out, best, config.max_bounds) {
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
            if admit(&mut out, b, config.max_bounds) {
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
/// threads; a few subsets per thread keep that cost and the wait for a
/// chunk's slowest subset small next to the training, while a loop that
/// fills the cap learns no more than the rest of the chunk that fills it.
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

/// The candidate term subsets of one [`learn_bounds`] call, each with its
/// pre-drawn random values, and the data they are learned on.
struct Candidates<'a> {
    space: &'a TermSpace,
    points: &'a [Vec<f64>],
    columns: &'a [Vec<f64>],
    /// Training epochs per subset.
    epochs: usize,
    subsets: Vec<Vec<usize>>,
    draw_plans: Vec<Vec<f64>>,
}

impl<'a> Candidates<'a> {
    fn new(
        space: &'a TermSpace,
        points: &'a [Vec<f64>],
        columns: &'a [Vec<f64>],
        epochs: usize,
    ) -> Self {
        // Term indices by degree (excluding the constant term).
        let deg1: Vec<usize> =
            (0..space.len()).filter(|&i| space.monomials[i].degree() == 1).collect();
        let deg12: Vec<usize> =
            (0..space.len()).filter(|&i| (1..=2).contains(&space.monomials[i].degree())).collect();

        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for &i in &deg12 {
            subsets.push(vec![i]);
        }
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

        // Random draws are taken up-front for every subset from one
        // sequential stream (the exact order the historical per-subset
        // loop consumed them), so a subset's draws depend neither on
        // which thread learns it nor on where learning stops. A trained
        // subset of size `k` draws `2k` values for its two random inits
        // plus one bias initialization per init (`2^k + 2` inits).
        let mut rng = StdRng::seed_from_u64(SEED);
        let draw_plans: Vec<Vec<f64>> = subsets
            .iter()
            .map(|subset| {
                let k = subset.len();
                if k == 1 {
                    return Vec::new();
                }
                let num_inits = (1usize << k) + 2;
                (0..2 * k + num_inits).map(|_| rng.gen::<f64>()).collect()
            })
            .collect();
        Candidates { space, points, columns, epochs, subsets, draw_plans }
    }

    /// Learns subset `si`'s bounds that pass the activation threshold,
    /// tightest first.
    fn learn(&self, si: usize) -> Vec<LearnedBound> {
        let subset = &self.subsets[si];
        // Single terms admit the two fixed directions ±1 directly.
        let directions: Vec<Vec<f64>> = if subset.len() == 1 {
            vec![vec![1.0], vec![-1.0]]
        } else {
            train_directions(subset, self.columns, self.epochs, &self.draw_plans[si])
        };
        // Raw term columns for this subset, evaluated once — every
        // direction × denominator rounding below reuses them.
        let raw_cols: Vec<Vec<f64>> = subset
            .iter()
            .map(|&t| self.points.iter().map(|p| self.space.monomials[t].eval_f64(p)).collect())
            .collect();
        let mut subset_bounds: Vec<LearnedBound> = directions
            .iter()
            .filter_map(|dir| round_and_tighten(subset, dir, &raw_cols, self.space))
            .filter(|bound| bound.score >= ACTIVATION_THRESHOLD)
            .collect();
        subset_bounds.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
        subset_bounds
    }
}

/// Trains PBQU neurons (a couple of restarts) on the subset's normalized
/// columns and returns the learned weight directions.
///
/// `draws` supplies the subset's pre-drawn random values (see
/// [`Candidates::new`]) in the order the draws historically happened: two
/// random init vectors first, then one bias value per init.
fn train_directions(
    subset: &[usize],
    columns: &[Vec<f64>],
    epochs: usize,
    draws: &[f64],
) -> Vec<Vec<f64>> {
    let k = subset.len();
    let mut draws = draws.iter().copied();
    let mut next_draw = move || draws.next().expect("draw plan covers all inits");
    // Restarts: every sign pattern up to global sign (canonical tight
    // directions), plus two random initializations.
    let mut inits: Vec<Vec<f64>> = Vec::new();
    for bits in 0..(1u32 << (k - 1)) {
        let mut w: Vec<f64> =
            (0..k).map(|i| if i > 0 && (bits >> (i - 1)) & 1 == 1 { -1.0 } else { 1.0 }).collect();
        project_unit_l2(&mut w);
        inits.push(w.clone());
        inits.push(w.iter().map(|x| -x).collect());
    }
    for _ in 0..2 {
        let mut w: Vec<f64> = (0..k).map(|_| next_draw() * 2.0 - 1.0).collect();
        project_unit_l2(&mut w);
        inits.push(w);
    }
    // The canonical directions themselves are kept as candidates too:
    // gradient refinement finds data-specific slopes, while the ±1
    // patterns guarantee the octahedral family survives training noise.
    let mut out = inits.clone();
    // Small-integer ratio candidates `{1,2}^k × signs`: tight directions
    // of integer loops often have 2:1 coefficient ratios (e.g. dijkstra's
    // `r < 2p + q`), which gradient training from ±1 inits does not
    // reliably reach. Snapping them in as fixed candidates makes that
    // family deterministic regardless of the RNG stream; rounding and
    // exact-bias recomputation keep only the ones the data supports.
    // `mags == 0` (all-1) and `mags == 2^k - 1` (all-2) normalize to the
    // ±1 sign patterns already in `inits`, so both are skipped.
    for mags in 1u32..((1 << k) - 1) {
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
    // Each restart trains one PBQU neuron `S(w·t + b ≥ 0)` to completion
    // before the next starts. The arithmetic follows the scalar tape's
    // `affine` → `pbqu_loss` graph operation for operation (see the
    // `direct_directions_match_tape_reference` test), so the learned
    // directions are bit-identical to training that graph.
    let xs: Vec<&[f64]> = subset.iter().map(|&t| columns[t].as_slice()).collect();
    let n = xs[0].len();
    // ∂loss/∂act for `loss = mean(1 − act)`.
    let g_act = -(1.0 / n as f64);
    let (c1sq, c2sq) = (C1 * C1, C2 * C2);
    let mut z = vec![0.0; n];
    let mut gz = vec![0.0; n];
    let mut grads = vec![0.0; k + 1];
    for init in &inits {
        let mut params = init.clone();
        params.push(next_draw() * 0.1);
        let mut adam = Adam::new(k + 1, OPTIMIZER);
        for _ in 0..epochs {
            z.fill(params[k]);
            for (&w, x) in params.iter().zip(&xs) {
                for (zj, &xj) in z.iter_mut().zip(*x) {
                    *zj = fma64(w, xj, *zj);
                }
            }
            // Adjoint of `mean(1 − act)` at `z`, in the tape's order
            // (mean → sub → select → div → add → square).
            for (g, &zj) in gz.iter_mut().zip(&z) {
                let c = if zj >= 0.0 { c2sq } else { c1sq };
                let d = zj * zj + c;
                *g = 2.0 * (-g_act * c / (d * d)) * zj;
            }
            // `0.0 +` matches the tape, which accumulates parameter
            // gradients into a zeroed buffer (so −0.0 reads as +0.0).
            for (gw, x) in grads.iter_mut().zip(&xs) {
                *gw = 0.0 + reduce_fma_blocked4(n, |j| (gz[j], x[j]));
            }
            grads[k] = 0.0 + reduce_blocked4(n, |j| gz[j]);
            adam.step(&mut params, &grads);
            project_unit_l2(&mut params[..k]);
        }
        out.push(params[..k].to_vec());
    }
    out
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
    for den in DENOMINATORS {
        let Some(coeffs) = direction
            .iter()
            .map(|&w| Rat::approximate(w / max_abs, den))
            .collect::<Option<Vec<Rat>>>()
        else {
            continue;
        };
        if coeffs.iter().all(Rat::is_zero) {
            continue;
        }
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
    use crate::data::Dataset;

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

    #[test]
    fn learns_tight_sqrt_bound() {
        // Figure 1b / 10b: among bounds over (n, a^2) the tight one is
        // n - a^2 >= 0.
        let space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let points = sqrt_points();
        let ds = Dataset::from_points(points.clone(), &space, Some(10.0));
        let bounds = learn_bounds(&space, &points, &ds.columns());
        assert!(!bounds.is_empty());
        let target = gcln_logic::parse_poly("n - a^2", &space.names).unwrap();
        let found = bounds.iter().any(|b| b.poly.normalize_content() == target.normalize_content());
        let shown: Vec<String> =
            bounds.iter().map(|b| b.display(&space.names).to_string()).collect();
        assert!(found, "expected n - a^2 >= 0 among {shown:?}");
    }

    #[test]
    fn all_learned_bounds_are_valid_on_data() {
        let space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let points = sqrt_points();
        let ds = Dataset::from_points(points.clone(), &space, Some(10.0));
        let bounds = learn_bounds(&space, &points, &ds.columns());
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
        let ds = Dataset::from_points(points.clone(), &space, Some(10.0));
        let bounds = learn_bounds(&space, &points, &ds.columns());
        // x >= 0 should be found (bias 0, tight at x=0).
        let target = gcln_logic::parse_poly("x", &space.names).unwrap();
        assert!(
            bounds.iter().any(|b| b.poly == target),
            "x >= 0 missing from {:?}",
            bounds.iter().map(|b| b.display(&space.names).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn direct_directions_match_tape_reference() {
        // Re-derive train_directions' learned directions by training the
        // scalar tape's `affine` → `pbqu_loss` graph, one Adam per init,
        // and require bitwise equality. Two cases: a 2-term subset on 40
        // samples, and a 3-term subset on 23 samples (not a multiple of
        // 4, so the blocked reductions' tail is exercised).
        use gcln_tensor::tape::Tape;
        let sqrt_space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let triple_space = TermSpace::enumerate(names(&["x", "y", "z"]), 1);
        let triple_points: Vec<Vec<f64>> =
            (0..23).map(|i| vec![i as f64, (i % 5) as f64, 30.0 - 2.0 * (i % 7) as f64]).collect();
        let deg1 = |space: &TermSpace| -> Vec<usize> {
            (0..space.len()).filter(|&i| space.monomials[i].degree() == 1).collect()
        };
        let cases = [
            (&sqrt_space, sqrt_points(), deg1(&sqrt_space)),
            (&triple_space, triple_points, deg1(&triple_space)),
        ];
        for (space, points, subset) in cases {
            let ds = Dataset::from_points(points, space, Some(10.0));
            let columns = ds.columns();
            let epochs = 40;
            let k = subset.len();
            let num_inits = (1usize << k) + 2;
            let mut rng = StdRng::seed_from_u64(SEED);
            let draws: Vec<f64> = (0..2 * k + num_inits).map(|_| rng.gen::<f64>()).collect();
            let direct = train_directions(&subset, &columns, epochs, &draws);

            // Tape reference: same init construction, same draw order.
            let mut draws_it = draws.iter().copied();
            let mut next_draw = move || draws_it.next().unwrap();
            let mut tape = Tape::new();
            let xs: Vec<_> = (0..k).map(|i| tape.input(i)).collect();
            let ws: Vec<_> = (0..k).map(|i| tape.param(i)).collect();
            let bias = tape.param(k);
            let z = tape.affine(&ws, &xs, Some(bias));
            let loss = tape.pbqu_loss(z, C1, C2);
            let sub_columns: Vec<Vec<f64>> = subset.iter().map(|&t| columns[t].clone()).collect();
            let mut inits: Vec<Vec<f64>> = Vec::new();
            for bits in 0..(1u32 << (k - 1)) {
                let mut w: Vec<f64> = (0..k)
                    .map(|i| if i > 0 && (bits >> (i - 1)) & 1 == 1 { -1.0 } else { 1.0 })
                    .collect();
                project_unit_l2(&mut w);
                inits.push(w.clone());
                inits.push(w.iter().map(|x| -x).collect());
            }
            for _ in 0..2 {
                let mut w: Vec<f64> = (0..k).map(|_| next_draw() * 2.0 - 1.0).collect();
                project_unit_l2(&mut w);
                inits.push(w);
            }
            let mut trained = Vec::new();
            for init in inits {
                let mut params: Vec<f64> = init;
                params.push(next_draw() * 0.1);
                let mut adam = Adam::new(k + 1, OPTIMIZER);
                for _ in 0..epochs {
                    let (_, grads) = tape.eval_with_grad(loss, &sub_columns, &params);
                    adam.step(&mut params, &grads);
                    project_unit_l2(&mut params[..k]);
                }
                trained.push(params[..k].to_vec());
            }
            // Trained directions occupy the tail of the output (after the
            // fixed canonical + small-integer-ratio candidates).
            let tail = &direct[direct.len() - trained.len()..];
            for (got, want) in tail.iter().zip(&trained) {
                for (a, b) in got.iter().zip(want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k}: direct direction diverged");
                }
            }
        }
    }

    /// `learn_bounds` before the early stop: learn every subset, then run
    /// the round-robin pass by pass. Also returns where the cap filled,
    /// as `(pass, subset)`.
    fn learn_bounds_reference(
        space: &TermSpace,
        points: &[Vec<f64>],
        config: &BoundsConfig,
    ) -> (Vec<Atom>, Option<(usize, usize)>) {
        let ds = Dataset::from_points(points.to_vec(), space, Some(10.0));
        let columns = ds.columns();
        let candidates = Candidates::new(space, points, &columns, config.epochs);
        let results: Vec<Vec<LearnedBound>> =
            (0..candidates.subsets.len()).map(|si| candidates.learn(si)).collect();
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
                if out.len() >= config.max_bounds {
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
        let with_cap = |max_bounds| BoundsConfig { epochs: 40, max_bounds };
        let sqrt_config = BoundsConfig { epochs: 40, ..BoundsConfig::default() };
        let sqrt_space = TermSpace::enumerate(names(&["n", "a"]), 2);
        let cases = [
            // The cap fills inside the single-term subsets.
            ("singles", &space, points.clone(), with_cap(5)),
            // It fills partway through the pairs.
            ("pairs", &space, points.clone(), with_cap(singles + 6)),
            // The sqrt1 data never fills the default cap on the first pass.
            ("sqrt1", &sqrt_space, sqrt_points(), sqrt_config),
            // The cap exceeds the number of bounds found.
            ("uncapped", &space, points, with_cap(10_000)),
        ];
        for (name, space, points, config) in cases {
            let (want, filled) = learn_bounds_reference(space, &points, &config);
            match name {
                "singles" => assert!(matches!(filled, Some((0, si)) if si < singles), "{filled:?}"),
                "pairs" => assert!(
                    matches!(filled, Some((0, si)) if (singles..pairs_end).contains(&si)),
                    "{filled:?}"
                ),
                "sqrt1" => assert!(!matches!(filled, Some((0, _))), "{filled:?}"),
                _ => assert!(filled.is_none() && want.len() < config.max_bounds),
            }
            let ds = Dataset::from_points(points.clone(), space, Some(10.0));
            let got = learn_bounds_with(space, &points, &ds.columns(), &config);
            assert_eq!(got, want, "{name}: early stop changed the bounds");
        }
    }

    #[test]
    fn empty_data_yields_no_bounds() {
        let space = TermSpace::enumerate(names(&["x"]), 1);
        let bounds = learn_bounds(&space, &[], &[]);
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
        let ds = Dataset::from_points(points.clone(), &space, Some(10.0));
        let bounds = learn_bounds(&space, &points, &ds.columns());
        let target = gcln_logic::parse_poly("2*p + q - r - 1", &space.names).unwrap();
        assert!(
            bounds.iter().any(|b| b.poly.normalize_content() == target.normalize_content()),
            "expected 2p + q - r - 1 >= 0 among {:?}",
            bounds.iter().map(|b| b.display(&space.names).to_string()).collect::<Vec<_>>()
        );
    }
}
