//! The Gated Continuous Logic Network (paper §4.1, §5.2.1).
//!
//! Architecture (Fig. 9): term columns feed `m` clauses; each clause is a
//! **gated t-conorm** (OR) of `n` atomic literals; the clauses combine
//! under a **gated t-norm** (AND). An atomic literal is a linear form
//! `z = w·t` over the (dropout-masked) terms passed through a Gaussian
//! activation `exp(−z²/2σ²)` — the relaxation of `z = 0`.
//!
//! Training minimizes
//! `Σ_x (1 − M(x)) + λ₁ Σ_{g∈T_G} (1 − g) + λ₂ Σ_{g∈T'_G} g`
//! with Adam, the adaptive λ schedule of §6, per-literal unit-L2 weight
//! projection (§5.1.2), and term dropout (§5.1.3). Gates are clamped to
//! `[0, 1]` after every step.
//!
//! The §6 hyperparameters are the constants below (`m` = 10, `n` = 2,
//! σ annealed from 5 to 0.1, the λ₁/λ₂ schedules) and Adam's (lr 0.01,
//! decay 0.9996). Only the epoch count is configured ([`GclnConfig`]);
//! the dropout rate, the weight projection switch and the seed are
//! arguments of [`train_equality_gcln`], because the engine derives them
//! per training attempt.
//!
//! [`train_cln`] trains the ungated template CLN of CLN2INV, the Table 4
//! baseline, through the same loop and kernel: a fixed shape of clauses
//! and literals whose gates stay at 1, with no gate regularization, L1,
//! diversity, dropout or early stop. With the gates on and off, Table 4
//! compares one network and one optimizer.
//!
//! Each epoch's data loss and gradients come from one fused kernel that
//! walks the batch in tiles of 32 samples, forward then backward, with
//! no graph and no per-epoch allocation. It performs the operations of
//! the loss graph recorded on the test-only tape (`crate::tape`) in the
//! tape's order, reductions included, so training is bit-identical to
//! training on the tape; the `kernel_training_matches_tape_bitwise` test
//! pins it against that graph, gated and ungated.
//! The decorrelation gradients come from one Gram matrix of the literal
//! weights per epoch, summed in the order of the pairwise formula it
//! replaces (`diversity_gram_matches_pairwise_sums`).

use crate::fastmath::{exp64, fma64, l1_subgrad};
use crate::optim::{project_unit_l2, Adam};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Clauses `m` in the conjunction layer.
const NUM_CLAUSES: usize = 10;
/// Literals `n` per disjunction clause.
const LITERALS_PER_CLAUSE: usize = 2;
/// Final Gaussian width σ (the paper's training value).
const SIGMA: f64 = 0.1;
/// Initial Gaussian width, annealed down to [`SIGMA`]. The original CLN
/// gets the same effect by penalizing small sharpness B in the loss —
/// starting smooth avoids the dead gradients of a near-delta Gaussian on
/// L2-normalized data.
const SIGMA_INIT: f64 = 5.0;
/// Fraction of the epochs over which σ anneals to its final value.
const ANNEAL_FRACTION: f64 = 0.6;
/// L1 sparsity pressure on literal weights. Combined with the unit-L2
/// projection this drives literals toward the *sparse* null-space
/// directions (the human-readable invariants of §5.1.3) instead of dense
/// linear combinations of them.
const WEIGHT_L1: f64 = 2e-3;
/// Decorrelation pressure between literal weight vectors (gradient of
/// `½(wᵢ·wⱼ)²` per pair). Without it every literal collapses onto the
/// easiest null-space direction and conjunctions of several equalities
/// are never recovered.
const DIVERSITY: f64 = 0.1;
/// Early stop once the data loss falls below this and the gates are
/// polarized.
const LOSS_TOL: f64 = 1e-4;
/// λ₁ schedule `(initial, factor, limit)` for t-norm (clause) gates —
/// pushes gates toward 1.
const LAMBDA1: (f64, f64, f64) = (1.0, 0.999, 0.1);
/// λ₂ schedule for t-conorm (literal) gates — pushes gates toward 0.
const LAMBDA2: (f64, f64, f64) = (0.001, 1.001, 0.1);

/// A gate-regularization coefficient at `epoch`: `initial` multiplied by
/// `factor` each epoch until it crosses `limit`.
fn lambda_at((init, factor, limit): (f64, f64, f64), epoch: usize) -> f64 {
    let v = init * factor.powi(epoch as i32);
    if factor < 1.0 {
        v.max(limit)
    } else {
        v.min(limit)
    }
}

/// G-CLN training settings. Everything else about training is a §6
/// constant of this module.
#[derive(Clone, Debug)]
pub struct GclnConfig {
    /// Maximum training epochs.
    pub max_epochs: usize,
}

impl Default for GclnConfig {
    fn default() -> Self {
        GclnConfig { max_epochs: 2000 }
    }
}

/// The model's shape: clause and literal counts, decorrelation pressure,
/// and whether the gates train.
#[derive(Clone, Copy)]
struct Shape {
    num_clauses: usize,
    literals_per_clause: usize,
    diversity: f64,
    /// `false` is the template CLN of CLN2INV: every gate stays at 1, with
    /// no gate regularization, no weight L1 and no early stop.
    gated: bool,
}

/// The §6 shape every G-CLN training run uses.
const SHAPE: Shape = Shape {
    num_clauses: NUM_CLAUSES,
    literals_per_clause: LITERALS_PER_CLAUSE,
    diversity: DIVERSITY,
    gated: true,
};

/// A trained G-CLN, ready for formula extraction.
#[derive(Clone, Debug)]
pub struct TrainedGcln {
    /// Clause (t-norm) gate values, length `m`.
    pub clause_gates: Vec<f64>,
    /// Literal (t-conorm) gate values, `m × n`.
    pub literal_gates: Vec<Vec<f64>>,
    /// Literal weights over the full term space (`m × n × T`; dropped
    /// terms hold zero).
    pub weights: Vec<Vec<Vec<f64>>>,
    /// Dropout masks (`m × n × T`, `true` = kept).
    pub masks: Vec<Vec<Vec<bool>>>,
    /// Final mean data loss `mean(1 − M(x))`.
    pub final_loss: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
}

struct LiteralSlot {
    /// Parameter indices of the weights, aligned with `kept_terms`.
    weight_params: Range<usize>,
    /// Kept term indices, ascending.
    kept_terms: Vec<usize>,
    gate_param: usize,
}

struct ClauseSlot {
    literals: Vec<LiteralSlot>,
    gate_param: usize,
}

/// Kept term indices per `[clause][literal]`, plus the aligned boolean
/// masks over the full term space.
type KeptTerms = (Vec<Vec<Vec<usize>>>, Vec<Vec<Vec<bool>>>);

/// Term-dropout draws (§5.1.3) — the **first RNG phase**, before
/// [`init_params`]. Keeps at least two terms per literal so a constraint
/// stays expressible.
fn draw_kept_terms(
    num_terms: usize,
    shape: Shape,
    dropout_rate: f64,
    rng: &mut StdRng,
) -> KeptTerms {
    let mut masks =
        vec![vec![vec![false; num_terms]; shape.literals_per_clause]; shape.num_clauses];
    let mut kept_all = Vec::with_capacity(shape.num_clauses);
    for clause_masks in masks.iter_mut() {
        let mut clause_kept = Vec::with_capacity(shape.literals_per_clause);
        for literal_mask in clause_masks.iter_mut() {
            let mut kept: Vec<usize> =
                (0..num_terms).filter(|_| rng.gen::<f64>() >= dropout_rate).collect();
            while kept.len() < 2.min(num_terms) {
                let t = rng.gen_range(0..num_terms);
                if !kept.contains(&t) {
                    kept.push(t);
                }
            }
            kept.sort_unstable();
            for &t in &kept {
                literal_mask[t] = true;
            }
            clause_kept.push(kept);
        }
        kept_all.push(clause_kept);
    }
    (kept_all, masks)
}

/// Parameter layout: weight slots exist for kept terms only, allocated
/// sequentially clause by clause (each literal's weights, then its gate;
/// the clause gate after its literals). Returns `(slots, num_params)`.
fn compact_slots(kept: Vec<Vec<Vec<usize>>>) -> (Vec<ClauseSlot>, usize) {
    let mut num_params = 0usize;
    let mut alloc = |n: usize| -> usize {
        num_params += n;
        num_params - n
    };
    let mut clauses = Vec::with_capacity(kept.len());
    for clause_kept in kept {
        let mut literals = Vec::with_capacity(clause_kept.len());
        for kept_terms in clause_kept {
            let first = alloc(kept_terms.len());
            let weight_params = first..first + kept_terms.len();
            literals.push(LiteralSlot { weight_params, kept_terms, gate_param: alloc(1) });
        }
        clauses.push(ClauseSlot { literals, gate_param: alloc(1) });
    }
    (clauses, num_params)
}

/// The data loss `mean(1 − M(x))` of one attempt's G-CLN.
trait DataLoss {
    /// The loss at `params` with Gaussian width `sigma`. With `grads`,
    /// also overwrites the gradient of every weight and gate.
    fn eval(
        &mut self,
        clauses: &[ClauseSlot],
        params: &[f64],
        sigma: f64,
        grads: Option<&mut [f64]>,
    ) -> f64;
}

/// Samples per tile of [`EqualityKernel`]: small enough that one tile's
/// `z`, activations and running products for every literal stay in L1.
const TILE: usize = 32;

type Tile = [f64; TILE];

/// Training samples' term values in the layout the training kernel
/// reads: tiles of 32 samples, tile-major (tile `b` of term `t` at
/// `b · T + t`), so the terms one tile reads lie in one block of memory.
/// The last tile is zero-padded past the batch end. Built once per
/// dataset and shared by every training attempt on it.
#[derive(Debug)]
pub struct TermTiles {
    n: usize,
    num_terms: usize,
    tiles: Vec<Tile>,
}

impl TermTiles {
    /// The tiles of `rows` (samples × terms, the layout of
    /// [`crate::data::Dataset::rows`]).
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let num_terms = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == num_terms), "ragged rows");
        let mut tiles = vec![[0.0; TILE]; n.div_ceil(TILE) * num_terms];
        for (i, row) in rows.iter().enumerate() {
            let b = i / TILE * num_terms;
            for (tile, &x) in tiles[b..b + num_terms].iter_mut().zip(row) {
                tile[i % TILE] = x;
            }
        }
        TermTiles { n, num_terms, tiles }
    }

    /// Samples `base..base + TILE` of every term.
    fn tile(&self, base: usize) -> &[Tile] {
        &self.tiles[base / TILE * self.num_terms..][..self.num_terms]
    }
}

/// The fused forward and backward pass of the G-CLN loss graph
/// `mean(1 − Π_clauses(1 + g·((1 − Π_literals(1 − g·act)) − 1)))`,
/// walked over the batch in tiles of [`TILE`] samples.
///
/// Per sample it performs the graph's operations in order: `z` by
/// `fma64` over the kept terms, `act = exp64((z·z)·c)` with
/// `c = −(1/(2·(σ·σ)))`, the literal factors `1 − g·act` and their
/// running product `p`, the clause factors `1 + g·((1 − p) − 1)` and
/// their running product `conj`, then `1 − conj`. The backward pass starts
/// from the constant adjoint `−(1/n)` and applies each operation's adjoint
/// formula in the same order; σ's adjoint is not computed. Every batch
/// reduction keeps the state of `reduce_blocked4` (`reduce_fma_blocked4`
/// for the weights) across tiles: lane `j mod 4` over the leading
/// `4⌊n/4⌋` samples, a sequential tail for the rest, combined as
/// `((a₀+a₁)+(a₂+a₃))+tail`, then added to `0.0` as the tape adds into
/// its zeroed gradient buffer. Loss and gradients are therefore
/// bit-identical to evaluating the graph on the test-only tape (the
/// `kernel_training_matches_tape_bitwise` test).
///
/// The two FMA loops are register-blocked. The forward `z` of a literal
/// accumulates in eight blocks of four samples, one vector register
/// each, over its kept terms in order. The weight gradients take eight
/// kept terms at a time, each term's four lanes in one register: eight
/// independent FMA chains per pass over `dz`. The samples come
/// tile-major ([`TermTiles`]), so the terms one tile reads are one block
/// of memory. Blocking and layout only choose which independent sums
/// run side by side and where operands are read from.
/// Each sample's `z` still adds its terms in kept order, and each
/// gradient lane still adds samples `j ≡ s (mod 4)` in ascending order,
/// so the bits do not change.
struct EqualityKernel<'a> {
    data: &'a TermTiles,
    /// Per literal, clause-major: `z`, the Gaussian activation, and the
    /// running product of its clause's literal factors through it.
    z: Vec<Tile>,
    act: Vec<Tile>,
    prod: Vec<Tile>,
    /// Per clause: its factor and the running conjunction through it.
    factor: Vec<Tile>,
    conj: Vec<Tile>,
    /// Per parameter: the four lanes and the tail of its gradient's
    /// blocked reduction.
    lanes: Vec<[f64; 4]>,
    tails: Vec<f64>,
}

impl<'a> EqualityKernel<'a> {
    /// Buffers for `clauses` over `data`, allocated once per attempt.
    fn new(data: &'a TermTiles, clauses: &[ClauseSlot], num_params: usize) -> Self {
        let num_lits = clauses.iter().map(|c| c.literals.len()).sum();
        let tiles = |k: usize| vec![[0.0; TILE]; k];
        EqualityKernel {
            data,
            z: tiles(num_lits),
            act: tiles(num_lits),
            prod: tiles(num_lits),
            factor: tiles(clauses.len()),
            conj: tiles(clauses.len()),
            lanes: vec![[0.0; 4]; num_params],
            tails: vec![0.0; num_params],
        }
    }

    /// Forward pass over samples `base..base + TILE`.
    fn forward_tile(&mut self, clauses: &[ClauseSlot], params: &[f64], c: f64, base: usize) {
        let Self { data, z, act, prod, factor, conj, .. } = self;
        let x_tiles = data.tile(base);
        let mut li = 0;
        for (ci, clause) in clauses.iter().enumerate() {
            for (k, lit) in clause.literals.iter().enumerate() {
                // `z` in eight register blocks of four samples.
                let mut zb = [[0.0; 4]; TILE / 4];
                for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
                    let (w, x) = (params[p], &x_tiles[t]);
                    for (zb, xb) in zb.iter_mut().zip(x.as_chunks::<4>().0) {
                        for s in 0..4 {
                            zb[s] = fma64(w, xb[s], zb[s]);
                        }
                    }
                }
                let zt: Tile = std::array::from_fn(|j| zb[j / 4][j % 4]);
                let g = params[lit.gate_param];
                let mut at = [0.0; TILE];
                let mut pt = [0.0; TILE];
                for j in 0..TILE {
                    at[j] = exp64(zt[j] * zt[j] * c);
                    pt[j] = 1.0 - g * at[j];
                }
                if k > 0 {
                    let prev = &prod[li - 1];
                    for j in 0..TILE {
                        pt[j] *= prev[j];
                    }
                }
                z[li] = zt;
                act[li] = at;
                prod[li] = pt;
                li += 1;
            }
            let p = &prod[li - 1];
            let g = params[clause.gate_param];
            let mut ft = [0.0; TILE];
            for j in 0..TILE {
                ft[j] = 1.0 + g * ((1.0 - p[j]) - 1.0);
            }
            let mut ct = ft;
            if ci > 0 {
                let prev = &conj[ci - 1];
                for j in 0..TILE {
                    ct[j] = prev[j] * ft[j];
                }
            }
            factor[ci] = ft;
            conj[ci] = ct;
        }
    }

    /// Backward pass over samples `base..base + TILE` after
    /// [`Self::forward_tile`], reducing samples `..split` into the lanes
    /// and `split..len` into the tails.
    #[allow(clippy::too_many_arguments)]
    fn backward_tile(
        &mut self,
        clauses: &[ClauseSlot],
        params: &[f64],
        c: f64,
        g_out: f64,
        base: usize,
        split: usize,
        len: usize,
    ) {
        let Self { data, z, act, prod, factor, conj, lanes, tails } = self;
        let x_tiles = data.tile(base);
        // Adjoint of the running conjunction, from the last clause back.
        let mut g_conj = [g_out; TILE];
        let mut li_end = z.len();
        for (ci, clause) in clauses.iter().enumerate().rev() {
            let mut d_factor = g_conj;
            if ci > 0 {
                let (prev, f) = (&conj[ci - 1], &factor[ci]);
                for j in 0..TILE {
                    d_factor[j] = g_conj[j] * prev[j];
                    g_conj[j] *= f[j];
                }
            }
            let li0 = li_end - clause.literals.len();
            let p = &prod[li_end - 1];
            let g = params[clause.gate_param];
            let mut d_gate = [0.0; TILE];
            // Adjoint of the running literal product, from the last
            // literal back.
            let mut g_prod = [0.0; TILE];
            for j in 0..TILE {
                d_gate[j] = d_factor[j] * ((1.0 - p[j]) - 1.0);
                g_prod[j] = -(d_factor[j] * g);
            }
            let gp = clause.gate_param;
            add_lanes(&d_gate, split, len, &mut lanes[gp], &mut tails[gp]);
            for (k, lit) in clause.literals.iter().enumerate().rev() {
                let li = li0 + k;
                let (zt, at) = (&z[li], &act[li]);
                let g = params[lit.gate_param];
                let mut d_f = g_prod;
                if k > 0 {
                    let prev = &prod[li - 1];
                    for j in 0..TILE {
                        d_f[j] = g_prod[j] * prev[j];
                        g_prod[j] *= 1.0 - g * at[j];
                    }
                }
                let mut dz = [0.0; TILE];
                for j in 0..TILE {
                    let neg = -d_f[j];
                    d_gate[j] = neg * at[j];
                    dz[j] = neg * g * at[j] * c * 2.0 * zt[j];
                }
                let gp = lit.gate_param;
                add_lanes(&d_gate, split, len, &mut lanes[gp], &mut tails[gp]);
                // Weight gradients eight kept terms at a time (eight
                // independent lane chains sharing one pass over `dz`),
                // then four, then one.
                let ws = lit.weight_params.clone();
                let (w_lanes, w_tails) = (&mut lanes[ws.clone()], &mut tails[ws]);
                let terms = &lit.kept_terms;
                let x = |q: usize| &x_tiles[terms[q]];
                let mut q = 0;
                while q + 8 <= terms.len() {
                    let xs: [&Tile; 8] = std::array::from_fn(|r| x(q + r));
                    fma_lanes(&dz, xs, split, len, &mut w_lanes[q..q + 8], &mut w_tails[q..q + 8]);
                    q += 8;
                }
                if q + 4 <= terms.len() {
                    let xs = [x(q), x(q + 1), x(q + 2), x(q + 3)];
                    fma_lanes(&dz, xs, split, len, &mut w_lanes[q..q + 4], &mut w_tails[q..q + 4]);
                    q += 4;
                }
                for q in q..terms.len() {
                    fma_lanes(&dz, [x(q)], split, len, &mut w_lanes[q..], &mut w_tails[q..]);
                }
            }
            li_end = li0;
        }
    }
}

impl DataLoss for EqualityKernel<'_> {
    fn eval(
        &mut self,
        clauses: &[ClauseSlot],
        params: &[f64],
        sigma: f64,
        grads: Option<&mut [f64]>,
    ) -> f64 {
        let n = self.data.n;
        let n4 = n - n % 4;
        let c = -(1.0 / (2.0 * (sigma * sigma)));
        // ∂loss/∂conj: the mean's `1/n` through `1 − conj`.
        let g_out = -(1.0 / n as f64);
        self.lanes.fill([0.0; 4]);
        self.tails.fill(0.0);
        let (mut loss_lanes, mut loss_tail) = ([0.0; 4], 0.0);
        for base in (0..n).step_by(TILE) {
            let len = TILE.min(n - base);
            let split = n4.saturating_sub(base).min(len);
            self.forward_tile(clauses, params, c, base);
            let conj = self.conj.last().expect("at least one clause");
            let mut dis = [0.0; TILE];
            for j in 0..TILE {
                dis[j] = 1.0 - conj[j];
            }
            add_lanes(&dis, split, len, &mut loss_lanes, &mut loss_tail);
            if grads.is_some() {
                self.backward_tile(clauses, params, c, g_out, base, split, len);
            }
        }
        if let Some(grads) = grads {
            for (g, (l, &t)) in grads.iter_mut().zip(self.lanes.iter().zip(&self.tails)) {
                *g = 0.0 + combine(l, t);
            }
        }
        combine(&loss_lanes, loss_tail) / n as f64
    }
}

/// The blocked reductions' combine, `((a₀+a₁)+(a₂+a₃))+tail`.
#[inline(always)]
fn combine(lanes: &[f64; 4], tail: f64) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Adds one tile of `reduce_blocked4` terms: samples `..split` (a
/// multiple of 4) into lane `j mod 4`, samples `split..len` into the tail.
#[inline(always)]
fn add_lanes(v: &Tile, split: usize, len: usize, lanes: &mut [f64; 4], tail: &mut f64) {
    for b in 0..split / 4 {
        for s in 0..4 {
            lanes[s] += v[4 * b + s];
        }
    }
    for &x in &v[split..len] {
        *tail += x;
    }
}

/// [`add_lanes`] for `K` weight gradients `Σ_j dz_j·x_j` at once, in the
/// `reduce_fma_blocked4` order, reading `dz` once.
#[inline(always)]
fn fma_lanes<const K: usize>(
    dz: &Tile,
    xs: [&Tile; K],
    split: usize,
    len: usize,
    lanes: &mut [[f64; 4]],
    tails: &mut [f64],
) {
    // Full tiles get constant loop bounds.
    if split == TILE {
        fma_lanes_in(dz, xs, TILE, TILE, lanes, tails);
    } else {
        fma_lanes_in(dz, xs, split, len, lanes, tails);
    }
}

#[inline(always)]
fn fma_lanes_in<const K: usize>(
    dz: &Tile,
    xs: [&Tile; K],
    split: usize,
    len: usize,
    lanes: &mut [[f64; 4]],
    tails: &mut [f64],
) {
    let mut acc: [[f64; 4]; K] = std::array::from_fn(|r| lanes[r]);
    for b in 0..split / 4 {
        let j = 4 * b;
        for (a, x) in acc.iter_mut().zip(&xs) {
            for s in 0..4 {
                a[s] = fma64(dz[j + s], x[j + s], a[s]);
            }
        }
    }
    lanes[..K].copy_from_slice(&acc);
    for j in split..len {
        for (t, x) in tails.iter_mut().zip(&xs) {
            *t = fma64(dz[j], x[j], *t);
        }
    }
}

/// Weight-init draws — the **second RNG phase**, after every dropout
/// draw: per literal, `k` uniform draws in `[-1, 1)` projected to the
/// unit sphere; gates start at 1.
fn init_params(params: &mut [f64], clauses: &[ClauseSlot], rng: &mut StdRng) {
    for clause in clauses {
        for lit in &clause.literals {
            for p in lit.weight_params.clone() {
                params[p] = rng.gen::<f64>() * 2.0 - 1.0;
            }
            project_unit_l2(&mut params[lit.weight_params.clone()]);
            params[lit.gate_param] = 1.0;
        }
        params[clause.gate_param] = 1.0;
    }
}

/// Gate regularization (λ₁ Σ (1 − g_clause) + λ₂ Σ g_literal) and
/// [`WEIGHT_L1`] weight sparsity gradients, applied outside the loss graph.
///
/// The L1 term uses the zero-at-zero subgradient ([`l1_subgrad`]) rather
/// than `signum` — `signum(±0) = ±1` would turn the sign of a zero (the
/// one bit IEEE lets equivalent computations disagree on) into a ±2λ
/// gradient difference between otherwise bit-identical evaluations.
fn apply_gate_weight_reg(
    grads: &mut [f64],
    params: &[f64],
    clauses: &[ClauseSlot],
    l1: f64,
    l2: f64,
) {
    for clause in clauses {
        grads[clause.gate_param] -= l1;
        for lit in &clause.literals {
            grads[lit.gate_param] += l2;
            for p in lit.weight_params.clone() {
                grads[p] += WEIGHT_L1 * l1_subgrad(params[p]);
            }
        }
    }
}

/// Literals in a model of [`NUM_CLAUSES`] clauses: the width of a
/// [`Diversity`] row.
const LITS: usize = NUM_CLAUSES * LITERALS_PER_CLAUSE;

/// One value per literal, in clause-major literal order.
type LitRow = [f64; LITS];

/// Scratch for [`apply_diversity`], allocated once per attempt: per term,
/// every literal's weight (zero where dropped) and weight gradient, and
/// the pairwise coefficients `diversity · (wᵢ·wⱼ)`.
struct Diversity {
    weights: Vec<LitRow>,
    grads: Vec<LitRow>,
    coef: [LitRow; LITS],
}

impl Diversity {
    fn new(num_terms: usize) -> Self {
        Diversity {
            weights: vec![[0.0; LITS]; num_terms],
            grads: vec![[0.0; LITS]; num_terms],
            coef: [[0.0; LITS]; LITS],
        }
    }
}

/// Pairwise decorrelation gradients `∂/∂wᵢ ½(wᵢ·wⱼ)² = (wᵢ·wⱼ)·wⱼ`,
/// computed over the shared (full) term space.
///
/// The literals' Gram matrix is built once per call, each pair's dot
/// product once, term by term across the upper triangle. Every entry is
/// the fold that `Iterator::sum` performs, products added in term order
/// from `−0.0`, and `wᵢ·wⱼ = wⱼ·wᵢ` bit for bit. Each weight gradient then
/// adds `(diversity · dot)·wⱼ` for the other literals `j` in ascending
/// order, one term row at a time across all literals. The result is
/// bit-identical to summing every ordered pair's dot product separately.
fn apply_diversity(
    grads: &mut [f64],
    params: &[f64],
    clauses: &[ClauseSlot],
    diversity: f64,
    scratch: &mut Diversity,
) {
    let lits = || clauses.iter().flat_map(|c| c.literals.iter());
    let num_lits = lits().count();
    assert!(num_lits <= LITS, "more literals than a diversity row holds");
    let Diversity { weights, grads: rows, coef } = scratch;
    weights.fill([0.0; LITS]);
    rows.fill([0.0; LITS]);
    for (i, lit) in lits().enumerate() {
        for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
            weights[t][i] = params[p];
            rows[t][i] = grads[p];
        }
    }
    let mut gram = [[-0.0; LITS]; LITS];
    for w in weights.iter() {
        for i in 0..num_lits {
            let wi = w[i];
            for (g, &wj) in gram[i][i + 1..num_lits].iter_mut().zip(&w[i + 1..num_lits]) {
                *g += wi * wj;
            }
        }
    }
    for i in 0..num_lits {
        for j in i + 1..num_lits {
            let c = diversity * gram[i][j];
            coef[i][j] = c;
            coef[j][i] = c;
        }
    }
    for (w, g) in weights.iter().zip(rows.iter_mut()) {
        for j in 0..num_lits {
            let (wj, cj) = (w[j], &coef[j]);
            for i in 0..LITS {
                let v = g[i] + cj[i] * wj;
                g[i] = if i == j { g[i] } else { v };
            }
        }
    }
    for (i, lit) in lits().enumerate() {
        for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
            grads[p] = rows[t][i];
        }
    }
}

/// Zeroes every gate's gradient, for the ungated shape.
fn freeze_gates(grads: &mut [f64], clauses: &[ClauseSlot]) {
    for clause in clauses {
        grads[clause.gate_param] = 0.0;
        for lit in &clause.literals {
            grads[lit.gate_param] = 0.0;
        }
    }
}

/// Post-step projections: gates clamped to `[0, 1]`, kept weights
/// projected to the unit L2 sphere in place.
fn apply_projections(params: &mut [f64], clauses: &[ClauseSlot], weight_reg: bool) {
    for clause in clauses {
        params[clause.gate_param] = params[clause.gate_param].clamp(0.0, 1.0);
        for lit in &clause.literals {
            params[lit.gate_param] = params[lit.gate_param].clamp(0.0, 1.0);
            if weight_reg {
                project_unit_l2(&mut params[lit.weight_params.clone()]);
            }
        }
    }
}

/// Whether every gate sits within 0.1 of {0, 1} (the early-stop and
/// extraction premise).
fn gates_polar(params: &[f64], clauses: &[ClauseSlot]) -> bool {
    clauses.iter().all(|c| {
        let g = params[c.gate_param];
        (g <= 0.1 || g >= 0.9)
            && c.literals.iter().all(|l| {
                let g = params[l.gate_param];
                g <= 0.1 || g >= 0.9
            })
    })
}

/// σ annealing schedule: geometric from [`SIGMA_INIT`] to [`SIGMA`] over
/// the anneal window.
fn sigma_at(anneal_epochs: f64, epoch: usize) -> f64 {
    let t = (epoch as f64 / anneal_epochs).min(1.0);
    SIGMA_INIT * (SIGMA / SIGMA_INIT).powf(t)
}

/// Reads a trained model of `shape` out of a parameter vector.
fn read_back(
    params: &[f64],
    clauses: &[ClauseSlot],
    shape: Shape,
    masks: Vec<Vec<Vec<bool>>>,
    num_terms: usize,
    final_loss: f64,
    epochs_run: usize,
) -> TrainedGcln {
    let mut weights = vec![vec![vec![0.0; num_terms]; shape.literals_per_clause]; clauses.len()];
    let mut literal_gates = vec![Vec::new(); clauses.len()];
    let mut clause_gates = Vec::new();
    for (ci, clause) in clauses.iter().enumerate() {
        clause_gates.push(params[clause.gate_param]);
        for (li, lit) in clause.literals.iter().enumerate() {
            literal_gates[ci].push(params[lit.gate_param]);
            for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
                weights[ci][li][t] = params[p];
            }
        }
    }
    TrainedGcln { clause_gates, literal_gates, weights, masks, final_loss, epochs_run }
}

/// Trains a G-CLN with Gaussian (equality) literals on the samples of
/// `data`, at term-dropout probability `dropout_rate` (0 disables), with
/// the unit-L2 weight projection of §5.1.2 when `weight_reg` (off is the
/// Table 3 "weight reg" ablation), and weight init and dropout masks
/// drawn from `seed`.
///
/// # Panics
///
/// Panics if `data` has no terms.
pub fn train_equality_gcln(
    data: &TermTiles,
    config: &GclnConfig,
    dropout_rate: f64,
    weight_reg: bool,
    seed: u64,
) -> TrainedGcln {
    train_on_kernel(data, config, dropout_rate, weight_reg, seed, SHAPE)
}

/// Trains the ungated template CLN of CLN2INV (the Table 4 baseline) on
/// the samples of `data` for exactly `max_epochs` epochs: `clauses`
/// clauses of `literals` Gaussian literals each, with every gate fixed at
/// 1, no dropout, L1, diversity or early stop, and weight init drawn from
/// `seed`. A conjunction of `n` equalities is `n` clauses of one literal;
/// a disjunction of `n` is one clause of `n` literals.
///
/// # Panics
///
/// Panics if `data` has no terms.
pub fn train_cln(
    data: &TermTiles,
    clauses: usize,
    literals: usize,
    max_epochs: usize,
    seed: u64,
) -> TrainedGcln {
    train_on_kernel(data, &GclnConfig { max_epochs }, 0.0, true, seed, cln_shape(clauses, literals))
}

/// The ungated shape of [`train_cln`].
fn cln_shape(clauses: usize, literals: usize) -> Shape {
    Shape { num_clauses: clauses, literals_per_clause: literals, diversity: 0.0, gated: false }
}

/// [`train_with`] on [`EqualityKernel`] over `data`.
fn train_on_kernel(
    data: &TermTiles,
    config: &GclnConfig,
    dropout_rate: f64,
    weight_reg: bool,
    seed: u64,
    shape: Shape,
) -> TrainedGcln {
    train_with(
        data.num_terms,
        config,
        dropout_rate,
        weight_reg,
        seed,
        shape,
        |clauses, num_params| EqualityKernel::new(data, clauses, num_params),
    )
}

/// The training loop for a G-CLN of the given `shape` over `num_terms`
/// terms, with the loss that `make_loss` builds for the attempt's
/// parameter layout.
fn train_with<L: DataLoss>(
    num_terms: usize,
    config: &GclnConfig,
    dropout_rate: f64,
    weight_reg: bool,
    seed: u64,
    shape: Shape,
    make_loss: impl FnOnce(&[ClauseSlot], usize) -> L,
) -> TrainedGcln {
    assert!(num_terms > 0, "need at least one term column");
    let mut rng = StdRng::seed_from_u64(seed);

    let (kept, masks) = draw_kept_terms(num_terms, shape, dropout_rate, &mut rng);
    let (clauses, num_params) = compact_slots(kept);
    let mut loss = make_loss(&clauses, num_params);

    let mut params = vec![0.0; num_params];
    init_params(&mut params, &clauses, &mut rng);

    // --- training loop ---
    let mut adam = Adam::new(num_params);
    let mut grads = vec![0.0; num_params];
    let mut diversity_scratch = Diversity::new(num_terms);
    let mut epochs_run = 0;
    let anneal_epochs = (config.max_epochs as f64 * ANNEAL_FRACTION).max(1.0);
    for epoch in 0..config.max_epochs {
        epochs_run = epoch + 1;
        let sigma = sigma_at(anneal_epochs, epoch);
        let loss_val = loss.eval(&clauses, &params, sigma, Some(&mut grads));
        if shape.gated {
            apply_gate_weight_reg(
                &mut grads,
                &params,
                &clauses,
                lambda_at(LAMBDA1, epoch),
                lambda_at(LAMBDA2, epoch),
            );
        } else {
            // A zero gradient leaves Adam's moments, and so the gate, as
            // they are.
            freeze_gates(&mut grads, &clauses);
        }
        // Decorrelation fades out with the annealing schedule so literals
        // spread early but settle to precise directions late.
        let diversity = shape.diversity * (1.0 - (epoch as f64 / anneal_epochs)).max(0.0);
        if diversity > 0.0 {
            apply_diversity(&mut grads, &params, &clauses, diversity, &mut diversity_scratch);
        }
        adam.step(&mut params, &grads);
        apply_projections(&mut params, &clauses, weight_reg);
        let annealed = epoch as f64 >= anneal_epochs;
        if shape.gated
            && annealed
            && loss_val < LOSS_TOL
            && epoch > 100
            && gates_polar(&params, &clauses)
        {
            break;
        }
    }

    // Measure the final loss at the fully annealed σ.
    let final_loss = loss.eval(&clauses, &params, SIGMA, None);
    read_back(&params, &clauses, shape, masks, num_terms, final_loss, epochs_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Tape, Var};

    /// Records the G-CLN loss graph
    /// `mean(1 − Π_clauses(1 + g·((1 − Π_literals(1 − g·act)) − 1)))` on a
    /// fresh tape from `affine`, `gaussian` and the unfused
    /// `mul`/`sub`/`add` chain, with σ in parameter slot `sigma_slot`.
    fn build_loss_tape(num_terms: usize, wiring: &[ClauseSlot], sigma_slot: usize) -> (Tape, Var) {
        let mut tape = Tape::new();
        let term_inputs: Vec<Var> = (0..num_terms).map(|t| tape.input(t)).collect();
        let one = tape.constant(1.0);
        let neg_half_inv_sigma2 = {
            let sp = tape.param(sigma_slot);
            let s2 = tape.square(sp);
            let two = tape.constant(2.0);
            let two_s2 = tape.mul(two, s2);
            let inv = tape.recip(two_s2);
            tape.neg(inv)
        };
        let mut clause_nodes = Vec::new();
        for clause in wiring {
            let mut prod: Option<Var> = None;
            for lit in &clause.literals {
                let ws: Vec<Var> = lit.weight_params.clone().map(|p| tape.param(p)).collect();
                let xs: Vec<Var> = lit.kept_terms.iter().map(|&t| term_inputs[t]).collect();
                let z = tape.affine(&ws, &xs, None);
                let act = tape.gaussian(z, neg_half_inv_sigma2);
                let gate = tape.param(lit.gate_param);
                let gated = tape.mul(gate, act);
                let factor = tape.sub(one, gated);
                prod = Some(match prod {
                    Some(p) => tape.mul(p, factor),
                    None => factor,
                });
            }
            let gate = tape.param(clause.gate_param);
            let or = tape.sub(one, prod.expect("clause has literals"));
            let or_m1 = tape.sub(or, one);
            let gated = tape.mul(gate, or_m1);
            clause_nodes.push(tape.add(one, gated));
        }
        let mut conj = clause_nodes[0];
        for &c in &clause_nodes[1..] {
            conj = tape.mul(conj, c);
        }
        let dissatisfaction = tape.sub(one, conj);
        let loss = tape.mean_batch(dissatisfaction);
        (tape, loss)
    }

    /// The loss graph evaluated on the scalar tape, σ in the parameter
    /// slot after the model's own.
    struct TapeLoss<'a> {
        columns: &'a [Vec<f64>],
        tape: Tape,
        loss: Var,
        params: Vec<f64>,
    }

    impl DataLoss for TapeLoss<'_> {
        fn eval(
            &mut self,
            _clauses: &[ClauseSlot],
            params: &[f64],
            sigma: f64,
            grads: Option<&mut [f64]>,
        ) -> f64 {
            let k = params.len();
            self.params[..k].copy_from_slice(params);
            self.params[k] = sigma;
            let Some(grads) = grads else {
                return self.tape.forward(self.loss, self.columns, &self.params);
            };
            let (loss, tape_grads) =
                self.tape.eval_with_grad(self.loss, self.columns, &self.params);
            grads.copy_from_slice(&tape_grads[..k]);
            loss
        }
    }

    fn tape_loss<'a>(
        columns: &'a [Vec<f64>],
        clauses: &[ClauseSlot],
        num_params: usize,
    ) -> TapeLoss<'a> {
        let (tape, loss) = build_loss_tape(columns.len(), clauses, num_params);
        let params = vec![0.0; num_params + 1];
        TapeLoss { columns, tape, loss, params }
    }

    /// Evaluates the kernel and the tape side by side, requiring the same
    /// loss and gradient bits at every call; training follows the kernel.
    struct Lockstep<'a> {
        kernel: EqualityKernel<'a>,
        tape: TapeLoss<'a>,
        tape_grads: Vec<f64>,
        calls: usize,
        case: String,
    }

    impl DataLoss for Lockstep<'_> {
        fn eval(
            &mut self,
            clauses: &[ClauseSlot],
            params: &[f64],
            sigma: f64,
            mut grads: Option<&mut [f64]>,
        ) -> f64 {
            let (call, case) = (self.calls, &self.case);
            self.calls += 1;
            let with_grads = grads.is_some();
            let tape_grads = with_grads.then_some(&mut self.tape_grads[..]);
            let want = self.tape.eval(clauses, params, sigma, tape_grads);
            let got = self.kernel.eval(clauses, params, sigma, grads.as_deref_mut());
            assert_eq!(got.to_bits(), want.to_bits(), "{case}: loss at call {call}");
            if let Some(grads) = grads {
                for (p, (g, w)) in grads.iter().zip(&self.tape_grads).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{case}: ∂param {p} at call {call}");
                }
            }
            got
        }
    }

    /// [`train_equality_gcln`] without dropout at a test `shape`.
    fn train_shaped(data: &TermTiles, max_epochs: usize, seed: u64, shape: Shape) -> TrainedGcln {
        train_on_kernel(data, &GclnConfig { max_epochs }, 0.0, true, seed, shape)
    }

    /// Every float of a trained model as bits, plus its masks and epochs.
    fn model_bits(m: &TrainedGcln) -> (Vec<u64>, Vec<Vec<Vec<bool>>>, usize) {
        let floats = m
            .clause_gates
            .iter()
            .chain(m.literal_gates.iter().flatten())
            .chain(m.weights.iter().flatten().flatten())
            .chain([&m.final_loss]);
        (floats.map(|x| x.to_bits()).collect(), m.masks.clone(), m.epochs_run)
    }

    /// Normalized rows over `t` terms, `n` samples: a constant term, then
    /// mixed-sign values with a few exact linear relations among them.
    fn synthetic_rows(t: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                let mut r: Vec<f64> = (0..t)
                    .map(|k| match k {
                        0 => 1.0,
                        1 => x - 2.0,
                        2 => 3.0 * x + 1.0,
                        _ => ((i * 7 + k * 13) % 11) as f64 - 5.0 + 0.25 * k as f64,
                    })
                    .collect();
                crate::data::normalize_row(&mut r, 10.0);
                r
            })
            .collect()
    }

    /// Trains a model of `shape` on `rows` through the kernel and through
    /// the tape graph, requiring the same trained model bits, and the same
    /// loss and gradient bits at every epoch: clamped gates and Adam's
    /// normalized steps can absorb a one-ulp gradient difference, so the
    /// end of training alone would not show one.
    fn assert_kernel_matches_tape(
        rows: &[Vec<f64>],
        cfg: &GclnConfig,
        dropout_rate: f64,
        weight_reg: bool,
        seed: u64,
        shape: Shape,
        case: &str,
    ) -> TrainedGcln {
        let (data, columns) = (TermTiles::from_rows(rows), columns_from_rows(rows));
        let t = data.num_terms;
        let kernel = train_on_kernel(&data, cfg, dropout_rate, weight_reg, seed, shape);
        let tape =
            train_with(t, cfg, dropout_rate, weight_reg, seed, shape, |clauses, num_params| {
                tape_loss(&columns, clauses, num_params)
            });
        assert_eq!(model_bits(&kernel), model_bits(&tape), "{case}");
        train_with(t, cfg, dropout_rate, weight_reg, seed, shape, |clauses, num_params| Lockstep {
            kernel: EqualityKernel::new(&data, clauses, num_params),
            tape: tape_loss(&columns, clauses, num_params),
            tape_grads: vec![0.0; num_params],
            calls: 0,
            case: case.to_string(),
        });
        kernel
    }

    #[test]
    fn kernel_training_matches_tape_bitwise() {
        // (terms, samples, dropout, weight_reg). Batches of 1, 2, 3 and 5
        // samples; exactly one tile (32), one tile plus a lane-aligned
        // remainder (36) and plus a tail (33, 34, 35, 37, 39); several
        // tiles (64, 70, 150). Without dropout the kept-term counts are the
        // term counts: 2 to 15 cover every remainder of the weight
        // gradients' blocks of eight, with and without a full block, and
        // of the blocks of four after them; 40 (a multiple of eight) is a
        // wide space. Dropout draws ragged counts, and 171 terms at
        // dropout 0.2 over 150 samples is the shape of ps6's fractional
        // data.
        let cases = [
            (3, 1, 0.0, true),
            (4, 2, 0.0, true),
            (5, 3, 0.3, true),
            (6, 5, 0.0, false),
            (2, 4, 0.0, true),
            (8, 32, 0.0, true),
            (5, 35, 0.3, true),
            (4, 36, 0.0, true),
            (6, 37, 0.3, false),
            (7, 39, 0.0, true),
            (9, 33, 0.0, true),
            (10, 34, 0.0, true),
            (11, 64, 0.0, false),
            (12, 35, 0.0, true),
            (13, 36, 0.0, true),
            (14, 37, 0.0, true),
            (15, 70, 0.0, true),
            (40, 35, 0.3, true),
            (40, 70, 0.0, true),
            (9, 70, 0.3, false),
            (171, 150, 0.2, true),
        ];
        for (t, n, dropout_rate, weight_reg) in cases {
            let cfg = GclnConfig { max_epochs: 60 };
            let seed = (t * 100 + n) as u64;
            let case = format!("T={t} n={n} dropout={dropout_rate} weight_reg={weight_reg}");
            let rows = synthetic_rows(t, n);
            assert_kernel_matches_tape(&rows, &cfg, dropout_rate, weight_reg, seed, SHAPE, &case);
        }
        // The ungated template CLN of `train_cln`: (clauses, literals) of
        // Conjunction(1), Conjunction(2) and Disjunction(2), each over two
        // (terms, samples) shapes with a lane tail or a tile tail. The
        // gates' gradients are compared before they are dropped.
        let cln_cases = [
            ((1, 1), 3, 5),
            ((1, 1), 9, 70),
            ((2, 1), 4, 36),
            ((2, 1), 12, 35),
            ((1, 2), 5, 33),
            ((1, 2), 10, 64),
        ];
        for ((clauses, literals), t, n) in cln_cases {
            let cfg = GclnConfig { max_epochs: 60 };
            let seed = (t * 100 + n) as u64;
            let case = format!("CLN {clauses}x{literals} T={t} n={n}");
            let rows = synthetic_rows(t, n);
            let shape = cln_shape(clauses, literals);
            let model = assert_kernel_matches_tape(&rows, &cfg, 0.0, true, seed, shape, &case);
            let cln = train_cln(&TermTiles::from_rows(&rows), clauses, literals, 60, seed);
            assert_eq!(model_bits(&cln), model_bits(&model), "{case}");
        }
    }

    #[test]
    fn cln_keeps_gates_open_and_runs_every_epoch() {
        // y = 2x + 3 over terms (1, x, y): one literal learns (3, 2, −1)
        // well before the last epoch, and training still runs them all.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let x = i as f64;
                let mut r = vec![1.0, x, 2.0 * x + 3.0];
                crate::data::normalize_row(&mut r, 10.0);
                r
            })
            .collect();
        let model = train_cln(&TermTiles::from_rows(&rows), 1, 1, 1500, 7);
        assert_eq!(model.epochs_run, 1500);
        assert_eq!(model.clause_gates, vec![1.0]);
        assert_eq!(model.literal_gates, vec![vec![1.0]]);
        assert!(model.final_loss < 0.05, "loss: {}", model.final_loss);
        let w = &model.weights[0][0];
        let dot = (3.0 * w[0] + 2.0 * w[1] - w[2]) / 14f64.sqrt();
        assert!(dot.abs() > 0.98, "literal not aligned with the invariant: {w:?}");
    }

    /// The pairwise formula [`apply_diversity`] replaced: for every
    /// ordered pair, the dot product as an `Iterator::sum` over dense
    /// rows, then `(diversity · dot)·wⱼ` into each kept weight's gradient.
    fn apply_diversity_pairwise(
        grads: &mut [f64],
        params: &[f64],
        clauses: &[ClauseSlot],
        num_terms: usize,
        diversity: f64,
    ) {
        let lits: Vec<&LiteralSlot> = clauses.iter().flat_map(|c| c.literals.iter()).collect();
        let mut dense = vec![vec![0.0; num_terms]; lits.len()];
        for (row, lit) in dense.iter_mut().zip(&lits) {
            for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
                row[t] = params[p];
            }
        }
        for (i, lit) in lits.iter().enumerate() {
            for j in (0..lits.len()).filter(|&j| j != i) {
                let (wi, wj) = (&dense[i], &dense[j]);
                let dot: f64 = wi.iter().zip(wj).map(|(a, b)| a * b).sum();
                for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
                    grads[p] += diversity * dot * wj[t];
                }
            }
        }
    }

    /// [`apply_diversity`] against [`apply_diversity_pairwise`], bit for
    /// bit, from the gradients `start`.
    fn assert_diversity_matches(
        clauses: &[ClauseSlot],
        params: &[f64],
        start: &[f64],
        num_terms: usize,
        case: &str,
    ) {
        let mut want = start.to_vec();
        apply_diversity_pairwise(&mut want, params, clauses, num_terms, 0.07);
        let mut got = start.to_vec();
        apply_diversity(&mut got, params, clauses, 0.07, &mut Diversity::new(num_terms));
        for (p, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{case}: ∂param {p}");
        }
    }

    #[test]
    fn diversity_gram_matches_pairwise_sums() {
        // (terms, clauses, dropout): full and reduced shapes, dense and
        // ragged kept sets, down to two terms.
        let cases = [(2, NUM_CLAUSES, 0.0), (5, 4, 0.3), (9, 6, 0.0), (40, NUM_CLAUSES, 0.3)];
        for (t, num_clauses, dropout_rate) in cases {
            let mut rng = StdRng::seed_from_u64(t as u64);
            let shape = Shape { num_clauses, ..SHAPE };
            let (kept, _) = draw_kept_terms(t, shape, dropout_rate, &mut rng);
            let (clauses, num_params) = compact_slots(kept);
            let mut params: Vec<f64> = (0..num_params).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // All-zero weight rows, of either sign.
            for (k, lit) in clauses.iter().flat_map(|c| &c.literals).enumerate().take(3) {
                params[lit.weight_params.clone()].fill(if k == 1 { -0.0 } else { 0.0 });
            }
            let start: Vec<f64> = (0..num_params)
                .map(|p| if p % 3 == 0 { -0.0 } else { rng.gen_range(-1.0..1.0) })
                .collect();
            let case = format!("T={t} clauses={num_clauses} dropout={dropout_rate}");
            assert_diversity_matches(&clauses, &params, &start, t, &case);
        }
        // One clause over two terms, every gradient starting at `−0.0`,
        // where the sign of a zero gradient shows the order of the sum.
        // (+0, +0)·(−½, −¼) is `−0.0` only because the sum starts there,
        // and it decides the sign of literal 0's gradients. With literal 0
        // at (−0, +0), literal 1's gradient on term 0 stays `−0.0` only if
        // its own (zero) self-pair coefficient is never added.
        let (clauses, num_params) = compact_slots(vec![vec![vec![0, 1], vec![0, 1]]]);
        for (w0, w1) in [([0.0, 0.0], [-0.5, -0.25]), ([-0.0, 0.0], [0.5, 0.25])] {
            let params = [w0[0], w0[1], 1.0, w1[0], w1[1], 1.0, 1.0];
            assert_eq!(num_params, params.len());
            let case = format!("w0={w0:?} w1={w1:?}");
            assert_diversity_matches(&clauses, &params, &[-0.0; 7], 2, &case);
        }
    }

    /// The tape's layout of `rows`: one column per term.
    fn columns_from_rows(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let t = rows[0].len();
        (0..t).map(|j| rows.iter().map(|r| r[j]).collect()).collect()
    }

    #[test]
    fn lambda_schedules_move_toward_limits() {
        assert_eq!(lambda_at(LAMBDA1, 0), 1.0);
        assert!(lambda_at(LAMBDA1, 5000) >= 0.1 - 1e-12);
        assert!(lambda_at(LAMBDA2, 0) < 0.002);
        assert!((lambda_at(LAMBDA2, 100_000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn learns_single_linear_equality() {
        // Terms (1, x, y) with y = 2x + 3: null direction (3, 2, -1)/||.||.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let x = i as f64;
                vec![1.0, x, 2.0 * x + 3.0]
            })
            .collect();
        // Normalize rows like the pipeline does.
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|mut r| {
                crate::data::normalize_row(&mut r, 10.0);
                r
            })
            .collect();
        let shape = Shape { num_clauses: 4, ..SHAPE };
        let model = train_shaped(&TermTiles::from_rows(&rows), 1500, 7, shape);
        assert!(model.final_loss < 0.05, "loss: {}", model.final_loss);
        // Some active literal must align with (3, 2, -1) up to sign/scale.
        let target = {
            let mut t = vec![3.0, 2.0, -1.0];
            project_unit_l2(&mut t);
            t
        };
        let mut best: f64 = 0.0;
        for (ci, lits) in model.literal_gates.iter().enumerate() {
            if model.clause_gates[ci] < 0.5 {
                continue;
            }
            for (li, &g) in lits.iter().enumerate() {
                if g < 0.5 {
                    continue;
                }
                let w = &model.weights[ci][li];
                let dot: f64 = w.iter().zip(&target).map(|(a, b)| a * b).sum();
                best = best.max(dot.abs());
            }
        }
        assert!(best > 0.98, "no literal aligned with the invariant (best {best})");
    }

    #[test]
    fn gates_prune_unsatisfiable_literals() {
        // Random data with NO exact linear relation: all clause gates
        // should close (everything pruned) rather than fake a fit.
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|_| {
                let mut r = vec![
                    1.0,
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                ];
                crate::data::normalize_row(&mut r, 10.0);
                r
            })
            .collect();
        let cfg = GclnConfig { max_epochs: 1200 };
        let model = train_equality_gcln(&TermTiles::from_rows(&rows), &cfg, 0.3, true, 7);
        // With nothing learnable, the loss can only go low by closing
        // clause gates.
        if model.final_loss < 0.05 {
            assert!(
                model.clause_gates.iter().all(|&g| g < 0.5),
                "low loss with open gates on unsatisfiable data: {:?}",
                model.clause_gates
            );
        }
    }

    #[test]
    fn dropout_masks_zero_dropped_weights() {
        let rows: Vec<Vec<f64>> =
            (0..10).map(|i| vec![1.0, i as f64, (2 * i) as f64, (3 * i) as f64]).collect();
        let model = train_equality_gcln(
            &TermTiles::from_rows(&rows),
            &GclnConfig { max_epochs: 50 },
            0.5,
            true,
            7,
        );
        for ci in 0..NUM_CLAUSES {
            for li in 0..LITERALS_PER_CLAUSE {
                for (t, &kept) in model.masks[ci][li].iter().enumerate() {
                    if !kept {
                        assert_eq!(model.weights[ci][li][t], 0.0);
                    }
                }
                let kept_count = model.masks[ci][li].iter().filter(|&&k| k).count();
                assert!(kept_count >= 2, "dropout must keep at least two terms");
            }
        }
    }

    #[test]
    fn weight_projection_keeps_unit_norm() {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![1.0, i as f64, (5 * i) as f64]).collect();
        let model = train_equality_gcln(
            &TermTiles::from_rows(&rows),
            &GclnConfig { max_epochs: 200 },
            0.0,
            true,
            7,
        );
        for ci in 0..NUM_CLAUSES {
            for li in 0..LITERALS_PER_CLAUSE {
                let norm: f64 = model.weights[ci][li].iter().map(|w| w * w).sum::<f64>().sqrt();
                assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
            }
        }
    }

    #[test]
    fn disjunction_of_two_equalities_is_learnable() {
        // Data from x = y union x = -y (neither alone fits): one clause
        // must keep BOTH literals with the two directions.
        let mut rows = Vec::new();
        for i in 1..=8 {
            let v = i as f64;
            rows.push(vec![1.0, v, v]);
            rows.push(vec![1.0, v, -v]);
        }
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|mut r| {
                crate::data::normalize_row(&mut r, 10.0);
                r
            })
            .collect();
        let data = TermTiles::from_rows(&rows);
        // Try a few seeds; at least one must converge with an open clause
        // whose two literals align with (0,1,-1) and (0,1,1).
        let shape = Shape { num_clauses: 6, diversity: 0.02, ..SHAPE };
        let mut success = false;
        for seed in 0..10 {
            let model = train_shaped(&data, 2500, seed, shape);
            if model.final_loss > 0.05 {
                continue;
            }
            for (ci, lits) in model.literal_gates.iter().enumerate() {
                if model.clause_gates[ci] < 0.5 || lits.iter().any(|&g| g < 0.5) {
                    continue;
                }
                let dir = |w: &Vec<f64>| (w[1] * w[2]).signum();
                let w0 = &model.weights[ci][0];
                let w1 = &model.weights[ci][1];
                let aligned = |w: &Vec<f64>| w[1].abs() > 0.5 && w[2].abs() > 0.5;
                if aligned(w0) && aligned(w1) && dir(w0) != dir(w1) {
                    success = true;
                }
            }
            if success {
                break;
            }
        }
        assert!(success, "no seed learned the disjunction");
    }
}
