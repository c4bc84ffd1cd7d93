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
//! Each epoch's data loss and gradients come from one fused kernel that
//! walks the batch in tiles of 32 samples, forward then backward, with
//! no graph and no per-epoch allocation. It performs the operations of
//! the loss graph on `gcln_tensor::tape` in the tape's order, reductions
//! included, so training is bit-identical to training on the tape; the
//! `kernel_training_matches_tape_bitwise` test pins it against that graph.

use gcln_tensor::fastmath::{exp64, fma64, l1_subgrad};
use gcln_tensor::optim::{project_unit_l2, Adam, OptimizerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Schedule for a gate-regularization coefficient: `(initial, factor,
/// limit)` — multiplied by `factor` each epoch until it crosses `limit`.
#[derive(Clone, Copy, Debug)]
pub struct LambdaSchedule {
    /// Initial coefficient.
    pub init: f64,
    /// Per-epoch multiplicative factor.
    pub factor: f64,
    /// Saturation value.
    pub limit: f64,
}

impl LambdaSchedule {
    /// Value at a given epoch.
    pub fn at(&self, epoch: usize) -> f64 {
        let v = self.init * self.factor.powi(epoch as i32);
        if self.factor < 1.0 {
            v.max(self.limit)
        } else {
            v.min(self.limit)
        }
    }
}

/// Hyperparameters for G-CLN training (§6 defaults).
#[derive(Clone, Debug)]
pub struct GclnConfig {
    /// Number of clauses `m` in the conjunction layer.
    pub num_clauses: usize,
    /// Literals `n` per disjunction clause.
    pub literals_per_clause: usize,
    /// Final Gaussian width σ (the paper's training value, 0.1).
    pub sigma: f64,
    /// Initial Gaussian width; annealed down to `sigma` during training.
    /// The original CLN gets the same effect by penalizing small
    /// sharpness B in the loss — starting smooth avoids the dead
    /// gradients of a near-delta Gaussian on L2-normalized data.
    pub sigma_init: f64,
    /// Fraction of `max_epochs` over which σ anneals to its final value.
    pub anneal_fraction: f64,
    /// Term-dropout probability (0 disables).
    pub dropout_rate: f64,
    /// L1 sparsity pressure on literal weights. Combined with the unit-L2
    /// projection this drives literals toward the *sparse* null-space
    /// directions (the human-readable invariants of §5.1.3) instead of
    /// dense linear combinations of them.
    pub weight_l1: f64,
    /// Decorrelation pressure between literal weight vectors
    /// (gradient of `½(wᵢ·wⱼ)²` per pair). Without it every literal
    /// collapses onto the easiest null-space direction and conjunctions
    /// of several equalities are never recovered.
    pub diversity: f64,
    /// Unit-L2 weight projection (§5.1.2); disabling is the Table 3
    /// "weight reg" ablation.
    pub weight_reg: bool,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stop when the data loss falls below this and gates are
    /// polarized.
    pub loss_tol: f64,
    /// Adam settings (paper: lr 0.01, decay 0.9996).
    pub optimizer: OptimizerConfig,
    /// λ₁ schedule for t-norm (clause) gates — pushes gates toward 1.
    pub lambda1: LambdaSchedule,
    /// λ₂ schedule for t-conorm (literal) gates — pushes gates toward 0.
    pub lambda2: LambdaSchedule,
    /// RNG seed (weight init + dropout masks).
    pub seed: u64,
}

impl Default for GclnConfig {
    fn default() -> Self {
        GclnConfig {
            num_clauses: 10,
            literals_per_clause: 2,
            sigma: 0.1,
            sigma_init: 5.0,
            anneal_fraction: 0.6,
            dropout_rate: 0.3,
            weight_l1: 2e-3,
            diversity: 0.1,
            weight_reg: true,
            max_epochs: 2000,
            loss_tol: 1e-4,
            optimizer: OptimizerConfig::default(),
            lambda1: LambdaSchedule { init: 1.0, factor: 0.999, limit: 0.1 },
            lambda2: LambdaSchedule { init: 0.001, factor: 1.001, limit: 0.1 },
            seed: 7,
        }
    }
}

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

impl TrainedGcln {
    /// Whether training converged: small data loss and every gate within
    /// 0.1 of {0, 1} (the premise of Theorem 4.1's extraction guarantee).
    pub fn converged(&self, loss_tol: f64) -> bool {
        let polar = |g: f64| g <= 0.1 || g >= 0.9;
        self.final_loss <= loss_tol
            && self.clause_gates.iter().copied().all(polar)
            && self.literal_gates.iter().flatten().copied().all(polar)
    }
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
fn draw_kept_terms(num_terms: usize, config: &GclnConfig, rng: &mut StdRng) -> KeptTerms {
    let mut masks =
        vec![vec![vec![false; num_terms]; config.literals_per_clause]; config.num_clauses];
    let mut kept_all = Vec::with_capacity(config.num_clauses);
    for clause_masks in masks.iter_mut() {
        let mut clause_kept = Vec::with_capacity(config.literals_per_clause);
        for literal_mask in clause_masks.iter_mut() {
            let mut kept: Vec<usize> =
                (0..num_terms).filter(|_| rng.gen::<f64>() >= config.dropout_rate).collect();
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
/// bit-identical to evaluating the graph on `gcln_tensor::tape` (the
/// `kernel_training_matches_tape_bitwise` test).
struct EqualityKernel<'a> {
    columns: &'a [Vec<f64>],
    n: usize,
    /// The trailing partial tile of every column, zero-padded (unused
    /// when `TILE` divides `n`).
    last: Vec<Tile>,
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
    /// Buffers for `clauses` over `columns`, allocated once per attempt.
    ///
    /// # Panics
    ///
    /// Panics if the columns are ragged.
    fn new(columns: &'a [Vec<f64>], clauses: &[ClauseSlot], num_params: usize) -> Self {
        let n = columns[0].len();
        assert!(columns.iter().all(|c| c.len() == n), "ragged term columns");
        let rest = n % TILE;
        let last = columns
            .iter()
            .map(|c| {
                let mut tile = [0.0; TILE];
                tile[..rest].copy_from_slice(&c[n - rest..]);
                tile
            })
            .collect();
        let num_lits = clauses.iter().map(|c| c.literals.len()).sum();
        let tiles = |k: usize| vec![[0.0; TILE]; k];
        EqualityKernel {
            columns,
            n,
            last,
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
        let Self { columns, last, z, act, prod, factor, conj, .. } = self;
        let mut li = 0;
        for (ci, clause) in clauses.iter().enumerate() {
            for (k, lit) in clause.literals.iter().enumerate() {
                let mut zt = [0.0; TILE];
                for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
                    let (w, x) = (params[p], column_tile(columns, last, t, base));
                    for j in 0..TILE {
                        zt[j] = fma64(w, x[j], zt[j]);
                    }
                }
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
        let Self { columns, last, z, act, prod, factor, conj, lanes, tails, .. } = self;
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
                // Weight gradients four kept terms at a time, sharing one
                // pass over `dz`.
                let ws = lit.weight_params.clone();
                let (w_lanes, w_tails) = (&mut lanes[ws.clone()], &mut tails[ws]);
                let terms = &lit.kept_terms;
                let x = |q: usize| column_tile(columns, last, terms[q], base);
                let mut q = 0;
                while q + 4 <= terms.len() {
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
        let n = self.n;
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

/// Samples `base..base + TILE` of term `t`, zero past the batch end.
#[inline(always)]
fn column_tile<'b>(columns: &'b [Vec<f64>], last: &'b [Tile], t: usize, base: usize) -> &'b Tile {
    match columns[t].get(base..base + TILE) {
        Some(s) => s.try_into().expect("slice of tile width"),
        None => &last[t],
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

/// Gate regularization (λ₁ Σ (1 − g_clause) + λ₂ Σ g_literal) and L1
/// weight sparsity gradients, applied outside the loss graph.
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
    weight_l1: f64,
) {
    for clause in clauses {
        grads[clause.gate_param] -= l1;
        for lit in &clause.literals {
            grads[lit.gate_param] += l2;
            if weight_l1 > 0.0 {
                for p in lit.weight_params.clone() {
                    grads[p] += weight_l1 * l1_subgrad(params[p]);
                }
            }
        }
    }
}

/// Pairwise decorrelation gradients `∂/∂wᵢ ½(wᵢ·wⱼ)² = (wᵢ·wⱼ)·wⱼ`,
/// computed over the shared (full) term space. `dense` is scratch for
/// every literal's weights over that space (`L × T`, row-major).
fn apply_diversity(
    grads: &mut [f64],
    params: &[f64],
    clauses: &[ClauseSlot],
    num_terms: usize,
    diversity: f64,
    dense: &mut [f64],
) {
    let lits = || clauses.iter().flat_map(|c| c.literals.iter());
    dense.fill(0.0);
    for (row, lit) in dense.chunks_exact_mut(num_terms).zip(lits()) {
        for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
            row[t] = params[p];
        }
    }
    let row = |i: usize| &dense[i * num_terms..(i + 1) * num_terms];
    let num_lits = dense.len() / num_terms;
    for (i, lit) in lits().enumerate() {
        for j in (0..num_lits).filter(|&j| j != i) {
            let (wi, wj) = (row(i), row(j));
            let dot: f64 = wi.iter().zip(wj).map(|(a, b)| a * b).sum();
            for (p, &t) in lit.weight_params.clone().zip(&lit.kept_terms) {
                grads[p] += diversity * dot * wj[t];
            }
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

/// σ annealing schedule: geometric from `sigma_init` to `sigma` over the
/// anneal window.
fn sigma_at(config: &GclnConfig, anneal_epochs: f64, epoch: usize) -> f64 {
    let t = (epoch as f64 / anneal_epochs).min(1.0);
    config.sigma_init * (config.sigma / config.sigma_init).powf(t)
}

/// Reads a trained model out of a parameter vector.
fn read_back(
    params: &[f64],
    clauses: &[ClauseSlot],
    masks: Vec<Vec<Vec<bool>>>,
    num_terms: usize,
    config: &GclnConfig,
    final_loss: f64,
    epochs_run: usize,
) -> TrainedGcln {
    let mut weights =
        vec![vec![vec![0.0; num_terms]; config.literals_per_clause]; config.num_clauses];
    let mut literal_gates = vec![Vec::new(); config.num_clauses];
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

/// Trains a G-CLN with Gaussian (equality) literals on term columns.
///
/// `columns[t]` is the batch vector of term `t` over all samples (use
/// [`crate::data::Dataset::columns`]).
///
/// # Panics
///
/// Panics if `columns` is empty or the columns are ragged.
pub fn train_equality_gcln(columns: &[Vec<f64>], config: &GclnConfig) -> TrainedGcln {
    train_with(columns, config, |clauses, num_params| {
        EqualityKernel::new(columns, clauses, num_params)
    })
}

/// The training loop, over the loss that `make_loss` builds for the
/// attempt's parameter layout.
fn train_with<L: DataLoss>(
    columns: &[Vec<f64>],
    config: &GclnConfig,
    make_loss: impl FnOnce(&[ClauseSlot], usize) -> L,
) -> TrainedGcln {
    assert!(!columns.is_empty(), "need at least one term column");
    let num_terms = columns.len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let (kept, masks) = draw_kept_terms(num_terms, config, &mut rng);
    let (clauses, num_params) = compact_slots(kept);
    let mut loss = make_loss(&clauses, num_params);

    let mut params = vec![0.0; num_params];
    init_params(&mut params, &clauses, &mut rng);

    // --- training loop ---
    let mut adam = Adam::new(num_params, config.optimizer);
    let mut grads = vec![0.0; num_params];
    let mut dense = vec![0.0; config.num_clauses * config.literals_per_clause * num_terms];
    let mut epochs_run = 0;
    let anneal_epochs = (config.max_epochs as f64 * config.anneal_fraction).max(1.0);
    for epoch in 0..config.max_epochs {
        epochs_run = epoch + 1;
        let sigma = sigma_at(config, anneal_epochs, epoch);
        let loss_val = loss.eval(&clauses, &params, sigma, Some(&mut grads));
        apply_gate_weight_reg(
            &mut grads,
            &params,
            &clauses,
            config.lambda1.at(epoch),
            config.lambda2.at(epoch),
            config.weight_l1,
        );
        // Decorrelation fades out with the annealing schedule so literals
        // spread early but settle to precise directions late.
        let diversity = config.diversity * (1.0 - (epoch as f64 / anneal_epochs)).max(0.0);
        if diversity > 0.0 {
            apply_diversity(&mut grads, &params, &clauses, num_terms, diversity, &mut dense);
        }
        adam.step(&mut params, &grads);
        apply_projections(&mut params, &clauses, config.weight_reg);
        let annealed = epoch as f64 >= anneal_epochs;
        if annealed && loss_val < config.loss_tol && epoch > 100 && gates_polar(&params, &clauses) {
            break;
        }
    }

    // Measure the final loss at the fully annealed σ.
    let final_loss = loss.eval(&clauses, &params, config.sigma, None);
    read_back(&params, &clauses, masks, num_terms, config, final_loss, epochs_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_tensor::tape::{Tape, Var};

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
    fn synthetic_columns(t: usize, n: usize) -> Vec<Vec<f64>> {
        let rows: Vec<Vec<f64>> = (0..n)
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
            .collect();
        columns_from_rows(rows)
    }

    #[test]
    fn kernel_training_matches_tape_bitwise() {
        // (terms, samples, dropout, weight_reg). Batches of 1, 2, 3 and 5
        // samples; exactly one tile (32), one tile plus a lane-aligned
        // remainder (36) and plus a tail (35, 37); several tiles (70).
        // Without dropout the kept-term counts are the term counts: 4 and
        // 8 (multiples of 4), 3, 5 and 6 (not); dropout 0.3 draws ragged
        // counts, and 40 terms is a wide space.
        let cases = [
            (3, 1, 0.0, true),
            (4, 2, 0.0, true),
            (5, 3, 0.3, true),
            (6, 5, 0.0, false),
            (8, 32, 0.0, true),
            (5, 35, 0.3, true),
            (4, 36, 0.0, true),
            (6, 37, 0.3, false),
            (40, 35, 0.3, true),
            (40, 70, 0.0, true),
            (9, 70, 0.3, false),
        ];
        for (t, n, dropout_rate, weight_reg) in cases {
            let columns = synthetic_columns(t, n);
            let cfg = GclnConfig {
                num_clauses: 3,
                dropout_rate,
                weight_reg,
                max_epochs: 60,
                seed: (t * 100 + n) as u64,
                ..GclnConfig::default()
            };
            assert!(cfg.sigma_init != cfg.sigma, "σ annealing must be on");
            let case = format!("T={t} n={n} dropout={dropout_rate} weight_reg={weight_reg}");
            let kernel = train_equality_gcln(&columns, &cfg);
            let tape = train_with(&columns, &cfg, |clauses, num_params| {
                tape_loss(&columns, clauses, num_params)
            });
            assert_eq!(model_bits(&kernel), model_bits(&tape), "{case}");
            // Every epoch's loss and gradients, not only where training
            // ends: clamped gates and Adam's normalized steps can absorb a
            // one-ulp gradient difference.
            train_with(&columns, &cfg, |clauses, num_params| Lockstep {
                kernel: EqualityKernel::new(&columns, clauses, num_params),
                tape: tape_loss(&columns, clauses, num_params),
                tape_grads: vec![0.0; num_params],
                calls: 0,
                case,
            });
        }
    }

    /// Columns for samples of a relation, given raw points.
    fn columns_from_rows(rows: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let t = rows[0].len();
        (0..t).map(|j| rows.iter().map(|r| r[j]).collect()).collect()
    }

    #[test]
    fn lambda_schedules_move_toward_limits() {
        let l1 = LambdaSchedule { init: 1.0, factor: 0.999, limit: 0.1 };
        assert_eq!(l1.at(0), 1.0);
        assert!(l1.at(5000) >= 0.1 - 1e-12);
        let l2 = LambdaSchedule { init: 0.001, factor: 1.001, limit: 0.1 };
        assert!(l2.at(0) < 0.002);
        assert!((l2.at(100_000) - 0.1).abs() < 1e-12);
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
        let cfg = GclnConfig {
            num_clauses: 4,
            dropout_rate: 0.0,
            max_epochs: 1500,
            ..GclnConfig::default()
        };
        let model = train_equality_gcln(&columns_from_rows(rows), &cfg);
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
        let cfg = GclnConfig { num_clauses: 3, max_epochs: 1200, ..GclnConfig::default() };
        let model = train_equality_gcln(&columns_from_rows(rows), &cfg);
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
        let cfg = GclnConfig {
            dropout_rate: 0.5,
            num_clauses: 6,
            max_epochs: 50,
            ..GclnConfig::default()
        };
        let model = train_equality_gcln(&columns_from_rows(rows), &cfg);
        for ci in 0..cfg.num_clauses {
            for li in 0..cfg.literals_per_clause {
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
        let cfg = GclnConfig {
            num_clauses: 2,
            dropout_rate: 0.0,
            max_epochs: 200,
            ..GclnConfig::default()
        };
        let model = train_equality_gcln(&columns_from_rows(rows), &cfg);
        for ci in 0..2 {
            for li in 0..cfg.literals_per_clause {
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
        let cols = columns_from_rows(rows);
        // Try a few seeds; at least one must converge with an open clause
        // whose two literals align with (0,1,-1) and (0,1,1).
        let mut success = false;
        for seed in 0..10 {
            let cfg = GclnConfig {
                num_clauses: 6,
                dropout_rate: 0.0,
                max_epochs: 2500,
                diversity: 0.02,
                seed,
                ..GclnConfig::default()
            };
            let model = train_equality_gcln(&cols, &cfg);
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
