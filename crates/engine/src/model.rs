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

use gcln_tensor::fastmath::l1_subgrad;
use gcln_tensor::optim::{project_unit_l2, Adam, OptimizerConfig};
use gcln_tensor::tape::{Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    weight_params: Vec<usize>, // parameter indices (kept terms only)
    kept_terms: Vec<usize>,    // term indices aligned with weight_params
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
            let mut kept: Vec<usize> = (0..num_terms)
                .filter(|_| rng.gen::<f64>() >= config.dropout_rate)
                .collect();
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
/// sequentially clause by clause, with σ in the last slot. Returns
/// `(slots, num_params, sigma_slot)`.
fn compact_slots(kept: &[Vec<Vec<usize>>]) -> (Vec<ClauseSlot>, usize, usize) {
    let mut num_params = 0usize;
    let mut alloc = |n: usize| -> usize {
        num_params += n;
        num_params - n
    };
    let mut clauses = Vec::with_capacity(kept.len());
    for clause_kept in kept {
        let literals = clause_kept
            .iter()
            .map(|kept| {
                let first = alloc(kept.len());
                LiteralSlot {
                    weight_params: (first..first + kept.len()).collect(),
                    kept_terms: kept.clone(),
                    gate_param: alloc(1),
                }
            })
            .collect();
        clauses.push(ClauseSlot { literals, gate_param: alloc(1) });
    }
    let sigma_slot = alloc(1);
    (clauses, num_params, sigma_slot)
}

/// Records the G-CLN loss graph
/// `mean(1 − Π_clauses(1 + g·(OR − 1)))` on a fresh tape. `wiring` gives
/// each literal's kept `(weight param, term)` pairs.
fn build_loss_tape(num_terms: usize, wiring: &[ClauseSlot], sigma_slot: usize) -> (Tape, Var) {
    let mut tape = Tape::new();
    let term_inputs: Vec<Var> = (0..num_terms).map(|t| tape.input(t)).collect();
    let one = tape.constant(1.0);
    // σ lives in a dedicated parameter slot so annealing can move it
    // between epochs without rebuilding the graph; its gradient is
    // zeroed before each optimizer step.
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
        // Gated t-conorm over the literals: 1 - Π (1 - g·act).
        let mut prod: Option<Var> = None;
        for lit in &clause.literals {
            let ws: Vec<Var> = lit.weight_params.iter().map(|&p| tape.param(p)).collect();
            let xs: Vec<Var> = lit.kept_terms.iter().map(|&t| term_inputs[t]).collect();
            // Fused nodes: `affine` is one tape op for the whole dot
            // product and `gaussian` one op for exp(−z²/2σ²).
            let z = tape.affine(&ws, &xs, None);
            let act = tape.gaussian(z, neg_half_inv_sigma2);
            let gate = tape.param(lit.gate_param);
            let factor = tape.lit_factor(gate, act);
            prod = Some(match prod {
                Some(p) => tape.mul(p, factor),
                None => factor,
            });
        }
        // Gated t-norm factor 1 + g·((1 − Π) − 1), fused into one node.
        let gate = tape.param(clause.gate_param);
        let factor = tape.clause_factor(prod.expect("clause has literals"), gate);
        clause_nodes.push(factor);
    }
    let mut conj = clause_nodes[0];
    for &c in &clause_nodes[1..] {
        conj = tape.mul(conj, c);
    }
    let dissatisfaction = tape.sub(one, conj);
    let loss = tape.mean_batch(dissatisfaction);
    (tape, loss)
}

/// Weight-init draws — the **second RNG phase**, after every dropout
/// draw. Shared verbatim by both trainers: per literal, `k` uniform
/// draws in `[-1, 1)` projected to the unit sphere; gates start at 1.
fn init_params(params: &mut [f64], clauses: &[ClauseSlot], rng: &mut StdRng) {
    for clause in clauses {
        for lit in &clause.literals {
            let k = lit.weight_params.len();
            let mut w: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            project_unit_l2(&mut w);
            for (&p, &v) in lit.weight_params.iter().zip(&w) {
                params[p] = v;
            }
            params[lit.gate_param] = 1.0;
        }
        params[clause.gate_param] = 1.0;
    }
}

/// Gate regularization (λ₁ Σ (1 − g_clause) + λ₂ Σ g_literal) and L1
/// weight sparsity gradients, applied outside the tape.
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
                for &p in &lit.weight_params {
                    grads[p] += weight_l1 * l1_subgrad(params[p]);
                }
            }
        }
    }
}

/// Pairwise decorrelation gradients `∂/∂wᵢ ½(wᵢ·wⱼ)² = (wᵢ·wⱼ)·wⱼ`,
/// computed over the shared (full) term space.
fn apply_diversity(
    grads: &mut [f64],
    params: &[f64],
    clauses: &[ClauseSlot],
    num_terms: usize,
    diversity: f64,
) {
    let lits: Vec<&LiteralSlot> = clauses.iter().flat_map(|c| c.literals.iter()).collect();
    let dense: Vec<Vec<f64>> = lits
        .iter()
        .map(|l| {
            let mut w = vec![0.0; num_terms];
            for (&p, &t) in l.weight_params.iter().zip(&l.kept_terms) {
                w[t] = params[p];
            }
            w
        })
        .collect();
    for i in 0..lits.len() {
        for j in 0..lits.len() {
            if i == j {
                continue;
            }
            let dot: f64 = dense[i].iter().zip(&dense[j]).map(|(a, b)| a * b).sum();
            for (&p, &t) in lits[i].weight_params.iter().zip(&lits[i].kept_terms) {
                grads[p] += diversity * dot * dense[j][t];
            }
        }
    }
}

/// Post-step projections: gates clamped to `[0, 1]`, kept weights
/// projected to the unit L2 sphere (gather → project → scatter).
fn apply_projections(params: &mut [f64], clauses: &[ClauseSlot], weight_reg: bool) {
    for clause in clauses {
        params[clause.gate_param] = params[clause.gate_param].clamp(0.0, 1.0);
        for lit in &clause.literals {
            params[lit.gate_param] = params[lit.gate_param].clamp(0.0, 1.0);
            if weight_reg {
                let mut w: Vec<f64> = lit.weight_params.iter().map(|&p| params[p]).collect();
                project_unit_l2(&mut w);
                for (&p, &v) in lit.weight_params.iter().zip(&w) {
                    params[p] = v;
                }
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
            for (&p, &t) in lit.weight_params.iter().zip(&lit.kept_terms) {
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
    assert!(!columns.is_empty(), "need at least one term column");
    let num_terms = columns.len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let (kept, masks) = draw_kept_terms(num_terms, config, &mut rng);
    let (clauses, num_params, sigma_slot) = compact_slots(&kept);
    let (mut tape, loss) = build_loss_tape(num_terms, &clauses, sigma_slot);

    let mut params = vec![0.0; num_params];
    init_params(&mut params, &clauses, &mut rng);

    // --- training loop ---
    let mut adam = Adam::new(num_params, config.optimizer);
    let mut grads = vec![0.0; num_params];
    let mut epochs_run = 0;
    let anneal_epochs = (config.max_epochs as f64 * config.anneal_fraction).max(1.0);
    for epoch in 0..config.max_epochs {
        epochs_run = epoch + 1;
        params[sigma_slot] = sigma_at(config, anneal_epochs, epoch);
        let loss_val = tape.eval_with_grad_into(loss, columns, &params, &mut grads);
        grads[sigma_slot] = 0.0;
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
            apply_diversity(&mut grads, &params, &clauses, num_terms, diversity);
        }
        adam.step(&mut params, &grads);
        apply_projections(&mut params, &clauses, config.weight_reg);
        let annealed = epoch as f64 >= anneal_epochs;
        if annealed
            && loss_val < config.loss_tol
            && epoch > 100
            && gates_polar(&params, &clauses)
        {
            break;
        }
    }

    // Measure the final loss at the fully annealed σ.
    params[sigma_slot] = config.sigma;
    let final_loss = tape.forward(loss, columns, &params);
    read_back(&params, &clauses, masks, num_terms, config, final_loss, epochs_run)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![1.0, i as f64, (2 * i) as f64, (3 * i) as f64])
            .collect();
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
