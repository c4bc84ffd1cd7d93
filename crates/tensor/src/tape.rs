//! A batched, tape-based reverse-mode automatic differentiation engine
//! with a zero-allocation execution core.
//!
//! This is the PyTorch substitute for the G-CLN reproduction. It runs the
//! CLN baseline (`gcln_baselines::cln`) and the gradient checks, and it is
//! the reference that the engine's two direct trainers are tested
//! against: G-CLN equality training (`gcln_engine::model`) and PBQU bound
//! training (`gcln_engine::bounds`) each replay a graph recorded here
//! operation for operation, and tests pin them to it bit for bit. The
//! design is specialized for CLN graphs:
//!
//! - Every tape node carries a *batch vector* of values: either one value
//!   per training sample (length `B`) or a single broadcast scalar
//!   (length 1). Binary operations broadcast `1 × B → B`.
//! - Graphs are built **once** per training attempt and then re-evaluated
//!   every epoch with fresh parameter values ([`Tape::forward`] /
//!   [`Tape::backward_into`]), so the graph size is `O(model)`, not
//!   `O(model × epochs)`.
//! - The op set is exactly what CLN relaxations need: field arithmetic,
//!   `exp`, powers, a piecewise selector for the PBQU activation, clamped
//!   gates, and **fused nodes**: [`Tape::affine`] (`Σ wᵢ·xᵢ + b` as one
//!   node instead of `2k` mul/add nodes), [`Tape::gaussian`]
//!   (`exp(c·z²)`, the equality relaxation) and [`Tape::pbqu_loss`] (the
//!   mean PBQU tightness loss).
//!
//! # Execution model
//!
//! Node values and adjoints live in two flat `f64` arenas sized once per
//! `(graph, batch)` pair, with per-node offsets; re-evaluating the same
//! graph epoch after epoch performs **zero heap allocation** in both
//! [`Tape::forward`] and [`Tape::backward_into`] (which writes parameter
//! gradients into a caller-held buffer). A liveness pre-pass over the DAG
//! rooted at the requested output lets both passes skip dead nodes
//! entirely, and the backward sweep tracks which adjoints have been
//! touched instead of scanning gradient buffers for zeros.
//!
//! All transcendentals route through [`crate::fastmath::exp64`] and all
//! batch reductions through [`crate::fastmath::reduce_blocked4`], so any
//! trainer that replays a graph's arithmetic through the same helpers is
//! bit-identical to the tape by construction.
//!
//! # Examples
//!
//! Differentiate `f(w) = Σ_batch (w·x − y)²` (least squares):
//!
//! ```
//! use gcln_tensor::tape::Tape;
//! let mut t = Tape::new();
//! let x = t.input(0);
//! let y = t.input(1);
//! let w = t.param(0);
//! let wx = t.mul(w, x);
//! let err = t.sub(wx, y);
//! let sq = t.square(err);
//! let loss = t.sum_batch(sq);
//! let inputs = vec![vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]];
//! let mut params = vec![0.0];
//! let (val, grads) = t.eval_with_grad(loss, &inputs, &params);
//! assert!(val > 0.0);
//! params[0] -= 0.01 * grads[0]; // one gradient-descent step reduces the loss
//! let (val2, _) = t.eval_with_grad(loss, &inputs, &params);
//! assert!(val2 < val);
//! ```

use crate::fastmath::{
    exp64, fma64, reduce_blocked4, reduce_fma_blocked4, reduce_fma_blocked4_x4, sum_blocked,
};

/// Handle to a node in a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node index inside its tape.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// External batched input column.
    Input(usize),
    /// Learnable scalar parameter.
    Param(usize),
    /// Immutable scalar constant.
    Const(f64),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    Exp(Var),
    Square(Var),
    Recip(Var),
    /// Elementwise selection: `if cond >= 0 { a } else { b }`.
    ///
    /// The gradient flows only through the selected branch (the condition
    /// is treated as non-differentiable, like a comparison).
    SelectNonneg { cond: Var, nonneg: Var, neg: Var },
    /// Hard clamp to `[0, 1]` with straight-through gradient inside the
    /// interval and zero outside (used for gate parameters).
    Clamp01(Var),
    /// Reduce a batch vector to the scalar sum of its entries.
    SumBatch(Var),
    /// Reduce a batch vector to the scalar mean of its entries.
    MeanBatch(Var),
    /// Fused affine combination `Σ wᵢ·xᵢ (+ bias)` — one node instead of
    /// `2k` mul/add nodes. `weights` and `xs` have equal length.
    Affine { weights: Box<[Var]>, xs: Box<[Var]>, bias: Option<Var> },
    /// Fused Gaussian activation `exp(coeff · z²)`; with
    /// `coeff = −1/(2σ²)` this is the equality relaxation `exp(−z²/2σ²)`.
    Gaussian { z: Var, coeff: Var },
    /// Fused PBQU tightness loss `mean_j(1 − act(z_j))` with
    /// `act(z) = if z ≥ 0 { c2²/(z²+c2²) } else { c1²/(z²+c1²) }` —
    /// one scalar node instead of the 8-node
    /// square → add/add → div/div → select → sub → mean chain that bound
    /// learning builds per candidate subset (paper §4.2).
    PbquLoss { z: Var, c1sq: f64, c2sq: f64 },
}

/// A computation graph with batched reverse-mode differentiation over a
/// flat value/adjoint arena.
///
/// See the [module documentation](self) for the execution model and an
/// example.
#[derive(Clone, Debug, Default)]
pub struct Tape {
    ops: Vec<Op>,
    /// Per-node: value has length 1 for every batch size (params, consts,
    /// reductions, and ops over only such nodes).
    scalar: Vec<bool>,
    /// Per-node: whether the node depends on any parameter. Backward
    /// never accumulates adjoints into (or processes) nodes that don't —
    /// input/constant subtrees contribute nothing to parameter gradients.
    requires_grad: Vec<bool>,
    num_inputs: usize,
    num_params: usize,

    // --- execution plan, rebuilt only when (graph, batch) changes ---
    /// Number of ops the current plan covers (0 = no plan yet).
    plan_nodes: usize,
    /// Batch size the current plan was laid out for.
    plan_batch: usize,
    /// Per-node offset into the arenas.
    offsets: Vec<usize>,
    /// Per-node slot length (1 or `plan_batch`).
    lens: Vec<usize>,
    /// Flat forward-value arena.
    values: Vec<f64>,
    /// Flat adjoint arena (same layout as `values`).
    grads: Vec<f64>,

    // --- liveness, rebuilt only when (graph, output root) changes ---
    /// Nodes reachable from `live_root` (indices > root are dead too).
    live: Vec<bool>,
    /// Output node the liveness mask was computed for (`usize::MAX` =
    /// none).
    live_root: usize,
    /// Backward scratch: nodes whose adjoint has been written this pass.
    touched: Vec<bool>,
    /// Output of the last completed [`Tape::forward`], if any.
    last_forward: Option<usize>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape { live_root: usize::MAX, ..Tape::default() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of distinct input columns referenced.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of distinct parameters referenced.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    fn push(&mut self, op: Op) -> Var {
        let (scalar, requires) = match &op {
            Op::Input(_) => (false, false),
            Op::Param(_) => (true, true),
            Op::Const(_) => (true, false),
            Op::SumBatch(a) | Op::MeanBatch(a) => (true, self.requires_grad[a.0]),
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => (
                self.scalar[a.0] && self.scalar[b.0],
                self.requires_grad[a.0] || self.requires_grad[b.0],
            ),
            Op::Neg(a) | Op::Exp(a) | Op::Square(a) | Op::Recip(a) | Op::Clamp01(a) => {
                (self.scalar[a.0], self.requires_grad[a.0])
            }
            Op::SelectNonneg { cond, nonneg, neg } => (
                self.scalar[cond.0] && self.scalar[nonneg.0] && self.scalar[neg.0],
                self.requires_grad[nonneg.0] || self.requires_grad[neg.0],
            ),
            Op::Affine { weights, xs, bias } => {
                let all = || weights.iter().chain(xs.iter()).chain(bias.iter());
                (
                    all().all(|v| self.scalar[v.0]),
                    all().any(|v| self.requires_grad[v.0]),
                )
            }
            Op::Gaussian { z, coeff } => (
                self.scalar[z.0] && self.scalar[coeff.0],
                self.requires_grad[z.0] || self.requires_grad[coeff.0],
            ),
            Op::PbquLoss { z, .. } => (true, self.requires_grad[z.0]),
        };
        self.ops.push(op);
        self.scalar.push(scalar);
        self.requires_grad.push(requires);
        Var(self.ops.len() - 1)
    }

    /// Records a reference to external input column `idx`.
    pub fn input(&mut self, idx: usize) -> Var {
        self.num_inputs = self.num_inputs.max(idx + 1);
        self.push(Op::Input(idx))
    }

    /// Records a reference to learnable parameter `idx`.
    pub fn param(&mut self, idx: usize) -> Var {
        self.num_params = self.num_params.max(idx + 1);
        self.push(Op::Param(idx))
    }

    /// Records a scalar constant.
    pub fn constant(&mut self, c: f64) -> Var {
        self.push(Op::Const(c))
    }

    /// `a + b` (broadcasting).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Add(a, b))
    }

    /// `a - b` (broadcasting).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Sub(a, b))
    }

    /// `a * b` (broadcasting).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Mul(a, b))
    }

    /// `a / b` (broadcasting).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Div(a, b))
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.push(Op::Neg(a))
    }

    /// `exp(a)` elementwise.
    pub fn exp(&mut self, a: Var) -> Var {
        self.push(Op::Exp(a))
    }

    /// `a²` elementwise.
    pub fn square(&mut self, a: Var) -> Var {
        self.push(Op::Square(a))
    }

    /// `1 / a` elementwise.
    pub fn recip(&mut self, a: Var) -> Var {
        self.push(Op::Recip(a))
    }

    /// Elementwise `if cond >= 0 { nonneg } else { neg }`.
    ///
    /// Gradient flows only through the branch that was selected.
    pub fn select_nonneg(&mut self, cond: Var, nonneg: Var, neg: Var) -> Var {
        self.push(Op::SelectNonneg { cond, nonneg, neg })
    }

    /// Clamps to `[0, 1]`; gradient passes through where the input is
    /// strictly inside the interval.
    pub fn clamp01(&mut self, a: Var) -> Var {
        self.push(Op::Clamp01(a))
    }

    /// Sum over the batch dimension, producing a scalar node.
    pub fn sum_batch(&mut self, a: Var) -> Var {
        self.push(Op::SumBatch(a))
    }

    /// Mean over the batch dimension, producing a scalar node.
    pub fn mean_batch(&mut self, a: Var) -> Var {
        self.push(Op::MeanBatch(a))
    }

    /// Fused affine combination `Σ wᵢ·xᵢ + b`: a **single** tape node,
    /// where the old engine recorded `2k` mul/add nodes per call.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != xs.len()`.
    pub fn affine(&mut self, weights: &[Var], xs: &[Var], bias: Option<Var>) -> Var {
        assert_eq!(weights.len(), xs.len(), "affine arity mismatch");
        if weights.is_empty() {
            return match bias {
                Some(b) => b,
                None => self.constant(0.0),
            };
        }
        self.push(Op::Affine { weights: weights.into(), xs: xs.into(), bias })
    }

    /// Fused Gaussian activation `exp(coeff · z²)`.
    ///
    /// With `coeff` wired to `−1/(2σ²)` this is the paper's equality
    /// relaxation `exp(−z²/2σ²)` in one node instead of the
    /// square → mul → exp chain.
    pub fn gaussian(&mut self, z: Var, coeff: Var) -> Var {
        self.push(Op::Gaussian { z, coeff })
    }

    /// Fused PBQU tightness loss `mean(1 − act(z))` over the batch, with
    /// `act(z) = select(z ≥ 0, c2²/(z²+c2²), c1²/(z²+c1²))` (paper §4.2).
    ///
    /// Collapses the per-element square/add/div/select/sub chain plus the
    /// mean reduction into one scalar node; the arithmetic matches the
    /// unfused graph operation-for-operation, so values are bit-identical.
    pub fn pbqu_loss(&mut self, z: Var, c1: f64, c2: f64) -> Var {
        self.push(Op::PbquLoss { z, c1sq: c1 * c1, c2sq: c2 * c2 })
    }

    /// (Re)computes the arena layout for `batch`, reusing existing arenas
    /// when neither the graph nor the batch size changed.
    fn ensure_plan(&mut self, batch: usize) {
        if self.plan_nodes == self.ops.len() && self.plan_batch == batch {
            return;
        }
        self.offsets.clear();
        self.lens.clear();
        self.offsets.reserve(self.ops.len());
        self.lens.reserve(self.ops.len());
        let mut total = 0usize;
        for &scalar in &self.scalar {
            let len = if scalar { 1 } else { batch };
            self.offsets.push(total);
            self.lens.push(len);
            total += len;
        }
        self.values.clear();
        self.values.resize(total, 0.0);
        self.grads.clear();
        self.grads.resize(total, 0.0);
        self.plan_nodes = self.ops.len();
        self.plan_batch = batch;
        self.last_forward = None;
    }

    /// (Re)computes the liveness mask for the DAG rooted at `output`.
    fn ensure_live(&mut self, output: usize) {
        if self.live_root == output && self.live.len() == self.ops.len() {
            return;
        }
        self.live.clear();
        self.live.resize(self.ops.len(), false);
        let ops = &self.ops;
        let live = &mut self.live;
        live[output] = true;
        for i in (0..=output).rev() {
            if !live[i] {
                continue;
            }
            let mut mark = |v: &Var| live[v.0] = true;
            match &ops[i] {
                Op::Input(_) | Op::Param(_) | Op::Const(_) => {}
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                    mark(a);
                    mark(b);
                }
                Op::Neg(a)
                | Op::Exp(a)
                | Op::Square(a)
                | Op::Recip(a)
                | Op::Clamp01(a)
                | Op::SumBatch(a)
                | Op::MeanBatch(a) => mark(a),
                Op::SelectNonneg { cond, nonneg, neg } => {
                    mark(cond);
                    mark(nonneg);
                    mark(neg);
                }
                Op::Affine { weights, xs, bias } => {
                    weights.iter().chain(xs.iter()).chain(bias.iter()).for_each(mark);
                }
                Op::Gaussian { z, coeff } => {
                    mark(z);
                    mark(coeff);
                }
                Op::PbquLoss { z, .. } => mark(z),
            }
        }
        self.live_root = output;
        self.touched.clear();
        self.touched.resize(self.ops.len(), false);
    }

    /// Runs a forward pass, returning the scalar value of `output`.
    ///
    /// `inputs[i]` is the batch column for [`Tape::input`] index `i`; all
    /// columns must share one length. `params[i]` feeds [`Tape::param`]
    /// index `i`. Only nodes the output depends on are evaluated, and no
    /// heap allocation happens once the arena is laid out for this
    /// `(graph, batch)` pair.
    ///
    /// # Panics
    ///
    /// Panics if input columns are missing/ragged, parameters are missing,
    /// or `output` does not hold exactly one value (reduce first).
    pub fn forward(&mut self, output: Var, inputs: &[Vec<f64>], params: &[f64]) -> f64 {
        assert!(inputs.len() >= self.num_inputs, "missing input columns");
        assert!(params.len() >= self.num_params, "missing parameters");
        assert!(output.0 < self.ops.len(), "output var from another tape");
        let batch = inputs.first().map_or(1, Vec::len);
        assert!(inputs.iter().all(|c| c.len() == batch), "ragged input columns");
        self.ensure_plan(batch);
        self.ensure_live(output.0);
        assert_eq!(
            self.lens[output.0],
            1,
            "output must be a scalar node; reduce the batch first"
        );

        let ops = &self.ops;
        let offsets = &self.offsets;
        let lens = &self.lens;
        let live = &self.live;
        for i in 0..=output.0 {
            if !live[i] {
                continue;
            }
            let off = offsets[i];
            let len = lens[i];
            let (prev, rest) = self.values.split_at_mut(off);
            let out = &mut rest[..len];
            let slot = |v: &Var| -> &[f64] { slice_at(prev, offsets, lens, *v) };
            match &ops[i] {
                Op::Input(idx) => out.copy_from_slice(&inputs[*idx]),
                Op::Param(idx) => out[0] = params[*idx],
                Op::Const(c) => out[0] = *c,
                Op::Add(a, b) => zip_into(out, slot(a), slot(b), |x, y| x + y),
                Op::Sub(a, b) => zip_into(out, slot(a), slot(b), |x, y| x - y),
                Op::Mul(a, b) => zip_into(out, slot(a), slot(b), |x, y| x * y),
                Op::Div(a, b) => zip_into(out, slot(a), slot(b), |x, y| x / y),
                Op::Neg(a) => map_into(out, slot(a), |x| -x),
                Op::Exp(a) => map_into(out, slot(a), exp64),
                Op::Square(a) => map_into(out, slot(a), |x| x * x),
                Op::Recip(a) => map_into(out, slot(a), |x| 1.0 / x),
                Op::SelectNonneg { cond, nonneg, neg } => {
                    let (c, p, n) = (slot(cond), slot(nonneg), slot(neg));
                    for (j, o) in out.iter_mut().enumerate() {
                        *o = if bget(c, j) >= 0.0 { bget(p, j) } else { bget(n, j) };
                    }
                }
                Op::Clamp01(a) => map_into(out, slot(a), |x| x.clamp(0.0, 1.0)),
                Op::SumBatch(a) => out[0] = sum_blocked(slot(a)),
                Op::MeanBatch(a) => {
                    let v = slot(a);
                    out[0] = sum_blocked(v) / v.len() as f64;
                }
                Op::Affine { weights, xs, bias } => {
                    match bias {
                        Some(b) => {
                            let bv = slot(b);
                            for (j, o) in out.iter_mut().enumerate() {
                                *o = bget(bv, j);
                            }
                        }
                        None => out.fill(0.0),
                    }
                    for (w, x) in weights.iter().zip(xs.iter()) {
                        let wv = slot(w);
                        let xv = slot(x);
                        if wv.len() == 1 && xv.len() == out.len() {
                            let w0 = wv[0];
                            for (o, &x) in out.iter_mut().zip(xv) {
                                *o = fma64(w0, x, *o);
                            }
                        } else {
                            for (j, o) in out.iter_mut().enumerate() {
                                *o = fma64(bget(wv, j), bget(xv, j), *o);
                            }
                        }
                    }
                }
                Op::Gaussian { z, coeff } => {
                    let zv = slot(z);
                    let cv = slot(coeff);
                    // `(z·z)·c` ordering matches the unfused
                    // square → mul → exp chain bit-for-bit.
                    if cv.len() == 1 {
                        let c0 = cv[0];
                        for (o, &z) in out.iter_mut().zip(zv) {
                            *o = exp64(z * z * c0);
                        }
                    } else {
                        for (j, o) in out.iter_mut().enumerate() {
                            let z = bget(zv, j);
                            *o = exp64(z * z * bget(cv, j));
                        }
                    }
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    // Per-element order mirrors the unfused
                    // square → add → div → select → sub chain, and the
                    // mean reduces in the crate's canonical blocked order
                    // — bit-identical to the graph this op replaces.
                    let zv = slot(z);
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    let sum = reduce_blocked4(zv.len(), |j| {
                        let zj = zv[j];
                        let z2 = zj * zj;
                        let act = if zj >= 0.0 { c2sq / (z2 + c2sq) } else { c1sq / (z2 + c1sq) };
                        1.0 - act
                    });
                    out[0] = sum / zv.len() as f64;
                }
            }
        }
        self.last_forward = Some(output.0);
        self.values[self.offsets[output.0]]
    }

    /// Runs a backward pass from `output` (after [`Tape::forward`]),
    /// writing `∂output/∂paramᵢ` into the caller-held `param_grads`.
    ///
    /// `param_grads[..num_params]` is overwritten (not accumulated into);
    /// entries past `num_params` are left untouched.
    /// Only nodes whose adjoint was actually touched are visited (no
    /// zero-scanning) and no heap allocation occurs.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, with a different output node
    /// than the last `forward`, or with a buffer shorter than
    /// [`Tape::num_params`].
    pub fn backward_into(&mut self, output: Var, param_grads: &mut [f64]) {
        assert_eq!(
            self.last_forward,
            Some(output.0),
            "call forward (with the same output) before backward"
        );
        assert!(param_grads.len() >= self.num_params, "gradient buffer too short");
        let param_grads = &mut param_grads[..self.num_params];
        param_grads.fill(0.0);
        if !self.requires_grad[output.0] {
            return; // output independent of every parameter
        }
        // No arena-wide zeroing: a slot is *assigned* (not accumulated)
        // the first time its node is touched each pass, so stale values
        // from the previous epoch are never read.
        self.touched.fill(false);
        self.grads[self.offsets[output.0]] = 1.0;
        self.touched[output.0] = true;

        let ops = &self.ops;
        let offsets = &self.offsets;
        let lens = &self.lens;
        let values = &self.values;
        let requires = &self.requires_grad;
        let vslot = |v: &Var| -> &[f64] { slice_at(values, offsets, lens, *v) };
        for i in (0..=output.0).rev() {
            if !self.touched[i] {
                continue;
            }
            let off = offsets[i];
            let len = lens[i];
            let (gprev, gcur) = self.grads.split_at_mut(off);
            let g: &[f64] = &gcur[..len];
            let touched = &mut self.touched;
            // Statically dispatched adjoint accumulation, gated on
            // `requires_grad` so input/constant subtrees cost nothing.
            macro_rules! acc {
                ($target:expr, |$j:pat_param, $gv:ident| $body:expr) => {{
                    let t: &Var = $target;
                    if requires[t.0] {
                        let fresh = !touched[t.0];
                        accum_into(gprev, offsets[t.0], lens[t.0], g, fresh, |$j, $gv| $body);
                        touched[t.0] = true;
                    }
                }};
            }
            match &ops[i] {
                Op::Input(_) | Op::Const(_) => {}
                Op::Param(idx) => param_grads[*idx] += g[0],
                Op::Add(a, b) => {
                    acc!(a, |_, g| g);
                    acc!(b, |_, g| g);
                }
                Op::Sub(a, b) => {
                    acc!(a, |_, g| g);
                    acc!(b, |_, g| -g);
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (vslot(a), vslot(b));
                    acc!(a, |j, g| g * bget(bv, j));
                    acc!(b, |j, g| g * bget(av, j));
                }
                Op::Div(a, b) => {
                    let (av, bv) = (vslot(a), vslot(b));
                    acc!(a, |j, g| g / bget(bv, j));
                    acc!(b, |j, g| {
                        let bj = bget(bv, j);
                        -g * bget(av, j) / (bj * bj)
                    });
                }
                Op::Neg(a) => acc!(a, |_, g| -g),
                Op::Exp(a) => {
                    let out = &values[off..off + len];
                    acc!(a, |j, g| g * out[j]);
                }
                Op::Square(a) => {
                    let av = vslot(a);
                    acc!(a, |j, g| 2.0 * g * av[j]);
                }
                Op::Recip(a) => {
                    let av = vslot(a);
                    acc!(a, |j, g| {
                        let x = av[j];
                        -g / (x * x)
                    });
                }
                Op::SelectNonneg { cond, nonneg, neg } => {
                    let cv = vslot(cond);
                    acc!(nonneg, |j, g| if bget(cv, j) >= 0.0 { g } else { 0.0 });
                    acc!(neg, |j, g| if bget(cv, j) >= 0.0 { 0.0 } else { g });
                }
                Op::Clamp01(a) => {
                    let av = vslot(a);
                    acc!(a, |j, g| if (0.0..=1.0).contains(&av[j]) { g } else { 0.0 });
                }
                Op::SumBatch(a) => {
                    // Scalar upstream broadcast over the operand slot.
                    acc!(a, |_, g| g);
                }
                Op::MeanBatch(a) => {
                    let n = lens[a.0] as f64;
                    acc!(a, |_, g| g / n);
                }
                Op::Affine { weights, xs, bias } => {
                    // Scalar weights over batch operands — the hot G-CLN
                    // shape — reduce `∂w = Σ_j x_j·g_j` in the canonical
                    // FMA order, four weights per pass over the upstream
                    // adjoint where possible (each weight's sum is
                    // bit-identical to its standalone reduction; only the
                    // number of reads of `g` changes).
                    let hot = |w: &Var, x: &Var| {
                        requires[w.0] && lens[w.0] == 1 && len > 1 && lens[x.0] == len
                    };
                    // Applies one reduced weight adjoint with the same
                    // assign-on-first-touch rule as `acc!`.
                    macro_rules! put_w {
                        ($w:expr, $sum:expr) => {{
                            let w: &Var = $w;
                            let fresh = !touched[w.0];
                            let dst = &mut gprev[offsets[w.0]];
                            if fresh {
                                *dst = $sum;
                            } else {
                                *dst += $sum;
                            }
                            touched[w.0] = true;
                        }};
                    }
                    let mut p = 0;
                    while p < weights.len() {
                        let (w, x) = (&weights[p], &xs[p]);
                        if !hot(w, x) {
                            let (wv, xv) = (vslot(w), vslot(x));
                            acc!(w, |j, g| g * bget(xv, j));
                            acc!(x, |j, g| g * bget(wv, j));
                            p += 1;
                            continue;
                        }
                        let mut q = p + 1;
                        while q < weights.len() && q - p < 4 && hot(&weights[q], &xs[q]) {
                            q += 1;
                        }
                        if q - p == 4 {
                            let sums = reduce_fma_blocked4_x4(
                                len,
                                g,
                                [
                                    vslot(&xs[p]),
                                    vslot(&xs[p + 1]),
                                    vslot(&xs[p + 2]),
                                    vslot(&xs[p + 3]),
                                ],
                            );
                            for (k, &sum) in sums.iter().enumerate() {
                                let (w, x) = (&weights[p + k], &xs[p + k]);
                                put_w!(w, sum);
                                let wv = vslot(w);
                                acc!(x, |j, g| g * bget(wv, j));
                            }
                        } else {
                            for k in p..q {
                                let (w, x) = (&weights[k], &xs[k]);
                                let xv = vslot(x);
                                let sum = reduce_fma_blocked4(len, |j| (g[j], xv[j]));
                                put_w!(w, sum);
                                let wv = vslot(w);
                                acc!(x, |j, g| g * bget(wv, j));
                            }
                        }
                        p = q;
                    }
                    if let Some(b) = bias {
                        acc!(b, |_, g| g);
                    }
                }
                Op::Gaussian { z, coeff } => {
                    let (zv, cv) = (vslot(z), vslot(coeff));
                    let out = &values[off..off + len];
                    acc!(z, |j, g| g * out[j] * bget(cv, j) * 2.0 * bget(zv, j));
                    acc!(coeff, |j, g| {
                        let z = bget(zv, j);
                        g * out[j] * (z * z)
                    });
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    // The unfused chain's adjoints in the same operation
                    // order (mean → sub → select → div → add → square),
                    // so gradients match the replaced graph bit-for-bit.
                    let zv = vslot(z);
                    let n = lens[z.0] as f64;
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    acc!(z, |j, g| {
                        let zj = bget(zv, j);
                        let z2 = zj * zj;
                        let g_act = -(g / n);
                        let k = if zj >= 0.0 { c2sq } else { c1sq };
                        let d = z2 + k;
                        let g_d = -g_act * k / (d * d);
                        2.0 * g_d * zj
                    });
                }
            }
        }
    }

    /// Forward + backward in one call.
    pub fn eval_with_grad(
        &mut self,
        output: Var,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> (f64, Vec<f64>) {
        let v = self.forward(output, inputs, params);
        let mut g = vec![0.0; self.num_params];
        self.backward_into(output, &mut g);
        (v, g)
    }

    /// Forward + backward writing gradients into a caller-held buffer —
    /// the zero-allocation variant of [`Tape::eval_with_grad`].
    pub fn eval_with_grad_into(
        &mut self,
        output: Var,
        inputs: &[Vec<f64>],
        params: &[f64],
        param_grads: &mut [f64],
    ) -> f64 {
        let v = self.forward(output, inputs, params);
        self.backward_into(output, param_grads);
        v
    }

    /// Reads the forward value of any node after [`Tape::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not been run, or if the node was dead for
    /// the last forward output (the liveness pre-pass skipped it).
    pub fn value_of(&self, v: Var) -> &[f64] {
        assert!(self.last_forward.is_some(), "call forward before value_of");
        assert!(
            v.0 < self.live.len() && self.live[v.0],
            "node {} was not live for the last forward output",
            v.0
        );
        &self.values[self.offsets[v.0]..self.offsets[v.0] + self.lens[v.0]]
    }

    /// Slow reference interpreter with per-op `Vec` storage — the seed
    /// engine's semantics, kept as an oracle for property tests comparing
    /// the arena engine against the original per-op evaluation.
    pub fn reference_eval_with_grad(
        &self,
        output: Var,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> (f64, Vec<f64>) {
        assert!(inputs.len() >= self.num_inputs, "missing input columns");
        assert!(params.len() >= self.num_params, "missing parameters");
        let batch = inputs.first().map_or(1, Vec::len);
        assert!(inputs.iter().all(|c| c.len() == batch), "ragged input columns");
        let mut values: Vec<Vec<f64>> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let v = |x: &Var| &values[x.0];
            let value = match op {
                Op::Input(idx) => inputs[*idx].clone(),
                Op::Param(idx) => vec![params[*idx]],
                Op::Const(c) => vec![*c],
                Op::Add(a, b) => zip_with(v(a), v(b), |x, y| x + y),
                Op::Sub(a, b) => zip_with(v(a), v(b), |x, y| x - y),
                Op::Mul(a, b) => zip_with(v(a), v(b), |x, y| x * y),
                Op::Div(a, b) => zip_with(v(a), v(b), |x, y| x / y),
                Op::Neg(a) => v(a).iter().map(|x| -x).collect(),
                Op::Exp(a) => v(a).iter().map(|&x| exp64(x)).collect(),
                Op::Square(a) => v(a).iter().map(|x| x * x).collect(),
                Op::Recip(a) => v(a).iter().map(|x| 1.0 / x).collect(),
                Op::SelectNonneg { cond, nonneg, neg } => {
                    let (c, p, n) = (v(cond), v(nonneg), v(neg));
                    let len = c.len().max(p.len()).max(n.len());
                    (0..len)
                        .map(|j| if bget(c, j) >= 0.0 { bget(p, j) } else { bget(n, j) })
                        .collect()
                }
                Op::Clamp01(a) => v(a).iter().map(|x| x.clamp(0.0, 1.0)).collect(),
                Op::SumBatch(a) => vec![sum_blocked(v(a))],
                Op::MeanBatch(a) => vec![sum_blocked(v(a)) / v(a).len() as f64],
                Op::Affine { weights, xs, bias } => {
                    let len = weights
                        .iter()
                        .chain(xs.iter())
                        .chain(bias.iter())
                        .map(|n| values[n.0].len())
                        .max()
                        .unwrap_or(1);
                    (0..len)
                        .map(|j| {
                            let mut acc = bias.as_ref().map_or(0.0, |b| bget(&values[b.0], j));
                            for (w, x) in weights.iter().zip(xs.iter()) {
                                acc = fma64(bget(&values[w.0], j), bget(&values[x.0], j), acc);
                            }
                            acc
                        })
                        .collect()
                }
                Op::Gaussian { z, coeff } => {
                    let (zv, cv) = (v(z), v(coeff));
                    let len = zv.len().max(cv.len());
                    (0..len)
                        .map(|j| {
                            let z = bget(zv, j);
                            exp64(z * z * bget(cv, j))
                        })
                        .collect()
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    let zv = v(z);
                    let sum = reduce_blocked4(zv.len(), |j| {
                        let zj = zv[j];
                        let z2 = zj * zj;
                        let act =
                            if zj >= 0.0 { c2sq / (z2 + c2sq) } else { c1sq / (z2 + c1sq) };
                        1.0 - act
                    });
                    vec![sum / zv.len() as f64]
                }
            };
            values.push(value);
        }
        let out = &values[output.0];
        assert_eq!(out.len(), 1, "output must be a scalar node; reduce the batch first");
        let result = out[0];

        let mut grads: Vec<Vec<f64>> = values.iter().map(|v| vec![0.0; v.len()]).collect();
        grads[output.0] = vec![1.0];
        let mut param_grads = vec![0.0; self.num_params];
        for i in (0..=output.0).rev() {
            if grads[i].iter().all(|&g| g == 0.0) {
                continue;
            }
            let grad = std::mem::take(&mut grads[i]);
            let mut acc = |t: &Var, f: &dyn Fn(usize, f64) -> f64| {
                let tlen = values[t.0].len();
                if grads[t.0].is_empty() {
                    grads[t.0] = vec![0.0; tlen];
                }
                if tlen == grad.len() {
                    for (j, &g) in grad.iter().enumerate() {
                        grads[t.0][j] += f(j, g);
                    }
                } else if tlen == 1 {
                    grads[t.0][0] += reduce_blocked4(grad.len(), |j| f(j, grad[j]));
                } else {
                    for (j, d) in grads[t.0].iter_mut().enumerate() {
                        *d += f(j, grad[0]);
                    }
                }
            };
            match &self.ops[i] {
                Op::Input(_) | Op::Const(_) => {}
                Op::Param(idx) => param_grads[*idx] += grad.iter().sum::<f64>(),
                Op::Add(a, b) => {
                    acc(a, &|_, g| g);
                    acc(b, &|_, g| g);
                }
                Op::Sub(a, b) => {
                    acc(a, &|_, g| g);
                    acc(b, &|_, g| -g);
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (values[a.0].clone(), values[b.0].clone());
                    acc(a, &|j, g| g * bget(&bv, j));
                    acc(b, &|j, g| g * bget(&av, j));
                }
                Op::Div(a, b) => {
                    let (av, bv) = (values[a.0].clone(), values[b.0].clone());
                    acc(a, &|j, g| g / bget(&bv, j));
                    acc(b, &|j, g| {
                        let bj = bget(&bv, j);
                        -g * bget(&av, j) / (bj * bj)
                    });
                }
                Op::Neg(a) => acc(a, &|_, g| -g),
                Op::Exp(a) => {
                    let out = values[i].clone();
                    acc(a, &|j, g| g * bget(&out, j));
                }
                Op::Square(a) => {
                    let av = values[a.0].clone();
                    acc(a, &|j, g| 2.0 * g * bget(&av, j));
                }
                Op::Recip(a) => {
                    let av = values[a.0].clone();
                    acc(a, &|j, g| {
                        let x = bget(&av, j);
                        -g / (x * x)
                    });
                }
                Op::SelectNonneg { cond, nonneg, neg } => {
                    let cv = values[cond.0].clone();
                    acc(nonneg, &|j, g| if bget(&cv, j) >= 0.0 { g } else { 0.0 });
                    acc(neg, &|j, g| if bget(&cv, j) >= 0.0 { 0.0 } else { g });
                }
                Op::Clamp01(a) => {
                    let av = values[a.0].clone();
                    acc(a, &|j, g| if (0.0..=1.0).contains(&bget(&av, j)) { g } else { 0.0 });
                }
                Op::SumBatch(a) => acc(a, &|_, g| g),
                Op::MeanBatch(a) => {
                    let n = values[a.0].len() as f64;
                    acc(a, &|_, g| g / n);
                }
                Op::Affine { weights, xs, bias } => {
                    // NOTE: the arena engine reduces scalar-weight adjoints
                    // with `reduce_fma_blocked4`; this oracle keeps the
                    // plain product form. The ≤1-ulp-per-step difference is
                    // far inside the property tests' 1e-12 tolerance (the
                    // oracle has no bitwise contract).
                    for (w, x) in weights.iter().zip(xs.iter()) {
                        let (wv, xv) = (values[w.0].clone(), values[x.0].clone());
                        acc(w, &|j, g| g * bget(&xv, j));
                        acc(x, &|j, g| g * bget(&wv, j));
                    }
                    if let Some(b) = bias {
                        acc(b, &|_, g| g);
                    }
                }
                Op::Gaussian { z, coeff } => {
                    let (zv, cv) = (values[z.0].clone(), values[coeff.0].clone());
                    let out = values[i].clone();
                    acc(z, &|j, g| g * bget(&out, j) * bget(&cv, j) * 2.0 * bget(&zv, j));
                    acc(coeff, &|j, g| {
                        let z = bget(&zv, j);
                        g * bget(&out, j) * (z * z)
                    });
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    let zv = values[z.0].clone();
                    let n = zv.len() as f64;
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    acc(z, &|j, g| {
                        let zj = bget(&zv, j);
                        let z2 = zj * zj;
                        let g_act = -(g / n);
                        let k = if zj >= 0.0 { c2sq } else { c1sq };
                        let d = z2 + k;
                        let g_d = -g_act * k / (d * d);
                        2.0 * g_d * zj
                    });
                }
            }
        }
        (result, param_grads)
    }
}

/// `arena[offsets[v]..][..lens[v]]` — a node's slot within an arena
/// prefix (forward: nodes before the one being computed; backward: nodes
/// before the one being differentiated).
fn slice_at<'a>(arena: &'a [f64], offsets: &[usize], lens: &[usize], v: Var) -> &'a [f64] {
    &arena[offsets[v.0]..offsets[v.0] + lens[v.0]]
}

/// Adds `f(j, upstream_j)` into `grads_prefix[off..off+tlen]`, reducing
/// over the batch when the target is a broadcast scalar and broadcasting
/// when the upstream is (after a reduce). `fresh` marks the first write
/// into the slot this pass: it assigns instead of accumulating, which is
/// what lets `backward` skip zeroing the whole arena.
#[inline]
pub(crate) fn accum_into(
    grads_prefix: &mut [f64],
    off: usize,
    tlen: usize,
    upstream: &[f64],
    fresh: bool,
    f: impl Fn(usize, f64) -> f64,
) {
    let dst = &mut grads_prefix[off..off + tlen];
    if tlen == upstream.len() {
        // `fresh` hoisted out of the loop so both bodies stay branch-free
        // and autovectorize.
        if fresh {
            for (j, (d, &g)) in dst.iter_mut().zip(upstream).enumerate() {
                *d = f(j, g);
            }
        } else {
            for (j, (d, &g)) in dst.iter_mut().zip(upstream).enumerate() {
                *d += f(j, g);
            }
        }
    } else if tlen == 1 {
        // Batch gradient reducing into a broadcast scalar (e.g. affine
        // weight adjoints): the crate's canonical blocked order, which
        // breaks the FP-add latency chain that otherwise dominates
        // backward on wide batches.
        let acc = reduce_blocked4(upstream.len(), |j| f(j, upstream[j]));
        if fresh {
            dst[0] = acc;
        } else {
            dst[0] += acc;
        }
    } else if upstream.len() == 1 {
        // Scalar gradient flowing into a batch node (after a reduce).
        let g0 = upstream[0];
        if fresh {
            for (j, d) in dst.iter_mut().enumerate() {
                *d = f(j, g0);
            }
        } else {
            for (j, d) in dst.iter_mut().enumerate() {
                *d += f(j, g0);
            }
        }
    } else {
        panic!("gradient shape mismatch: {} vs {}", tlen, upstream.len());
    }
}

pub(crate) fn bget(v: &[f64], j: usize) -> f64 {
    if v.len() == 1 {
        v[0]
    } else {
        v[j]
    }
}

pub(crate) fn map_into(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

pub(crate) fn zip_into(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    match (a.len(), b.len()) {
        (1, 1) => out[0] = f(a[0], b[0]),
        (1, _) => {
            let a0 = a[0];
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(a0, y);
            }
        }
        (_, 1) => {
            let b0 = b[0];
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, b0);
            }
        }
        (n, m) => {
            assert_eq!(n, m, "batch length mismatch");
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
    }
}

fn zip_with(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    match (a.len(), b.len()) {
        (1, 1) => vec![f(a[0], b[0])],
        (1, _) => b.iter().map(|&y| f(a[0], y)).collect(),
        (_, 1) => a.iter().map(|&x| f(x, b[0])).collect(),
        (n, m) => {
            assert_eq!(n, m, "batch length mismatch");
            a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_simple_arithmetic() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let prod = t.mul(w, x);
        let s = t.sum_batch(prod);
        let v = t.forward(s, &[vec![1.0, 2.0, 3.0]], &[2.0]);
        assert_eq!(v, 12.0);
    }

    #[test]
    fn gradient_of_linear_is_input_sum() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let prod = t.mul(w, x);
        let s = t.sum_batch(prod);
        let (_, g) = t.eval_with_grad(s, &[vec![1.0, 2.0, 3.0]], &[5.0]);
        assert_eq!(g, vec![6.0]);
    }

    #[test]
    fn gradient_of_square_loss() {
        // loss = sum((w*x - y)^2); dloss/dw = sum(2*(w*x - y)*x)
        let mut t = Tape::new();
        let x = t.input(0);
        let y = t.input(1);
        let w = t.param(0);
        let wx = t.mul(w, x);
        let e = t.sub(wx, y);
        let sq = t.square(e);
        let loss = t.sum_batch(sq);
        let xs = vec![1.0, 2.0];
        let ys = vec![3.0, 5.0];
        let w0 = 1.0;
        let (v, g) = t.eval_with_grad(loss, &[xs.clone(), ys.clone()], &[w0]);
        let expect_v: f64 = xs.iter().zip(&ys).map(|(x, y)| (w0 * x - y).powi(2)).sum();
        let expect_g: f64 = xs.iter().zip(&ys).map(|(x, y)| 2.0 * (w0 * x - y) * x).sum();
        assert!((v - expect_v).abs() < 1e-12);
        assert!((g[0] - expect_g).abs() < 1e-12);
    }

    #[test]
    fn exp_and_div_gradients() {
        // f(a) = exp(a) / (exp(a) + 1): sigmoid; f'(a) = f(1-f)
        let mut t = Tape::new();
        let a = t.param(0);
        let e = t.exp(a);
        let one = t.constant(1.0);
        let denom = t.add(e, one);
        let f = t.div(e, denom);
        let out = t.sum_batch(f);
        let (v, g) = t.eval_with_grad(out, &[], &[0.3]);
        let sig = 1.0 / (1.0 + (-0.3f64).exp());
        assert!((v - sig).abs() < 1e-12);
        assert!((g[0] - sig * (1.0 - sig)).abs() < 1e-12);
    }

    #[test]
    fn select_nonneg_routes_values_and_grads() {
        // f = select(x, w1*x, w2*x): piecewise linear.
        let mut t = Tape::new();
        let x = t.input(0);
        let w1 = t.param(0);
        let w2 = t.param(1);
        let pos = t.mul(w1, x);
        let neg = t.mul(w2, x);
        let sel = t.select_nonneg(x, pos, neg);
        let out = t.sum_batch(sel);
        let xs = vec![-2.0, 3.0];
        let (v, g) = t.eval_with_grad(out, &[xs], &[10.0, 100.0]);
        assert_eq!(v, 10.0 * 3.0 + 100.0 * -2.0);
        assert_eq!(g, vec![3.0, -2.0]);
    }

    #[test]
    fn clamp01_gradient_gates() {
        let mut t = Tape::new();
        let a = t.param(0);
        let c = t.clamp01(a);
        let out = t.sum_batch(c);
        let (v, g) = t.eval_with_grad(out, &[], &[0.5]);
        assert_eq!((v, g[0]), (0.5, 1.0));
        let (v, g) = t.eval_with_grad(out, &[], &[1.5]);
        assert_eq!((v, g[0]), (1.0, 0.0));
        let (v, g) = t.eval_with_grad(out, &[], &[-0.5]);
        assert_eq!((v, g[0]), (0.0, 0.0));
    }

    #[test]
    fn mean_batch_scales_gradient() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let p = t.mul(w, x);
        let m = t.mean_batch(p);
        let (_, g) = t.eval_with_grad(m, &[vec![2.0, 4.0]], &[1.0]);
        assert_eq!(g, vec![3.0]);
    }

    #[test]
    fn affine_builds_dot_product() {
        let mut t = Tape::new();
        let xs: Vec<Var> = (0..3).map(|i| t.input(i)).collect();
        let ws: Vec<Var> = (0..3).map(|i| t.param(i)).collect();
        let b = t.param(3);
        let aff = t.affine(&ws, &xs, Some(b));
        let out = t.sum_batch(aff);
        let inputs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let v = t.forward(out, &inputs, &[10.0, 20.0, 30.0, 5.0]);
        assert_eq!(v, 10.0 + 40.0 + 90.0 + 5.0);
    }

    #[test]
    fn affine_is_one_node() {
        let mut t = Tape::new();
        let xs: Vec<Var> = (0..4).map(|i| t.input(i)).collect();
        let ws: Vec<Var> = (0..4).map(|i| t.param(i)).collect();
        let before = t.len();
        let _ = t.affine(&ws, &xs, None);
        assert_eq!(t.len(), before + 1, "fused affine must record exactly one node");
    }

    #[test]
    fn affine_gradients_match_unfused() {
        let inputs = vec![vec![1.0, -2.0, 0.5], vec![3.0, 0.0, -1.0]];
        let params = [0.7, -0.3, 0.2];
        // Fused.
        let mut t1 = Tape::new();
        let xs: Vec<Var> = (0..2).map(|i| t1.input(i)).collect();
        let ws: Vec<Var> = (0..2).map(|i| t1.param(i)).collect();
        let b = t1.param(2);
        let aff = t1.affine(&ws, &xs, Some(b));
        let sq = t1.square(aff);
        let out = t1.sum_batch(sq);
        let (v1, g1) = t1.eval_with_grad(out, &inputs, &params);
        // Hand-built mul/add chain.
        let mut t2 = Tape::new();
        let xs: Vec<Var> = (0..2).map(|i| t2.input(i)).collect();
        let ws: Vec<Var> = (0..2).map(|i| t2.param(i)).collect();
        let b = t2.param(2);
        let m0 = t2.mul(ws[0], xs[0]);
        let m1 = t2.mul(ws[1], xs[1]);
        let s = t2.add(m0, m1);
        let aff = t2.add(s, b);
        let sq = t2.square(aff);
        let out = t2.sum_batch(sq);
        let (v2, g2) = t2.eval_with_grad(out, &inputs, &params);
        assert!((v1 - v2).abs() < 1e-12);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-12, "{g1:?} vs {g2:?}");
        }
    }

    #[test]
    fn gaussian_matches_unfused_chain() {
        let inputs = vec![vec![0.5, -1.5, 2.0]];
        let params = [0.8, 0.3]; // w, sigma
        // Fused: exp(coeff * (w x)^2), coeff = -1/(2 sigma^2).
        let mut t1 = Tape::new();
        let x = t1.input(0);
        let w = t1.param(0);
        let coeff = {
            let sp = t1.param(1);
            let s2 = t1.square(sp);
            let two = t1.constant(2.0);
            let t2s = t1.mul(two, s2);
            let inv = t1.recip(t2s);
            t1.neg(inv)
        };
        let z = t1.mul(w, x);
        let act = t1.gaussian(z, coeff);
        let out = t1.sum_batch(act);
        let (v1, g1) = t1.eval_with_grad(out, &inputs, &params);
        // Unfused square → mul → exp chain.
        let mut t2 = Tape::new();
        let x = t2.input(0);
        let w = t2.param(0);
        let coeff = {
            let sp = t2.param(1);
            let s2 = t2.square(sp);
            let two = t2.constant(2.0);
            let t2s = t2.mul(two, s2);
            let inv = t2.recip(t2s);
            t2.neg(inv)
        };
        let z = t2.mul(w, x);
        let z2 = t2.square(z);
        let scaled = t2.mul(z2, coeff);
        let act = t2.exp(scaled);
        let out = t2.sum_batch(act);
        let (v2, g2) = t2.eval_with_grad(out, &inputs, &params);
        assert!((v1 - v2).abs() < 1e-12);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-12, "{g1:?} vs {g2:?}");
        }
    }

    #[test]
    fn value_of_reads_intermediates() {
        let mut t = Tape::new();
        let x = t.input(0);
        let sq = t.square(x);
        let out = t.sum_batch(sq);
        t.forward(out, &[vec![2.0, 3.0]], &[]);
        assert_eq!(t.value_of(sq), &[4.0, 9.0]);
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let live = t.mul(w, x);
        // Dead subgraph: would divide by zero if evaluated.
        let zero = t.constant(0.0);
        let dead = t.div(live, zero);
        let _dead2 = t.exp(dead);
        let out = t.sum_batch(live);
        let (v, g) = t.eval_with_grad(out, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!(v, 9.0);
        assert_eq!(g, vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn value_of_dead_node_panics() {
        let mut t = Tape::new();
        let x = t.input(0);
        let dead = t.square(x);
        let live = t.sum_batch(x);
        t.forward(live, &[vec![1.0]], &[]);
        let _ = t.value_of(dead);
    }

    #[test]
    #[should_panic(expected = "output must be a scalar")]
    fn non_scalar_output_panics() {
        let mut t = Tape::new();
        let x = t.input(0);
        let _ = t.forward(x, &[vec![1.0, 2.0]], &[]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_inputs_panic() {
        let mut t = Tape::new();
        let x = t.input(0);
        let y = t.input(1);
        let s = t.add(x, y);
        let out = t.sum_batch(s);
        let _ = t.forward(out, &[vec![1.0], vec![1.0, 2.0]], &[]);
    }

    #[test]
    fn graph_reuse_across_param_updates() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let p = t.mul(w, x);
        let e = t.square(p);
        let loss = t.sum_batch(e);
        let inputs = vec![vec![1.0, -2.0]];
        let mut w0 = 3.0;
        let mut last = f64::INFINITY;
        for _ in 0..50 {
            let (v, g) = t.eval_with_grad(loss, &inputs, &[w0]);
            assert!(v <= last + 1e-9);
            last = v;
            w0 -= 0.05 * g[0];
        }
        assert!(w0.abs() < 0.1, "descent should drive w toward 0, got {w0}");
    }

    #[test]
    fn batch_size_change_relays_the_arena() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let p = t.mul(w, x);
        let s = t.sum_batch(p);
        assert_eq!(t.forward(s, &[vec![1.0, 2.0]], &[2.0]), 6.0);
        assert_eq!(t.forward(s, &[vec![1.0, 2.0, 3.0, 4.0]], &[2.0]), 20.0);
        assert_eq!(t.forward(s, &[vec![5.0]], &[2.0]), 10.0);
    }

    #[test]
    fn switching_outputs_recomputes_liveness() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let a = t.mul(w, x);
        let b = t.square(x);
        let out_a = t.sum_batch(a);
        let out_b = t.sum_batch(b);
        let (va, ga) = t.eval_with_grad(out_a, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!((va, ga), (9.0, vec![3.0]));
        let (vb, gb) = t.eval_with_grad(out_b, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!((vb, gb), (5.0, vec![0.0]));
        // And back again.
        let (va2, _) = t.eval_with_grad(out_a, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!(va2, 9.0);
    }

    #[test]
    fn reference_interpreter_agrees_on_gcln_like_graph() {
        // A miniature of what model.rs builds: gated OR of gaussian
        // literals under a gated AND, reduced with mean.
        let mut t = Tape::new();
        let xs: Vec<Var> = (0..3).map(|i| t.input(i)).collect();
        let one = t.constant(1.0);
        let coeff = {
            let sp = t.param(0);
            let s2 = t.square(sp);
            let two = t.constant(2.0);
            let t2s = t.mul(two, s2);
            let inv = t.recip(t2s);
            t.neg(inv)
        };
        let mut clause_factors = Vec::new();
        let mut pidx = 1;
        for _ in 0..2 {
            let mut prod: Option<Var> = None;
            for _ in 0..2 {
                let ws: Vec<Var> = (0..3)
                    .map(|_| {
                        let p = t.param(pidx);
                        pidx += 1;
                        p
                    })
                    .collect();
                let z = t.affine(&ws, &xs, None);
                let act = t.gaussian(z, coeff);
                let gate = t.param(pidx);
                pidx += 1;
                let gated = t.mul(gate, act);
                let f = t.sub(one, gated);
                prod = Some(match prod {
                    Some(p) => t.mul(p, f),
                    None => f,
                });
            }
            let or = t.sub(one, prod.unwrap());
            let gate = t.param(pidx);
            pidx += 1;
            let om1 = t.sub(or, one);
            let g = t.mul(gate, om1);
            clause_factors.push(t.add(one, g));
        }
        let conj = t.mul(clause_factors[0], clause_factors[1]);
        let dis = t.sub(one, conj);
        let loss = t.mean_batch(dis);
        let inputs = vec![vec![1.0, 2.0, -0.5], vec![0.3, -1.2, 2.2], vec![2.0, 0.1, 0.7]];
        let params: Vec<f64> = (0..pidx).map(|i| 0.1 + 0.07 * i as f64).collect();
        let (v_fast, g_fast) = t.eval_with_grad(loss, &inputs, &params);
        let (v_ref, g_ref) = t.reference_eval_with_grad(loss, &inputs, &params);
        assert!((v_fast - v_ref).abs() < 1e-12, "{v_fast} vs {v_ref}");
        assert_eq!(g_fast.len(), g_ref.len());
        for (a, b) in g_fast.iter().zip(&g_ref) {
            assert!((a - b).abs() < 1e-12, "{g_fast:?} vs {g_ref:?}");
        }
    }
}
