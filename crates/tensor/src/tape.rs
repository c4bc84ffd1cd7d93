//! A batched, tape-based reverse-mode automatic differentiation engine.
//!
//! This is the CLN baseline's trainer (`gcln_baselines::cln`, behind
//! `gcln table4`) and the bitwise reference for the engine's two direct
//! training kernels: G-CLN equality training (`gcln_engine::model`) and
//! PBQU bound training (`gcln_engine::bounds`) each replay a graph
//! recorded here operation for operation, and tests pin them to it bit
//! for bit. The design is specialized for CLN graphs:
//!
//! - Every tape node carries a *batch vector* of values: either one value
//!   per training sample (length `B`) or a single broadcast scalar
//!   (length 1). Binary operations broadcast `1 × B → B`.
//! - Graphs are built **once** per training attempt and then re-evaluated
//!   every epoch with fresh parameter values ([`Tape::forward`] /
//!   [`Tape::eval_with_grad`]), so the graph size is `O(model)`, not
//!   `O(model × epochs)`.
//! - The op set is exactly what CLN relaxations need: field arithmetic,
//!   `exp`, powers, a piecewise selector for the PBQU activation, and
//!   **fused nodes**: [`Tape::affine`] (`Σ wᵢ·xᵢ + b` as one node instead
//!   of `2k` mul/add nodes), [`Tape::gaussian`] (`exp(c·z²)`, the
//!   equality relaxation) and [`Tape::pbqu_loss`] (the mean PBQU
//!   tightness loss).
//!
//! # Execution model
//!
//! One interpreter. The forward pass evaluates every node up to the
//! requested output in recording order; the backward pass walks back from
//! the output and visits only the nodes it reaches. Per-node value and
//! adjoint vectors are kept across calls.
//!
//! The arithmetic is fixed by [`crate::fastmath`]: [`fma64`] for the
//! affine dot products, [`exp64`] for every exponential, [`sum_blocked`]
//! for `sum_batch`/`mean_batch`, [`reduce_fma_blocked4`] for the adjoint
//! of a scalar affine weight over a batch operand, and
//! [`reduce_blocked4`] for every other batch gradient reduced into a
//! scalar. A trainer that replays a graph's arithmetic through the same
//! helpers is bit-identical to the tape by construction.
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

use crate::fastmath::{exp64, fma64, reduce_blocked4, reduce_fma_blocked4, sum_blocked};

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
enum Op {
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
    SelectNonneg {
        cond: Var,
        nonneg: Var,
        neg: Var,
    },
    /// Reduce a batch vector to the scalar sum of its entries.
    SumBatch(Var),
    /// Reduce a batch vector to the scalar mean of its entries.
    MeanBatch(Var),
    /// Fused affine combination `Σ wᵢ·xᵢ (+ bias)` — one node instead of
    /// `2k` mul/add nodes. `weights` and `xs` have equal length.
    Affine {
        weights: Box<[Var]>,
        xs: Box<[Var]>,
        bias: Option<Var>,
    },
    /// Fused Gaussian activation `exp(coeff · z²)`; with
    /// `coeff = −1/(2σ²)` this is the equality relaxation `exp(−z²/2σ²)`.
    Gaussian {
        z: Var,
        coeff: Var,
    },
    /// Fused PBQU tightness loss `mean_j(1 − act(z_j))` with
    /// `act(z) = if z ≥ 0 { c2²/(z²+c2²) } else { c1²/(z²+c1²) }` —
    /// one scalar node instead of the 8-node
    /// square → add/add → div/div → select → sub → mean chain that bound
    /// learning builds per candidate subset (paper §4.2).
    PbquLoss {
        z: Var,
        c1sq: f64,
        c2sq: f64,
    },
}

/// A computation graph with batched reverse-mode differentiation.
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
    /// Per-node values of the last forward pass.
    values: Vec<Vec<f64>>,
    /// Per-node adjoints of the last backward pass; empty for nodes the
    /// output did not reach.
    grads: Vec<Vec<f64>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape::default()
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
            Op::Neg(a) | Op::Exp(a) | Op::Square(a) | Op::Recip(a) => {
                (self.scalar[a.0], self.requires_grad[a.0])
            }
            Op::SelectNonneg { cond, nonneg, neg } => (
                self.scalar[cond.0] && self.scalar[nonneg.0] && self.scalar[neg.0],
                self.requires_grad[nonneg.0] || self.requires_grad[neg.0],
            ),
            Op::Affine { weights, xs, bias } => {
                let all = || weights.iter().chain(xs.iter()).chain(bias.iter());
                (all().all(|v| self.scalar[v.0]), all().any(|v| self.requires_grad[v.0]))
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

    /// Runs a forward pass, returning the scalar value of `output`.
    ///
    /// `inputs[i]` is the batch column for [`Tape::input`] index `i`; all
    /// columns must share one length. `params[i]` feeds [`Tape::param`]
    /// index `i`. Every node recorded up to `output` is evaluated.
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
        assert!(
            self.scalar[output.0] || batch == 1,
            "output must be a scalar node; reduce the batch first"
        );
        self.values.resize_with(self.ops.len(), Vec::new);
        for (i, op) in self.ops[..=output.0].iter().enumerate() {
            let (prev, rest) = self.values.split_at_mut(i);
            let out = &mut rest[0];
            let n = if self.scalar[i] { 1 } else { batch };
            let v = |x: &Var| prev[x.0].as_slice();
            let zip = |a: &Var, b: &Var, f: fn(f64, f64) -> f64| {
                let (a, b) = (v(a), v(b));
                (0..n).map(move |j| f(bget(a, j), bget(b, j)))
            };
            out.clear();
            match op {
                Op::Input(idx) => out.extend_from_slice(&inputs[*idx]),
                Op::Param(idx) => out.push(params[*idx]),
                Op::Const(c) => out.push(*c),
                Op::Add(a, b) => out.extend(zip(a, b, |x, y| x + y)),
                Op::Sub(a, b) => out.extend(zip(a, b, |x, y| x - y)),
                Op::Mul(a, b) => out.extend(zip(a, b, |x, y| x * y)),
                Op::Div(a, b) => out.extend(zip(a, b, |x, y| x / y)),
                Op::Neg(a) => out.extend(v(a).iter().map(|x| -x)),
                Op::Exp(a) => out.extend(v(a).iter().map(|&x| exp64(x))),
                Op::Square(a) => out.extend(v(a).iter().map(|x| x * x)),
                Op::Recip(a) => out.extend(v(a).iter().map(|x| 1.0 / x)),
                Op::SelectNonneg { cond, nonneg, neg } => {
                    let (c, p, q) = (v(cond), v(nonneg), v(neg));
                    out.extend(
                        (0..n).map(|j| if bget(c, j) >= 0.0 { bget(p, j) } else { bget(q, j) }),
                    );
                }
                Op::SumBatch(a) => out.push(sum_blocked(v(a))),
                Op::MeanBatch(a) => out.push(sum_blocked(v(a)) / v(a).len() as f64),
                Op::Affine { weights, xs, bias } => {
                    out.extend((0..n).map(|j| bias.map_or(0.0, |b| bget(v(&b), j))));
                    for (w, x) in weights.iter().zip(xs.iter()) {
                        let (wv, xv) = (v(w), v(x));
                        for (j, o) in out.iter_mut().enumerate() {
                            *o = fma64(bget(wv, j), bget(xv, j), *o);
                        }
                    }
                }
                Op::Gaussian { z, coeff } => {
                    // `(z·z)·c` ordering matches the unfused
                    // square → mul → exp chain bit-for-bit.
                    let (zv, cv) = (v(z), v(coeff));
                    out.extend((0..n).map(|j| {
                        let z = bget(zv, j);
                        exp64(z * z * bget(cv, j))
                    }));
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    // Per-element order mirrors the unfused
                    // square → add → div → select → sub chain, and the
                    // mean reduces in the crate's canonical blocked order
                    // — bit-identical to the graph this op replaces.
                    let zv = v(z);
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    let sum = reduce_blocked4(zv.len(), |j| {
                        let zj = zv[j];
                        let z2 = zj * zj;
                        let act = if zj >= 0.0 { c2sq / (z2 + c2sq) } else { c1sq / (z2 + c1sq) };
                        1.0 - act
                    });
                    out.push(sum / zv.len() as f64);
                }
            }
        }
        self.values[output.0][0]
    }

    /// Forward + backward in one call: the value of `output` and
    /// `∂output/∂paramᵢ` for every parameter.
    pub fn eval_with_grad(
        &mut self,
        output: Var,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> (f64, Vec<f64>) {
        let value = self.forward(output, inputs, params);
        (value, self.backward(output))
    }

    /// The reverse pass from `output` over the values of the forward pass
    /// just run. Only nodes that depend on a parameter and are reached
    /// from the output are visited.
    fn backward(&mut self, output: Var) -> Vec<f64> {
        let mut param_grads = vec![0.0; self.num_params];
        let (ops, values, requires) = (&self.ops, &self.values, &self.requires_grad);
        let grads = &mut self.grads;
        grads.resize_with(ops.len(), Vec::new);
        grads[..=output.0].iter_mut().for_each(Vec::clear);
        if !requires[output.0] {
            return param_grads; // output independent of every parameter
        }
        grads[output.0].push(1.0);
        let v = |x: &Var| values[x.0].as_slice();
        for i in (0..=output.0).rev() {
            let (lower, upper) = grads.split_at_mut(i);
            let g = upper[0].as_slice();
            if g.is_empty() {
                continue; // not reached from the output
            }
            // Adds `f(j, g_j)` into an operand's adjoint, skipping
            // operands that depend on no parameter.
            macro_rules! acc {
                ($target:expr, $f:expr) => {{
                    let t: &Var = $target;
                    if requires[t.0] {
                        accumulate(adjoint(lower, values, t), g, $f);
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
                    let (av, bv) = (v(a), v(b));
                    acc!(a, |j, g| g * bget(bv, j));
                    acc!(b, |j, g| g * bget(av, j));
                }
                Op::Div(a, b) => {
                    let (av, bv) = (v(a), v(b));
                    acc!(a, |j, g| g / bget(bv, j));
                    acc!(b, |j, g| {
                        let bj = bget(bv, j);
                        -g * bget(av, j) / (bj * bj)
                    });
                }
                Op::Neg(a) => acc!(a, |_, g| -g),
                Op::Exp(a) => {
                    let out = &values[i];
                    acc!(a, |j, g| g * out[j]);
                }
                Op::Square(a) => {
                    let av = v(a);
                    acc!(a, |j, g| 2.0 * g * av[j]);
                }
                Op::Recip(a) => {
                    let av = v(a);
                    acc!(a, |j, g| {
                        let x = av[j];
                        -g / (x * x)
                    });
                }
                Op::SelectNonneg { cond, nonneg, neg } => {
                    let cv = v(cond);
                    acc!(nonneg, |j, g| if bget(cv, j) >= 0.0 { g } else { 0.0 });
                    acc!(neg, |j, g| if bget(cv, j) >= 0.0 { 0.0 } else { g });
                }
                Op::SumBatch(a) => acc!(a, |_, g| g),
                Op::MeanBatch(a) => {
                    let n = v(a).len() as f64;
                    acc!(a, |_, g| g / n);
                }
                Op::Affine { weights, xs, bias } => {
                    for (w, x) in weights.iter().zip(xs.iter()) {
                        let (wv, xv) = (v(w), v(x));
                        if requires[w.0] && wv.len() == 1 && g.len() > 1 && xv.len() == g.len() {
                            // A scalar weight over a batch operand — the
                            // G-CLN shape — reduces `∂w = Σ_j g_j·x_j` in
                            // the canonical FMA order.
                            adjoint(lower, values, w)[0] +=
                                reduce_fma_blocked4(g.len(), |j| (g[j], xv[j]));
                        } else {
                            acc!(w, |j, g| g * bget(xv, j));
                        }
                        acc!(x, |j, g| g * bget(wv, j));
                    }
                    if let Some(b) = bias {
                        acc!(b, |_, g| g);
                    }
                }
                Op::Gaussian { z, coeff } => {
                    let (zv, cv) = (v(z), v(coeff));
                    let out = &values[i];
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
                    let zv = v(z);
                    let n = zv.len() as f64;
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    acc!(z, |j, g| {
                        let zj = zv[j];
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
        param_grads
    }
}

/// Node `t`'s adjoint, zero-filled to the length of its value on the
/// first write of a backward pass.
fn adjoint<'a>(grads: &'a mut [Vec<f64>], values: &[Vec<f64>], t: &Var) -> &'a mut [f64] {
    let d = &mut grads[t.0];
    if d.is_empty() {
        d.resize(values[t.0].len(), 0.0);
    }
    d
}

/// Adds `f(j, upstream_j)` into `dst`: elementwise when the shapes match,
/// reduced over the batch in the canonical blocked order when `dst` is a
/// broadcast scalar, and broadcast when the upstream is a scalar (after a
/// reduce).
fn accumulate(dst: &mut [f64], upstream: &[f64], f: impl Fn(usize, f64) -> f64) {
    if dst.len() == upstream.len() {
        for (j, (d, &g)) in dst.iter_mut().zip(upstream).enumerate() {
            *d += f(j, g);
        }
    } else if dst.len() == 1 {
        dst[0] += reduce_blocked4(upstream.len(), |j| f(j, upstream[j]));
    } else {
        assert_eq!(upstream.len(), 1, "gradient shape mismatch");
        let g0 = upstream[0];
        for (j, d) in dst.iter_mut().enumerate() {
            *d += f(j, g0);
        }
    }
}

/// Entry `j` of a batch vector, or its one value if it is a scalar.
fn bget(v: &[f64], j: usize) -> f64 {
    if v.len() == 1 {
        v[0]
    } else {
        v[j]
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
}
