//! A batched, tape-based reverse-mode automatic differentiation engine:
//! the test oracle of G-CLN training.
//!
//! Nothing trains on it. The training kernel of [`crate::model`] performs
//! the operations of a loss graph recorded here, in the tape's order and
//! with the same reductions, and its tests pin the kernel to the tape bit
//! for bit, loss and every gradient, at every epoch. [`crate::gradcheck`]
//! checks the tape's own gradients against finite differences. The
//! design is specialized for CLN graphs:
//!
//! - Every tape node carries a *batch vector* of values: either one value
//!   per training sample (length `B`) or a single broadcast scalar
//!   (length 1). Binary operations broadcast `1 × B → B`.
//! - Graphs are built **once** per training attempt and then re-evaluated
//!   every epoch with fresh parameter values ([`Tape::forward`] /
//!   [`Tape::eval_with_grad`]), so the graph size is `O(model)`, not
//!   `O(model × epochs)`.
//! - The op set is what the oracle graphs need: field arithmetic, the
//!   batch mean, and **fused nodes**: [`Tape::affine`] (`Σ wᵢ·xᵢ + b` as
//!   one node instead of `2k` mul/add nodes) and [`Tape::gaussian`]
//!   (`exp(c·z²)`, the equality relaxation).
//!
//! # Execution model
//!
//! One interpreter. The forward pass evaluates every node up to the
//! requested output in recording order; the backward pass walks back from
//! the output and visits only the nodes it reaches. Per-node value and
//! adjoint vectors are kept across calls.
//!
//! The arithmetic is fixed: [`fma64`] for the affine dot products,
//! [`exp64`] for every exponential, [`sum_blocked`] for `mean_batch`,
//! [`reduce_fma_blocked4`] for the adjoint of a scalar affine weight over
//! a batch operand, and [`reduce_blocked4`] for every other batch
//! gradient reduced into a scalar. The training kernel keeps the state of
//! the same blocked reductions across its tiles.

use crate::fastmath::{exp64, fma64};

/// Handle to a node in a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

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
    Neg(Var),
    Square(Var),
    Recip(Var),
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

    fn push(&mut self, op: Op) -> Var {
        let (scalar, requires) = match &op {
            Op::Input(_) => (false, false),
            Op::Param(_) => (true, true),
            Op::Const(_) => (true, false),
            Op::MeanBatch(a) => (true, self.requires_grad[a.0]),
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => (
                self.scalar[a.0] && self.scalar[b.0],
                self.requires_grad[a.0] || self.requires_grad[b.0],
            ),
            Op::Neg(a) | Op::Square(a) | Op::Recip(a) => {
                (self.scalar[a.0], self.requires_grad[a.0])
            }
            Op::Affine { weights, xs, bias } => {
                let all = || weights.iter().chain(xs.iter()).chain(bias.iter());
                (all().all(|v| self.scalar[v.0]), all().any(|v| self.requires_grad[v.0]))
            }
            Op::Gaussian { z, coeff } => (
                self.scalar[z.0] && self.scalar[coeff.0],
                self.requires_grad[z.0] || self.requires_grad[coeff.0],
            ),
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

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.push(Op::Neg(a))
    }

    /// `a²` elementwise.
    pub fn square(&mut self, a: Var) -> Var {
        self.push(Op::Square(a))
    }

    /// `1 / a` elementwise.
    pub fn recip(&mut self, a: Var) -> Var {
        self.push(Op::Recip(a))
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
                Op::Neg(a) => out.extend(v(a).iter().map(|x| -x)),
                Op::Square(a) => out.extend(v(a).iter().map(|x| x * x)),
                Op::Recip(a) => out.extend(v(a).iter().map(|x| 1.0 / x)),
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
                Op::Neg(a) => acc!(a, |_, g| -g),
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

/// The canonical reassociated sum `f(0) + f(1) + … + f(n−1)`: four
/// independent partial sums over the leading `4·⌊n/4⌋` indices plus a
/// sequential tail, combined as `((a₀+a₁)+(a₂+a₃)) + tail`. It breaks the
/// single dependency chain of a sequential sum (~3× faster) while keeping
/// one documented order. `mean_batch` and the backward accumulation of a
/// batch gradient into a broadcast scalar use it; the training kernel
/// keeps its lanes across tiles.
fn reduce_blocked4(n: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let mut a0 = 0.0;
    let mut a1 = 0.0;
    let mut a2 = 0.0;
    let mut a3 = 0.0;
    let mut j = 0;
    while j + 4 <= n {
        a0 += f(j);
        a1 += f(j + 1);
        a2 += f(j + 2);
        a3 += f(j + 3);
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        tail += f(j);
        j += 1;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// [`reduce_blocked4`] for `x(j)·y(j)` pairs, each accumulation step one
/// rounded [`fma64`]: the order of every weight-gradient reduction
/// `∂w = Σ_j x_j·g_j`.
fn reduce_fma_blocked4(n: usize, mut f: impl FnMut(usize) -> (f64, f64)) -> f64 {
    let mut a0 = 0.0;
    let mut a1 = 0.0;
    let mut a2 = 0.0;
    let mut a3 = 0.0;
    let mut j = 0;
    while j + 4 <= n {
        let (x0, y0) = f(j);
        let (x1, y1) = f(j + 1);
        let (x2, y2) = f(j + 2);
        let (x3, y3) = f(j + 3);
        a0 = fma64(x0, y0, a0);
        a1 = fma64(x1, y1, a1);
        a2 = fma64(x2, y2, a2);
        a3 = fma64(x3, y3, a3);
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        let (x, y) = f(j);
        tail = fma64(x, y, tail);
        j += 1;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// [`reduce_blocked4`] over a slice.
fn sum_blocked(v: &[f64]) -> f64 {
    reduce_blocked4(v.len(), |j| v[j])
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
        let s = t.mean_batch(prod);
        let v = t.forward(s, &[vec![1.0, 2.0, 3.0]], &[2.0]);
        assert_eq!(v, 4.0);
    }

    #[test]
    fn gradient_of_linear_is_input_sum() {
        // n·mean(w·x) is the batch sum, so its gradient is Σ x.
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let prod = t.mul(w, x);
        let m = t.mean_batch(prod);
        let n = t.constant(3.0);
        let s = t.mul(n, m);
        let (_, g) = t.eval_with_grad(s, &[vec![1.0, 2.0, 3.0]], &[5.0]);
        assert_eq!(g, vec![6.0]);
    }

    #[test]
    fn gradient_of_square_loss() {
        // loss = mean((w*x - y)^2); dloss/dw = mean(2*(w*x - y)*x)
        let mut t = Tape::new();
        let x = t.input(0);
        let y = t.input(1);
        let w = t.param(0);
        let wx = t.mul(w, x);
        let e = t.sub(wx, y);
        let sq = t.square(e);
        let loss = t.mean_batch(sq);
        let xs = vec![1.0, 2.0];
        let ys = vec![3.0, 5.0];
        let w0 = 1.0;
        let (v, g) = t.eval_with_grad(loss, &[xs.clone(), ys.clone()], &[w0]);
        let expect_v: f64 =
            xs.iter().zip(&ys).map(|(x, y)| (w0 * x - y).powi(2)).sum::<f64>() / 2.0;
        let expect_g: f64 =
            xs.iter().zip(&ys).map(|(x, y)| 2.0 * (w0 * x - y) * x).sum::<f64>() / 2.0;
        assert!((v - expect_v).abs() < 1e-12);
        assert!((g[0] - expect_g).abs() < 1e-12);
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
        let out = t.mean_batch(aff);
        let inputs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let v = t.forward(out, &inputs, &[10.0, 20.0, 30.0, 5.0]);
        assert_eq!(v, 10.0 + 40.0 + 90.0 + 5.0);
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
        let out = t1.mean_batch(sq);
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
        let out = t2.mean_batch(sq);
        let (v2, g2) = t2.eval_with_grad(out, &inputs, &params);
        assert!((v1 - v2).abs() < 1e-12);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-12, "{g1:?} vs {g2:?}");
        }
    }

    #[test]
    fn gaussian_matches_unfused_chain() {
        // mean(exp(c·(w·x)²)) with c = −1/(2σ²) against its closed form:
        // ∂w = mean(act·c·2z·x) and ∂σ = mean(act·z²)·(1/σ³).
        let xs = [0.5, -1.5, 2.0];
        let (w, sigma) = (0.8, 0.3);
        let mut t = Tape::new();
        let x = t.input(0);
        let wp = t.param(0);
        let coeff = {
            let sp = t.param(1);
            let s2 = t.square(sp);
            let two = t.constant(2.0);
            let t2s = t.mul(two, s2);
            let inv = t.recip(t2s);
            t.neg(inv)
        };
        let z = t.mul(wp, x);
        let act = t.gaussian(z, coeff);
        let out = t.mean_batch(act);
        let (v, g) = t.eval_with_grad(out, &[xs.to_vec()], &[w, sigma]);
        let c = -1.0 / (2.0 * sigma * sigma);
        let n = xs.len() as f64;
        let mean = |f: &dyn Fn(f64) -> f64| xs.iter().map(|&x| f(x)).sum::<f64>() / n;
        let act = |x: f64| (c * (w * x) * (w * x)).exp();
        let want_v = mean(&act);
        let want_w = mean(&|x| act(x) * c * 2.0 * (w * x) * x);
        let want_s = mean(&|x| act(x) * (w * x) * (w * x)) / (sigma * sigma * sigma);
        assert!((v - want_v).abs() < 1e-12, "{v} vs {want_v}");
        assert!((g[0] - want_w).abs() < 1e-12, "{} vs {want_w}", g[0]);
        assert!((g[1] - want_s).abs() < 1e-12 * want_s.abs().max(1.0), "{} vs {want_s}", g[1]);
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let live = t.mul(w, x);
        // Dead subgraph: infinite where evaluated, and never differentiated.
        let zero = t.constant(0.0);
        let inf = t.recip(zero);
        let dead = t.mul(live, inf);
        let _dead2 = t.square(dead);
        let out = t.mean_batch(live);
        let (v, g) = t.eval_with_grad(out, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!(v, 4.5);
        assert_eq!(g, vec![1.5]);
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
        let out = t.mean_batch(s);
        let _ = t.forward(out, &[vec![1.0], vec![1.0, 2.0]], &[]);
    }

    #[test]
    fn graph_reuse_across_param_updates() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let p = t.mul(w, x);
        let e = t.square(p);
        let loss = t.mean_batch(e);
        let inputs = vec![vec![1.0, -2.0]];
        let mut w0 = 3.0;
        let mut last = f64::INFINITY;
        for _ in 0..50 {
            let (v, g) = t.eval_with_grad(loss, &inputs, &[w0]);
            assert!(v <= last + 1e-9);
            last = v;
            w0 -= 0.1 * g[0];
        }
        assert!(w0.abs() < 0.1, "descent should drive w toward 0, got {w0}");
    }

    #[test]
    fn batch_size_change_relays_the_arena() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let p = t.mul(w, x);
        let s = t.mean_batch(p);
        assert_eq!(t.forward(s, &[vec![1.0, 2.0]], &[2.0]), 3.0);
        assert_eq!(t.forward(s, &[vec![1.0, 2.0, 3.0, 4.0]], &[2.0]), 5.0);
        assert_eq!(t.forward(s, &[vec![5.0]], &[2.0]), 10.0);
    }

    #[test]
    fn switching_outputs_recomputes_liveness() {
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let a = t.mul(w, x);
        let b = t.square(x);
        let out_a = t.mean_batch(a);
        let out_b = t.mean_batch(b);
        let (va, ga) = t.eval_with_grad(out_a, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!((va, ga), (4.5, vec![1.5]));
        let (vb, gb) = t.eval_with_grad(out_b, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!((vb, gb), (2.5, vec![0.0]));
        // And back again.
        let (va2, _) = t.eval_with_grad(out_a, &[vec![1.0, 2.0]], &[3.0]);
        assert_eq!(va2, 4.5);
    }

    #[test]
    fn reduce_blocked4_matches_slice_helper_bitwise() {
        for n in 0..23 {
            let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37 - 1.0).sin()).collect();
            let a = reduce_blocked4(n, |j| v[j]);
            let b = sum_blocked(&v);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reduce_blocked4_is_accurate() {
        let v: Vec<f64> = (0..1001).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let blocked = sum_blocked(&v);
        let kahan = {
            let (mut s, mut c) = (0.0f64, 0.0f64);
            for &x in &v {
                let y = x - c;
                let t = s + y;
                c = (t - s) - y;
                s = t;
            }
            s
        };
        assert!((blocked - kahan).abs() <= 1e-12 * kahan.abs());
    }

    #[test]
    fn reduce_fma_blocked4_matches_manual_order() {
        for n in 0..23usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41 - 1.3).cos()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29 + 0.7).sin()).collect();
            let got = reduce_fma_blocked4(n, |j| (x[j], y[j]));
            // Re-derive via the documented order with explicit fma64.
            let mut a = [0.0f64; 4];
            let mut j = 0;
            while j + 4 <= n {
                for (s, acc) in a.iter_mut().enumerate() {
                    *acc = fma64(x[j + s], y[j + s], *acc);
                }
                j += 4;
            }
            let mut tail = 0.0;
            while j < n {
                tail = fma64(x[j], y[j], tail);
                j += 1;
            }
            let want = ((a[0] + a[1]) + (a[2] + a[3])) + tail;
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }
}
