//! Numeric gradient checking for [`Tape`] graphs: central finite
//! differences validate the analytic gradients of the reverse pass, on
//! the graphs of the G-CLN loss and on random graphs.

use crate::tape::{Tape, Var};

/// Result of a gradient check: the largest relative error across
/// parameters, and the offending parameter index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradCheckReport {
    /// Maximum relative error observed.
    pub max_rel_error: f64,
    /// Parameter index where the maximum occurred (0 when there are no
    /// parameters).
    pub worst_param: usize,
}

/// Compares the reverse-mode gradient of `output` against central finite
/// differences with step `h`.
///
/// Relative error uses `|analytic - numeric| / max(1, |analytic|, |numeric|)`
/// so tiny gradients do not blow up the ratio.
///
/// # Panics
///
/// Panics if `forward` panics (e.g. missing inputs).
pub fn check_gradients(
    tape: &mut Tape,
    output: Var,
    inputs: &[Vec<f64>],
    params: &[f64],
    h: f64,
) -> GradCheckReport {
    let (_, analytic) = tape.eval_with_grad(output, inputs, params);
    let mut report = GradCheckReport { max_rel_error: 0.0, worst_param: 0 };
    let mut scratch = params.to_vec();
    for i in 0..params.len() {
        scratch[i] = params[i] + h;
        let plus = tape.forward(output, inputs, &scratch);
        scratch[i] = params[i] - h;
        let minus = tape.forward(output, inputs, &scratch);
        scratch[i] = params[i];
        let numeric = (plus - minus) / (2.0 * h);
        let denom = 1.0_f64.max(analytic[i].abs()).max(numeric.abs());
        let rel = (analytic[i] - numeric).abs() / denom;
        if rel > report.max_rel_error {
            report.max_rel_error = rel;
            report.worst_param = i;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checks_composite_graph() {
        // f(w1, w2) = mean(1 / (1 + (w1*x + w2)^2)) − w1
        let mut t = Tape::new();
        let x = t.input(0);
        let w1 = t.param(0);
        let w2 = t.param(1);
        let one = t.constant(1.0);
        let wx = t.mul(w1, x);
        let z = t.add(wx, w2);
        let z2 = t.square(z);
        let d = t.add(one, z2);
        let r = t.recip(d);
        let m = t.mean_batch(r);
        let nw1 = t.neg(w1);
        let out = t.add(m, nw1);
        let report = check_gradients(&mut t, out, &[vec![0.5, -1.0, 2.0]], &[0.7, -0.2], 1e-5);
        assert!(report.max_rel_error < 1e-6, "report: {report:?}");
    }

    #[test]
    fn checks_fused_affine() {
        // f(w0, w1, w2, b) = mean((w·x + b)²) through the fused node.
        let mut t = Tape::new();
        let xs: Vec<_> = (0..3).map(|i| t.input(i)).collect();
        let ws: Vec<_> = (0..3).map(|i| t.param(i)).collect();
        let b = t.param(3);
        let aff = t.affine(&ws, &xs, Some(b));
        let sq = t.square(aff);
        let out = t.mean_batch(sq);
        let inputs = vec![vec![0.5, -1.0, 2.0], vec![1.5, 0.25, -0.75], vec![-2.0, 1.0, 0.5]];
        let report = check_gradients(&mut t, out, &inputs, &[0.7, -0.2, 0.4, 0.1], 1e-5);
        assert!(report.max_rel_error < 1e-6, "report: {report:?}");
    }

    #[test]
    fn checks_fused_gaussian() {
        // f(w, s) = mean(exp(−(w·x)²/2s²)) with σ wired as a parameter,
        // exactly how model.rs builds the equality relaxation.
        let mut t = Tape::new();
        let x = t.input(0);
        let w = t.param(0);
        let coeff = {
            let sp = t.param(1);
            let s2 = t.square(sp);
            let two = t.constant(2.0);
            let t2s = t.mul(two, s2);
            let inv = t.recip(t2s);
            t.neg(inv)
        };
        let z = t.mul(w, x);
        let act = t.gaussian(z, coeff);
        let out = t.mean_batch(act);
        let report = check_gradients(&mut t, out, &[vec![0.5, -1.0, 2.0]], &[0.7, 0.8], 1e-5);
        assert!(report.max_rel_error < 1e-6, "report: {report:?}");
    }

    #[test]
    fn checks_fused_affine_into_gaussian() {
        // The full G-CLN literal: gaussian(affine(w, x), −1/2σ²).
        let mut t = Tape::new();
        let xs: Vec<_> = (0..2).map(|i| t.input(i)).collect();
        let ws: Vec<_> = (0..2).map(|i| t.param(i)).collect();
        let coeff = t.constant(-0.5 / (0.6 * 0.6));
        let z = t.affine(&ws, &xs, None);
        let act = t.gaussian(z, coeff);
        let gate = t.param(2);
        let gated = t.mul(gate, act);
        let out = t.mean_batch(gated);
        let inputs = vec![vec![0.3, -0.9, 1.2], vec![1.1, 0.4, -0.6]];
        let report = check_gradients(&mut t, out, &inputs, &[0.5, -0.8, 0.9], 1e-5);
        assert!(report.max_rel_error < 1e-6, "report: {report:?}");
    }

    #[test]
    fn checks_gated_clause_graph() {
        // Two clauses of two Gaussian literals each under the gated
        // t-conorm/t-norm chain the G-CLN loss records:
        // mean(1 − Π_c(1 + g_c·((1 − Π_l(1 − g_l·act_l)) − 1))).
        let mut t = Tape::new();
        let x0 = t.input(0);
        let x1 = t.input(1);
        let one = t.constant(1.0);
        let coeff = t.constant(-0.5 / (0.7 * 0.7));
        let mut clause_factors = Vec::new();
        let mut np = 0;
        for _ in 0..2 {
            let mut prod: Option<Var> = None;
            for x in [x0, x1] {
                let w = t.param(np);
                let gate = t.param(np + 1);
                np += 2;
                let z = t.affine(&[w], &[x], None);
                let act = t.gaussian(z, coeff);
                let gated = t.mul(gate, act);
                let factor = t.sub(one, gated);
                prod = Some(match prod {
                    Some(p) => t.mul(p, factor),
                    None => factor,
                });
            }
            let clause_gate = t.param(np);
            np += 1;
            let or = t.sub(one, prod.unwrap());
            let or_m1 = t.sub(or, one);
            let gated = t.mul(clause_gate, or_m1);
            clause_factors.push(t.add(one, gated));
        }
        let conj = t.mul(clause_factors[0], clause_factors[1]);
        let dis = t.sub(one, conj);
        let out = t.mean_batch(dis);
        let inputs = vec![vec![0.3, -0.9, 1.2, 0.7], vec![1.1, 0.4, -0.6, -0.2]];
        let params = [0.5, 0.8, -0.3, 0.6, 0.9, -0.7, 0.2, 0.4, 0.85, 0.35];
        let report = check_gradients(&mut t, out, &inputs, &params, 1e-5);
        assert!(report.max_rel_error < 1e-6, "report: {report:?}");
    }

    /// A recipe for building a random (smooth) graph over `n_params`
    /// params and one input column.
    #[derive(Clone, Debug)]
    enum Step {
        Add(usize, usize),
        Sub(usize, usize),
        Mul(usize, usize),
        Square(usize),
        /// Fused `w₀·a + w₁·b (+ bias)` over existing nodes.
        Affine(usize, usize, bool),
        /// Fused `exp(−z²·k)` with a fixed small positive curvature.
        Gaussian(usize),
    }

    fn steps(n: usize) -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            prop_oneof![
                (0..n, 0..n).prop_map(|(a, b)| Step::Add(a, b)),
                (0..n, 0..n).prop_map(|(a, b)| Step::Sub(a, b)),
                (0..n, 0..n).prop_map(|(a, b)| Step::Mul(a, b)),
                (0..n).prop_map(Step::Square),
                (0..n, 0..n, proptest::bool::ANY).prop_map(|(a, b, bias)| Step::Affine(a, b, bias)),
                (0..n).prop_map(Step::Gaussian),
            ],
            1..8,
        )
    }

    /// Builds the graph described by `ops` on top of base nodes
    /// `[input, param0, param1, const 0.5]`, always reducing with mean.
    fn build(tape: &mut Tape, ops: &[Step]) -> Var {
        let x = tape.input(0);
        let p0 = tape.param(0);
        let p1 = tape.param(1);
        let c = tape.constant(0.5);
        let mut nodes = vec![x, p0, p1, c];
        for op in ops {
            let pick = |i: usize| nodes[i % nodes.len()];
            let v = match *op {
                Step::Add(a, b) => {
                    let (a, b) = (pick(a), pick(b));
                    tape.add(a, b)
                }
                Step::Sub(a, b) => {
                    let (a, b) = (pick(a), pick(b));
                    tape.sub(a, b)
                }
                Step::Mul(a, b) => {
                    let (a, b) = (pick(a), pick(b));
                    tape.mul(a, b)
                }
                Step::Square(a) => {
                    let a = pick(a);
                    tape.square(a)
                }
                Step::Affine(a, b, bias) => {
                    let (a, b) = (pick(a), pick(b));
                    let ws = [nodes[1], nodes[2]]; // p0, p1 as weights
                    let bias = bias.then_some(nodes[3]); // const 0.5
                    tape.affine(&ws, &[a, b], bias)
                }
                Step::Gaussian(a) => {
                    // exp(-z^2 * 0.35): bounded, smooth.
                    let z = pick(a);
                    let coeff = tape.constant(-0.35);
                    tape.gaussian(z, coeff)
                }
            };
            nodes.push(v);
        }
        let last = *nodes.last().expect("nonempty");
        tape.mean_batch(last)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Analytic gradients agree with finite differences on randomly
        /// generated graphs.
        #[test]
        fn random_graphs_pass_gradcheck(
            ops in steps(16),
            p0 in -1.5f64..1.5,
            p1 in -1.5f64..1.5,
            xs in proptest::collection::vec(-2.0f64..2.0, 1..6),
        ) {
            let mut tape = Tape::new();
            let out = build(&mut tape, &ops);
            let (v, _) = tape.eval_with_grad(out, std::slice::from_ref(&xs), &[p0, p1]);
            prop_assume!(v.is_finite() && v.abs() < 1e6);
            let report = check_gradients(&mut tape, out, &[xs], &[p0, p1], 1e-5);
            prop_assert!(
                report.max_rel_error < 1e-4,
                "gradient mismatch: {:?}", report
            );
        }
    }
}
