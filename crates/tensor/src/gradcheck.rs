//! Numeric gradient checking for [`Tape`] graphs.
//!
//! [`Tape`]: crate::tape::Tape
//!
//! Central finite differences validate the analytic gradients produced by
//! the reverse pass; the property tests in `tests/` use this on randomly
//! generated graphs.

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
///
/// # Examples
///
/// ```
/// use gcln_tensor::tape::Tape;
/// use gcln_tensor::gradcheck::check_gradients;
/// let mut t = Tape::new();
/// let w = t.param(0);
/// let sq = t.square(w);
/// let out = t.sum_batch(sq);
/// let report = check_gradients(&mut t, out, &[], &[1.5], 1e-5);
/// assert!(report.max_rel_error < 1e-6);
/// ```
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

    #[test]
    fn checks_composite_graph() {
        // f(w1, w2) = sum(exp(-(w1*x + w2)^2))
        let mut t = Tape::new();
        let x = t.input(0);
        let w1 = t.param(0);
        let w2 = t.param(1);
        let wx = t.mul(w1, x);
        let z = t.add(wx, w2);
        let z2 = t.square(z);
        let nz2 = t.neg(z2);
        let e = t.exp(nz2);
        let out = t.sum_batch(e);
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
        // f(w, s) = sum(exp(−(w·x)²/2s²)) with σ wired as a parameter,
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
        let out = t.sum_batch(act);
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
}
