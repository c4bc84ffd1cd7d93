//! Property tests: analytic gradients agree with finite differences on
//! randomly generated computation graphs.

use gcln_tensor::gradcheck::check_gradients;
use gcln_tensor::optim::project_unit_l2;
use gcln_tensor::tape::{Tape, Var};
use proptest::prelude::*;

/// A recipe for building a random (smooth) graph over `n_params` params and
/// one input column.
#[derive(Clone, Debug)]
enum Step {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Square(usize),
    ExpNeg(usize),
    DivSafe(usize, usize),
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
            (0..n).prop_map(Step::ExpNeg),
            (0..n, 0..n).prop_map(|(a, b)| Step::DivSafe(a, b)),
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
            Step::ExpNeg(a) => {
                // exp(-a^2) keeps values bounded.
                let a = pick(a);
                let sq = tape.square(a);
                let n = tape.neg(sq);
                tape.exp(n)
            }
            Step::DivSafe(a, b) => {
                // a / (b^2 + 1): denominator bounded away from 0.
                let (a, b) = (pick(a), pick(b));
                let b2 = tape.square(b);
                let one = tape.constant(1.0);
                let denom = tape.add(b2, one);
                tape.div(a, denom)
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

    #[test]
    fn projection_is_idempotent_and_unit(
        w in proptest::collection::vec(-10.0f64..10.0, 1..6)
    ) {
        let mut a = w.clone();
        project_unit_l2(&mut a);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-9);
        let mut b = a.clone();
        project_unit_l2(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_and_mean_consistent(xs in proptest::collection::vec(-3.0f64..3.0, 1..8)) {
        let mut t = Tape::new();
        let x = t.input(0);
        let s = t.sum_batch(x);
        let m = t.mean_batch(x);
        let n = xs.len() as f64;
        let sv = t.forward(s, std::slice::from_ref(&xs), &[]);
        let mv = t.forward(m, std::slice::from_ref(&xs), &[]);
        prop_assert!((sv - mv * n).abs() < 1e-9);
    }
}
