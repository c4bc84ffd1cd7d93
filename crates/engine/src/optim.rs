//! The first-order optimizer of G-CLN training.
//!
//! The paper trains G-CLNs with Adam at learning rate 0.01 and
//! multiplicative decay 0.9996; [`Adam`] reproduces that update rule with
//! those values as constants.

/// Initial learning rate (paper §6).
const LEARNING_RATE: f64 = 0.01;
/// Multiplicative per-step learning-rate decay (paper §6).
const DECAY: f64 = 0.9996;
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPSILON: f64 = 1e-8;

/// The Adam optimizer (Kingma & Ba) with learning-rate decay.
#[derive(Clone, Debug)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    lr: f64,
}

impl Adam {
    /// Creates an Adam optimizer for `n` parameters.
    pub fn new(n: usize) -> Adam {
        Adam { m: vec![0.0; n], v: vec![0.0; n], t: 0, lr: LEARNING_RATE }
    }

    /// Applies one Adam update in place.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length from the optimizer
    /// state.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            if !g.is_finite() {
                continue; // skip poisoned coordinates rather than corrupt state
            }
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            // The trailing `+ 0.0` canonicalizes a −0.0 result to +0.0
            // (exact for every other value): zero-sign is the one bit IEEE
            // lets otherwise-identical computations disagree on, and
            // keeping parameters at a single canonical zero keeps
            // equivalent trainers bit-identical.
            params[i] = (params[i] - self.lr * m_hat / (v_hat.sqrt() + EPSILON)) + 0.0;
        }
        self.lr *= DECAY;
    }
}

/// Projects a slice of parameters onto the unit L2 sphere, the weight
/// regularization of paper §5.1.2 (‖w‖₂ = 1, avoiding the trivial all-zero
/// invariant).
///
/// When the norm is (near) zero the slice is reset to `1/√n` in every
/// coordinate so training can recover.
pub fn project_unit_l2(w: &mut [f64]) {
    let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm < 1e-12 || !norm.is_finite() {
        let fill = 1.0 / (w.len() as f64).sqrt();
        w.iter_mut().for_each(|x| *x = fill);
    } else {
        w.iter_mut().for_each(|x| *x /= norm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = vec![2.0, -3.0];
        let mut adam = Adam::new(2);
        for _ in 0..1000 {
            let g = vec![2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)];
            adam.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 1e-2, "{p:?}");
        assert!((p[1] + 2.0).abs() < 1e-2, "{p:?}");
    }

    #[test]
    fn adam_decay_reduces_lr() {
        // Under a constant gradient every Adam step is the learning rate
        // (to within ε), so successive steps shrink by the decay.
        let mut adam = Adam::new(1);
        let mut p = vec![0.0];
        adam.step(&mut p, &[1.0]);
        let first = -p[0];
        adam.step(&mut p, &[1.0]);
        let second = -p[0] - first;
        assert!((first - LEARNING_RATE).abs() < 1e-9, "first step {first}");
        assert!((second / first - DECAY).abs() < 1e-9, "ratio {}", second / first);
    }

    #[test]
    fn adam_skips_nonfinite_gradients() {
        let mut adam = Adam::new(2);
        let mut p = vec![1.0, 1.0];
        adam.step(&mut p, &[f64::NAN, 0.0]);
        assert_eq!(p[0], 1.0);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn adam_canonicalizes_zero_sign() {
        // A step that lands a parameter exactly on zero must produce +0.0.
        let mut adam = Adam::new(1);
        let mut p = vec![0.0];
        adam.step(&mut p, &[1.0]); // drives p negative
        assert!(p[0] < 0.0);
        let mut q = vec![-0.0];
        let mut adam2 = Adam::new(1);
        adam2.step(&mut q, &[0.0]); // zero update on −0.0
        assert!(q[0] == 0.0 && q[0].is_sign_positive(), "got {:?}", q[0]);
    }

    #[test]
    fn projection_scales_3_4_to_0_6_0_8() {
        let mut w = vec![3.0, 4.0];
        project_unit_l2(&mut w);
        assert!((w[0] - 0.6).abs() < 1e-12 && (w[1] - 0.8).abs() < 1e-12, "{w:?}");
    }

    #[test]
    fn projection_normalizes_and_recovers_zero() {
        let mut w = vec![0.0, 0.0];
        project_unit_l2(&mut w);
        let norm: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
    }
}
