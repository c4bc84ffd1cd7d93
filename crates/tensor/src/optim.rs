//! The first-order optimizer for tape parameters.
//!
//! The paper trains G-CLNs with Adam (learning rate 0.01, multiplicative
//! decay 0.9996, max 5000 epochs); [`Adam`] reproduces that update rule.

/// Optimizer configuration.
#[derive(Clone, Copy, Debug)]
pub struct OptimizerConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Multiplicative per-step learning-rate decay (1.0 = none).
    pub decay: f64,
}

impl Default for OptimizerConfig {
    /// The paper's Adam settings: lr 0.01, decay 0.9996.
    fn default() -> Self {
        OptimizerConfig { learning_rate: 0.01, decay: 0.9996 }
    }
}

/// The Adam optimizer (Kingma & Ba) with learning-rate decay.
///
/// # Examples
///
/// ```
/// use gcln_tensor::optim::{Adam, OptimizerConfig};
/// let mut params = vec![1.0_f64];
/// let mut adam = Adam::new(1, OptimizerConfig { learning_rate: 0.1, decay: 1.0 });
/// for _ in 0..200 {
///     let grad = vec![2.0 * params[0]]; // d(x^2)/dx
///     adam.step(&mut params, &grad);
/// }
/// assert!(params[0].abs() < 1e-2);
/// ```
#[derive(Clone, Debug)]
pub struct Adam {
    decay: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    lr: f64,
}

impl Adam {
    /// Creates an Adam optimizer for `n` parameters.
    pub fn new(n: usize, config: OptimizerConfig) -> Adam {
        Adam {
            decay: config.decay,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr: config.learning_rate,
        }
    }

    /// The current (decayed) learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
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
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            if !g.is_finite() {
                continue; // skip poisoned coordinates rather than corrupt state
            }
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            // The trailing `+ 0.0` canonicalizes a −0.0 result to +0.0
            // (exact for every other value): zero-sign is the one bit IEEE
            // lets otherwise-identical computations disagree on, and
            // keeping parameters at a single canonical zero keeps
            // equivalent trainers bit-identical.
            params[i] = (params[i] - self.lr * m_hat / (v_hat.sqrt() + self.epsilon)) + 0.0;
        }
        self.lr *= self.decay;
    }
}

/// Projects a slice of parameters onto the unit L2 sphere, the weight
/// regularization of paper §5.1.2 (‖w‖₂ = 1, avoiding the trivial all-zero
/// invariant).
///
/// When the norm is (near) zero the slice is reset to `1/√n` in every
/// coordinate so training can recover.
///
/// # Examples
///
/// ```
/// use gcln_tensor::optim::project_unit_l2;
/// let mut w = vec![3.0, 4.0];
/// project_unit_l2(&mut w);
/// assert!((w[0] - 0.6).abs() < 1e-12 && (w[1] - 0.8).abs() < 1e-12);
/// ```
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

    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = vec![5.0, -3.0];
        let mut adam = Adam::new(2, OptimizerConfig { learning_rate: 0.05, decay: 1.0 });
        for _ in 0..500 {
            let g = vec![2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)];
            adam.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 1e-2);
        assert!((p[1] + 2.0).abs() < 1e-2);
    }

    #[test]
    fn adam_decay_reduces_lr() {
        let mut adam = Adam::new(1, OptimizerConfig { learning_rate: 0.01, decay: 0.5 });
        let mut p = vec![0.0];
        adam.step(&mut p, &[0.0]);
        adam.step(&mut p, &[0.0]);
        assert!((adam.learning_rate() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn adam_skips_nonfinite_gradients() {
        let mut adam = Adam::new(2, OptimizerConfig::default());
        let mut p = vec![1.0, 1.0];
        adam.step(&mut p, &[f64::NAN, 0.0]);
        assert_eq!(p[0], 1.0);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn adam_canonicalizes_zero_sign() {
        // A step that lands a parameter exactly on zero must produce +0.0.
        let mut adam = Adam::new(1, OptimizerConfig { learning_rate: 0.1, decay: 1.0 });
        let mut p = vec![0.0];
        adam.step(&mut p, &[1.0]); // drives p negative
        assert!(p[0] < 0.0);
        let mut q = vec![-0.0];
        let mut adam2 = Adam::new(1, OptimizerConfig { learning_rate: 0.0, decay: 1.0 });
        adam2.step(&mut q, &[0.0]); // zero update on −0.0
        assert!(q[0] == 0.0 && q[0].is_sign_positive(), "got {:?}", q[0]);
    }

    #[test]
    fn projection_normalizes_and_recovers_zero() {
        let mut w = vec![0.0, 0.0];
        project_unit_l2(&mut w);
        let norm: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }
}
