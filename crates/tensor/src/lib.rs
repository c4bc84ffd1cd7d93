//! # gcln-tensor — autodiff and optimizers for the G-CLN reproduction
//!
//! A from-scratch substitute for the slice of PyTorch the paper uses:
//!
//! - [`tape`]: a batched tape-based reverse-mode autodiff engine with
//!   fused `affine`, `gaussian` and `pbqu_loss` nodes. It trains the CLN
//!   baseline, and it is the bitwise reference that the engine's direct
//!   G-CLN and PBQU training kernels are tested against.
//! - [`fastmath`]: the shared `exp` and canonical reductions that keep
//!   the tape and those kernels bit-identical.
//! - [`optim`]: Adam (the paper's optimizer: lr 0.01, decay 0.9996),
//!   plus the unit-L2 weight projection of §5.1.2.
//! - [`gradcheck`]: finite-difference validation of the reverse pass.
//!
//! # Examples
//!
//! Fit `y = 2x` with Adam:
//!
//! ```
//! use gcln_tensor::{tape::Tape, optim::{Adam, OptimizerConfig}};
//! let mut t = Tape::new();
//! let x = t.input(0);
//! let y = t.input(1);
//! let w = t.param(0);
//! let wx = t.mul(w, x);
//! let e = t.sub(wx, y);
//! let sq = t.square(e);
//! let loss = t.mean_batch(sq);
//! let data = vec![vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]];
//! let mut params = vec![0.0];
//! let mut adam = Adam::new(1, OptimizerConfig { learning_rate: 0.1, decay: 1.0 });
//! for _ in 0..300 {
//!     let (_, g) = t.eval_with_grad(loss, &data, &params);
//!     adam.step(&mut params, &g);
//! }
//! assert!((params[0] - 2.0).abs() < 1e-3);
//! ```

pub mod fastmath;
pub mod gradcheck;
pub mod optim;
pub mod tape;

pub use optim::{Adam, OptimizerConfig};
pub use tape::{Tape, Var};
