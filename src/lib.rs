//! # gcln-repro — facade for the G-CLN (PLDI 2020) reproduction
//!
//! Re-exports every crate in the workspace so examples and integration
//! tests can use a single dependency. See the repository `README.md` for a
//! tour.
//!
//! The interesting entry points:
//!
//! - [`gcln_engine`] — the staged inference engine (trace → train →
//!   extract → check → CEGIS) with jobs, deadlines, cancellation, JSON
//!   events, and arbitrary-program specs
//!   ([`gcln_engine::ProblemSpec::from_source`]).
//! - [`gcln::pipeline`] — the legacy one-call wrapper over the engine.
//! - [`gcln_problems`] — the 27-problem NLA nonlinear benchmark and the
//!   124-problem linear suite.
//! - [`gcln_checker`] — the invariant checker (Z3 substitute).
//! - [`gcln_sched`] — the stage-graph scheduler interleaving many jobs
//!   across one shared worker pool.

pub use gcln;
pub use gcln_baselines;
pub use gcln_checker;
pub use gcln_engine;
pub use gcln_lang;
pub use gcln_logic;
pub use gcln_numeric;
pub use gcln_problems;
pub use gcln_sched;
pub use gcln_serve;
pub use gcln_tensor;
