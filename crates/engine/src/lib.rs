//! # gcln-engine — the staged G-CLN inference engine
//!
//! This crate owns the end-to-end invariant-inference machinery of the
//! PLDI 2020 reproduction, decomposed into explicit stages (paper
//! Fig. 3) behind an [`Engine`]/[`Job`] API:
//!
//! - **Trace** — loop-head state collection over sampled inputs
//!   ([`data`]), plus widened-range validation states.
//! - **Train** — the gated-CNF equality model ([`model`]) over the
//!   enumerated term space ([`terms`]), fanned out across restart
//!   attempts.
//! - **Extract** — formula extraction ([`extract`]), exact kernel
//!   completion ([`kernel`]), the fractional-sampling fallback
//!   ([`fractional`]), and PBQU bound learning ([`bounds`]).
//! - **Check** — the invariant checker (`gcln-checker`).
//! - **Cegis** — counterexample feedback into the training data.
//!
//! Jobs carry a deadline, a step budget, and a cooperative
//! [`CancelToken`], and emit structured [`Event`]s that serialize to
//! JSON lines — the substrate for services and drivers that need
//! progress reporting and load shedding rather than an open-loop call.
//!
//! The engine accepts **arbitrary loop programs**, not just the built-in
//! benchmark registries: [`ProblemSpec::from_source`] parses any `.loop`
//! file and auto-derives the configuration (term degree, input ranges,
//! extended terms) that registry problems hand-tune.
//!
//! This crate is the one library entry point: the `gcln` CLI, the
//! scheduler (`gcln-sched`), the HTTP service (`gcln-serve`), the
//! baselines and the experiment harnesses all build [`Job`]s and drive
//! the same [`StagedJob`] machine. [`Engine::run`] is the solo driver
//! (`Engine::new().run(&Job::new(problem).with_config(cfg))` solves one
//! problem); `gcln-sched` interleaves many jobs over a shared pool.
//!
//! # Examples
//!
//! ```no_run
//! use gcln_engine::{Engine, Job, ProblemSpec};
//! let spec = ProblemSpec::from_source_str(
//!     "squares",
//!     "inputs n; pre n >= 0; post x == n * n;
//!      x = 0; i = 0;
//!      while (i < n) { i = i + 1; x = x + 2 * i - 1; }",
//! )?;
//! let outcome = Engine::new().run_with_events(&Job::new(spec), &mut |e| {
//!     println!("{}", e.to_json());
//! });
//! assert!(outcome.valid);
//! # Ok::<(), gcln_engine::SpecError>(())
//! ```

pub mod bounds;
pub mod cache;
pub mod data;
pub mod events;
pub mod extract;
pub mod fractional;
pub mod kernel;
pub mod model;
pub mod run;
pub mod spec;
pub mod staged;
pub mod terms;

pub use cache::{CacheStats, ContentCache, TraceCache, TraceData};
pub use events::{Event, Stage, StopReason};
pub use gcln_checker::CheckReport;
pub use model::{GclnConfig, TrainedGcln};
pub use run::{CancelToken, Engine, InferenceOutcome, Job, LoopInference, PipelineConfig};
pub use spec::{ProblemSpec, SpecError};
pub use staged::{CompletedTask, StagedJob, Step, Task, TaskKind};
pub use terms::TermSpace;
