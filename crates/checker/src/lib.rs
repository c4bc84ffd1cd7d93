//! # gcln-checker — invariant validation (the reproduction's Z3 substitute)
//!
//! Validates candidate loop invariants against the three Hoare conditions
//! of §2.1 and supplies the counterexamples that drive the CEGIS loop of
//! Fig. 3:
//!
//! - [`check()`](check()): trace-based initiation, symbolic (Gröbner ideal
//!   membership) + bounded consecution, and bounded postcondition
//!   sufficiency.
//! - [`transition`]: extraction of polynomial transition maps from loop
//!   bodies, feeding the symbolic phase.
//! - [`implication`]: strength comparison against ground-truth invariants
//!   (used by the Table 2 "solved" criterion).
//!
//! Soundness posture: equality consecution is
//! *proved* when the Gröbner phase succeeds; everything else is bounded
//! checking over sampled inputs, trace states, and mutations — the same
//! counterexample-driven regime the paper gets from Z3, minus the
//! unbounded quantifier reasoning that Z3 provides.

pub mod check;
pub mod implication;
pub mod transition;

pub use check::{
    check, has_nondet, immutable_pre_conjuncts, project_to_program, Candidate, CexKind,
    CheckReport, Counterexample,
};
pub use implication::{equalities_imply, equality_polys, implies_bounded};
pub use transition::transition_paths;
