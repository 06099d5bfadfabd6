//! # weakset-spec
//!
//! Executable versions of the formal specifications in Wing & Steere,
//! *Specifying Weak Sets* (ICDCS 1995).
//!
//! The paper writes Larch-style specifications for a weak set's `elements`
//! iterator at four points in a design space (its Figures 1, 3, 4, 5, 6)
//! and introduces a `reachable` construct to distinguish an element's
//! *existence* from its *accessibility* under node and network failures.
//! This crate turns those specifications into machine-checkable artifacts:
//!
//! * [`value`] — the LSL-ish value space: [`value::SetValue`] with
//!   `∪`, `−`, `∈`, `⊆`.
//! * [`state`] — the model of computation: states carrying membership and
//!   accessibility, invocations, iterator runs, whole computations, and a
//!   [`state::Recorder`] for capturing them as a system executes.
//! * [`constraint`] — `constraint` clauses checked over all state pairs,
//!   including the paper's relaxed per-run variants.
//! * [`specs`] — one module per figure with its `ensures` clause.
//! * [`checker`] — [`checker::Checker`] replays a computation against a
//!   figure, maintaining the `yielded` history object, and reports every
//!   violation.
//! * [`taxonomy`] — the Garcia-Molina & Wiederhold classification used in
//!   the paper's Section 4, both as the paper's static mapping and as an
//!   empirical classifier over recorded runs.
//!
//! ## Example: checking a hand-recorded run
//!
//! ```
//! use weakset_spec::prelude::*;
//!
//! let st = || State::fully_accessible([1, 2].into());
//! let mut rec = Recorder::new(st());
//! rec.begin_run();
//! rec.record_invocation(st(), Outcome::Yielded(ElemId(1)));
//! rec.record_invocation(st(), Outcome::Yielded(ElemId(2)));
//! rec.record_invocation(st(), Outcome::Returned);
//! rec.end_run();
//! let comp = rec.finish();
//! assert!(check_computation(Figure::Fig1, &comp).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checker;
pub mod constraint;
pub mod explore;
pub mod model;
pub mod render;
pub mod specs;
pub mod state;
pub mod taxonomy;
pub mod value;
pub mod visibility;

/// One-stop imports for specification users.
pub mod prelude {
    pub use crate::checker::{
        check_computation, check_computation_with, Checker, Conformance, Figure, Violation,
    };
    pub use crate::constraint::{ConstraintKind, ConstraintViolation};
    pub use crate::explore::{enumerate, Bounds};
    pub use crate::model::{ModelElements, ModelSet};
    pub use crate::render::{render, render_verdict};
    pub use crate::specs::set_ops::{
        check_add, check_create, check_remove, check_size, classify_transition, validate_history,
        ProcError, Transition,
    };
    pub use crate::specs::{EnsuresCtx, EnsuresError, Strictness};
    pub use crate::state::{Computation, Invocation, IterRun, Outcome, Recorder, State};
    pub use crate::taxonomy::{classify_run, paper_class, Consistency, Currency, QueryClass};
    pub use crate::value::{ElemId, SetValue};
    pub use crate::visibility::{check_execution, AxiomSet, FailureMode, Vintage};
}
