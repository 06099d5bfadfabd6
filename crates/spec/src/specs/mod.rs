//! Executable `ensures` clauses, one module per figure of the paper.
//!
//! Each module exports `check_invocation`, the per-invocation post-condition
//! of that figure's `elements` iterator. The checker in [`crate::checker`]
//! folds these over a recorded [`crate::state::Computation`], maintaining
//! the `yielded` history object exactly as the `remembers` clause
//! prescribes.
//!
//! # Strictness
//!
//! The figures express "still more to yield" as a *strict-subset* test,
//! e.g. `yielded_pre ⊊ reachable(s_first)`. When accessibility can shrink
//! mid-run, `yielded` may cease to be a subset of the reachable set even
//! though unyielded reachable elements remain; the strict-subset test is
//! then false and the figure (read literally) forces a failure. The paper's
//! prose ("if there are still elements to yield ... we choose a reachable
//! one") makes the intent clear, so the default [`Strictness::Liberal`]
//! mode tests for the *existence of an unyielded allowed element* instead.
//! The two readings coincide whenever `yielded_pre` is a subset of the
//! branch's bounding set — which holds in every run the constraint and a
//! non-shrinking accessibility admit. [`Strictness::Literal`] checks the
//! figures exactly as written, for studying that corner.

pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod set_ops;

use crate::state::{Outcome, State};
use crate::value::{ElemId, SetValue};
use std::fmt;

/// How to read the figures' branch conditions (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Branch on "an unyielded allowed element exists" (the paper's intent).
    #[default]
    Liberal,
    /// Branch on the strict-subset/equality tests exactly as written.
    Literal,
}

/// Inputs to a per-invocation `ensures` check.
#[derive(Clone, Debug)]
pub struct EnsuresCtx<'a> {
    /// `s_first`: the set's value in the state where the iterator was first
    /// called.
    pub s_first: &'a SetValue,
    /// The invocation's pre-state (value and accessibility).
    pub pre: &'a State,
    /// The `yielded` history object's value entering this invocation.
    pub yielded_pre: &'a SetValue,
    /// Condition-reading mode.
    pub strictness: Strictness,
}

/// Why an invocation violates an `ensures` clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnsuresError {
    /// The spec requires yielding, but the outcome was something else.
    ExpectedYield {
        /// The set of elements the spec would have allowed.
        allowed: SetValue,
        /// What happened instead.
        got: Outcome,
    },
    /// An element was yielded that the spec does not allow here.
    YieldNotAllowed {
        /// The yielded element.
        elem: ElemId,
        /// The set of elements that would have been allowed.
        allowed: SetValue,
    },
    /// The spec requires normal termination, but the outcome differs.
    ExpectedReturn {
        /// What happened instead.
        got: Outcome,
    },
    /// The spec requires the failure exception, but the outcome differs.
    ExpectedFail {
        /// What happened instead.
        got: Outcome,
    },
    /// `yielded_post ⊆ bound` was violated by this yield.
    PostNotSubset {
        /// The yielded element.
        elem: ElemId,
        /// The bounding set (`s_first` or `s_pre`).
        bound: SetValue,
    },
    /// This figure's iterator never signals failure, but it failed.
    FailureNotAllowed,
    /// Blocking is not permitted by this figure (pessimistic semantics).
    BlockNotAllowed,
}

impl fmt::Display for EnsuresError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsuresError::ExpectedYield { allowed, got } => {
                write!(f, "expected a yield from {allowed}, got {got:?}")
            }
            EnsuresError::YieldNotAllowed { elem, allowed } => {
                write!(f, "yielded {elem} but only {allowed} is allowed")
            }
            EnsuresError::ExpectedReturn { got } => {
                write!(f, "expected normal termination, got {got:?}")
            }
            EnsuresError::ExpectedFail { got } => {
                write!(f, "expected the failure exception, got {got:?}")
            }
            EnsuresError::PostNotSubset { elem, bound } => {
                write!(f, "yielding {elem} breaks yielded ⊆ {bound}")
            }
            EnsuresError::FailureNotAllowed => {
                write!(f, "this semantics never signals failure")
            }
            EnsuresError::BlockNotAllowed => {
                write!(f, "this semantics never blocks")
            }
        }
    }
}

impl std::error::Error for EnsuresError {}

/// Shared "yield branch" logic: the outcome must be `Yielded(e)` with
/// `e ∈ allowed ∖ yielded_pre`, and the yield must keep `yielded ⊆ bound`.
pub(crate) fn expect_yield(
    allowed: &SetValue,
    yielded_pre: &SetValue,
    bound: &SetValue,
    outcome: Outcome,
) -> Result<(), EnsuresError> {
    let eligible = allowed.difference(yielded_pre);
    match outcome {
        Outcome::Yielded(e) => {
            if !eligible.contains(e) {
                return Err(EnsuresError::YieldNotAllowed {
                    elem: e,
                    allowed: eligible,
                });
            }
            if !bound.contains(e) {
                return Err(EnsuresError::PostNotSubset {
                    elem: e,
                    bound: bound.clone(),
                });
            }
            Ok(())
        }
        got => Err(EnsuresError::ExpectedYield {
            allowed: eligible,
            got,
        }),
    }
}

/// The `returns` branch: the outcome must be normal termination.
pub(crate) fn expect_return(outcome: Outcome) -> Result<(), EnsuresError> {
    match outcome {
        Outcome::Returned => Ok(()),
        got => Err(EnsuresError::ExpectedReturn { got }),
    }
}

/// The `signals (failure)` branch: the outcome must be the failure
/// exception.
pub(crate) fn expect_fail(outcome: Outcome) -> Result<(), EnsuresError> {
    match outcome {
        Outcome::Failed => Ok(()),
        got => Err(EnsuresError::ExpectedFail { got }),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    pub fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    pub fn state(members: &[u64], accessible: &[u64]) -> State {
        State {
            members: sv(members),
            accessible: sv(accessible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sv;
    use super::*;

    #[test]
    fn expect_yield_accepts_eligible_element() {
        let r = expect_yield(
            &sv(&[1, 2]),
            &sv(&[1]),
            &sv(&[1, 2, 3]),
            Outcome::Yielded(ElemId(2)),
        );
        assert!(r.is_ok());
    }

    #[test]
    fn expect_yield_rejects_already_yielded() {
        let r = expect_yield(
            &sv(&[1, 2]),
            &sv(&[1]),
            &sv(&[1, 2]),
            Outcome::Yielded(ElemId(1)),
        );
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { elem, .. }) if elem == ElemId(1)));
    }

    #[test]
    fn expect_yield_rejects_foreign_element() {
        let r = expect_yield(&sv(&[1]), &sv(&[]), &sv(&[1]), Outcome::Yielded(ElemId(7)));
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { .. })));
    }

    #[test]
    fn expect_yield_rejects_non_yield() {
        let r = expect_yield(&sv(&[1]), &sv(&[]), &sv(&[1]), Outcome::Returned);
        assert!(matches!(r, Err(EnsuresError::ExpectedYield { .. })));
    }

    #[test]
    fn errors_display() {
        let e = EnsuresError::FailureNotAllowed;
        assert!(e.to_string().contains("never signals failure"));
        let e = EnsuresError::YieldNotAllowed {
            elem: ElemId(3),
            allowed: sv(&[1]),
        };
        assert!(e.to_string().contains("e3"));
    }
}
