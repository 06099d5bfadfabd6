//! Figure 1: immutable set, failures ignored.
//!
//! ```text
//! constraint s_i = s_j                          % set is immutable
//! elements = iter (s: set) yields (e: elem)
//!   remembers yielded: set initially {}
//!   ensures if yielded_pre ⊊ s_first            % still more to yield
//!           then yielded_post − yielded_pre = {e}
//!                ∧ yielded_post ⊆ s_first
//!                ∧ e ∈ s_first − yielded_pre
//!                ∧ suspends
//!           else returns                        % yielded_pre = s_first
//! ```
//!
//! There is no failure case: every element of `s_first` is eventually
//! yielded exactly once, then the iterator terminates normally.

use super::{expect_return, expect_yield, EnsuresCtx, EnsuresError, Strictness};
use crate::state::Outcome;

/// Checks one invocation against Figure 1's `ensures` clause.
///
/// # Errors
///
/// Returns the specific [`EnsuresError`] describing how the observed
/// `outcome` deviates from the clause.
pub fn check_invocation(ctx: &EnsuresCtx<'_>, outcome: Outcome) -> Result<(), EnsuresError> {
    if outcome == Outcome::Failed {
        return Err(EnsuresError::FailureNotAllowed);
    }
    if outcome == Outcome::Blocked {
        return Err(EnsuresError::BlockNotAllowed);
    }
    let more_to_yield = match ctx.strictness {
        Strictness::Literal => ctx.yielded_pre.is_strict_subset(ctx.s_first),
        Strictness::Liberal => !ctx.s_first.difference(ctx.yielded_pre).is_empty(),
    };
    if more_to_yield {
        expect_yield(ctx.s_first, ctx.yielded_pre, ctx.s_first, outcome)
    } else {
        expect_return(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{state, sv};
    use super::*;
    use crate::value::ElemId;

    fn ctx<'a>(
        s_first: &'a crate::value::SetValue,
        pre: &'a crate::state::State,
        yielded: &'a crate::value::SetValue,
    ) -> EnsuresCtx<'a> {
        EnsuresCtx {
            s_first,
            pre,
            yielded_pre: yielded,
            strictness: Strictness::Liberal,
        }
    }

    #[test]
    fn yields_unyielded_element() {
        let s = sv(&[1, 2, 3]);
        let pre = state(&[1, 2, 3], &[1, 2, 3]);
        let y = sv(&[1]);
        assert!(check_invocation(&ctx(&s, &pre, &y), Outcome::Yielded(ElemId(2))).is_ok());
    }

    #[test]
    fn rejects_duplicate_yield() {
        let s = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1, 2]);
        let y = sv(&[1]);
        let r = check_invocation(&ctx(&s, &pre, &y), Outcome::Yielded(ElemId(1)));
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { .. })));
    }

    #[test]
    fn rejects_early_return() {
        let s = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1, 2]);
        let y = sv(&[1]);
        let r = check_invocation(&ctx(&s, &pre, &y), Outcome::Returned);
        assert!(matches!(r, Err(EnsuresError::ExpectedYield { .. })));
    }

    #[test]
    fn requires_return_when_exhausted() {
        let s = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1, 2]);
        let y = sv(&[1, 2]);
        assert!(check_invocation(&ctx(&s, &pre, &y), Outcome::Returned).is_ok());
        let r = check_invocation(&ctx(&s, &pre, &y), Outcome::Yielded(ElemId(1)));
        assert!(matches!(r, Err(EnsuresError::ExpectedReturn { .. })));
    }

    #[test]
    fn failure_never_allowed() {
        let s = sv(&[1]);
        let pre = state(&[1], &[]);
        let y = sv(&[]);
        let r = check_invocation(&ctx(&s, &pre, &y), Outcome::Failed);
        assert_eq!(r, Err(EnsuresError::FailureNotAllowed));
    }

    #[test]
    fn blocking_never_allowed() {
        let s = sv(&[1]);
        let pre = state(&[1], &[1]);
        let y = sv(&[]);
        let r = check_invocation(&ctx(&s, &pre, &y), Outcome::Blocked);
        assert_eq!(r, Err(EnsuresError::BlockNotAllowed));
    }

    #[test]
    fn ignores_reachability_entirely() {
        // Figure 1 predates the failure model: even with nothing accessible
        // the spec still demands a yield from s_first.
        let s = sv(&[1]);
        let pre = state(&[1], &[]);
        let y = sv(&[]);
        assert!(check_invocation(&ctx(&s, &pre, &y), Outcome::Yielded(ElemId(1))).is_ok());
    }

    #[test]
    fn empty_set_returns_immediately() {
        let s = sv(&[]);
        let pre = state(&[], &[]);
        let y = sv(&[]);
        assert!(check_invocation(&ctx(&s, &pre, &y), Outcome::Returned).is_ok());
    }
}
