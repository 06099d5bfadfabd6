//! Figure 5: growing-only set, **pessimistic** failure handling.
//!
//! ```text
//! constraint s_i ⊆ s_j
//! elements = iter (s: set) yields (e: elem) signals (failure)
//!   remembers yielded: set initially {}
//!   ensures if yielded_pre ⊊ reachable(s_pre)
//!           then yielded_post − yielded_pre = {e}
//!                ∧ yielded_post ⊆ s_pre
//!                ∧ e ∈ reachable(s_pre)
//!                ∧ suspends
//!           else if yielded_pre = s_pre
//!           then returns
//!           else fails
//! ```
//!
//! Unlike Figures 3 and 4, each invocation consults the **current** state
//! of the set (`s_pre`), so additions made while iterating are picked up.
//! If a known member cannot be reached, the iterator fails immediately
//! (pessimism). Because the set may grow faster than the iterator drains
//! it, a conforming iterator need never terminate — the specification
//! permits unbounded runs.

use super::{expect_fail, expect_return, expect_yield, EnsuresCtx, EnsuresError, Strictness};
use crate::state::Outcome;

/// Checks one invocation against Figure 5's `ensures` clause.
///
/// # Errors
///
/// Returns the specific [`EnsuresError`] describing the deviation.
pub fn check_invocation(ctx: &EnsuresCtx<'_>, outcome: Outcome) -> Result<(), EnsuresError> {
    if outcome == Outcome::Blocked {
        return Err(EnsuresError::BlockNotAllowed);
    }
    let s_pre = &ctx.pre.members;
    let reach_pre = ctx.pre.reachable_now();
    let (yield_branch, return_branch) = match ctx.strictness {
        Strictness::Literal => (
            ctx.yielded_pre.is_strict_subset(&reach_pre),
            *ctx.yielded_pre == *s_pre,
        ),
        Strictness::Liberal => {
            let unyielded_reachable = !reach_pre.difference(ctx.yielded_pre).is_empty();
            let unyielded_members = !s_pre.difference(ctx.yielded_pre).is_empty();
            (unyielded_reachable, !unyielded_members)
        }
    };
    if yield_branch {
        expect_yield(&reach_pre, ctx.yielded_pre, s_pre, outcome)
    } else if return_branch {
        expect_return(outcome)
    } else {
        expect_fail(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{state, sv};
    use super::*;
    use crate::state::State;
    use crate::value::{ElemId, SetValue};

    fn ctx<'a>(s_first: &'a SetValue, pre: &'a State, yielded: &'a SetValue) -> EnsuresCtx<'a> {
        EnsuresCtx {
            s_first,
            pre,
            yielded_pre: yielded,
            strictness: Strictness::Liberal,
        }
    }

    #[test]
    fn picks_up_growth_after_first_state() {
        // s_first was {1}; the set has grown to {1, 2}. Unlike Figure 4,
        // yielding 2 is required here.
        let s_first = sv(&[1]);
        let pre = state(&[1, 2], &[1, 2]);
        let y = sv(&[1]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Yielded(ElemId(2))).is_ok());
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Returned);
        assert!(matches!(r, Err(EnsuresError::ExpectedYield { .. })));
    }

    #[test]
    fn fails_pessimistically_on_unreachable_member() {
        let s_first = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1]); // 2 exists but unreachable
        let y = sv(&[1]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Failed).is_ok());
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Blocked);
        assert_eq!(r, Err(EnsuresError::BlockNotAllowed));
    }

    #[test]
    fn returns_only_when_current_members_exhausted() {
        let s_first = sv(&[1]);
        let pre = state(&[1, 2], &[1, 2]);
        let all = sv(&[1, 2]);
        assert!(check_invocation(&ctx(&s_first, &pre, &all), Outcome::Returned).is_ok());
    }

    #[test]
    fn yield_must_be_reachable_now() {
        let s_first = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1]);
        let y = sv(&[]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Yielded(ElemId(1))).is_ok());
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Yielded(ElemId(2)));
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { .. })));
    }

    #[test]
    fn empty_current_set_returns() {
        let s_first = sv(&[]);
        let pre = state(&[], &[]);
        let y = sv(&[]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Returned).is_ok());
    }

    #[test]
    fn literal_matches_liberal_under_invariant() {
        let s_first = sv(&[1, 2]);
        let pre = state(&[1, 2, 3], &[1, 2, 3]);
        for y_ids in [&[][..], &[1][..], &[1, 2, 3][..]] {
            let y = sv(y_ids);
            for outcome in [
                Outcome::Yielded(ElemId(3)),
                Outcome::Returned,
                Outcome::Failed,
            ] {
                let mut c = ctx(&s_first, &pre, &y);
                c.strictness = Strictness::Liberal;
                let a = check_invocation(&c, outcome).is_ok();
                c.strictness = Strictness::Literal;
                let b = check_invocation(&c, outcome).is_ok();
                assert_eq!(a, b, "y={y:?} outcome={outcome:?}");
            }
        }
    }
}
