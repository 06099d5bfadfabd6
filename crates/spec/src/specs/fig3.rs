//! Figure 3: immutable set **with failures**.
//!
//! ```text
//! constraint s_i = s_j
//! elements = iter (s: set) yields (e: elem) signals (failure)
//!   remembers yielded: set initially {}
//!   ensures if yielded_pre ⊊ reachable(s_first)
//!           then yielded_post − yielded_pre = {e}
//!                ∧ yielded_post ⊆ s_first
//!                ∧ e ∈ reachable(s_first)
//!                ∧ suspends
//!           else if yielded_pre = reachable(s_first) ∧ yielded_pre ⊊ s_first
//!           then fails
//!           else returns                         % yielded_pre = s_first
//! ```
//!
//! `reachable(s_first)` is the set of elements of the *original* set value
//! that are accessible in the invocation's pre-state. The failure branch is
//! pessimistic: once everything reachable has been yielded but unyielded
//! members remain inaccessible, the iterator signals failure rather than
//! wait for repair.

use super::{expect_fail, expect_return, expect_yield, EnsuresCtx, EnsuresError, Strictness};
use crate::state::Outcome;

/// Checks one invocation against Figure 3's `ensures` clause.
///
/// # Errors
///
/// Returns the specific [`EnsuresError`] describing the deviation.
pub fn check_invocation(ctx: &EnsuresCtx<'_>, outcome: Outcome) -> Result<(), EnsuresError> {
    if outcome == Outcome::Blocked {
        return Err(EnsuresError::BlockNotAllowed);
    }
    // reachable(s_first) evaluated in the pre-state.
    let reach_first = ctx.pre.reachable_of(ctx.s_first);
    let (yield_branch, fail_branch) = match ctx.strictness {
        Strictness::Literal => (
            ctx.yielded_pre.is_strict_subset(&reach_first),
            *ctx.yielded_pre == reach_first && ctx.yielded_pre.is_strict_subset(ctx.s_first),
        ),
        Strictness::Liberal => {
            let unyielded_reachable = !reach_first.difference(ctx.yielded_pre).is_empty();
            let unyielded_members = !ctx.s_first.difference(ctx.yielded_pre).is_empty();
            (
                unyielded_reachable,
                !unyielded_reachable && unyielded_members,
            )
        }
    };
    if yield_branch {
        expect_yield(&reach_first, ctx.yielded_pre, ctx.s_first, outcome)
    } else if fail_branch {
        expect_fail(outcome)
    } else {
        expect_return(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{state, sv};
    use super::*;
    use crate::state::State;
    use crate::value::{ElemId, SetValue};

    fn ctx<'a>(
        s_first: &'a SetValue,
        pre: &'a State,
        yielded: &'a SetValue,
        strictness: Strictness,
    ) -> EnsuresCtx<'a> {
        EnsuresCtx {
            s_first,
            pre,
            yielded_pre: yielded,
            strictness,
        }
    }

    #[test]
    fn yields_only_reachable_elements() {
        let s = sv(&[1, 2, 3]);
        let pre = state(&[1, 2, 3], &[1, 2]); // 3 unreachable
        let y = sv(&[]);
        assert!(check_invocation(
            &ctx(&s, &pre, &y, Strictness::Liberal),
            Outcome::Yielded(ElemId(1))
        )
        .is_ok());
        let r = check_invocation(
            &ctx(&s, &pre, &y, Strictness::Liberal),
            Outcome::Yielded(ElemId(3)),
        );
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { .. })));
    }

    #[test]
    fn fails_when_reachable_exhausted_but_members_remain() {
        let s = sv(&[1, 2, 3]);
        let pre = state(&[1, 2, 3], &[1, 2]);
        let y = sv(&[1, 2]); // everything reachable already yielded
        assert!(check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Failed).is_ok());
        let r = check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Returned);
        assert!(matches!(r, Err(EnsuresError::ExpectedFail { .. })));
    }

    #[test]
    fn returns_when_all_members_yielded() {
        let s = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1, 2]);
        let y = sv(&[1, 2]);
        assert!(
            check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Returned).is_ok()
        );
        let r = check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Failed);
        assert!(matches!(r, Err(EnsuresError::ExpectedReturn { .. })));
    }

    #[test]
    fn heal_reopens_yield_branch() {
        // Reachability returned mid-run: must resume yielding, not fail.
        let s = sv(&[1, 2, 3]);
        let pre = state(&[1, 2, 3], &[1, 2, 3]);
        let y = sv(&[1, 2]);
        let r = check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Failed);
        assert!(matches!(r, Err(EnsuresError::ExpectedYield { .. })));
        assert!(check_invocation(
            &ctx(&s, &pre, &y, Strictness::Liberal),
            Outcome::Yielded(ElemId(3))
        )
        .is_ok());
    }

    #[test]
    fn blocking_never_allowed() {
        let s = sv(&[1]);
        let pre = state(&[1], &[]);
        let y = sv(&[]);
        assert_eq!(
            check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Blocked),
            Err(EnsuresError::BlockNotAllowed)
        );
    }

    #[test]
    fn liberal_and_literal_agree_on_normal_runs() {
        // yielded ⊆ reachable(s_first): the readings coincide.
        let s = sv(&[1, 2, 3]);
        let pre = state(&[1, 2, 3], &[1, 2, 3]);
        for y_ids in [&[][..], &[1][..], &[1, 2][..]] {
            let y = sv(y_ids);
            for outcome in [
                Outcome::Yielded(ElemId(3)),
                Outcome::Returned,
                Outcome::Failed,
            ] {
                let a = check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), outcome).is_ok();
                let b = check_invocation(&ctx(&s, &pre, &y, Strictness::Literal), outcome).is_ok();
                assert_eq!(a, b, "y={y:?} outcome={outcome:?}");
            }
        }
    }

    #[test]
    fn literal_forces_fail_when_yielded_left_reachable_set() {
        // yielded={1}, reachable(s_first)={2}: yielded is NOT a subset of
        // reachable, so the literal reading falls through to the fail
        // branch test: yielded == reachable? no. yielded ⊊ s_first? — the
        // final else expects return. Liberal instead sees an unyielded
        // reachable element (2) and demands a yield.
        let s = sv(&[1, 2]);
        let pre = state(&[1, 2], &[2]);
        let y = sv(&[1]);
        let lit = check_invocation(&ctx(&s, &pre, &y, Strictness::Literal), Outcome::Returned);
        assert!(lit.is_ok());
        let lib = check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Returned);
        assert!(matches!(lib, Err(EnsuresError::ExpectedYield { .. })));
    }

    #[test]
    fn failure_with_everything_reachable_is_rejected() {
        let s = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1, 2]);
        let y = sv(&[]);
        let r = check_invocation(&ctx(&s, &pre, &y, Strictness::Liberal), Outcome::Failed);
        assert!(r.is_err());
    }
}
