//! Figure 6: growing and shrinking set, **optimistic** failure handling —
//! the weakest point in the design space and the semantics of the dynamic
//! sets the authors implemented.
//!
//! ```text
//! constraint true
//! elements = iter (s: set) yields (e: elem)
//!   remembers yielded: set initially {}
//!   ensures if ∃ e ∈ s_pre : e ∉ yielded_pre
//!           then yielded_post − yielded_pre = {e}
//!                ∧ e ∈ reachable(s_pre)
//!                ∧ suspends
//!           else returns
//! ```
//!
//! There is no `signals (failure)` clause at all: the iterator is
//! optimistic, *blocking* when every unyielded member is unreachable, "with
//! the expectation that in a later invocation inaccessible objects will
//! become accessible again". A blocked invocation is recorded as
//! [`Outcome::Blocked`]; it is legal exactly while the then-branch holds
//! (returning would be wrong, failing is not in the signature).
//!
//! Every yielded element was a member of the set in the invocation's
//! pre-state, so a fortiori "in the set, for some state of the set between
//! the first-state and last-state" (§3.4). [`yields_were_members`] checks
//! that derived property over a whole computation.

use super::{expect_return, expect_yield, EnsuresCtx, EnsuresError};
use crate::state::{Computation, IterRun, Outcome};
use crate::value::ElemId;

/// Checks one invocation against Figure 6's `ensures` clause.
///
/// Both strictness modes agree here: the figure's branch condition is
/// already existential (`∃ e ∈ s_pre : e ∉ yielded_pre`).
///
/// # Errors
///
/// Returns the specific [`EnsuresError`] describing the deviation.
pub fn check_invocation(ctx: &EnsuresCtx<'_>, outcome: Outcome) -> Result<(), EnsuresError> {
    if outcome == Outcome::Failed {
        return Err(EnsuresError::FailureNotAllowed);
    }
    let s_pre = &ctx.pre.members;
    let unyielded = s_pre.difference(ctx.yielded_pre);
    if !unyielded.is_empty() {
        if outcome == Outcome::Blocked {
            // Legal: the iterator may not complete while it cannot reach an
            // unyielded member. (Safety cannot force progress; liveness is
            // exercised by the availability experiments.)
            return Ok(());
        }
        let reach_pre = ctx.pre.reachable_now();
        expect_yield(&reach_pre, ctx.yielded_pre, s_pre, outcome)
    } else {
        expect_return(outcome)
    }
}

/// The §3.4 derived property: every element yielded by `run` was a member
/// of the set in some state between the run's first-state and last-state.
pub fn yields_were_members(comp: &Computation, run: &IterRun) -> bool {
    phantom_yields(comp, run).next().is_none()
}

/// The yields of `run`, in order, that break [`yields_were_members`]: the
/// one definition of §3.4's rule, which the visibility checker reports as
/// its phantom-yield axiom.
pub fn phantom_yields<'a>(
    comp: &'a Computation,
    run: &'a IterRun,
) -> impl Iterator<Item = ElemId> + 'a {
    run.yields()
        .into_iter()
        .filter(|&e| !comp.was_member_between(e, run.first, run.last()))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{state, sv};
    use super::super::Strictness;
    use super::*;
    use crate::state::{Invocation, State};
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
    fn yields_current_members_only() {
        let s_first = sv(&[1]);
        let pre = state(&[2, 3], &[2, 3]); // 1 was removed, 2 and 3 added
        let y = sv(&[1]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Yielded(ElemId(2))).is_ok());
        // 1 is no longer a member: yielding it again is impossible anyway
        // (already yielded), but yielding some removed element 9 is illegal.
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Yielded(ElemId(9)));
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { .. })));
    }

    #[test]
    fn blocks_while_unyielded_members_unreachable() {
        let s_first = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1]); // 2 unreachable
        let y = sv(&[1]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Blocked).is_ok());
        // Returning would claim the set is drained — it is not.
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Returned);
        assert!(matches!(r, Err(EnsuresError::ExpectedYield { .. })));
    }

    #[test]
    fn never_fails() {
        let s_first = sv(&[1]);
        let pre = state(&[1], &[]);
        let y = sv(&[]);
        assert_eq!(
            check_invocation(&ctx(&s_first, &pre, &y), Outcome::Failed),
            Err(EnsuresError::FailureNotAllowed)
        );
    }

    #[test]
    fn returns_when_all_current_members_yielded() {
        // yielded can even exceed s_pre after deletions.
        let s_first = sv(&[1, 2, 3]);
        let pre = state(&[1], &[1]);
        let y = sv(&[1, 2, 3]);
        assert!(check_invocation(&ctx(&s_first, &pre, &y), Outcome::Returned).is_ok());
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Blocked);
        assert!(matches!(r, Err(EnsuresError::ExpectedReturn { .. })));
    }

    #[test]
    fn yield_must_be_reachable() {
        let s_first = sv(&[1, 2]);
        let pre = state(&[1, 2], &[1]);
        let y = sv(&[]);
        let r = check_invocation(&ctx(&s_first, &pre, &y), Outcome::Yielded(ElemId(2)));
        assert!(matches!(r, Err(EnsuresError::YieldNotAllowed { .. })));
    }

    #[test]
    fn derived_membership_property_holds_and_detects_violations() {
        let mut comp = Computation::starting_at(State::fully_accessible(sv(&[1])));
        comp.push_state(State::fully_accessible(sv(&[1, 2])));
        comp.push_state(State::fully_accessible(sv(&[2])));
        let good = IterRun {
            first: 0,
            invocations: vec![
                Invocation {
                    pre: 0,
                    post: 1,
                    outcome: Outcome::Yielded(ElemId(1)),
                },
                Invocation {
                    pre: 1,
                    post: 2,
                    outcome: Outcome::Yielded(ElemId(2)),
                },
            ],
        };
        assert!(yields_were_members(&comp, &good));
        let bad = IterRun {
            first: 0,
            invocations: vec![Invocation {
                pre: 0,
                post: 1,
                outcome: Outcome::Yielded(ElemId(99)),
            }],
        };
        assert!(!yields_were_members(&comp, &bad));
    }
}
