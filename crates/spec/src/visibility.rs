//! A visibility/arbitration view of the paper's specifications.
//!
//! Following Krishna/Emmi/Enea/Jovanović ("Verifying Visibility-Based Weak
//! Consistency"), an execution is judged as a triple: the *operations*
//! (the invocations of a recorded [`Computation`]), a *visibility relation*
//! (which membership state, filtered by accessibility, an invocation is
//! allowed to act on), and an *arbitration relation* (the total order of
//! membership states the recorder logged, constrained by the figure's
//! `constraint` clause). Each of the paper's figures is then one
//! [`AxiomSet`] — a choice of
//!
//! * **vintage** — which state's membership is visible: the run's
//!   first-state ([`Vintage::First`], Figures 1/3/4) or the invocation's
//!   pre-state ([`Vintage::Pre`], Figures 5/6);
//! * **failure axioms** — how inaccessibility restricts visibility and
//!   which escape hatch the iterator gets: [`FailureMode::Total`]
//!   (Figure 1: accessibility is ignored, neither failing nor blocking is
//!   in the signature), [`FailureMode::Pessimistic`] (Figures 3/4/5: only
//!   reachable members are visible, exhausting them *fails*),
//!   [`FailureMode::Optimistic`] (Figure 6: only reachable members are
//!   visible, exhausting them *blocks*);
//! * **arbitration** — the [`ConstraintKind`] every pair of arbitrated
//!   states must satisfy;
//! * an optional **session floor** — elements whose visibility a causal
//!   session demands (session-order ⊆ visibility): a run may not claim the
//!   set is drained while a session dependency was never yielded.
//!
//! Two axioms apply to every figure:
//!
//! * *visibility soundness* (§3.4): every yielded element was a member of
//!   the set in some arbitrated state between the run's first-state and
//!   last-state. For Figures 1/3/4/5 this is a theorem of the `ensures`
//!   clauses. It has one definition, [`fig6::phantom_yields`]: this
//!   module reports every phantom yield it finds, and Figure 6's
//!   [`fig6::yields_were_members`] tests that there is none.
//! * *structure*: state indices are monotone and in bounds, and no
//!   invocation follows a terminal outcome.
//!
//! [`check_execution`] is the computation walk the per-figure
//! [`Checker`](crate::checker::Checker) also runs — arbitration, structure
//! and the `yielded` history object — with this module's generic `ensures`
//! clause as its per-invocation rule, plus the soundness and session axioms
//! for every well-formed run. It returns the same [`Conformance`], and uses
//! the liberal reading of the branch conditions (see [`crate::specs`])
//! throughout. `weakset-dst`'s oracle instantiates every figure through
//! this module.

use crate::checker::{walk, Conformance, Figure, Violation};
use crate::constraint::ConstraintKind;
use crate::specs::{
    expect_fail, expect_return, expect_yield, fig6, EnsuresCtx, EnsuresError, Strictness,
};
use crate::state::{Computation, Outcome};
use crate::value::SetValue;

/// Which state's membership an invocation is allowed to see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vintage {
    /// The run's first-state (`s_first`): snapshot vintages, Figures 1/3/4.
    First,
    /// The invocation's pre-state (`s_pre`): current vintages, Figures 5/6.
    Pre,
}

/// How inaccessibility restricts visibility, and the escape hatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureMode {
    /// Accessibility is ignored entirely — every member of the vintage is
    /// visible, and neither `fails` nor blocking is in the signature
    /// (Figure 1 predates the failure model).
    Total,
    /// Only reachable members are visible; when they are exhausted but
    /// unyielded members remain, the iterator must signal failure
    /// (Figures 3/4/5).
    Pessimistic,
    /// Only reachable members are visible; while unyielded members remain
    /// the iterator may block instead of yielding, and it never fails
    /// (Figure 6).
    Optimistic,
}

/// One figure expressed as visibility/arbitration axioms.
#[derive(Clone, Debug, PartialEq)]
pub struct AxiomSet {
    /// The figure this axiom set instantiates; it fixes the
    /// [`vintage`](Self::vintage) and the [`failure`](Self::failure) axioms.
    pub figure: Figure,
    /// Arbitration constraint over the logged state order.
    pub arbitration: ConstraintKind,
    /// Causal-session floor: elements whose visibility the session
    /// requires. Empty when no session guarantee is being checked.
    pub session_floor: SetValue,
}

impl AxiomSet {
    /// The axiom set of a figure with its canonical constraint.
    pub fn for_figure(figure: Figure) -> Self {
        AxiomSet {
            figure,
            arbitration: figure.constraint(),
            session_floor: SetValue::empty(),
        }
    }

    /// Visibility vintage, fixed by the figure.
    pub fn vintage(&self) -> Vintage {
        match self.figure {
            Figure::Fig1 | Figure::Fig3 | Figure::Fig4 => Vintage::First,
            Figure::Fig5 | Figure::Fig6 => Vintage::Pre,
        }
    }

    /// Failure axioms, fixed by the figure.
    pub fn failure(&self) -> FailureMode {
        match self.figure {
            Figure::Fig1 => FailureMode::Total,
            Figure::Fig3 | Figure::Fig4 | Figure::Fig5 => FailureMode::Pessimistic,
            Figure::Fig6 => FailureMode::Optimistic,
        }
    }

    /// Overrides the arbitration constraint (the relaxed §3.1/§3.3 per-run
    /// readings).
    #[must_use]
    pub fn with_arbitration(mut self, c: ConstraintKind) -> Self {
        self.arbitration = c;
        self
    }

    /// Adds a causal-session floor: a terminated run must have made every
    /// element of `floor` visible (yielded it) unless arbitration removed
    /// it first.
    #[must_use]
    pub fn with_session_floor(mut self, floor: SetValue) -> Self {
        self.session_floor = floor;
        self
    }

    /// The generic `ensures` clause, parameterized by the vintage and the
    /// failure axioms (liberal reading — see [`crate::specs`] module docs).
    fn check_invocation(&self, ctx: &EnsuresCtx<'_>, outcome: Outcome) -> Result<(), EnsuresError> {
        let yielded = ctx.yielded_pre;
        // The visibility relation: which members this invocation may see.
        let base = match self.vintage() {
            Vintage::First => ctx.s_first.clone(),
            Vintage::Pre => ctx.pre.members.clone(),
        };
        let failure = self.failure();
        let visible = match failure {
            FailureMode::Total => base.clone(),
            FailureMode::Pessimistic | FailureMode::Optimistic => ctx.pre.reachable_of(&base),
        };
        let eligible = visible.difference(yielded);
        let unyielded = base.difference(yielded);
        match (failure, outcome) {
            (FailureMode::Total | FailureMode::Optimistic, Outcome::Failed) => {
                return Err(EnsuresError::FailureNotAllowed)
            }
            (FailureMode::Total | FailureMode::Pessimistic, Outcome::Blocked) => {
                return Err(EnsuresError::BlockNotAllowed)
            }
            _ => {}
        }
        if unyielded.is_empty() {
            return expect_return(outcome);
        }
        match failure {
            FailureMode::Optimistic if outcome == Outcome::Blocked => Ok(()),
            FailureMode::Pessimistic if eligible.is_empty() => expect_fail(outcome),
            _ => expect_yield(&visible, yielded, &base, outcome),
        }
    }
}

/// Checks one recorded computation against an axiom set: the walk
/// [`Checker`](crate::checker::Checker) also runs, with the generic
/// `ensures` clause, then, for every well-formed run, visibility soundness
/// and the session axiom.
pub fn check_execution(axioms: &AxiomSet, comp: &Computation) -> Conformance {
    walk(
        comp,
        axioms.arbitration,
        Strictness::Liberal,
        |ctx, outcome| axioms.check_invocation(ctx, outcome),
        |ri, run, yielded, end, out| {
            // Visibility soundness (§3.4): every yield was an arbitrated
            // member at some state within the run's span.
            out.extend(
                fig6::phantom_yields(comp, run)
                    .map(|elem| Violation::PhantomYield { run: ri, elem }),
            );
            // Session axiom (session-order ⊆ visibility): a run that claims
            // the set is drained must have yielded every session dependency.
            if end == Some(Outcome::Returned) && !axioms.session_floor.is_empty() {
                let missing = axioms.session_floor.difference(yielded);
                if !missing.is_empty() {
                    out.push(Violation::SessionHidden { run: ri, missing });
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_computation_with;
    use crate::explore::{enumerate, Bounds};
    use crate::state::{Invocation, IterRun, Recorder, State};
    use crate::value::ElemId;

    fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    /// Every figure × constraint: the axiom instantiation agrees with the
    /// per-figure checker on every enumerated small computation.
    #[test]
    fn differential_against_per_figure_checkers() {
        let comps = enumerate(Bounds::default());
        let constraints = [
            None,
            Some(ConstraintKind::None),
            Some(ConstraintKind::Immutable),
            Some(ConstraintKind::GrowOnly),
            Some(ConstraintKind::ImmutableDuringRuns),
            Some(ConstraintKind::GrowOnlyDuringRuns),
        ];
        let mut checked = 0usize;
        for comp in &comps {
            for fig in Figure::ALL {
                for c in constraints {
                    let constraint = c.unwrap_or_else(|| fig.constraint());
                    let classic = check_computation_with(fig, constraint, comp);
                    let axioms = AxiomSet::for_figure(fig).with_arbitration(constraint);
                    let vis = check_execution(&axioms, comp);
                    // The new checker may add PhantomYield violations the
                    // classic one cannot express; apart from those the
                    // verdicts must agree exactly.
                    let vis_classic: Vec<_> = vis
                        .violations
                        .iter()
                        .filter(|v| !matches!(v, Violation::PhantomYield { .. }))
                        .cloned()
                        .collect();
                    assert_eq!(
                        classic.violations, vis_classic,
                        "{fig} {constraint:?} on {comp:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "only {checked} comparisons ran");
    }

    #[test]
    fn fig1_axioms_ignore_reachability() {
        // Nothing accessible, yet Figure 1 still demands the yield.
        let st = || State {
            members: sv(&[1]),
            accessible: sv(&[]),
        };
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Returned);
        r.end_run();
        let comp = r.finish();
        check_execution(&AxiomSet::for_figure(Figure::Fig1), &comp).assert_ok();
        // Figure 3's axioms (visibility filtered by accessibility) reject
        // the same run.
        assert!(!check_execution(&AxiomSet::for_figure(Figure::Fig3), &comp).is_ok());
    }

    #[test]
    fn phantom_yield_is_reported_for_every_figure() {
        // e99 was never a member in any state: the §3.4 soundness axiom
        // fires regardless of figure.
        let mut comp = Computation::starting_at(State::fully_accessible(sv(&[1])));
        comp.push_state(State::fully_accessible(sv(&[1])));
        comp.runs.push(IterRun {
            first: 0,
            invocations: vec![Invocation {
                pre: 0,
                post: 1,
                outcome: Outcome::Yielded(ElemId(99)),
            }],
        });
        for fig in Figure::ALL {
            let conf = check_execution(&AxiomSet::for_figure(fig), &comp);
            assert!(
                conf.violations.iter().any(
                    |v| matches!(v, Violation::PhantomYield { elem, .. } if *elem == ElemId(99))
                ),
                "{fig}: {conf:?}"
            );
        }
    }

    #[test]
    fn session_floor_flags_a_drained_run_that_hid_a_dependency() {
        // The session observed e2, but the run returned having yielded
        // only e1 — a read-your-writes violation.
        let st = || State::fully_accessible(sv(&[1]));
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Returned);
        r.end_run();
        let comp = r.finish();
        let ax = AxiomSet::for_figure(Figure::Fig6).with_session_floor(sv(&[1, 2]));
        let conf = check_execution(&ax, &comp);
        assert!(
            conf.violations.iter().any(|v| matches!(
                v,
                Violation::SessionHidden { missing, .. } if missing.contains(ElemId(2))
            )),
            "{conf:?}"
        );
        // Satisfied floor: no violation.
        let ax = AxiomSet::for_figure(Figure::Fig6).with_session_floor(sv(&[1]));
        check_execution(&ax, &comp).assert_ok();
    }

    #[test]
    fn session_floor_is_vacuous_for_unfinished_runs() {
        // A run that blocked (or failed) never claimed the set was
        // drained, so the floor does not apply.
        let st = || State {
            members: sv(&[1, 2]),
            accessible: sv(&[1]),
        };
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Blocked);
        r.end_run();
        let comp = r.finish();
        let ax = AxiomSet::for_figure(Figure::Fig6).with_session_floor(sv(&[1, 2]));
        check_execution(&ax, &comp).assert_ok();
    }

    #[test]
    fn axiom_table_matches_the_paper() {
        let a = AxiomSet::for_figure(Figure::Fig1);
        assert_eq!(
            (a.vintage(), a.failure()),
            (Vintage::First, FailureMode::Total)
        );
        assert_eq!(a.arbitration, ConstraintKind::Immutable);
        let a = AxiomSet::for_figure(Figure::Fig3);
        assert_eq!(
            (a.vintage(), a.failure()),
            (Vintage::First, FailureMode::Pessimistic)
        );
        let a = AxiomSet::for_figure(Figure::Fig4);
        assert_eq!(
            (a.vintage(), a.failure()),
            (Vintage::First, FailureMode::Pessimistic)
        );
        assert_eq!(a.arbitration, ConstraintKind::None);
        let a = AxiomSet::for_figure(Figure::Fig5);
        assert_eq!(
            (a.vintage(), a.failure()),
            (Vintage::Pre, FailureMode::Pessimistic)
        );
        assert_eq!(a.arbitration, ConstraintKind::GrowOnly);
        let a = AxiomSet::for_figure(Figure::Fig6);
        assert_eq!(
            (a.vintage(), a.failure()),
            (Vintage::Pre, FailureMode::Optimistic)
        );
        assert_eq!(a.arbitration, ConstraintKind::None);
    }
}
