//! The conformance checker: replay a recorded computation against one of
//! the paper's figures and report every violation.

use crate::constraint::{ConstraintKind, ConstraintViolation};
use crate::specs::{self, EnsuresCtx, EnsuresError, Strictness};
use crate::state::{Computation, IterRun, Outcome};
use crate::value::{ElemId, SetValue};
use std::fmt;

/// The design points of the paper, by figure number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Immutable set, failures ignored.
    Fig1,
    /// Immutable set with failures (pessimistic).
    Fig3,
    /// Mutable set with loss of mutations (snapshot).
    Fig4,
    /// Growing-only set, pessimistic failure handling.
    Fig5,
    /// Growing and shrinking set, optimistic failure handling.
    Fig6,
}

impl Figure {
    /// All figures, in paper order.
    pub const ALL: [Figure; 5] = [
        Figure::Fig1,
        Figure::Fig3,
        Figure::Fig4,
        Figure::Fig5,
        Figure::Fig6,
    ];

    /// Stable lowercase key (`"fig1"`..`"fig6"`), used as the
    /// metric-name segment for per-figure observability.
    pub fn key(self) -> &'static str {
        match self {
            Figure::Fig1 => "fig1",
            Figure::Fig3 => "fig3",
            Figure::Fig4 => "fig4",
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
        }
    }

    /// The `constraint` clause this figure's type specification carries.
    pub fn constraint(self) -> ConstraintKind {
        match self {
            Figure::Fig1 | Figure::Fig3 => ConstraintKind::Immutable,
            Figure::Fig4 | Figure::Fig6 => ConstraintKind::None,
            Figure::Fig5 => ConstraintKind::GrowOnly,
        }
    }

    /// Whether this figure's iterator signature includes
    /// `signals (failure)`.
    pub fn signals_failure(self) -> bool {
        !matches!(self, Figure::Fig1 | Figure::Fig6)
    }

    /// Checks one invocation's `ensures` clause.
    ///
    /// # Errors
    ///
    /// Returns the violation, if any.
    pub fn check_invocation(
        self,
        ctx: &EnsuresCtx<'_>,
        outcome: Outcome,
    ) -> Result<(), EnsuresError> {
        match self {
            Figure::Fig1 => specs::fig1::check_invocation(ctx, outcome),
            Figure::Fig3 => specs::fig3::check_invocation(ctx, outcome),
            Figure::Fig4 => specs::fig4::check_invocation(ctx, outcome),
            Figure::Fig5 => specs::fig5::check_invocation(ctx, outcome),
            Figure::Fig6 => specs::fig6::check_invocation(ctx, outcome),
        }
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Figure::Fig1 => "Figure 1 (immutable, no failures)",
            Figure::Fig3 => "Figure 3 (immutable with failures)",
            Figure::Fig4 => "Figure 4 (snapshot, lost mutations)",
            Figure::Fig5 => "Figure 5 (grow-only, pessimistic)",
            Figure::Fig6 => "Figure 6 (grow+shrink, optimistic)",
        };
        f.write_str(s)
    }
}

/// One conformance violation found in a computation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The type's `constraint` clause failed.
    Constraint(ConstraintViolation),
    /// An invocation's `ensures` clause failed.
    Ensures {
        /// Index of the run within the computation.
        run: usize,
        /// Index of the invocation within the run.
        invocation: usize,
        /// The specific clause violation.
        error: EnsuresError,
    },
    /// An invocation was recorded after the run already terminated.
    AfterTermination {
        /// Index of the run within the computation.
        run: usize,
        /// Index of the offending invocation.
        invocation: usize,
    },
    /// Run structure is malformed (state indices out of order or out of
    /// bounds) — a recorder bug rather than a semantics bug.
    Malformed {
        /// Index of the run within the computation.
        run: usize,
        /// What is wrong.
        detail: String,
    },
    /// §3.4 visibility soundness: an element was yielded that was never a
    /// member of the set in any state within the run's span (reported by
    /// [`crate::visibility::check_execution`]).
    PhantomYield {
        /// Index of the run within the computation.
        run: usize,
        /// The phantom element.
        elem: ElemId,
    },
    /// A causal-session axiom failed: the run terminated normally while
    /// session dependencies were never made visible (reported by
    /// [`crate::visibility::check_execution`]).
    SessionHidden {
        /// Index of the run within the computation.
        run: usize,
        /// Session-floor elements the run never yielded.
        missing: SetValue,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Constraint(c) => write!(f, "{c}"),
            Violation::Ensures {
                run,
                invocation,
                error,
            } => write!(f, "run {run}, invocation {invocation}: {error}"),
            Violation::AfterTermination { run, invocation } => {
                write!(f, "run {run}: invocation {invocation} after termination")
            }
            Violation::Malformed { run, detail } => {
                write!(f, "run {run} malformed: {detail}")
            }
            Violation::PhantomYield { run, elem } => {
                write!(
                    f,
                    "run {run}: yielded {elem}, which was never a member during the run"
                )
            }
            Violation::SessionHidden { run, missing } => {
                write!(
                    f,
                    "run {run}: terminated without yielding session dependencies {missing}"
                )
            }
        }
    }
}

/// The result of checking a computation against a figure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Conformance {
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl Conformance {
    /// True when the computation conforms.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line human-readable report: `"ok"`, or the violation count
    /// followed by each violation. Used by harnesses (e.g. `weakset-dst`)
    /// that fold conformance results into run reports and repro artifacts.
    pub fn summary(&self) -> String {
        if self.is_ok() {
            "ok".to_string()
        } else {
            let items: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
            format!("{} violation(s): {}", items.len(), items.join("; "))
        }
    }

    /// Panics with a readable report if the computation does not conform.
    ///
    /// # Panics
    ///
    /// Panics when violations were found (intended for tests).
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "spec violations:\n{}",
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Checks a whole computation — constraint plus every run's invocations —
/// against a figure, using the default liberal reading.
pub fn check_computation(figure: Figure, comp: &Computation) -> Conformance {
    Checker::new(figure).check(comp)
}

/// Checks a computation against a figure under an overridden constraint —
/// the entry point for the relaxed per-run readings (§3.1's
/// [`ConstraintKind::ImmutableDuringRuns`] for the locked baseline, §3.3's
/// [`ConstraintKind::GrowOnlyDuringRuns`] for guarded grow-only runs),
/// where the environment only promises the constraint while an iterator
/// run is open.
pub fn check_computation_with(
    figure: Figure,
    constraint: ConstraintKind,
    comp: &Computation,
) -> Conformance {
    Checker::new(figure).with_constraint(constraint).check(comp)
}

/// A configurable conformance checker.
#[derive(Clone, Copy, Debug)]
pub struct Checker {
    figure: Figure,
    strictness: Strictness,
    constraint: ConstraintKind,
}

impl Checker {
    /// A checker for a figure with its canonical constraint and the liberal
    /// condition reading.
    pub fn new(figure: Figure) -> Self {
        Checker {
            figure,
            strictness: Strictness::Liberal,
            constraint: figure.constraint(),
        }
    }

    /// Switches to the literal reading of the branch conditions.
    pub fn literal(mut self) -> Self {
        self.strictness = Strictness::Literal;
        self
    }

    /// Overrides the constraint clause (e.g. the relaxed §3.1/§3.3
    /// variants).
    pub fn with_constraint(mut self, c: ConstraintKind) -> Self {
        self.constraint = c;
        self
    }

    /// The figure being checked.
    pub fn figure(&self) -> Figure {
        self.figure
    }

    /// Checks a computation, returning every violation found.
    pub fn check(&self, comp: &Computation) -> Conformance {
        walk(
            comp,
            self.constraint,
            self.strictness,
            |ctx, outcome| self.figure.check_invocation(ctx, outcome),
            |_, _, _, _, _| {},
        )
    }
}

/// The one walk over a computation that both conformance checkers share.
///
/// It checks `constraint` over every pair of states, then replays each
/// run: state indices must be in bounds and in order, and nothing may
/// follow a terminal outcome. It keeps the `yielded` history object as the
/// `remembers` clause prescribes and hands every invocation one
/// [`EnsuresCtx`] for `rule` to judge. A well-formed run is then handed to
/// `end_run` with its final `yielded` value and terminal outcome; a
/// malformed one is not.
pub(crate) fn walk(
    comp: &Computation,
    constraint: ConstraintKind,
    strictness: Strictness,
    rule: impl Fn(&EnsuresCtx<'_>, Outcome) -> Result<(), EnsuresError>,
    mut end_run: impl FnMut(usize, &IterRun, &SetValue, Option<Outcome>, &mut Vec<Violation>),
) -> Conformance {
    let mut out = Vec::new();
    if let Err(v) = constraint.check(comp) {
        out.push(Violation::Constraint(v));
    }
    let n_states = comp.states.len();
    'runs: for (ri, run) in comp.runs.iter().enumerate() {
        let malformed = |detail| Violation::Malformed { run: ri, detail };
        if run.first >= n_states {
            out.push(malformed(format!(
                "first-state index {} out of bounds",
                run.first
            )));
            continue;
        }
        let s_first = comp.states[run.first].members.clone();
        let mut yielded = SetValue::empty();
        let mut end = None;
        let mut prev_post = run.first;
        for (ii, inv) in run.invocations.iter().enumerate() {
            if inv.pre >= n_states || inv.post >= n_states || inv.pre > inv.post {
                out.push(malformed(format!(
                    "invocation {ii} has bad state indices pre={} post={}",
                    inv.pre, inv.post
                )));
                continue 'runs;
            }
            if inv.pre < prev_post {
                out.push(malformed(format!(
                    "invocation {ii} pre-state precedes previous post-state"
                )));
                continue 'runs;
            }
            if end.is_some() {
                out.push(Violation::AfterTermination {
                    run: ri,
                    invocation: ii,
                });
                continue;
            }
            let ctx = EnsuresCtx {
                s_first: &s_first,
                pre: &comp.states[inv.pre],
                yielded_pre: &yielded,
                strictness,
            };
            if let Err(error) = rule(&ctx, inv.outcome) {
                out.push(Violation::Ensures {
                    run: ri,
                    invocation: ii,
                    error,
                });
            }
            match inv.outcome {
                Outcome::Yielded(e) => {
                    yielded.insert(e);
                }
                Outcome::Returned | Outcome::Failed => end = Some(inv.outcome),
                Outcome::Blocked => {}
            }
            prev_post = inv.post;
        }
        end_run(ri, run, &yielded, end, &mut out);
    }
    Conformance { violations: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Outcome, Recorder, State};
    use crate::value::{ElemId, SetValue};

    fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    /// Records a clean Figure-1 run that drains {1,2} and returns.
    fn clean_immutable_run() -> Computation {
        let st = || State::fully_accessible(sv(&[1, 2]));
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Yielded(ElemId(2)));
        r.record_invocation(st(), Outcome::Returned);
        r.end_run();
        r.finish()
    }

    #[test]
    fn clean_run_conforms_to_fig1() {
        let comp = clean_immutable_run();
        check_computation(Figure::Fig1, &comp).assert_ok();
        // It also conforms to every other figure: it is the most
        // constrained behaviour.
        for fig in Figure::ALL {
            assert!(check_computation(fig, &comp).is_ok(), "{fig}");
        }
    }

    #[test]
    fn duplicate_yield_is_caught() {
        let st = || State::fully_accessible(sv(&[1, 2]));
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.end_run();
        let comp = r.finish();
        let c = check_computation(Figure::Fig1, &comp);
        assert_eq!(c.violations.len(), 1);
        assert!(matches!(
            &c.violations[0],
            Violation::Ensures {
                error: EnsuresError::YieldNotAllowed { .. },
                ..
            }
        ));
    }

    #[test]
    fn mutation_breaks_fig1_constraint_but_not_fig6() {
        let mut r = Recorder::new(State::fully_accessible(sv(&[1])));
        r.begin_run();
        r.record_invocation(
            State::fully_accessible(sv(&[1])),
            Outcome::Yielded(ElemId(1)),
        );
        // Mutation: 2 added mid-run.
        r.observe_state(State::fully_accessible(sv(&[1, 2])));
        r.record_invocation(
            State::fully_accessible(sv(&[1, 2])),
            Outcome::Yielded(ElemId(2)),
        );
        r.record_invocation(State::fully_accessible(sv(&[1, 2])), Outcome::Returned);
        r.end_run();
        let comp = r.finish();
        let fig1 = check_computation(Figure::Fig1, &comp);
        assert!(fig1
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Constraint(_))));
        // Fig 5 (grow-only) and Fig 6 accept it.
        check_computation(Figure::Fig5, &comp).assert_ok();
        check_computation(Figure::Fig6, &comp).assert_ok();
    }

    #[test]
    fn invocation_after_termination_is_flagged() {
        let st = || State::fully_accessible(sv(&[]));
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Returned);
        r.record_invocation(st(), Outcome::Returned);
        r.end_run();
        let comp = r.finish();
        let c = check_computation(Figure::Fig1, &comp);
        assert!(c
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AfterTermination { invocation: 1, .. })));
    }

    #[test]
    fn fig3_accepts_failure_under_partition() {
        // {1,2} with 2 inaccessible throughout: yield 1, then fail.
        let st = || State {
            members: sv(&[1, 2]),
            accessible: sv(&[1]),
        };
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Failed);
        r.end_run();
        let comp = r.finish();
        check_computation(Figure::Fig3, &comp).assert_ok();
        // Figure 1 rejects the failure.
        assert!(!check_computation(Figure::Fig1, &comp).is_ok());
        // Figure 6 rejects it too (no failure signal).
        assert!(!check_computation(Figure::Fig6, &comp).is_ok());
    }

    #[test]
    fn fig6_accepts_blocking_fig5_rejects() {
        let st = || State {
            members: sv(&[1]),
            accessible: sv(&[]),
        };
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Blocked);
        r.end_run();
        let comp = r.finish();
        check_computation(Figure::Fig6, &comp).assert_ok();
        let c5 = check_computation(Figure::Fig5, &comp);
        assert!(!c5.is_ok());
    }

    #[test]
    fn malformed_indices_reported() {
        let mut comp = clean_immutable_run();
        comp.runs[0].invocations[1].pre = 0; // goes backwards
        let c = check_computation(Figure::Fig1, &comp);
        assert!(c
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Malformed { .. })));

        let mut comp2 = clean_immutable_run();
        comp2.runs[0].first = 99;
        let c2 = check_computation(Figure::Fig1, &comp2);
        assert!(matches!(&c2.violations[0], Violation::Malformed { .. }));
    }

    #[test]
    fn constraint_override_applies() {
        // Mutation between two runs: full immutability rejects, per-run
        // immutability accepts.
        let s1 = || State::fully_accessible(sv(&[1]));
        let s2 = || State::fully_accessible(sv(&[2]));
        let mut r = Recorder::new(s1());
        r.begin_run();
        r.record_invocation(s1(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(s1(), Outcome::Returned);
        r.end_run();
        r.observe_state(s2());
        r.begin_run();
        r.record_invocation(s2(), Outcome::Yielded(ElemId(2)));
        r.record_invocation(s2(), Outcome::Returned);
        r.end_run();
        let comp = r.finish();
        assert!(!Checker::new(Figure::Fig3).check(&comp).is_ok());
        Checker::new(Figure::Fig3)
            .with_constraint(ConstraintKind::ImmutableDuringRuns)
            .check(&comp)
            .assert_ok();
    }

    #[test]
    fn figure_metadata() {
        assert_eq!(Figure::Fig1.constraint(), ConstraintKind::Immutable);
        assert_eq!(Figure::Fig4.constraint(), ConstraintKind::None);
        assert_eq!(Figure::Fig5.constraint(), ConstraintKind::GrowOnly);
        assert!(Figure::Fig3.signals_failure());
        assert!(!Figure::Fig6.signals_failure());
        assert!(Figure::Fig5.to_string().contains("Figure 5"));
        assert_eq!(Checker::new(Figure::Fig5).figure(), Figure::Fig5);
    }

    #[test]
    fn violation_display_is_readable() {
        let st = || State::fully_accessible(sv(&[1]));
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Failed);
        r.end_run();
        let comp = r.finish();
        let c = check_computation(Figure::Fig1, &comp);
        let msg = c.violations[0].to_string();
        assert!(msg.contains("run 0"), "{msg}");
    }
}
