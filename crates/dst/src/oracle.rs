//! The conformance oracle: which figure a scenario's computation must
//! satisfy, and under which constraint reading.
//!
//! | Semantics   | Figure | Constraint                                   |
//! |-------------|--------|----------------------------------------------|
//! | Snapshot    | Fig. 4 | none (mutations may be lost)                 |
//! | GrowOnly    | Fig. 5 | grow-only; per-run (§3.3) when the workload  |
//! |             |        | shrinks under a grow guard                   |
//! | Optimistic  | Fig. 6 | none                                         |
//! | Locked      | Fig. 3 | immutable; per-run (§3.1) when the workload  |
//! |             |        | mutates outside the locked window            |
//!
//! Every figure is checked through the single visibility/arbitration
//! checker in [`weakset_spec::visibility`]: [`spec_for`] names the figure
//! and constraint, and [`check`] instantiates that figure's [`AxiomSet`]
//! and folds it over the computation. The hand-written Figure 6 extras
//! (never fails, every yield was once a member) are now the
//! `FailureNotAllowed` and §3.4 phantom-yield axioms of that checker, so
//! no per-figure membership logic lives here.
//!
//! [`check_with_session`] additionally installs a causal-session floor
//! (session-order ⊆ visibility): a run that drains the set while the
//! session's own committed inserts are missing is a read-your-writes
//! violation.

use crate::scenario::Scenario;
use weakset::prelude::Semantics;
use weakset_spec::checker::Figure;
use weakset_spec::constraint::ConstraintKind;
use weakset_spec::state::Computation;
use weakset_spec::value::SetValue;
use weakset_spec::visibility::{check_execution, AxiomSet};

/// The figure and constraint reading a scenario is judged against.
pub fn spec_for(s: &Scenario) -> (Figure, ConstraintKind) {
    match s.semantics {
        Semantics::Snapshot => (Figure::Fig4, ConstraintKind::None),
        Semantics::GrowOnly => (
            Figure::Fig5,
            if s.has_removals() {
                ConstraintKind::GrowOnlyDuringRuns
            } else {
                ConstraintKind::GrowOnly
            },
        ),
        Semantics::Optimistic => (Figure::Fig6, ConstraintKind::None),
        Semantics::Locked => (
            Figure::Fig3,
            if s.ops.is_empty() {
                ConstraintKind::Immutable
            } else {
                ConstraintKind::ImmutableDuringRuns
            },
        ),
    }
}

/// The axiom set a scenario's computation is checked against.
pub fn axioms_for(s: &Scenario) -> AxiomSet {
    let (figure, constraint) = spec_for(s);
    AxiomSet::for_figure(figure).with_arbitration(constraint)
}

/// Checks a recorded computation against the scenario's spec, returning
/// one human-readable message per violation class found.
pub fn check(s: &Scenario, comp: &Computation) -> Vec<String> {
    check_with_session(s, comp, &SetValue::empty())
}

/// [`check`], plus a causal-session floor: elements the reading session
/// observed as committed before the runs started, which a terminated run
/// must therefore have yielded.
pub fn check_with_session(s: &Scenario, comp: &Computation, floor: &SetValue) -> Vec<String> {
    let axioms = axioms_for(s).with_session_floor(floor.clone());
    let conf = check_execution(&axioms, comp);
    if conf.is_ok() {
        Vec::new()
    } else {
        vec![format!("{}: {}", axioms.figure, conf.summary())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::scenario::{Chaos, Deployment, Op};
    use weakset_spec::value::ElemId;
    use weakset_store::prelude::ReadPolicy;

    #[test]
    fn spec_table_matches_the_paper() {
        let base = generate(1);
        let s = |sem, ops: Vec<Op>| Scenario {
            semantics: sem,
            ops,
            deployment: Deployment::Plain,
            read_policy: ReadPolicy::Primary,
            chaos: Chaos::None,
            ..base.clone()
        };
        let rm = Op::Remove { at_ms: 5, elem: 1 };
        let add = Op::Add {
            at_ms: 5,
            elem: 100,
            home: 0,
        };
        assert_eq!(
            spec_for(&s(Semantics::Snapshot, vec![rm])),
            (Figure::Fig4, ConstraintKind::None)
        );
        assert_eq!(
            spec_for(&s(Semantics::GrowOnly, vec![add])),
            (Figure::Fig5, ConstraintKind::GrowOnly)
        );
        assert_eq!(
            spec_for(&s(Semantics::GrowOnly, vec![rm])),
            (Figure::Fig5, ConstraintKind::GrowOnlyDuringRuns)
        );
        assert_eq!(
            spec_for(&s(Semantics::Optimistic, vec![])),
            (Figure::Fig6, ConstraintKind::None)
        );
        assert_eq!(
            spec_for(&s(Semantics::Locked, vec![])),
            (Figure::Fig3, ConstraintKind::Immutable)
        );
        assert_eq!(
            spec_for(&s(Semantics::Locked, vec![add])),
            (Figure::Fig3, ConstraintKind::ImmutableDuringRuns)
        );
    }

    #[test]
    fn every_oracle_is_a_visibility_instantiation() {
        // The axiom table the oracle hands the shared checker, per
        // semantics — no per-figure code paths beyond this table.
        use weakset_spec::visibility::{FailureMode, Vintage};
        let base = generate(1);
        let s = |sem| Scenario {
            semantics: sem,
            ops: vec![],
            deployment: Deployment::Plain,
            read_policy: ReadPolicy::Primary,
            chaos: Chaos::None,
            ..base.clone()
        };
        let ax = axioms_for(&s(Semantics::Optimistic));
        assert_eq!(
            (ax.vintage(), ax.failure()),
            (Vintage::Pre, FailureMode::Optimistic)
        );
        let ax = axioms_for(&s(Semantics::Snapshot));
        assert_eq!(
            (ax.vintage(), ax.failure()),
            (Vintage::First, FailureMode::Pessimistic)
        );
        let ax = axioms_for(&s(Semantics::GrowOnly));
        assert_eq!(
            (ax.vintage(), ax.failure()),
            (Vintage::Pre, FailureMode::Pessimistic)
        );
        let ax = axioms_for(&s(Semantics::Locked));
        assert_eq!(
            (ax.vintage(), ax.failure()),
            (Vintage::First, FailureMode::Pessimistic)
        );
    }

    #[test]
    fn session_floor_is_enforced_through_the_oracle() {
        use weakset_spec::state::{Outcome, Recorder, State};
        let base = generate(1);
        let s = Scenario {
            semantics: Semantics::Optimistic,
            ops: vec![],
            deployment: Deployment::Plain,
            read_policy: ReadPolicy::CausalSession,
            chaos: Chaos::None,
            ..base.clone()
        };
        let st = || State::fully_accessible([ElemId(1)].into_iter().collect());
        let mut r = Recorder::new(st());
        r.begin_run();
        r.record_invocation(st(), Outcome::Yielded(ElemId(1)));
        r.record_invocation(st(), Outcome::Returned);
        r.end_run();
        let comp = r.finish();
        assert!(check(&s, &comp).is_empty());
        let floor: SetValue = [ElemId(1), ElemId(2)].into_iter().collect();
        let msgs = check_with_session(&s, &comp, &floor);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("session"), "{msgs:?}");
    }
}
