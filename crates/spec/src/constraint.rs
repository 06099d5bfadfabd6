//! History constraints (`constraint` clauses).
//!
//! A Larch `constraint` clause is a predicate over *pairs* of states that
//! must hold for every `i < j` in a computation. The paper uses three:
//! immutability (`s_i = s_j`, Figures 1 and 3), growth-only (`s_i ⊆ s_j`,
//! Figure 5), and `true` (Figures 4 and 6). Section 3.1 and 3.3 also sketch
//! relaxed variants that only constrain states *within* an iterator run;
//! those are here too.

use crate::state::Computation;
use std::fmt;

/// Which constraint clause a type specification carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `∀ i<j: s_i = s_j` — the set never changes (Figures 1, 3).
    Immutable,
    /// `∀ i<j: s_i ⊆ s_j` — the set only grows (Figure 5).
    GrowOnly,
    /// `true` — arbitrary mutation (Figures 4, 6).
    None,
    /// Relaxed §3.1: the set is immutable *between the first-state and
    /// last-state of each iterator run*, but may change between runs.
    ImmutableDuringRuns,
    /// Relaxed §3.3: the set may only grow during each iterator run, with
    /// arbitrary mutation between runs.
    GrowOnlyDuringRuns,
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConstraintKind::Immutable => "immutable",
            ConstraintKind::GrowOnly => "grow-only",
            ConstraintKind::None => "true (unconstrained)",
            ConstraintKind::ImmutableDuringRuns => "immutable during runs",
            ConstraintKind::GrowOnlyDuringRuns => "grow-only during runs",
        };
        f.write_str(s)
    }
}

/// A constraint violation: the pair of state indices for which the pairwise
/// predicate failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintViolation {
    /// The earlier state index.
    pub i: usize,
    /// The later state index.
    pub j: usize,
    /// Which constraint failed.
    pub kind: ConstraintKind,
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint '{}' violated between states {} and {}",
            self.kind, self.i, self.j
        )
    }
}

impl ConstraintKind {
    /// Checks the constraint over a whole computation.
    ///
    /// Pairwise predicates over `i < j` are checked via adjacent pairs:
    /// equality and `⊆` are transitive, so `∀ adjacent` implies `∀ i<j`.
    pub fn check(self, comp: &Computation) -> Result<(), ConstraintViolation> {
        match self {
            ConstraintKind::None => Ok(()),
            ConstraintKind::Immutable => {
                Self::check_window(comp, 0, comp.states.len().saturating_sub(1), true)
            }
            ConstraintKind::GrowOnly => {
                Self::check_window(comp, 0, comp.states.len().saturating_sub(1), false)
            }
            ConstraintKind::ImmutableDuringRuns => Self::check_during_runs(comp, true),
            ConstraintKind::GrowOnlyDuringRuns => Self::check_during_runs(comp, false),
        }
    }

    fn check_window(
        comp: &Computation,
        first: usize,
        last: usize,
        equality: bool,
    ) -> Result<(), ConstraintViolation> {
        for i in first..last {
            let a = &comp.states[i].members;
            let b = &comp.states[i + 1].members;
            let ok = if equality { a == b } else { a.is_subset(b) };
            if !ok {
                return Err(ConstraintViolation {
                    i,
                    j: i + 1,
                    kind: if equality {
                        ConstraintKind::Immutable
                    } else {
                        ConstraintKind::GrowOnly
                    },
                });
            }
        }
        Ok(())
    }

    fn check_during_runs(comp: &Computation, equality: bool) -> Result<(), ConstraintViolation> {
        for run in &comp.runs {
            Self::check_window(comp, run.first, run.last(), equality).map_err(|mut v| {
                v.kind = if equality {
                    ConstraintKind::ImmutableDuringRuns
                } else {
                    ConstraintKind::GrowOnlyDuringRuns
                };
                v
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Invocation, IterRun, Outcome, State};
    use crate::value::SetValue;

    fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(crate::value::ElemId).collect()
    }

    fn comp_of(values: &[&[u64]]) -> Computation {
        let mut c = Computation::default();
        for v in values {
            c.push_state(State::fully_accessible(sv(v)));
        }
        c
    }

    #[test]
    fn immutable_accepts_constant_history() {
        let c = comp_of(&[&[1, 2], &[1, 2], &[1, 2]]);
        assert!(ConstraintKind::Immutable.check(&c).is_ok());
    }

    #[test]
    fn immutable_rejects_any_change() {
        let c = comp_of(&[&[1, 2], &[1, 2, 3]]);
        let v = ConstraintKind::Immutable.check(&c).unwrap_err();
        assert_eq!((v.i, v.j), (0, 1));
        assert_eq!(v.kind, ConstraintKind::Immutable);
        assert!(v.to_string().contains("immutable"));
    }

    #[test]
    fn grow_only_accepts_growth() {
        let c = comp_of(&[&[1], &[1, 2], &[1, 2], &[1, 2, 3]]);
        assert!(ConstraintKind::GrowOnly.check(&c).is_ok());
    }

    #[test]
    fn grow_only_rejects_shrinkage() {
        let c = comp_of(&[&[1, 2], &[1]]);
        let v = ConstraintKind::GrowOnly.check(&c).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::GrowOnly);
    }

    #[test]
    fn none_accepts_anything() {
        let c = comp_of(&[&[1, 2], &[3], &[], &[9]]);
        assert!(ConstraintKind::None.check(&c).is_ok());
    }

    #[test]
    fn empty_computation_is_fine() {
        let c = Computation::default();
        assert!(ConstraintKind::Immutable.check(&c).is_ok());
        assert!(ConstraintKind::GrowOnly.check(&c).is_ok());
    }

    fn with_run(mut c: Computation, first: usize, last: usize) -> Computation {
        // A run spanning [first, last] via a single invocation.
        c.runs.push(IterRun {
            first,
            invocations: vec![Invocation {
                pre: first,
                post: last,
                outcome: Outcome::Returned,
            }],
        });
        c
    }

    #[test]
    fn immutable_during_runs_allows_mutation_between_runs() {
        // States: 0:{1} 1:{1} (run over 0..=1), 2:{5} (mutation after run).
        let c = with_run(comp_of(&[&[1], &[1], &[5]]), 0, 1);
        assert!(ConstraintKind::ImmutableDuringRuns.check(&c).is_ok());
        // But the full constraint would reject it.
        assert!(ConstraintKind::Immutable.check(&c).is_err());
    }

    #[test]
    fn immutable_during_runs_rejects_mutation_inside_run() {
        let c = with_run(comp_of(&[&[1], &[1, 2]]), 0, 1);
        let v = ConstraintKind::ImmutableDuringRuns.check(&c).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::ImmutableDuringRuns);
    }

    #[test]
    fn grow_only_during_runs_mirrors() {
        let grow_in_run = with_run(comp_of(&[&[1], &[1, 2], &[]]), 0, 1);
        assert!(ConstraintKind::GrowOnlyDuringRuns
            .check(&grow_in_run)
            .is_ok());
        let shrink_in_run = with_run(comp_of(&[&[1, 2], &[1]]), 0, 1);
        assert!(ConstraintKind::GrowOnlyDuringRuns
            .check(&shrink_in_run)
            .is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(ConstraintKind::Immutable.to_string(), "immutable");
        assert_eq!(ConstraintKind::None.to_string(), "true (unconstrained)");
    }
}
