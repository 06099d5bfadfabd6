//! Bounded exhaustive exploration of the design space.
//!
//! The paper presents its four specifications as points in a design space
//! and argues informally about their relative strength. This module makes
//! those relationships *checkable*: it enumerates every computation up to
//! small bounds (element universe, invocation count, mutation and
//! accessibility patterns) and lets tests verify inclusion theorems such
//! as
//!
//! * Figure 3 conformance implies Figure 4 conformance (same ensures,
//!   weaker constraint);
//! * under an immutable history, Figures 3 and 5 coincide;
//! * a failure-free Figure 5 computation conforms to Figure 6.
//!
//! The bounds are deliberately tiny — the point is exhaustiveness, not
//! scale: with two elements and three invocations the enumeration already
//! covers every branch of every ensures clause.

use crate::state::{Computation, Invocation, IterRun, Outcome, State};
use crate::value::{ElemId, SetValue};

/// Enumeration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Elements are `1..=universe`.
    pub universe: u64,
    /// Exact number of invocations per computation.
    pub invocations: usize,
    /// Allow membership mutations between invocations.
    pub allow_mutations: bool,
    /// Allow per-state accessibility to vary (otherwise everything is
    /// always accessible).
    pub vary_accessibility: bool,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            universe: 2,
            invocations: 2,
            allow_mutations: true,
            vary_accessibility: true,
        }
    }
}

fn subsets(universe: u64) -> Vec<SetValue> {
    let n = universe as u32;
    (0..(1u64 << n))
        .map(|mask| {
            (0..n)
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| ElemId(b as u64 + 1))
                .collect()
        })
        .collect()
}

fn outcomes(universe: u64) -> Vec<Outcome> {
    let mut o: Vec<Outcome> = (1..=universe)
        .map(|e| Outcome::Yielded(ElemId(e)))
        .collect();
    o.push(Outcome::Returned);
    o.push(Outcome::Failed);
    o.push(Outcome::Blocked);
    o
}

/// Enumerates every computation within the bounds. Each computation has
/// one run; states alternate membership/accessibility choices with
/// invocation outcomes.
///
/// The count grows as
/// `2^u × (M × 2^u × |outcomes|)^k` where `M` is the number of mutation
/// choices — keep the bounds small.
pub fn enumerate(bounds: Bounds) -> Vec<Computation> {
    let membership_choices = subsets(bounds.universe);
    let access_choices: Vec<Option<SetValue>> = if bounds.vary_accessibility {
        subsets(bounds.universe).into_iter().map(Some).collect()
    } else {
        vec![None] // None = "everything accessible"
    };
    let outcome_choices = outcomes(bounds.universe);
    let full: SetValue = (1..=bounds.universe).map(ElemId).collect();

    let mut out = Vec::new();
    for initial in &membership_choices {
        // Each step: (next membership, accessibility, outcome).
        let mutation_choices: Vec<Option<&SetValue>> = if bounds.allow_mutations {
            membership_choices.iter().map(Some).collect()
        } else {
            vec![None] // keep current membership
        };
        // Iterative cartesian product over `invocations` steps.
        let mut partials: Vec<(Computation, SetValue, bool)> = vec![{
            let st = State {
                members: initial.clone(),
                accessible: full.clone(),
            };
            (Computation::starting_at(st), initial.clone(), false)
        }];
        for _step in 0..bounds.invocations {
            let mut next = Vec::new();
            for (comp, members, terminated) in &partials {
                if *terminated {
                    // Terminated runs stay as they are (shorter runs are
                    // produced by lower invocation counts; skip).
                    next.push((comp.clone(), members.clone(), true));
                    continue;
                }
                for mutation in &mutation_choices {
                    let new_members = mutation.map_or_else(|| members.clone(), |m| (*m).clone());
                    for access in &access_choices {
                        let accessible = access.clone().unwrap_or_else(|| full.clone());
                        for outcome in &outcome_choices {
                            let mut c = comp.clone();
                            let pre_idx = c.push_state(State {
                                members: new_members.clone(),
                                accessible: accessible.clone(),
                            });
                            let post_idx = c.push_state(State {
                                members: new_members.clone(),
                                accessible: accessible.clone(),
                            });
                            if c.runs.is_empty() {
                                c.runs.push(IterRun {
                                    first: pre_idx,
                                    invocations: Vec::new(),
                                });
                            }
                            c.runs[0].invocations.push(Invocation {
                                pre: pre_idx,
                                post: post_idx,
                                outcome: *outcome,
                            });
                            let term = outcome.is_terminal();
                            next.push((c, new_members.clone(), term));
                        }
                    }
                }
            }
            partials = next;
        }
        out.extend(partials.into_iter().map(|(c, _, _)| c));
    }
    // Fix run.first: the run starts at its first invocation's pre-state.
    for c in &mut out {
        if let Some(first_inv) = c.runs.first().and_then(|r| r.invocations.first()) {
            let first = first_inv.pre;
            c.runs[0].first = first;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_computation, Figure};

    fn space() -> Vec<Computation> {
        enumerate(Bounds::default())
    }

    /// True when the computation's membership never changes.
    fn is_immutable(comp: &Computation) -> bool {
        comp.states.windows(2).all(|w| w[0].members == w[1].members)
    }

    /// True when every member is accessible in every state.
    fn is_fully_accessible(comp: &Computation) -> bool {
        comp.states
            .iter()
            .all(|s| s.members.is_subset(&s.accessible))
    }

    /// True when no invocation failed.
    fn is_failure_free(comp: &Computation) -> bool {
        comp.runs
            .iter()
            .flat_map(|r| r.invocations.iter())
            .all(|i| i.outcome != Outcome::Failed)
    }

    /// True when no invocation blocked.
    fn is_block_free(comp: &Computation) -> bool {
        comp.runs
            .iter()
            .flat_map(|r| r.invocations.iter())
            .all(|i| i.outcome != Outcome::Blocked)
    }

    #[test]
    fn enumeration_is_substantial_and_diverse() {
        let all = space();
        assert!(all.len() > 10_000, "{}", all.len());
        let conforming = |f: Figure| {
            all.iter()
                .filter(|c| check_computation(f, c).is_ok())
                .count()
        };
        for fig in Figure::ALL {
            let n = conforming(fig);
            assert!(n > 0, "{fig} has conforming computations");
            assert!(n < all.len(), "{fig} rejects something");
        }
    }

    /// Fig 3 ⇒ Fig 4: identical ensures, strictly weaker constraint.
    #[test]
    fn fig3_conformance_implies_fig4() {
        for c in &space() {
            if check_computation(Figure::Fig3, c).is_ok() {
                assert!(
                    check_computation(Figure::Fig4, c).is_ok(),
                    "counterexample:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// Fig 4 ∧ immutable history ⇒ Fig 3 (the constraint was the only
    /// difference).
    #[test]
    fn fig4_plus_immutability_implies_fig3() {
        for c in &space() {
            if is_immutable(c) && check_computation(Figure::Fig4, c).is_ok() {
                assert!(
                    check_computation(Figure::Fig3, c).is_ok(),
                    "counterexample:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// Under immutability Figures 3 and 5 coincide: `s_pre = s_first`
    /// makes their ensures clauses identical.
    #[test]
    fn fig3_and_fig5_coincide_on_immutable_histories() {
        for c in &space() {
            if is_immutable(c) {
                assert_eq!(
                    check_computation(Figure::Fig3, c).is_ok(),
                    check_computation(Figure::Fig5, c).is_ok(),
                    "counterexample:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// Fig 1 ∧ full accessibility ⇒ Fig 3: with nothing unreachable the
    /// failure machinery never engages.
    #[test]
    fn fig1_plus_full_accessibility_implies_fig3() {
        for c in &space() {
            if is_fully_accessible(c) && check_computation(Figure::Fig1, c).is_ok() {
                assert!(
                    check_computation(Figure::Fig3, c).is_ok(),
                    "counterexample:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// And back: a failure-free, fully-accessible Fig 3 computation is a
    /// Fig 1 computation.
    #[test]
    fn failure_free_fig3_with_full_access_implies_fig1() {
        for c in &space() {
            if is_fully_accessible(c)
                && is_failure_free(c)
                && is_block_free(c)
                && check_computation(Figure::Fig3, c).is_ok()
            {
                assert!(
                    check_computation(Figure::Fig1, c).is_ok(),
                    "counterexample:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// A failure-free Fig 5 computation conforms to Fig 6: growth is a
    /// special case of arbitrary mutation and the yield/return branches
    /// agree; only the failure branch separates them.
    #[test]
    fn failure_free_fig5_implies_fig6() {
        for c in &space() {
            if is_failure_free(c) && check_computation(Figure::Fig5, c).is_ok() {
                assert!(
                    check_computation(Figure::Fig6, c).is_ok(),
                    "counterexample:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// The converse implications FAIL — the design points are genuinely
    /// distinct. Exhibit witnesses for each strict inclusion.
    #[test]
    fn the_design_points_are_strictly_ordered() {
        let all = space();
        // Fig 4 conforming but not Fig 3 (mutation happened).
        assert!(all
            .iter()
            .any(|c| check_computation(Figure::Fig4, c).is_ok()
                && !check_computation(Figure::Fig3, c).is_ok()));
        // Fig 6 conforming but not Fig 5 (shrinkage or blocking).
        assert!(all
            .iter()
            .any(|c| check_computation(Figure::Fig6, c).is_ok()
                && !check_computation(Figure::Fig5, c).is_ok()));
        // Fig 3 conforming but not Fig 1 (a legitimate failure).
        assert!(all
            .iter()
            .any(|c| check_computation(Figure::Fig3, c).is_ok()
                && !check_computation(Figure::Fig1, c).is_ok()));
        // Fig 5 conforming but not Fig 4 (picked up a concurrent add).
        assert!(all
            .iter()
            .any(|c| check_computation(Figure::Fig5, c).is_ok()
                && !check_computation(Figure::Fig4, c).is_ok()));
    }

    /// The documented Strictness divergence is confined to its corner:
    /// when accessibility never varies (so `yielded` can never escape the
    /// branch's bounding set), the Liberal and Literal readings agree on
    /// every figure for every computation.
    #[test]
    fn liberal_and_literal_agree_when_accessibility_is_stable() {
        let space = enumerate(Bounds {
            vary_accessibility: false,
            ..Bounds::default()
        });
        for c in &space {
            for fig in Figure::ALL {
                let liberal = crate::checker::Checker::new(fig).check(c).is_ok();
                let literal = crate::checker::Checker::new(fig).literal().check(c).is_ok();
                assert_eq!(
                    liberal,
                    literal,
                    "{fig} diverges without accessibility variation:\n{}",
                    crate::render::render(c)
                );
            }
        }
    }

    /// ...and with varying accessibility the readings genuinely diverge
    /// somewhere (the corner exists).
    #[test]
    fn the_strictness_corner_is_inhabited() {
        let space = enumerate(Bounds::default());
        let mut diverged = false;
        for c in &space {
            for fig in [Figure::Fig3, Figure::Fig4, Figure::Fig5] {
                let liberal = crate::checker::Checker::new(fig).check(c).is_ok();
                let literal = crate::checker::Checker::new(fig).literal().check(c).is_ok();
                if liberal != literal {
                    diverged = true;
                }
            }
            if diverged {
                break;
            }
        }
        assert!(diverged, "Literal and Liberal must differ somewhere");
    }

    #[test]
    fn predicates_classify_the_space() {
        let all = space();
        assert!(all.iter().any(is_immutable));
        assert!(all.iter().any(|c| !is_immutable(c)));
        assert!(all.iter().any(is_fully_accessible));
        assert!(all.iter().any(|c| !is_fully_accessible(c)));
        assert!(all.iter().any(is_failure_free));
        assert!(all.iter().any(|c| !is_failure_free(c)));
    }
}
