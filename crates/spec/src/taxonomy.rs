//! Garcia-Molina & Wiederhold's read-only-query taxonomy, as used in the
//! paper's Section 4 to situate the four design points.
//!
//! Two dimensions classify a query:
//!
//! * **Consistency** — the degree to which the result respects application
//!   constraints: *strong* (serializable), *weak* (a consistent subset),
//!   or *none*.
//! * **Currency** ("vintage") — which version of the data the result
//!   reflects: *first-vintage* (data as of the query's start) or
//!   *first-bound* (data from the start onwards).
//!
//! The paper's mapping (Section 4):
//!
//! | Figure | Consistency | Currency |
//! |--------|-------------|----------|
//! | Fig 3  | strong      | first-vintage |
//! | Fig 4  | weak        | first-vintage |
//! | Fig 5  | none        | first-bound   |
//! | Fig 6  | none        | first-bound   |
//!
//! Besides the static mapping, [`classify_run`] derives a classification
//! from an actual recorded run, so experiments can confirm the mapping
//! empirically (experiment E8).

use crate::checker::Figure;
use crate::state::{Computation, IterRun};
use std::fmt;

/// Consistency degree of a query result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Serializable: the result is exactly one state's value.
    Strong,
    /// Weakly consistent: the result is a subset of one state's value.
    Weak,
    /// No consistency guarantee relative to any single state.
    None,
}

/// Currency ("vintage") of a query result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Currency {
    /// All data is as of the query's first state.
    FirstVintage,
    /// Data reflects states from the first state onwards.
    FirstBound,
}

/// A point in the taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryClass {
    /// Consistency degree.
    pub consistency: Consistency,
    /// Currency degree.
    pub currency: Currency,
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self.consistency {
            Consistency::Strong => "strong consistency",
            Consistency::Weak => "weak consistency",
            Consistency::None => "no consistency",
        };
        let v = match self.currency {
            Currency::FirstVintage => "first-vintage",
            Currency::FirstBound => "first-bound",
        };
        write!(f, "{c}, {v}")
    }
}

/// The paper's Section 4 mapping from figure to taxonomy point.
pub fn paper_class(figure: Figure) -> QueryClass {
    match figure {
        // Figure 1 ignores failures; completed runs return exactly
        // s_first, i.e. serializable first-vintage.
        Figure::Fig1 | Figure::Fig3 => QueryClass {
            consistency: Consistency::Strong,
            currency: Currency::FirstVintage,
        },
        Figure::Fig4 => QueryClass {
            consistency: Consistency::Weak,
            currency: Currency::FirstVintage,
        },
        Figure::Fig5 | Figure::Fig6 => QueryClass {
            consistency: Consistency::None,
            currency: Currency::FirstBound,
        },
    }
}

/// Classifies one recorded run empirically.
///
/// * Currency: *first-vintage* when every yielded element was a member of
///   the first state; otherwise *first-bound*.
/// * Consistency: *strong* when the yielded set equals some single state's
///   membership in the run's window; *weak* when it is a subset of some
///   single state's membership; otherwise *none*.
pub fn classify_run(comp: &Computation, run: &IterRun) -> QueryClass {
    let yielded = run.yielded_set();
    let s_first = &comp.state(run.first).members;
    let currency = if run.yields().iter().all(|&e| s_first.contains(e)) {
        Currency::FirstVintage
    } else {
        Currency::FirstBound
    };
    let window = comp.members_between(run.first, run.last());
    let mut consistency = Consistency::None;
    for members in window {
        if yielded == *members {
            consistency = Consistency::Strong;
            break;
        }
        if yielded.is_subset(members) {
            consistency = Consistency::Weak;
        }
    }
    QueryClass {
        consistency,
        currency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Invocation, Outcome, State};
    use crate::value::{ElemId, SetValue};

    fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    fn run_yielding(first: usize, yields: &[u64], n_states: usize) -> IterRun {
        let mut invocations: Vec<Invocation> = yields
            .iter()
            .enumerate()
            .map(|(i, &e)| Invocation {
                pre: (first + i).min(n_states - 1),
                post: (first + i + 1).min(n_states - 1),
                outcome: Outcome::Yielded(ElemId(e)),
            })
            .collect();
        let last = invocations.last().map_or(first, |i| i.post);
        invocations.push(Invocation {
            pre: last,
            post: last,
            outcome: Outcome::Returned,
        });
        IterRun { first, invocations }
    }

    #[test]
    fn paper_mapping_matches_section_4() {
        assert_eq!(
            paper_class(Figure::Fig3),
            QueryClass {
                consistency: Consistency::Strong,
                currency: Currency::FirstVintage
            }
        );
        assert_eq!(paper_class(Figure::Fig4).consistency, Consistency::Weak);
        assert_eq!(paper_class(Figure::Fig5).currency, Currency::FirstBound);
        assert_eq!(paper_class(Figure::Fig6).consistency, Consistency::None);
    }

    #[test]
    fn full_drain_classifies_strong_first_vintage() {
        let mut comp = Computation::default();
        for _ in 0..4 {
            comp.push_state(State::fully_accessible(sv(&[1, 2])));
        }
        let run = run_yielding(0, &[1, 2], 4);
        let c = classify_run(&comp, &run);
        assert_eq!(c.consistency, Consistency::Strong);
        assert_eq!(c.currency, Currency::FirstVintage);
        assert_eq!(c.to_string(), "strong consistency, first-vintage");
    }

    #[test]
    fn partial_drain_classifies_weak() {
        let mut comp = Computation::default();
        for _ in 0..3 {
            comp.push_state(State::fully_accessible(sv(&[1, 2, 3])));
        }
        let run = run_yielding(0, &[1], 3);
        let c = classify_run(&comp, &run);
        assert_eq!(c.consistency, Consistency::Weak);
        assert_eq!(c.currency, Currency::FirstVintage);
    }

    #[test]
    fn mixed_vintage_yields_classify_first_bound_none() {
        // States: {1}, then {2} (1 removed, 2 added). Yielding both 1 and 2
        // matches no single state, and 2 ∉ s_first.
        let mut comp = Computation::default();
        comp.push_state(State::fully_accessible(sv(&[1])));
        comp.push_state(State::fully_accessible(sv(&[2])));
        comp.push_state(State::fully_accessible(sv(&[2])));
        let run = run_yielding(0, &[1, 2], 3);
        let c = classify_run(&comp, &run);
        assert_eq!(c.consistency, Consistency::None);
        assert_eq!(c.currency, Currency::FirstBound);
    }

    #[test]
    fn growth_pickup_is_first_bound_but_can_be_strong() {
        // {1} grows to {1,2}; yielding 1 then 2 equals the final state.
        let mut comp = Computation::default();
        comp.push_state(State::fully_accessible(sv(&[1])));
        comp.push_state(State::fully_accessible(sv(&[1, 2])));
        comp.push_state(State::fully_accessible(sv(&[1, 2])));
        let run = run_yielding(0, &[1, 2], 3);
        let c = classify_run(&comp, &run);
        assert_eq!(c.currency, Currency::FirstBound);
        assert_eq!(c.consistency, Consistency::Strong);
    }
}
