//! The design space: which weak-set semantics an iterator provides.

use std::fmt;
use weakset_spec::checker::Figure;

/// A point in the paper's design space for the `elements` iterator.
///
/// ```
/// use weakset::semantics::Semantics;
/// use weakset_spec::checker::Figure;
/// assert_eq!(Semantics::Optimistic.figure(), Figure::Fig6);
/// assert!(!Semantics::Optimistic.signals_failure());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Snapshot semantics: membership is captured atomically at the first
    /// invocation; later mutations are lost. Pessimistic about failures.
    ///
    /// This single implementation covers the paper's Figures 1, 3, *and*
    /// 4: run in a fault-free immutable environment it exhibits Figure 1;
    /// with failures it exhibits Figure 3; with concurrent mutators it
    /// exhibits Figure 4 (the figures differ in constraint/environment,
    /// not in iterator code).
    Snapshot,
    /// Growing-only semantics (Figure 5): every invocation consults the
    /// current membership, picking up concurrent additions; fails
    /// pessimistically when a known member is unreachable.
    GrowOnly,
    /// Optimistic semantics (Figure 6): consults current membership, never
    /// fails — blocks until unreachable members become reachable again.
    /// The semantics of the dynamic sets the authors implemented.
    Optimistic,
    /// The strongly-consistent baseline §3.1 warns about: a distributed
    /// read lock is held for the whole iteration, stalling writers.
    Locked,
}

impl Semantics {
    /// All semantics, weakest guarantees last.
    pub const ALL: [Semantics; 4] = [
        Semantics::Locked,
        Semantics::Snapshot,
        Semantics::GrowOnly,
        Semantics::Optimistic,
    ];

    /// The paper figure whose specification this semantics is checked
    /// against *in a general environment* (failures and mutators active).
    pub fn figure(self) -> Figure {
        match self {
            // Locked iteration makes the set immutable for the run; with
            // failure signalling it implements Figure 3.
            Semantics::Locked => Figure::Fig3,
            Semantics::Snapshot => Figure::Fig4,
            Semantics::GrowOnly => Figure::Fig5,
            Semantics::Optimistic => Figure::Fig6,
        }
    }

    /// Whether this iterator may signal the failure exception. Read off
    /// the plan the iterator itself runs, so the two cannot disagree.
    pub fn signals_failure(self) -> bool {
        !self.plan().retry
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Semantics::Snapshot => "snapshot (figs 1/3/4)",
            Semantics::GrowOnly => "grow-only pessimistic (fig 5)",
            Semantics::Optimistic => "optimistic (fig 6)",
            Semantics::Locked => "locked strong baseline",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_mapping() {
        assert_eq!(Semantics::Snapshot.figure(), Figure::Fig4);
        assert_eq!(Semantics::GrowOnly.figure(), Figure::Fig5);
        assert_eq!(Semantics::Optimistic.figure(), Figure::Fig6);
        assert_eq!(Semantics::Locked.figure(), Figure::Fig3);
    }

    #[test]
    fn failure_and_blocking_signatures() {
        assert!(Semantics::Snapshot.signals_failure());
        assert!(!Semantics::Optimistic.signals_failure());
    }

    #[test]
    fn display_names() {
        assert!(Semantics::Optimistic.to_string().contains("fig 6"));
        assert_eq!(Semantics::ALL.len(), 4);
    }
}
