//! The model of computation: states, invocations, runs, computations.
//!
//! A computation is a sequence of alternating states and atomic transitions
//! `σ0 S1 σ1 … Sn σn`. For checking weak-set specifications we only need the
//! projection of each state onto (a) the set object's *value* (its members)
//! and (b) which elements are *accessible* to the observing client in that
//! state — the ingredient of the paper's `reachable` construct.

use crate::value::{ElemId, SetValue};

/// One observed state σ, projected for a particular client.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct State {
    /// The value of the set object `s` in this state (true membership).
    pub members: SetValue,
    /// The elements accessible from the observing client in this state
    /// (regardless of membership). `reachable(sσ')` for any vintage σ' is
    /// computed as `members(σ') ∩ accessible(σ)`.
    pub accessible: SetValue,
}

impl State {
    /// A state where the set has the given members and all of them (and
    /// nothing else) are accessible.
    pub fn fully_accessible(members: SetValue) -> Self {
        State {
            accessible: members.clone(),
            members,
        }
    }

    /// The paper's `reachable` function applied to a (possibly older)
    /// membership value: the members of `of` that are accessible in `self`.
    pub fn reachable_of(&self, of: &SetValue) -> SetValue {
        of.intersection(&self.accessible)
    }

    /// `reachable(s)` where `s` is this state's own value.
    pub fn reachable_now(&self) -> SetValue {
        self.reachable_of(&self.members)
    }
}

/// How an iterator invocation ended, from the caller's point of view.
///
/// The paper's `terminates` object ranges over these: yielding an element
/// corresponds to `suspends`, `Returned` to normal termination, `Failed` to
/// the failure exception. `Blocked` records that the invocation did *not*
/// complete within the observation window — the optimistic semantics
/// (Figure 6) blocks rather than fail when everything unyielded is
/// unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The iterator yielded an element and suspended.
    Yielded(ElemId),
    /// The iterator terminated normally.
    Returned,
    /// The iterator terminated with the failure exception.
    Failed,
    /// The invocation did not complete (optimistic blocking).
    Blocked,
}

impl Outcome {
    /// True for the two terminating outcomes.
    pub fn is_terminal(self) -> bool {
        matches!(self, Outcome::Returned | Outcome::Failed)
    }
}

/// One invocation (initial call or resumption) of the `elements` iterator.
///
/// `pre` and `post` index into the owning [`Computation`]'s state vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Invocation {
    /// Index of the pre-state.
    pub pre: usize,
    /// Index of the post-state.
    pub post: usize,
    /// What happened.
    pub outcome: Outcome,
}

/// One complete use of the iterator: the first call through termination (or
/// through the end of observation, if it blocked or was abandoned).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct IterRun {
    /// Index of the first-state (the state in which the iterator is first
    /// called). Equals the first invocation's pre-state index.
    pub first: usize,
    /// The invocations of this run, in order.
    pub invocations: Vec<Invocation>,
}

impl IterRun {
    /// Index of the last-state: the final invocation's post-state, or the
    /// first-state if the iterator was never invoked.
    pub fn last(&self) -> usize {
        self.invocations.last().map_or(self.first, |i| i.post)
    }

    /// The elements yielded by this run, in order.
    pub fn yields(&self) -> Vec<ElemId> {
        self.invocations
            .iter()
            .filter_map(|i| match i.outcome {
                Outcome::Yielded(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// The final value of the `yielded` history object.
    pub fn yielded_set(&self) -> SetValue {
        self.yields().into_iter().collect()
    }

    /// The outcome of the final invocation, if any.
    fn final_outcome(&self) -> Option<Outcome> {
        self.invocations.last().map(|i| i.outcome)
    }

    /// True when the run ended with normal termination.
    pub fn returned(&self) -> bool {
        self.final_outcome() == Some(Outcome::Returned)
    }

    /// True when the run ended with the failure exception.
    pub fn failed(&self) -> bool {
        self.final_outcome() == Some(Outcome::Failed)
    }
}

/// A recorded computation: the full state history of the set object as
/// observed by an omniscient monitor, plus the iterator runs indexed into
/// that history.
///
/// States appear in chronological order. Runs may interleave with mutations:
/// mutation transitions introduce new states between invocation boundaries.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Computation {
    /// σ0, σ1, …, σn in order.
    pub states: Vec<State>,
    /// Iterator runs over those states.
    pub runs: Vec<IterRun>,
}

impl Computation {
    /// A computation with one initial state and no runs.
    pub fn starting_at(initial: State) -> Self {
        Computation {
            states: vec![initial],
            runs: Vec::new(),
        }
    }

    /// Appends a state, returning its index.
    pub fn push_state(&mut self, s: State) -> usize {
        self.states.push(s);
        self.states.len() - 1
    }

    /// The most recent state.
    ///
    /// # Panics
    ///
    /// Panics if the computation has no states.
    pub fn current(&self) -> &State {
        self.states.last().expect("computation has no states")
    }

    /// Index of the most recent state.
    ///
    /// # Panics
    ///
    /// Panics if the computation has no states.
    fn current_index(&self) -> usize {
        assert!(!self.states.is_empty(), "computation has no states");
        self.states.len() - 1
    }

    /// Looks up a state by index.
    pub fn state(&self, idx: usize) -> &State {
        &self.states[idx]
    }

    /// The membership values of all states in a closed index range,
    /// used for Figure 6's "member in *some* state between first and last".
    pub fn members_between(&self, first: usize, last: usize) -> impl Iterator<Item = &SetValue> {
        self.states[first..=last].iter().map(|s| &s.members)
    }

    /// True when `e` was a member in some state with index in
    /// `[first, last]`.
    pub fn was_member_between(&self, e: ElemId, first: usize, last: usize) -> bool {
        self.members_between(first, last).any(|m| m.contains(e))
    }
}

/// Convenience builder that records a computation as a system runs: push
/// mutation states and invocation records in chronological order.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    computation: Computation,
    open_run: Option<IterRun>,
}

impl Recorder {
    /// Starts recording from an initial state.
    pub fn new(initial: State) -> Self {
        Recorder {
            computation: Computation::starting_at(initial),
            open_run: None,
        }
    }

    /// Records a state change (mutation, reachability change).
    pub fn observe_state(&mut self, s: State) -> usize {
        self.computation.push_state(s)
    }

    /// Starts an iterator run whose first-state is the current state.
    ///
    /// # Panics
    ///
    /// Panics if a run is already open.
    pub fn begin_run(&mut self) {
        assert!(self.open_run.is_none(), "a run is already open");
        self.open_run = Some(IterRun {
            first: self.computation.current_index(),
            invocations: Vec::new(),
        });
    }

    /// Records one invocation: the pre-state is the current state; `post`
    /// is pushed as a new state.
    ///
    /// # Panics
    ///
    /// Panics if no run is open.
    pub fn record_invocation(&mut self, post: State, outcome: Outcome) {
        let run = self.open_run.as_mut().expect("no open run");
        let pre = self.computation.current_index();
        let post_idx = self.computation.push_state(post);
        run.invocations.push(Invocation {
            pre,
            post: post_idx,
            outcome,
        });
    }

    /// Ends the open run.
    ///
    /// # Panics
    ///
    /// Panics if no run is open.
    pub fn end_run(&mut self) {
        let run = self.open_run.take().expect("no open run");
        self.computation.runs.push(run);
    }

    /// Whether a run is currently open.
    pub fn run_open(&self) -> bool {
        self.open_run.is_some()
    }

    /// Finishes recording (closing any open run) and returns the
    /// computation.
    pub fn finish(mut self) -> Computation {
        if self.open_run.is_some() {
            self.end_run();
        }
        self.computation
    }

    /// The computation recorded so far (open run not included).
    pub fn computation(&self) -> &Computation {
        &self.computation
    }

    /// The current state as recorded.
    pub fn current(&self) -> &State {
        self.computation.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    #[test]
    fn reachable_of_intersects_accessibility() {
        let st = State {
            members: sv(&[1, 2, 3]),
            accessible: sv(&[2, 3, 4]),
        };
        assert_eq!(st.reachable_now(), sv(&[2, 3]));
        assert_eq!(st.reachable_of(&sv(&[1, 4])), sv(&[4]));
    }

    #[test]
    fn fully_accessible_state() {
        let st = State::fully_accessible(sv(&[5, 6]));
        assert_eq!(st.reachable_now(), sv(&[5, 6]));
    }

    #[test]
    fn run_yields_and_history_object() {
        let run = IterRun {
            first: 0,
            invocations: vec![
                Invocation {
                    pre: 0,
                    post: 1,
                    outcome: Outcome::Yielded(ElemId(3)),
                },
                Invocation {
                    pre: 1,
                    post: 2,
                    outcome: Outcome::Yielded(ElemId(1)),
                },
                Invocation {
                    pre: 2,
                    post: 3,
                    outcome: Outcome::Returned,
                },
            ],
        };
        assert_eq!(run.yields(), vec![ElemId(3), ElemId(1)]);
        assert_eq!(run.yielded_set(), sv(&[1, 3]));
        assert_eq!(run.last(), 3);
        assert!(run.returned());
        assert!(!run.failed());
    }

    #[test]
    fn empty_run_last_is_first() {
        let run = IterRun {
            first: 4,
            invocations: vec![],
        };
        assert_eq!(run.last(), 4);
        assert_eq!(run.final_outcome(), None);
    }

    #[test]
    fn outcome_terminality() {
        assert!(Outcome::Returned.is_terminal());
        assert!(Outcome::Failed.is_terminal());
        assert!(!Outcome::Yielded(ElemId(0)).is_terminal());
        assert!(!Outcome::Blocked.is_terminal());
    }

    #[test]
    fn was_member_between_scans_window() {
        let mut c = Computation::starting_at(State::fully_accessible(sv(&[1])));
        c.push_state(State::fully_accessible(sv(&[1, 2])));
        c.push_state(State::fully_accessible(sv(&[1])));
        assert!(c.was_member_between(ElemId(2), 0, 2));
        assert!(!c.was_member_between(ElemId(2), 2, 2));
        assert!(!c.was_member_between(ElemId(9), 0, 2));
    }

    #[test]
    fn recorder_builds_runs() {
        let mut r = Recorder::new(State::fully_accessible(sv(&[1, 2])));
        r.begin_run();
        assert!(r.run_open());
        r.record_invocation(
            State::fully_accessible(sv(&[1, 2])),
            Outcome::Yielded(ElemId(1)),
        );
        // A mutation between invocations.
        r.observe_state(State::fully_accessible(sv(&[1, 2, 3])));
        r.record_invocation(
            State::fully_accessible(sv(&[1, 2, 3])),
            Outcome::Yielded(ElemId(2)),
        );
        r.end_run();
        let c = r.finish();
        assert_eq!(c.runs.len(), 1);
        let run = &c.runs[0];
        assert_eq!(run.first, 0);
        assert_eq!(run.invocations[0].pre, 0);
        assert_eq!(run.invocations[0].post, 1);
        // The mutation state sits between post of inv0 and pre of inv1.
        assert_eq!(run.invocations[1].pre, 2);
        assert_eq!(run.invocations[1].post, 3);
        assert_eq!(c.states.len(), 4);
    }

    #[test]
    #[should_panic(expected = "a run is already open")]
    fn recorder_rejects_nested_runs() {
        let mut r = Recorder::new(State::default());
        r.begin_run();
        r.begin_run();
    }

    #[test]
    fn finish_closes_open_run() {
        let mut r = Recorder::new(State::default());
        r.begin_run();
        let c = r.finish();
        assert_eq!(c.runs.len(), 1);
        assert!(c.runs[0].invocations.is_empty());
    }
}
