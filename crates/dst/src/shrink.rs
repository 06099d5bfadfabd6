//! Greedy trace shrinking: given a violating scenario, repeatedly drop
//! whole faults, ops, and setup entries — re-executing after each drop
//! and keeping it only if the violation survives — until a fixpoint.
//!
//! Determinism (same scenario ⇒ same run ⇒ same violations) is what
//! makes this sound: a candidate that still violates is a strictly
//! smaller repro, not a different bug found by a different schedule.

use crate::run;
use crate::scenario::Scenario;

/// Upper bound on re-executions per shrink; a scenario has at most ~14
/// droppable pieces, so a fixpoint fits comfortably.
const MAX_EXECUTIONS: usize = 200;

/// The droppable lists of a scenario, in the order the shrinker tries
/// them.
#[derive(Clone, Copy)]
pub(crate) enum Field {
    Faults,
    Ops,
    Setup,
}

impl Field {
    fn len(self, s: &Scenario) -> usize {
        match self {
            Field::Faults => s.faults.len(),
            Field::Ops => s.ops.len(),
            Field::Setup => s.setup.len(),
        }
    }

    pub(crate) fn remove(self, s: &mut Scenario, i: usize) {
        match self {
            Field::Faults => {
                s.faults.remove(i);
            }
            Field::Ops => {
                s.ops.remove(i);
            }
            Field::Setup => {
                s.setup.remove(i);
            }
        }
    }
}

/// The greedy fixpoint itself, over any candidate that carries a
/// workload: drop item `i` of one field, keep the result iff it still
/// violates, until a full pass drops nothing or the execution budget is
/// spent. Returns the smallest candidate found and the executions spent.
pub(crate) fn shrink_by<C>(
    mut best: C,
    workload: impl Fn(&C) -> &Scenario,
    drop_item: impl Fn(&C, Field, usize) -> C,
    still_violates: impl Fn(&C) -> bool,
) -> (C, usize) {
    let mut execs = 0usize;
    let mut progress = true;
    while progress {
        progress = false;
        for field in [Field::Faults, Field::Ops, Field::Setup] {
            let mut i = 0;
            while i < field.len(workload(&best)) {
                if execs >= MAX_EXECUTIONS {
                    return (best, execs);
                }
                let cand = drop_item(&best, field, i);
                execs += 1;
                if still_violates(&cand) {
                    best = cand;
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }
    }
    (best, execs)
}

/// Shrinks a violating scenario to a locally minimal one, returning it
/// and the number of executions spent. If `s` does not actually violate,
/// it is returned unchanged.
///
/// Only list items are dropped; every scalar field stays. So a shrunk
/// scenario keeps `guard_growth: true` after its last `Remove` is
/// dropped: the flag decides whether the run takes a grow guard, and
/// dropping it would reproduce a different run.
pub fn shrink(s: &Scenario) -> (Scenario, usize) {
    shrink_by(
        s.clone(),
        |s| s,
        |s, field, i| {
            let mut cand = s.clone();
            field.remove(&mut cand, i);
            cand
        },
        |cand| !run::execute(cand).violations.is_empty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn conforming_scenarios_shrink_to_themselves() {
        let s = generate(3);
        let (back, execs) = shrink(&s);
        // First probe of each list head fails to reproduce, so the
        // scenario survives intact.
        assert_eq!(back, s);
        assert!(execs <= s.faults.len() + s.ops.len() + s.setup.len());
    }
}
