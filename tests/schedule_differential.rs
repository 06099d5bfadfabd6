//! Differential testing across the design space: push *identical
//! recorded schedules* through the locked baseline and each weak
//! iterator, and check the containment relations the paper's figures
//! imply.
//!
//! Because `weakset-dst` executions are pure functions of the scenario,
//! changing only the `semantics` field replays the same topology, seed,
//! setup, and mutation schedule under a different design point — the
//! cross-semantics comparison is exact, not statistical.
//!
//! Relations checked, per schedule:
//! - every design point runs violation-free against its own figure;
//! - the locked baseline's yield set is contained in the grow-only
//!   iterator's (locking freezes membership at entry; grow-only starts
//!   from the same membership and may pick up concurrent growth);
//! - every optimistic yield was a member in some state between the run's
//!   first and last invocation (Figure 6's `in some state` clause).

use std::collections::BTreeSet;
use weakset::prelude::Semantics;
use weakset_dst::prelude::*;
use weakset_spec::specs::fig6;

/// A fault-free plain deployment carrying a mixed add/remove schedule.
fn schedule(seed: u64, ops: Vec<Op>) -> Scenario {
    Scenario {
        seed,
        servers: 3,
        deployment: Deployment::Plain,
        semantics: Semantics::Snapshot, // overridden per design point
        read_policy: weakset_store::prelude::ReadPolicy::Primary,
        guard_growth: false,
        fetch_order: weakset::prelude::FetchOrder::IdOrder,
        window: 1,
        think_ms: 2,
        budget: 32,
        start_ms: 20,
        setup: vec![(1, 0), (2, 1), (3, 2), (4, 0)],
        ops,
        faults: Vec::new(),
        chaos: Chaos::None,
    }
}

fn at(s: &Scenario, sem: Semantics) -> Scenario {
    Scenario {
        semantics: sem,
        guard_growth: sem == Semantics::GrowOnly && s.has_removals(),
        ..s.clone()
    }
}

fn yield_set(r: &RunReport) -> BTreeSet<u64> {
    r.yielded.iter().copied().collect()
}

fn check_schedule(base: &Scenario) {
    let mut reports = Vec::new();
    for sem in Semantics::ALL {
        let s = at(base, sem);
        let r = execute(&s);
        assert!(
            r.violations.is_empty(),
            "seed {} {sem}: {:?}",
            base.seed,
            r.violations
        );
        reports.push((sem, r));
    }

    let report_for = |sem| &reports.iter().find(|(s, _)| *s == sem).unwrap().1;
    let locked = yield_set(report_for(Semantics::Locked));
    let grow = yield_set(report_for(Semantics::GrowOnly));
    assert!(
        locked.is_subset(&grow),
        "seed {}: locked yields {locked:?} not contained in grow-only yields {grow:?}",
        base.seed
    );

    let optimistic = report_for(Semantics::Optimistic);
    let comp = optimistic
        .computations
        .first()
        .expect("observed run records a computation");
    for run in &comp.runs {
        assert!(
            fig6::yields_were_members(comp, run),
            "seed {}: optimistic yield was never a member during its run",
            base.seed
        );
    }
}

#[test]
fn pure_growth_schedule() {
    check_schedule(&schedule(
        11,
        vec![
            Op::Add {
                at_ms: 30,
                elem: 100,
                home: 1,
            },
            Op::Add {
                at_ms: 55,
                elem: 101,
                home: 2,
            },
        ],
    ));
}

#[test]
fn mixed_growth_and_shrink_schedule() {
    check_schedule(&schedule(
        13,
        vec![
            Op::Add {
                at_ms: 28,
                elem: 100,
                home: 0,
            },
            Op::Remove { at_ms: 45, elem: 2 },
            Op::Add {
                at_ms: 60,
                elem: 101,
                home: 1,
            },
            Op::Remove { at_ms: 75, elem: 4 },
        ],
    ));
}

#[test]
fn quiescent_schedule() {
    check_schedule(&schedule(17, Vec::new()));
}

/// Same relations hold across a batch of generator-built fault-free
/// schedules, not just hand-picked ones.
#[test]
fn generated_fault_free_schedules() {
    let mut checked = 0;
    for i in 0..40 {
        let mut s = generate(mix(23, i));
        if !matches!(s.deployment, Deployment::Plain) || !s.faults.is_empty() {
            continue;
        }
        s.read_policy = weakset_store::prelude::ReadPolicy::Primary;
        check_schedule(&s);
        checked += 1;
        if checked >= 5 {
            break;
        }
    }
    assert!(
        checked >= 3,
        "generator produced too few fault-free plain scenarios"
    );
}
