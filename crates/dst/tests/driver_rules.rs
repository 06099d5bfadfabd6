//! How the scenario driver ends a run it gives up on (DESIGN.md §5, "A
//! run the driver ends"): a run it stops at its yield budget is aborted,
//! so it gives back the read lock it holds, and a run still blocked while
//! one of the scenario's faults stands ends blocked, not wedged. The
//! converse, a run still blocked after every listed fault healed, is
//! `run::tests::a_run_still_blocked_after_the_last_heal_is_wedged`.
//! And no wait of the driver is held by background work: on every leg,
//! no wait begins inside a dispatched task.

use weakset::prelude::{FetchOrder, Semantics};
use weakset_dst::prelude::*;
use weakset_obs::store_health::{WRITE_ERR, WRITE_OK};
use weakset_spec::prelude::Outcome;
use weakset_store::prelude::ReadPolicy;

/// A fault-free plain row of `members` members homed alternately on two
/// servers, iterated from 10 ms after the run origin.
fn quiet(semantics: Semantics, members: u64) -> Scenario {
    Scenario {
        seed: 7,
        servers: 2,
        deployment: Deployment::Plain,
        semantics,
        read_policy: ReadPolicy::Primary,
        guard_growth: false,
        fetch_order: FetchOrder::IdOrder,
        window: 1,
        link: Link::DEFAULT,
        bandwidth: None,
        file_size: None,
        think_ms: 1,
        budget: 16,
        start_ms: 10,
        setup: (1..=members).map(|e| (e, e as usize % 2)).collect(),
        ops: Vec::new(),
        faults: Vec::new(),
        chaos: Chaos::None,
    }
}

/// `s` stopped at a budget of two yields, with adds of `elems` 500 ms
/// into the run, long after the driver has stopped it.
fn abandoned(s: Scenario, elems: std::ops::Range<u64>) -> Scenario {
    Scenario {
        budget: 2,
        ops: elems
            .map(|elem| Op::Add {
                at_ms: 500,
                elem,
                home: 0,
            })
            .collect(),
        ..s
    }
}

#[test]
fn a_locked_run_stopped_at_its_budget_gives_back_its_lock() {
    let report = execute(&abandoned(quiet(Semantics::Locked, 6), 7..8));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.yielded.len(), 2);
    let run = &report.computations[0].runs[0];
    assert!(!run.returned() && !run.failed(), "the run is left open");
    // The six setup adds and the later one, none refused.
    assert_eq!(report.metrics.counter(WRITE_OK), 7);
    assert_eq!(report.metrics.counter(WRITE_ERR), 0);
}

#[test]
fn a_sharded_locked_run_stopped_at_its_budget_gives_back_every_lock() {
    let s = Scenario {
        servers: 6,
        deployment: Deployment::Sharded { shards: 3 },
        read_policy: ReadPolicy::Quorum,
        ..quiet(Semantics::Locked, 6)
    };
    let report = execute(&abandoned(s, 7..19));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.yielded.len(), 2);
    assert_eq!(report.metrics.counter(WRITE_OK), 6 + 12);
    assert_eq!(report.metrics.counter(WRITE_ERR), 0);
}

#[test]
fn a_run_blocked_by_an_outage_that_never_heals_ends_blocked_with_no_violation() {
    // Fig. 6 blocks until the members homed on server 1 are reachable
    // again, and they never are: the driver stops waiting and judges no
    // wedge.
    let s = Scenario {
        faults: vec![FaultSpec::Outage {
            at_ms: 0,
            node: 1,
            for_ms: 3_600_000,
        }],
        ..quiet(Semantics::Optimistic, 3)
    };
    let report = execute(&s);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.yielded, vec![2]);
    let run = &report.computations[0].runs[0];
    assert!(!run.returned());
    assert_eq!(run.invocations.last().unwrap().outcome, Outcome::Blocked);
}

/// No wait of a run begins inside a dispatched task: the anti-entropy
/// rounds are woken by their own replies and never pump the event loop,
/// so none holds a foreground wait (`sim.wait.nested`, 15,245 / 0 /
/// 25,944 / 44,923 / 14,313 on these scenarios when a round waited on
/// its exchanges' rpcs).
#[test]
fn no_background_task_waits_on_any_leg() {
    for (leg, generate) in LEGS {
        let nested: u64 = (0..500)
            .map(|i| {
                execute(&generate(mix(1, i)))
                    .metrics
                    .counter("sim.wait.nested")
            })
            .sum();
        assert_eq!(nested, 0, "{leg} leg");
    }
}
