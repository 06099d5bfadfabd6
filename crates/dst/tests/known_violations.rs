//! The four classes of violation the plain fuzz leg found, one shrunk
//! repro each (DESIGN.md §5). `DST_SEED=1 weakset-dst --leg plain
//! --iters 50000 --seed-from-env` wrote them; each is the smallest of its
//! class (for B, the smallest that shows B alone). All four are fixed:
//! C went when anti-entropy rounds stopped holding the foreground's waits
//! (ROADMAP item 13).

use weakset_dst::prelude::*;

fn assert_conforms(ron: &str) {
    let scenario = Scenario::from_ron(ron).expect("pinned artifact must parse");
    let report = execute(&scenario);
    assert!(
        report.violations.is_empty(),
        "{}",
        explain(&report).unwrap_or_default()
    );
}

/// Class A, fixed: the run has yielded its only member, so it has no
/// member left to yield. Its tail membership read is launched, an outage
/// starts, and the read times out after the heal; the run failed where
/// Fig. 5 demands `returns`. It now waits out the unreadable membership
/// inside the invocation.
#[test]
fn fig5_run_fails_after_the_outage_heals() {
    assert_conforms(
        "Scenario(
    seed: 13098513575315908666,
    servers: 4,
    deployment: Plain,
    semantics: GrowOnly,
    read_policy: Primary,
    guard_growth: false,
    fetch_order: IdOrder,
    think_ms: 3,
    budget: 29,
    start_ms: 28,
    setup: [(1, 3)],
    ops: [],
    faults: [Outage(at_ms: 36, node: 0, for_ms: 13)],
    chaos: None,
)",
    );
}

/// Class B, fixed: a guarded grow-only run ends in `Failed`, and the
/// removal its grow guard deferred landed inside the run while
/// `Elements::terminate` released the guard before recording the step.
#[test]
fn fig5_failed_run_keeps_the_set_grow_only() {
    assert_conforms(
        "Scenario(
    seed: 11686504379341145820,
    servers: 2,
    deployment: Plain,
    semantics: GrowOnly,
    read_policy: Primary,
    guard_growth: true,
    fetch_order: ClosestFirst,
    think_ms: 4,
    budget: 35,
    start_ms: 29,
    setup: [(2, 0), (5, 1)],
    ops: [Add(at_ms: 44, elem: 100, home: 1), Remove(at_ms: 47, elem: 2)],
    faults: [Partition(at_ms: 56, side: [0], for_ms: 40)],
    chaos: None,
)",
    );
}

/// Class C, fixed: a leaderless snapshot over gossip returned without
/// yielding an element the oracle's first state holds. Its adds, due at
/// 17 and 18 ms, waited inside anti-entropy rounds that held the
/// driver's waits, so the run began late, after the outage of the home
/// had begun. A round's exchanges are now woken by their own replies.
#[test]
fn fig4_leaderless_snapshot_yields_every_member() {
    assert_conforms(
        "Scenario(
    seed: 6645496270588172950,
    servers: 4,
    deployment: Gossip(grow_only: false),
    semantics: Snapshot,
    read_policy: Leaderless,
    guard_growth: false,
    fetch_order: ClosestFirst,
    think_ms: 4,
    budget: 28,
    start_ms: 70,
    setup: [(2, 1)],
    ops: [Add(at_ms: 17, elem: 101, home: 0), Add(at_ms: 18, elem: 100, home: 2)],
    faults: [Outage(at_ms: 75, node: 0, for_ms: 35)],
    chaos: None,
)",
    );
}

/// Class D, fixed: an optimistic quorum read on two servers, with its
/// only member yielded, ended its run on a `Blocked` invocation instead
/// of terminating. It now waits out the unreadable membership as class
/// A does.
#[test]
fn fig6_quorum_run_terminates() {
    assert_conforms(
        "Scenario(
    seed: 8906220309579868087,
    servers: 2,
    deployment: Plain,
    semantics: Optimistic,
    read_policy: Quorum,
    guard_growth: false,
    fetch_order: ClosestFirst,
    think_ms: 3,
    budget: 32,
    start_ms: 27,
    setup: [(1, 0)],
    ops: [],
    faults: [Partition(at_ms: 61, side: [1], for_ms: 25), Outage(at_ms: 80, node: 0, for_ms: 33), Outage(at_ms: 8, node: 0, for_ms: 23)],
    chaos: None,
)",
    );
}
