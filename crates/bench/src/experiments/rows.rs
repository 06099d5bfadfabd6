//! The figure, listing and replication experiments' rows as fuzzer
//! scenarios.
//!
//! A row of E1–E9a, E10b, E10c or E12 is a [`Scenario`] run by the
//! fuzzer's own driver ([`execute`]): the fleet, the churn (issued
//! through the client at invocation boundaries), the fault schedule and
//! the verdict are the ones every generated run gets. [`judged`] refuses
//! a row the oracle rejects, and the projections below read a table's
//! columns off the [`RunReport`].

use weakset::prelude::{FetchOrder, Semantics};
use weakset_dst::prelude::{execute, Chaos, Deployment, FaultSpec, Link, Op, RunReport, Scenario};
use weakset_spec::checker::{check_computation, Figure};
use weakset_spec::prelude::{Computation, IterRun, Outcome, SetValue};
use weakset_store::prelude::ReadPolicy;

/// A cut that outlasts any run: a partition's longest legal window.
pub(crate) const NEVER_HEALS_MS: u64 = 3_600_000;

/// A quiet row: `n` members (ids `1..=n`) homed round-robin over
/// `servers` plain servers, iteration from the run origin with no think
/// time, and a yield budget no row reaches unless it says so.
pub(crate) fn base(seed: u64, servers: usize, semantics: Semantics, n: u64) -> Scenario {
    Scenario {
        seed,
        servers,
        deployment: Deployment::Plain,
        semantics,
        read_policy: ReadPolicy::Primary,
        guard_growth: false,
        fetch_order: FetchOrder::ClosestFirst,
        window: 1,
        link: Link::DEFAULT,
        bandwidth: None,
        file_size: None,
        think_ms: 0,
        budget: 1_000,
        start_ms: 0,
        setup: (0..n).map(|i| (i + 1, i as usize % servers)).collect(),
        ops: Vec::new(),
        faults: Vec::new(),
        chaos: Chaos::None,
    }
}

/// A directory listing (E6, E7): `n` files homed round-robin over eight
/// servers behind 5 ms links, listed by a Snapshot run with `window`
/// fetches in flight, as `FileSystem::dynls` lists. At window 1 it is
/// also the rpc sequence of the strict `ls`, which shows nothing before
/// it completes.
pub(crate) fn listing(seed: u64, n: u64, window: usize) -> Scenario {
    Scenario {
        window,
        link: Link::Constant { one_way_ms: 5 },
        ..base(seed, 8, Semantics::Snapshot, n)
    }
}

/// A Fig. 6 row on gossip replicas, read under `policy`: servers
/// `0..cut` (the primary and `cut - 1` replicas) are partitioned away at
/// `at_ms` for `for_ms`, and iteration starts with the cut. The `n`
/// members are homed round-robin over the servers the cut spares, and
/// their adds reach the replicas only by anti-entropy, which starts
/// 5 ms after the run's setup.
pub(crate) fn gossip_cut(
    seed: u64,
    servers: usize,
    cut: usize,
    policy: ReadPolicy,
    n: u64,
    at_ms: u64,
    for_ms: u64,
) -> Scenario {
    Scenario {
        deployment: Deployment::Gossip {
            grow_only: false,
            merkle: false,
        },
        read_policy: policy,
        start_ms: at_ms,
        setup: (0..n)
            .map(|i| (i + 1, cut + i as usize % (servers - cut)))
            .collect(),
        faults: vec![FaultSpec::Partition {
            at_ms,
            side: (0..cut).collect(),
            for_ms,
        }],
        ..base(seed, servers, Semantics::Optimistic, n)
    }
}

/// `count` workload ops `every_ms` apart after the run origin: adds of
/// fresh elements (ids from 10,000) homed round-robin over `servers`
/// or, when `removes`, every second op a removal of the next initial
/// member (ids from 1).
pub(crate) fn churn(servers: usize, every_ms: u64, count: u64, removes: bool) -> Vec<Op> {
    (0..count)
        .map(|k| {
            let at_ms = every_ms * (k + 1);
            if removes && k % 2 == 1 {
                Op::Remove {
                    at_ms,
                    elem: k / 2 + 1,
                }
            } else {
                Op::Add {
                    at_ms,
                    elem: 10_000 + k,
                    home: k as usize % servers,
                }
            }
        })
        .collect()
}

/// Runs `row` through the fuzzer's driver.
///
/// # Panics
///
/// When the oracle rejects the run; the message carries the row's
/// artifact text, a repro that `weakset_dst::repro::{load, replay}`
/// re-run.
pub(crate) fn judged(row: &Scenario) -> RunReport {
    let report = execute(row);
    assert!(
        report.violations.is_empty(),
        "an experiment row violates its figure: {:?}\n{}",
        report.violations,
        row.to_ron()
    );
    report
}

/// The row's recorded computation (a plain deployment records one).
pub(crate) fn computation(report: &RunReport) -> &Computation {
    &report.computations[0]
}

/// The row's one iterator run.
pub(crate) fn iter_run(report: &RunReport) -> &IterRun {
    &computation(report).runs[0]
}

/// The membership when the run's schedule had drained.
pub(crate) fn final_members(report: &RunReport) -> &SetValue {
    &computation(report).current().members
}

/// What the run's first invocation did: `yielded`, `returned`,
/// `failed` or `blocked`.
pub(crate) fn first_step(report: &RunReport) -> &'static str {
    match iter_run(report).invocations[0].outcome {
        Outcome::Yielded(_) => "yielded",
        Outcome::Returned => "returned",
        Outcome::Failed => "failed",
        Outcome::Blocked => "blocked",
    }
}

/// The instants of the run's yields, in microseconds (its
/// `iter.outcome` events).
fn yield_instants(report: &RunReport) -> impl Iterator<Item = u64> + '_ {
    report
        .events
        .iter()
        .filter(|e| e.kind == "iter.outcome" && e.detail.as_str().contains(" yielded "))
        .map(|e| e.at_us)
}

/// The run's yields before its partition began, while it lasted, and
/// after it healed, read off its `iter.outcome` and `sim.fault.*`
/// events.
pub(crate) fn yields_around_cut(report: &RunReport) -> [usize; 3] {
    let at = |kind: &str| {
        let first = report.events.iter().find(|e| e.kind == kind);
        first.map_or(u64::MAX, |e| e.at_us)
    };
    let (cut_us, heal_us) = (at("sim.fault.partition"), at("sim.fault.heal_partition"));
    let mut phases = [0; 3];
    for at_us in yield_instants(report) {
        phases[usize::from(at_us >= cut_us) + usize::from(at_us >= heal_us)] += 1;
    }
    phases
}

/// A run's time to first yield and total, in milliseconds after its
/// first invocation began: its first yield and its last step, read off
/// its events.
pub(crate) fn run_ms(report: &RunReport) -> (f64, f64) {
    let events = &report.events;
    let begun = events.iter().find(|e| e.kind.ends_with(".invocation"));
    let start_us = begun.map_or(0, |e| e.at_us);
    let end = events.iter().rfind(|e| e.kind == "iter.outcome");
    let end_us = end.map_or(start_us, |e| e.at_us);
    let first_us = yield_instants(report).next().unwrap_or(end_us);
    let ms = |us: u64| (us - start_us) as f64 / 1000.0;
    (ms(first_us), ms(end_us))
}

/// Whether the recorded computation also satisfies `figure`.
pub(crate) fn conforms(report: &RunReport, figure: Figure) -> bool {
    check_computation(figure, computation(report)).is_ok()
}

/// Simulated time spent inside iterator invocations, in milliseconds.
pub(crate) fn iteration_ms(report: &RunReport) -> f64 {
    let us: u64 = report
        .metrics
        .latencies()
        .filter(|(name, _)| name.starts_with("iter.") && name.ends_with(".invocation_us"))
        .map(|(_, l)| l.sum())
        .sum();
    us as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{e10_availability, e12_session, e1_immutable, e6_latency};
    use crate::experiments::{e2_immutable_failures, e3_snapshot_loss, e4_growonly};
    use crate::experiments::{e5_optimistic, e7_availability, e8_taxonomy, e9_locking};

    #[test]
    fn every_row_is_an_artifact() {
        let rows = [
            e1_immutable::rows(),
            e2_immutable_failures::rows(),
            e3_snapshot_loss::rows(),
            e4_growonly::rows(),
            e5_optimistic::rows(),
            e8_taxonomy::rows(),
            e9_locking::rows(),
            e10_availability::cut_rows(),
            e10_availability::outage_rows(),
            e12_session::rows(),
            vec![e6_latency::row(64, 20, 4), e6_latency::size_row(65_536, 8)],
            vec![
                e7_availability::cut_row(2, 8),
                e7_availability::mobile_row(),
            ],
        ];
        for row in rows.into_iter().flatten() {
            assert_eq!(Scenario::from_ron(&row.to_ron()), Ok(row));
        }
    }

    #[test]
    #[should_panic(expected = "an experiment row violates its figure")]
    fn a_sabotaged_row_is_refused() {
        judged(&Scenario {
            chaos: Chaos::PhantomYield,
            ..base(1, 2, Semantics::Snapshot, 4)
        });
    }
}
