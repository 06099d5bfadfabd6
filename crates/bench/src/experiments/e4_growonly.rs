//! E4 — Figure 5: growing-only set, pessimistic failure handling.
//!
//! Two phenomena from the paper's §3.3:
//!
//! 1. "the set may grow faster than the iterator yields elements from it;
//!    an iterator satisfying this specification may never terminate" —
//!    swept here as producer interval vs consumer cost.
//! 2. Pessimism: the first unreachable member aborts the run.

use super::rows::{base, churn, conforms, iter_run, judged, NEVER_HEALS_MS};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::{FaultSpec, Scenario};
use weakset_obs::ObsSnapshot;
use weakset_spec::checker::Figure;
use weakset_store::prelude::ReadPolicy;

const N_SERVERS: usize = 4;
/// What one yield costs the consumer at 1 ms links: the grow-only
/// invocation reads the membership and fetches one member (two round
/// trips, 4 ms), and the iterating client issues each producer add
/// itself, on its own clock — a put at the element's home, an add at the
/// primary and a sync to each of the three replicas (five round trips,
/// 10 ms).
const CONSUME_COST_MS: f64 = 14.0;
const YIELD_BUDGET: usize = 120;
const RATIOS: [f64; 4] = [4.0, 2.0, 1.0, 0.5];
const CUTS_MS: [u64; 3] = [8, 40, 80];
const POLICIES: [ReadPolicy; 3] = [ReadPolicy::Primary, ReadPolicy::Quorum, ReadPolicy::Any];

/// The producer/consumer race: 10 members, and a stream of 400 adds
/// `ratio` consume costs apart.
fn growth_row(ratio: f64) -> Scenario {
    let every_ms = (CONSUME_COST_MS * ratio).round() as u64;
    Scenario {
        budget: YIELD_BUDGET,
        ops: churn(N_SERVERS, every_ms, 400, false),
        ..base(400, N_SERVERS, Semantics::GrowOnly, 10)
    }
}

/// The pessimistic abort: 32 members, and a non-home server partitioned
/// away `cut_ms` into the run.
fn failure_row(cut_ms: u64) -> Scenario {
    let mut s = base(410, N_SERVERS, Semantics::GrowOnly, 32);
    s.faults.push(FaultSpec::Partition {
        at_ms: cut_ms,
        side: vec![3],
        for_ms: NEVER_HEALS_MS,
    });
    s
}

/// The membership-read-policy ablation (the paper: "one could easily
/// specify the iterator to use a quorum or token-based scheme by
/// changing the last line"): 16 members all homed on server 3, and the
/// membership primary (server 0) cut 20 ms into the run. The other three
/// servers replicate the membership.
fn policy_row(read_policy: ReadPolicy) -> Scenario {
    let mut s = base(420, N_SERVERS, Semantics::GrowOnly, 16);
    s.read_policy = read_policy;
    for (_, home) in &mut s.setup {
        *home = 3;
    }
    s.faults.push(FaultSpec::Partition {
        at_ms: 20,
        side: vec![0],
        for_ms: NEVER_HEALS_MS,
    });
    s
}

/// Every row of the E4 tables, in table order.
pub fn rows() -> Vec<Scenario> {
    let growth = RATIOS.into_iter().map(growth_row);
    let failure = CUTS_MS.into_iter().map(failure_row);
    growth
        .chain(failure)
        .chain(POLICIES.into_iter().map(policy_row))
        .collect()
}

/// Formats the three sweeps as the E4 tables.
pub fn run() -> Vec<Table> {
    let mut t1 = Table::new(
        "E4a (Figure 5): producer/consumer race — (non-)termination",
        &[
            "producer interval (x consume cost)",
            "yielded (budget 120)",
            "terminated",
            "fig5 conforms",
        ],
    );
    for ratio in RATIOS {
        let report = judged(&growth_row(ratio));
        t1.row(&[
            format!("{ratio:.1}"),
            report.yielded.len().to_string(),
            iter_run(&report).returned().to_string(),
            conforms(&report, Figure::Fig5).to_string(),
        ]);
    }
    t1.note("expected: slow producers (ratio > 1) let the run terminate; at ratio <= 1 the");
    t1.note("iterator never drains the set within the budget (the paper's non-termination)");

    let mut t2 = Table::new(
        "E4b (Figure 5): pessimistic abort on unreachable member",
        &[
            "partition at (ms)",
            "yielded (of 32)",
            "failed",
            "fig5 conforms",
        ],
    );
    for cut_ms in CUTS_MS {
        let report = judged(&failure_row(cut_ms));
        t2.row(&[
            cut_ms.to_string(),
            report.yielded.len().to_string(),
            iter_run(&report).failed().to_string(),
            conforms(&report, Figure::Fig5).to_string(),
        ]);
    }
    t2.note("expected: later partitions allow more yields before the mandatory failure");

    let mut t3 = Table::new(
        "E4c (Figure 5 variant): membership read policy when the primary is cut mid-run",
        &[
            "read policy",
            "yielded (of 16)",
            "terminated",
            "fig5 conforms",
        ],
    );
    for policy in POLICIES {
        let report = judged(&policy_row(policy));
        t3.row(&[
            format!("{policy:?}"),
            report.yielded.len().to_string(),
            iter_run(&report).returned().to_string(),
            conforms(&report, Figure::Fig5).to_string(),
        ]);
    }
    t3.note("the paper's suggested 'quorum scheme by changing the last line': Primary");
    t3.note("reads die with the primary; Quorum (3-of-4) and Any reads finish the run");
    vec![t1, t2, t3]
}

/// `BENCH_e4.json`: the slowest producer's race row, judged.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario {
        seed,
        ..growth_row(RATIOS[0])
    });
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e4",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_producers_terminate_fast_producers_do_not() {
        for ratio in RATIOS {
            let report = judged(&growth_row(ratio));
            assert_eq!(iter_run(&report).returned(), ratio > 1.0, "ratio {ratio}");
            if ratio <= 1.0 {
                assert_eq!(report.yielded.len(), YIELD_BUDGET, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn later_partitions_yield_more_then_fail() {
        let yields: Vec<usize> = CUTS_MS
            .into_iter()
            .map(|cut_ms| {
                let report = judged(&failure_row(cut_ms));
                assert!(iter_run(&report).failed(), "cut at {cut_ms} ms");
                report.yielded.len()
            })
            .collect();
        assert!(yields.windows(2).all(|w| w[0] < w[1]), "{yields:?}");
    }

    #[test]
    fn quorum_reads_survive_primary_loss_where_primary_reads_die() {
        let primary = judged(&policy_row(ReadPolicy::Primary));
        assert!(
            iter_run(&primary).failed(),
            "primary reads must fail mid-run"
        );
        assert!(primary.yielded.len() < 16);
        for policy in [ReadPolicy::Quorum, ReadPolicy::Any] {
            let report = judged(&policy_row(policy));
            assert!(iter_run(&report).returned(), "{policy:?} must finish");
            assert_eq!(report.yielded.len(), 16, "{policy:?}");
        }
    }
}
