//! E5 — Figure 6: growing and shrinking set, optimistic failure handling.
//!
//! A partition cuts half the servers before the run; it heals after a
//! configurable repair time (or never). The optimistic iterator never
//! fails: it yields everything reachable, blocks, and — once the heal
//! lands — resumes and finishes. Availability degrades gracefully with
//! repair time instead of collapsing, and every run conforms to
//! Figure 6. The never-healed run is the one the driver gives up on: it
//! ends blocked, which Figure 6 allows for as long as the cut stands.

use super::rows::{base, conforms, iter_run, judged, run_ms, NEVER_HEALS_MS};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::{FaultSpec, Link, RunReport, Scenario};
use weakset_obs::ObsSnapshot;
use weakset_spec::checker::Figure;

const N_ELEMS: u64 = 32;
const N_SERVERS: usize = 8;
/// Repair times in ms; `None`: the partition never heals.
const HEALS_MS: [Option<u64>; 4] = [Some(100), Some(500), Some(2_000), None];

/// The row for one repair time: 32 members on eight servers behind 5 ms
/// links, and servers 4..8 (not the membership primary) cut from the
/// run origin for `heal_after_ms`.
fn row(heal_after_ms: Option<u64>) -> Scenario {
    Scenario {
        link: Link::Constant { one_way_ms: 5 },
        faults: vec![FaultSpec::Partition {
            at_ms: 0,
            side: (N_SERVERS / 2..N_SERVERS).collect(),
            for_ms: heal_after_ms.unwrap_or(NEVER_HEALS_MS),
        }],
        ..base(500, N_SERVERS, Semantics::Optimistic, N_ELEMS)
    }
}

/// Every row of the E5 table, in table order.
pub fn rows() -> Vec<Scenario> {
    HEALS_MS.into_iter().map(row).collect()
}

/// The run's blocked invocations.
fn blocked(report: &RunReport) -> u64 {
    report.metrics.counter("iter.fig6.blocked")
}

/// Formats the sweep as the E5 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E5 (Figure 6): optimistic iteration vs repair time (4 of 8 servers cut)",
        &[
            "heal after (ms)",
            "yielded (of 32)",
            "blocked invocations",
            "terminated",
            "sim time (ms)",
            "fig6 conforms",
        ],
    );
    for (heal_after_ms, row) in HEALS_MS.into_iter().zip(rows()) {
        let report = judged(&row);
        t.row(&[
            heal_after_ms.map_or("never".to_string(), |h| h.to_string()),
            report.yielded.len().to_string(),
            blocked(&report).to_string(),
            iter_run(&report).returned().to_string(),
            format!("{:.2}", run_ms(&report).1),
            conforms(&report, Figure::Fig6).to_string(),
        ]);
    }
    t.note("expected: every healed run eventually yields all 32 (availability = 100%),");
    t.note("paying block time that grows with repair time; the never-healed run yields");
    t.note("the reachable half and blocks instead of failing (contrast E2/E4b)");
    t.note("sim time runs from the first invocation to the last; 5 ms between blocked ones");
    vec![t]
}

/// Not the table's partition sweep but a mid-run *crash*: 12 members on
/// two servers behind 5 ms links, and server 1 down from 80 ms into the
/// run for 300 ms. The iterator yields a prefix, blocks instead of
/// failing while the server is down, and finishes after the restart.
fn crash_row(seed: u64) -> Scenario {
    Scenario {
        link: Link::Constant { one_way_ms: 5 },
        faults: vec![FaultSpec::Outage {
            at_ms: 80,
            node: 1,
            for_ms: 300,
        }],
        ..base(seed, 2, Semantics::Optimistic, 12)
    }
}

/// `BENCH_e5.json`: the crash row, judged.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&crash_row(seed));
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e5",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healed_runs_reach_full_availability_and_block_longer_the_later_the_heal() {
        let times: Vec<f64> = HEALS_MS[..3]
            .iter()
            .map(|&heal| {
                let report = judged(&row(heal));
                assert_eq!(report.yielded.len() as u64, N_ELEMS, "heal={heal:?}");
                assert!(iter_run(&report).returned(), "heal={heal:?}");
                assert!(conforms(&report, Figure::Fig6), "heal={heal:?}");
                run_ms(&report).1
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn unhealed_run_yields_reachable_half_and_ends_blocked() {
        let report = judged(&row(None));
        assert_eq!(report.yielded.len() as u64, N_ELEMS / 2);
        assert!(!iter_run(&report).returned());
        assert!(!iter_run(&report).failed());
        assert!(blocked(&report) > 0);
        assert!(conforms(&report, Figure::Fig6));
    }

    #[test]
    fn the_crash_row_blocks_then_finishes() {
        let report = judged(&crash_row(42));
        assert_eq!(report.yielded.len(), 12);
        assert!(iter_run(&report).returned());
        assert!(blocked(&report) > 0);
    }
}
