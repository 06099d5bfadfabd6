//! E2 — Figure 3: immutable set with failures (pessimistic).
//!
//! Sweeps the number of servers partitioned away and reports whether
//! the iterator signals the failure exception or terminates normally,
//! how much of the set it yields before failing, and that every
//! recorded run conforms to Figure 3.
//!
//! Expected shape: with no partition the run returns; once any member's
//! home is unreachable the run fails (pessimism), after having yielded
//! the reachable fraction of the set.

use super::rows::{base, conforms, iter_run, judged, NEVER_HEALS_MS};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::{FaultSpec, Scenario};
use weakset_obs::ObsSnapshot;
use weakset_spec::checker::Figure;

const N_ELEMS: u64 = 64;
const N_SERVERS: usize = 8;
const CUTS: [usize; 4] = [0, 1, 2, 4];

/// The row with the last `cut` servers partitioned away from the run
/// origin on (never the membership home, server 0, so the set object
/// stays readable).
fn row(cut: usize) -> Scenario {
    let mut s = base(200 + cut as u64, N_SERVERS, Semantics::Snapshot, N_ELEMS);
    if cut > 0 {
        s.faults.push(FaultSpec::Partition {
            at_ms: 0,
            side: (N_SERVERS - cut..N_SERVERS).collect(),
            for_ms: NEVER_HEALS_MS,
        });
    }
    s
}

/// Every row of the E2 table, in table order.
pub fn rows() -> Vec<Scenario> {
    CUTS.into_iter().map(row).collect()
}

/// Formats the sweep as the E2 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E2 (Figure 3): immutable set with failures — partition sweep",
        &[
            "servers cut (of 8)",
            "returned",
            "failed",
            "yielded (of 64)",
            "fig3 conforms",
        ],
    );
    for (cut, row) in CUTS.into_iter().zip(rows()) {
        let report = judged(&row);
        let run = iter_run(&report);
        t.row(&[
            cut.to_string(),
            run.returned().to_string(),
            run.failed().to_string(),
            report.yielded.len().to_string(),
            conforms(&report, Figure::Fig3).to_string(),
        ]);
    }
    t.note("expected: the run fails once any member is unreachable;");
    t.note("yields fall with the reachable fraction (64 × (8-cut)/8)");
    vec![t]
}

/// `BENCH_e2.json`: the one-server cut row, judged.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario { seed, ..row(1) });
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e2",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cut_fails_the_run_after_the_reachable_fraction() {
        for (cut, row) in CUTS.into_iter().zip(rows()) {
            let report = judged(&row);
            let run = iter_run(&report);
            assert_eq!(run.returned(), cut == 0, "cut={cut}");
            assert_eq!(run.failed(), cut > 0, "cut={cut}");
            let reachable = N_ELEMS as usize * (N_SERVERS - cut) / N_SERVERS;
            assert_eq!(report.yielded.len(), reachable, "cut={cut}");
            assert!(conforms(&report, Figure::Fig3), "cut={cut}");
        }
    }
}
