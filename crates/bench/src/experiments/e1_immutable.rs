//! E1 — Figure 1: immutable set, fault-free environment.
//!
//! Reproduces the baseline specification as an executed, conformance-
//! checked run: every element of `s_first` is yielded exactly once, the
//! iterator then terminates normally, and the whole run satisfies
//! Figure 1's constraint and ensures clauses. Also reports how iteration
//! cost scales with set size (two RPCs per element: one membership read
//! amortized, one fetch each).

use super::rows::{base, conforms, iter_run, iteration_ms, judged};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::Scenario;
use weakset_obs::ObsSnapshot;
use weakset_spec::checker::Figure;

const SIZES: [u64; 4] = [8, 32, 128, 512];

/// The row for a set of `n` members on eight healthy servers.
fn row(n: u64) -> Scenario {
    base(100 + n, 8, Semantics::Snapshot, n)
}

/// Every row of the E1 table, in table order.
pub fn rows() -> Vec<Scenario> {
    SIZES.into_iter().map(row).collect()
}

/// Formats the sweep as the E1 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E1 (Figure 1): immutable set, no failures — exact drain + conformance",
        &[
            "n",
            "yielded",
            "returned",
            "fig1 conforms",
            "iteration (ms)",
            "ms/elem",
        ],
    );
    for (n, row) in SIZES.into_iter().zip(rows()) {
        let report = judged(&row);
        let iteration = iteration_ms(&report);
        t.row(&[
            n.to_string(),
            report.yielded.len().to_string(),
            iter_run(&report).returned().to_string(),
            conforms(&report, Figure::Fig1).to_string(),
            format!("{iteration:.2}"),
            format!("{:.2}", iteration / n as f64),
        ]);
    }
    t.note("expected: yielded == n, conformance always, time linear in n (~2 RPC per element)");
    t.note("1 ms links; iteration time sums the invocations' simulated latency");
    vec![t]
}

/// `BENCH_e1.json`: the n = 32 row, judged.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario { seed, ..row(32) });
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e1",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_drains_exactly_conforms_and_scales_linearly() {
        let per_elem: Vec<f64> = SIZES
            .into_iter()
            .zip(rows())
            .map(|(n, row)| {
                let report = judged(&row);
                assert_eq!(report.yielded.len() as u64, n);
                assert!(iter_run(&report).returned(), "n={n}");
                assert!(conforms(&report, Figure::Fig1), "n={n}");
                iteration_ms(&report) / n as f64
            })
            .collect();
        // Per-element cost roughly constant (within 2x) across a 64x size
        // range.
        assert!(per_elem[3] < per_elem[0] * 2.0, "{per_elem:?}");
    }
}
