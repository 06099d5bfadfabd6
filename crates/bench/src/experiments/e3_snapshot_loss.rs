//! E3 — Figure 4: mutable set with loss of mutations (snapshot).
//!
//! Concurrent mutators add fresh elements and remove initial ones while a
//! snapshot iterator runs. Measures the two loss phenomena the paper
//! names: *missed additions* (elements added during the run that the
//! iterator never sees) and *ghost yields* (elements yielded although
//! they had been removed by the time the run ended) — while every run
//! still conforms to Figure 4.

use super::rows::{base, churn, conforms, final_members, judged};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::Scenario;
use weakset_obs::ObsSnapshot;
use weakset_spec::checker::Figure;
use weakset_spec::prelude::{ElemId, SetValue};

const N_ELEMS: u64 = 40;
const N_SERVERS: usize = 4;
const CHURN: [u64; 5] = [0, 4, 8, 16, 32];

/// The row with `churn_ops` mutations, alternately adds of fresh
/// elements and removals of initial ones, spread over the ~160 ms a
/// quiet run of 40 members takes.
fn row(churn_ops: u64) -> Scenario {
    let every_ms = (N_ELEMS * 4 / churn_ops.max(1)).max(1);
    Scenario {
        ops: churn(N_SERVERS, every_ms, churn_ops, true),
        ..base(300 + churn_ops, N_SERVERS, Semantics::Snapshot, N_ELEMS)
    }
}

/// Every row of the E3 table, in table order.
pub fn rows() -> Vec<Scenario> {
    CHURN.into_iter().map(row).collect()
}

/// Formats the sweep as the E3 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E3 (Figure 4): snapshot iteration under churn — lost mutations",
        &[
            "churn ops",
            "missed additions",
            "ghost yields",
            "fig4 conforms",
            "fig3 rejects",
        ],
    );
    for (churn_ops, row) in CHURN.into_iter().zip(rows()) {
        let report = judged(&row);
        let yielded: SetValue = report.yielded.iter().map(|&e| ElemId(e)).collect();
        let members = final_members(&report);
        t.row(&[
            churn_ops.to_string(),
            members.difference(&yielded).len().to_string(),
            yielded.difference(members).len().to_string(),
            conforms(&report, Figure::Fig4).to_string(),
            (!conforms(&report, Figure::Fig3)).to_string(),
        ]);
    }
    t.note("expected: losses grow with churn while Figure 4 conformance never breaks;");
    t.note("the same runs violate Figure 3 (immutability) as soon as churn > 0");
    vec![t]
}

/// `BENCH_e3.json`: the 16-mutation row, judged.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario { seed, ..row(16) });
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e3",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn losses_grow_with_churn_and_only_fig3_rejects() {
        let mut last_lost = 0;
        for (churn_ops, row) in CHURN.into_iter().zip(rows()) {
            let report = judged(&row);
            let yielded: SetValue = report.yielded.iter().map(|&e| ElemId(e)).collect();
            let members = final_members(&report);
            let lost = members.difference(&yielded).len() + yielded.difference(members).len();
            assert_eq!(lost == 0, churn_ops == 0, "churn={churn_ops}");
            assert!(lost >= last_lost, "churn={churn_ops}");
            last_lost = lost;
            assert!(conforms(&report, Figure::Fig4), "churn={churn_ops}");
            assert_eq!(
                conforms(&report, Figure::Fig3),
                churn_ops == 0,
                "churn={churn_ops}"
            );
        }
    }
}
