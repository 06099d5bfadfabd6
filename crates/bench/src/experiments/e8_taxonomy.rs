//! E8 — Section 4: the Garcia-Molina & Wiederhold classification.
//!
//! Runs each design point in a constraint-respecting adversarial
//! environment, classifies the *completed* run empirically with
//! [`weakset_spec::taxonomy::classify_run`], and checks the observed
//! class against the paper's static mapping (a guarantee floor —
//! observations may classify stronger). A second table classifies the
//! *partial* results left behind by failed runs, which is where the
//! "weak consistency" of Figures 3/4 becomes visible: a truncated
//! first-vintage result is a strict subset of one state.

use super::rows::{base, churn, computation, iter_run, judged, NEVER_HEALS_MS};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::{FaultSpec, RunReport, Scenario};
use weakset_obs::ObsSnapshot;
use weakset_spec::checker::Figure;
use weakset_spec::taxonomy::{classify_run, paper_class, Consistency, Currency, QueryClass};

const N_SERVERS: usize = 4;
const PARTIAL: [Figure; 2] = [Figure::Fig3, Figure::Fig4];

/// Whether `observed` is at least as strong as the paper's `floor`.
fn at_least(observed: QueryClass, floor: QueryClass) -> bool {
    let cons_ok = match floor.consistency {
        Consistency::None => true,
        Consistency::Weak => observed.consistency != Consistency::None,
        Consistency::Strong => observed.consistency == Consistency::Strong,
    };
    let curr_ok = match floor.currency {
        Currency::FirstBound => true,
        Currency::FirstVintage => observed.currency == Currency::FirstVintage,
    };
    cons_ok && curr_ok
}

/// `figure`'s design point over 16 members with its constraint-respecting
/// churn: none for the immutable figures, 8 alternating adds and removes
/// 5 ms apart for Figures 4 and 6, 6 adds 6 ms apart for Figure 5.
fn row(figure: Figure) -> Scenario {
    let semantics = match figure {
        Figure::Fig1 | Figure::Fig3 | Figure::Fig4 => Semantics::Snapshot,
        Figure::Fig5 => Semantics::GrowOnly,
        Figure::Fig6 => Semantics::Optimistic,
    };
    let ops = match figure {
        Figure::Fig1 | Figure::Fig3 => Vec::new(),
        Figure::Fig4 | Figure::Fig6 => churn(N_SERVERS, 5, 8, true),
        Figure::Fig5 => churn(N_SERVERS, 6, 6, false),
    };
    Scenario {
        ops,
        ..base(800, N_SERVERS, semantics, 16)
    }
}

/// `figure`'s row with server 3 partitioned away 12 ms into the run.
fn partial_row(figure: Figure) -> Scenario {
    let mut s = row(figure);
    s.seed = 803;
    s.faults.push(FaultSpec::Partition {
        at_ms: 12,
        side: vec![3],
        for_ms: NEVER_HEALS_MS,
    });
    s
}

/// Every row of the E8 tables, in table order.
pub fn rows() -> Vec<Scenario> {
    let completed = Figure::ALL.into_iter().map(row);
    completed
        .chain(PARTIAL.into_iter().map(partial_row))
        .collect()
}

/// The class of the row's one run.
fn class(report: &RunReport) -> QueryClass {
    classify_run(computation(report), iter_run(report))
}

/// Formats the mapping as the E8 tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E8a (Section 4): GM&W classification of completed runs",
        &[
            "figure",
            "paper class (floor)",
            "observed class",
            "within guarantee",
        ],
    );
    for figure in Figure::ALL {
        let observed = class(&judged(&row(figure)));
        let paper = paper_class(figure);
        t.row(&[
            format!("{figure:?}"),
            paper.to_string(),
            observed.to_string(),
            at_least(observed, paper).to_string(),
        ]);
    }
    t.note("paper classes are guarantees (floors); completed runs may classify stronger —");
    t.note("e.g. a drained snapshot IS a consistent first-vintage snapshot even under churn");

    let mut t2 = Table::new(
        "E8b: classification of partial results from failed runs",
        &["figure", "partial-result class"],
    );
    for figure in PARTIAL {
        let c = class(&judged(&partial_row(figure)));
        t2.row(&[format!("{figure:?}"), c.to_string()]);
    }
    t2.note("truncated first-vintage results are weak: a strict subset of one state");
    vec![t, t2]
}

/// `BENCH_e8.json`: Figure 6's row (optimistic iteration under churn),
/// judged.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario {
        seed,
        ..row(Figure::Fig6)
    });
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e8",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_completed_run_stays_within_its_guarantee() {
        for figure in Figure::ALL {
            let report = judged(&row(figure));
            assert!(iter_run(&report).returned(), "{figure:?}");
            let observed = class(&report);
            assert!(at_least(observed, paper_class(figure)), "{figure:?}");
            let currency = match figure {
                Figure::Fig1 | Figure::Fig3 | Figure::Fig4 => Currency::FirstVintage,
                Figure::Fig5 | Figure::Fig6 => Currency::FirstBound,
            };
            assert_eq!(observed.currency, currency, "{figure:?}");
            if matches!(figure, Figure::Fig1 | Figure::Fig3) {
                assert_eq!(observed.consistency, Consistency::Strong, "{figure:?}");
            }
        }
    }

    #[test]
    fn failed_runs_leave_weak_partial_results() {
        for figure in PARTIAL {
            let report = judged(&partial_row(figure));
            assert!(iter_run(&report).failed(), "{figure:?}");
            let c = class(&report);
            assert_eq!(c.consistency, Consistency::Weak, "{figure:?}");
            assert_eq!(c.currency, Currency::FirstVintage, "{figure:?}");
        }
    }
}
