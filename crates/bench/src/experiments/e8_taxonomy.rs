//! E8 — Section 4: the Garcia-Molina & Wiederhold classification.
//!
//! Runs each design point in a constraint-respecting adversarial
//! environment, classifies every *completed* run empirically with
//! [`weakset_spec::taxonomy::classify_run`], and checks the weakest
//! observed class against the paper's static mapping (a guarantee floor —
//! observations may classify stronger). A second table classifies the
//! *partial* results left behind by failed runs, which is where the
//! "weak consistency" of Figures 3/4 becomes visible: a truncated
//! first-vintage result is a strict subset of one state.

use crate::report::Table;
use crate::scenarios::{drive, populated_set, schedule_churn_over, schedule_growth, wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_spec::checker::Figure;
use weakset_spec::taxonomy::{classify_run, paper_class, Consistency, Currency, QueryClass};

/// One figure's classification outcome.
pub struct Row {
    /// The figure.
    pub figure: Figure,
    /// The paper's static class.
    pub paper: QueryClass,
    /// The weakest class observed over the completed runs.
    pub observed: QueryClass,
    /// Whether the observation is at least as strong as the paper's
    /// floor.
    pub within_guarantee: bool,
}

fn weaker_consistency(a: Consistency, b: Consistency) -> Consistency {
    use Consistency::*;
    match (a, b) {
        (None, _) | (_, None) => None,
        (Weak, _) | (_, Weak) => Weak,
        _ => Strong,
    }
}

fn weaker_currency(a: Currency, b: Currency) -> Currency {
    if a == Currency::FirstBound || b == Currency::FirstBound {
        Currency::FirstBound
    } else {
        Currency::FirstVintage
    }
}

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

fn classify_one(figure: Figure, seed: u64, with_partition: bool) -> (QueryClass, bool) {
    let mut w = wan(800 + seed, 4, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 16, SimDuration::from_millis(200));
    let semantics = match figure {
        Figure::Fig1 | Figure::Fig3 | Figure::Fig4 => Semantics::Snapshot,
        Figure::Fig5 => Semantics::GrowOnly,
        Figure::Fig6 => Semantics::Optimistic,
    };
    // Constraint-respecting churn per figure.
    match figure {
        Figure::Fig1 | Figure::Fig3 => {} // immutable
        Figure::Fig4 | Figure::Fig6 => {
            let now = w.world.now();
            schedule_churn_over(
                &mut w,
                &set,
                now,
                SimDuration::from_millis(25),
                8,
                0.5,
                16,
                seed,
            );
        }
        Figure::Fig5 => {
            let now = w.world.now();
            schedule_growth(&mut w, &set, now, SimDuration::from_millis(30), 6);
        }
    }
    if with_partition {
        let victim = w.servers[3];
        w.world.schedule_fault(
            w.world.now() + SimDuration::from_millis(60),
            weakset_sim::fault::FaultAction::Partition(vec![victim]),
        );
    }
    let mut it = set.elements_observed(semantics);
    let (_, step, _) = drive(&mut w.world, &mut it, 5, SimDuration::from_millis(20));
    let comp = it.take_computation(&w.world).expect("observed");
    let run = comp.runs.first().expect("one run recorded");
    (classify_run(&comp, run), step == IterStep::Done)
}

/// Classification of completed runs, per figure.
pub fn rows() -> Vec<Row> {
    Figure::ALL
        .into_iter()
        .map(|figure| {
            let mut observed = QueryClass {
                consistency: Consistency::Strong,
                currency: Currency::FirstVintage,
            };
            let mut completed = 0;
            for seed in 0..6 {
                let (c, done) = classify_one(figure, seed, false);
                if done {
                    completed += 1;
                    observed = QueryClass {
                        consistency: weaker_consistency(observed.consistency, c.consistency),
                        currency: weaker_currency(observed.currency, c.currency),
                    };
                }
            }
            assert!(completed > 0, "no completed runs for {figure:?}");
            let paper = paper_class(figure);
            Row {
                figure,
                paper,
                observed,
                within_guarantee: at_least(observed, paper),
            }
        })
        .collect()
}

/// Classification of the partial results of *failed* snapshot runs
/// (Figures 3/4 under a mid-run partition): `(figure, class)`.
fn partial_rows() -> Vec<(Figure, QueryClass)> {
    [Figure::Fig3, Figure::Fig4]
        .into_iter()
        .map(|figure| {
            let (c, done) = classify_one(figure, 3, true);
            assert!(!done, "partition must fail the snapshot run");
            (figure, c)
        })
        .collect()
}

/// Formats the mapping as the E8 tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E8a (Section 4): GM&W classification of completed runs",
        &[
            "figure",
            "paper class (floor)",
            "weakest observed class",
            "within guarantee",
        ],
    );
    for r in rows() {
        t.row(&[
            format!("{:?}", r.figure),
            r.paper.to_string(),
            r.observed.to_string(),
            r.within_guarantee.to_string(),
        ]);
    }
    t.note("paper classes are guarantees (floors); completed runs may classify stronger —");
    t.note("e.g. a drained snapshot IS a consistent first-vintage snapshot even under churn");

    let mut t2 = Table::new(
        "E8b: classification of partial results from failed runs",
        &["figure", "partial-result class"],
    );
    for (figure, c) in partial_rows() {
        t2.row(&[format!("{figure:?}"), c.to_string()]);
    }
    t2.note("truncated first-vintage results are weak: a strict subset of one state");
    vec![t, t2]
}

/// `BENCH_e8.json`: one full, undisturbed run per semantics over the
/// same 12-element set.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 12, SimDuration::from_millis(100));
    for sem in Semantics::ALL {
        let mut it = set.elements(sem);
        drive(&mut w.world, &mut it, 3, SimDuration::from_millis(10));
    }
    with_yield_objective(snapshot_with_trace(&mut w.world, "e8", seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_stays_within_its_guarantee() {
        for r in rows() {
            assert!(r.within_guarantee, "{:?}", r.figure);
        }
    }

    #[test]
    fn immutable_figures_classify_strong_first_vintage() {
        for r in rows() {
            if matches!(r.figure, Figure::Fig1 | Figure::Fig3) {
                assert_eq!(
                    r.observed.consistency,
                    Consistency::Strong,
                    "{:?}",
                    r.figure
                );
                assert_eq!(r.observed.currency, Currency::FirstVintage);
            }
        }
    }

    #[test]
    fn snapshot_under_churn_stays_first_vintage() {
        let rows = rows();
        let r = rows
            .iter()
            .find(|r| r.figure == Figure::Fig4)
            .expect("fig4");
        assert_eq!(r.observed.currency, Currency::FirstVintage);
    }

    #[test]
    fn current_state_figures_are_first_bound() {
        for r in rows() {
            if matches!(r.figure, Figure::Fig5 | Figure::Fig6) {
                assert_eq!(r.observed.currency, Currency::FirstBound, "{:?}", r.figure);
            }
        }
    }

    #[test]
    fn failed_runs_leave_weak_partial_results() {
        for (figure, c) in partial_rows() {
            assert_eq!(c.consistency, Consistency::Weak, "{figure:?}");
            assert_eq!(c.currency, Currency::FirstVintage, "{figure:?}");
        }
    }
}
