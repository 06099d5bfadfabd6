//! E3 — Figure 4: mutable set with loss of mutations (snapshot).
//!
//! Concurrent mutators add fresh elements and remove initial ones while a
//! snapshot iterator runs. Measures the two loss phenomena the paper
//! names: *missed additions* (elements added during the run that the
//! iterator never sees) and *ghost yields* (elements yielded although
//! they had been removed by the time the run ended) — while every run
//! still conforms to Figure 4.

use crate::report::Table;
use crate::scenarios::{drive, populated_set, schedule_churn, schedule_churn_over, wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use std::collections::BTreeSet;
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_spec::checker::{check_computation, Figure};
use weakset_store::object::ObjectId;
use weakset_store::prelude::ReadPolicy;

const N_ELEMS: usize = 40;

/// One sweep point.
pub struct Point {
    /// Mutations scheduled during the run.
    pub churn_ops: usize,
    /// Additions the snapshot missed.
    pub missed_adds: usize,
    /// Yields of elements no longer members at run end.
    pub ghost_yields: usize,
    /// Whether the run conformed to Figure 4.
    pub conforms: bool,
    /// Whether the same run violates Figure 5 or Figure 3 (it should,
    /// once mutations happen: shrinkage breaks Fig 5's constraint and any
    /// mutation breaks Fig 3's).
    pub stricter_figures_reject: bool,
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    [0usize, 4, 8, 16, 32]
        .into_iter()
        .map(|churn_ops| {
            let mut w = wan(300 + churn_ops as u64, 4, SimDuration::from_millis(5));
            let set = populated_set(&mut w, N_ELEMS, SimDuration::from_millis(200));
            // Mutations spread across the expected run (~N_ELEMS × 20ms):
            // 50% adds of fresh elements, 50% removes of initial ones.
            if churn_ops > 0 {
                let span_ms = (N_ELEMS as u64) * 20;
                let interval = SimDuration::from_millis((span_ms / churn_ops as u64).max(1));
                let now = w.world.now();
                schedule_churn_over(
                    &mut w,
                    &set,
                    now,
                    interval,
                    churn_ops,
                    0.5,
                    N_ELEMS as u64,
                    churn_ops as u64,
                );
            }
            let mut it = set.elements_observed(Semantics::Snapshot);
            let mut yields: BTreeSet<ObjectId> = BTreeSet::new();
            loop {
                match it.next(&mut w.world) {
                    IterStep::Yielded(rec) => {
                        yields.insert(rec.id);
                    }
                    IterStep::Done => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            let comp = it.take_computation(&w.world).expect("observed");
            let conforms = check_computation(Figure::Fig4, &comp).is_ok();
            let stricter_figures_reject = if churn_ops == 0 {
                // Quiescent: the stricter figures accept too.
                true
            } else {
                !check_computation(Figure::Fig3, &comp).is_ok()
            };
            // Let any still-scheduled mutations land, then read the final
            // membership.
            w.world.run_to_quiescence();
            let final_members: BTreeSet<ObjectId> = set
                .client()
                .read_members(&mut w.world, set.cref(), ReadPolicy::Primary)
                .expect("healthy")
                .entries
                .iter()
                .map(|m| m.elem)
                .collect();
            let missed_adds = final_members.difference(&yields).count();
            let ghost_yields = yields.difference(&final_members).count();
            Point {
                churn_ops,
                missed_adds,
                ghost_yields,
                conforms,
                stricter_figures_reject,
            }
        })
        .collect()
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
    for p in points() {
        t.row(&[
            p.churn_ops.to_string(),
            p.missed_adds.to_string(),
            p.ghost_yields.to_string(),
            p.conforms.to_string(),
            p.stricter_figures_reject.to_string(),
        ]);
    }
    t.note("expected: losses grow with churn while Figure 4 conformance never breaks;");
    t.note("the same runs violate Figure 3 (immutability) as soon as churn > 0");
    vec![t]
}

/// `BENCH_e3.json`: 30 mutations, half adds and half removes, land
/// during one snapshot iteration of 18 elements.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 18, SimDuration::from_millis(100));
    let now = w.world.now();
    schedule_churn(
        &mut w,
        &set,
        now,
        SimDuration::from_millis(4),
        30,
        0.5,
        seed,
    );
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, SimDuration::from_millis(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e3", seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_run_loses_nothing() {
        let p = &points()[0];
        assert_eq!(p.churn_ops, 0);
        assert_eq!(p.missed_adds, 0);
        assert_eq!(p.ghost_yields, 0);
        assert!(p.conforms);
    }

    #[test]
    fn losses_grow_with_churn() {
        let ps = points();
        let last = &ps[ps.len() - 1];
        assert!(
            last.missed_adds + last.ghost_yields > 0,
            "heavy churn must lose mutations"
        );
        // Monotone-ish: max churn loses at least as much as min nonzero.
        assert!(last.missed_adds >= ps[1].missed_adds);
    }

    #[test]
    fn conformance_never_breaks() {
        for p in points() {
            assert!(p.conforms, "churn={}", p.churn_ops);
        }
    }

    #[test]
    fn stricter_figures_reject_churned_runs() {
        for p in points() {
            assert!(p.stricter_figures_reject, "churn={}", p.churn_ops);
        }
    }
}
