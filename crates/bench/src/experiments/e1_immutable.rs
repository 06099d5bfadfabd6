//! E1 — Figure 1: immutable set, fault-free environment.
//!
//! Reproduces the baseline specification as an executed, conformance-
//! checked run: every element of `s_first` is yielded exactly once, the
//! iterator then terminates normally, and the whole run satisfies
//! Figure 1's constraint and ensures clauses. Also reports how iteration
//! cost scales with set size (two RPCs per element: one membership read
//! amortized, one fetch each).

use crate::report::{ms, Table};
use crate::scenarios::{drive, populated_set, wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_spec::checker::{check_computation, Figure};

/// One sweep point.
pub struct Point {
    /// Set size.
    pub n: usize,
    /// Elements yielded.
    pub yielded: usize,
    /// Whether the recorded run conforms to Figure 1.
    pub conforms: bool,
    /// Total simulated iteration time.
    pub sim_time: SimDuration,
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    [8usize, 32, 128, 512]
        .into_iter()
        .map(|n| {
            let mut w = wan(100 + n as u64, 8, SimDuration::from_millis(5));
            let set = populated_set(&mut w, n, SimDuration::from_millis(200));
            let mut it = set.elements_observed(Semantics::Snapshot);
            let start = w.world.now();
            let mut yielded = 0;
            loop {
                match it.next(&mut w.world) {
                    IterStep::Yielded(_) => yielded += 1,
                    IterStep::Done => break,
                    other => panic!("fault-free run produced {other:?}"),
                }
            }
            let sim_time = w.world.now().saturating_since(start);
            let comp = it.take_computation(&w.world).expect("observed");
            let conforms = check_computation(Figure::Fig1, &comp).is_ok();
            Point {
                n,
                yielded,
                conforms,
                sim_time,
            }
        })
        .collect()
}

/// Formats the sweep as the E1 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E1 (Figure 1): immutable set, no failures — exact drain + conformance",
        &["n", "yielded", "fig1 conforms", "sim time (ms)", "ms/elem"],
    );
    for p in points() {
        let per = p.sim_time.as_micros() as f64 / 1000.0 / p.n as f64;
        t.row(&[
            p.n.to_string(),
            p.yielded.to_string(),
            p.conforms.to_string(),
            ms(p.sim_time),
            format!("{per:.2}"),
        ]);
    }
    t.note("expected: yielded == n, conformance always, time linear in n (~2 RPC per element)");
    vec![t]
}

/// `BENCH_e1.json`: one full snapshot iteration of 24 elements on four
/// healthy servers.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 4, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 24, SimDuration::from_millis(100));
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, SimDuration::from_millis(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e1", seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_drains_exactly_and_conforms() {
        for p in points() {
            assert_eq!(p.yielded, p.n);
            assert!(p.conforms, "n={}", p.n);
        }
    }

    #[test]
    fn cost_scales_linearly() {
        let ps = points();
        let per0 = ps[0].sim_time.as_micros() as f64 / ps[0].n as f64;
        let last = &ps[ps.len() - 1];
        let per_last = last.sim_time.as_micros() as f64 / last.n as f64;
        // Per-element cost roughly constant (within 2x) across a 64x size
        // range.
        assert!(per_last < per0 * 2.0, "per0={per0} per_last={per_last}");
    }

    #[test]
    fn table_renders() {
        let t = &run()[0];
        assert_eq!(t.len(), 4);
        assert!(t.to_string().contains("E1"));
    }
}
