//! E2 — Figure 3: immutable set with failures (pessimistic).
//!
//! Sweeps the fraction of servers partitioned away and measures, over
//! many seeded trials: how often the iterator signals the failure
//! exception vs terminating normally, how much of the set it yields
//! before failing, and that every recorded run conforms to Figure 3.
//!
//! Expected shape: with no partition every run returns; once any member's
//! home is unreachable every run fails (pessimism), after having yielded
//! approximately the reachable fraction of the set.

use crate::report::{pct, Table};
use crate::scenarios::{drive, populated_set, wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_spec::checker::{check_computation, Figure};

const N_ELEMS: usize = 64;
const N_SERVERS: usize = 8;
const TRIALS: u64 = 10;

/// One sweep point (aggregated over trials).
pub struct Point {
    /// Servers partitioned away (of `N_SERVERS`).
    pub cut: usize,
    /// Trials that terminated normally.
    pub returned: usize,
    /// Trials that signalled failure.
    pub failed: usize,
    /// Mean elements yielded per trial.
    pub mean_yielded: f64,
    /// Trials whose recorded run conformed to Figure 3.
    pub conforming: usize,
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    [0usize, 1, 2, 4]
        .into_iter()
        .map(|cut| {
            let mut returned = 0;
            let mut failed = 0;
            let mut conforming = 0;
            let mut total_yields = 0usize;
            for trial in 0..TRIALS {
                let mut w = wan(200 + trial, N_SERVERS, SimDuration::from_millis(5));
                let set = populated_set(&mut w, N_ELEMS, SimDuration::from_millis(200));
                // Partition the last `cut` servers (never the membership
                // home, servers[0], so the set object stays accessible).
                if cut > 0 {
                    let side: Vec<_> = w.servers[N_SERVERS - cut..].to_vec();
                    w.world.topology_mut().partition(&side);
                }
                let mut it = set.elements_observed(Semantics::Snapshot);
                let mut yields = 0;
                let outcome = loop {
                    match it.next(&mut w.world) {
                        IterStep::Yielded(_) => yields += 1,
                        step => break step,
                    }
                };
                total_yields += yields;
                match outcome {
                    IterStep::Done => returned += 1,
                    IterStep::Failed(_) => failed += 1,
                    other => panic!("unexpected {other:?}"),
                }
                let comp = it.take_computation(&w.world).expect("observed");
                if check_computation(Figure::Fig3, &comp).is_ok() {
                    conforming += 1;
                }
            }
            Point {
                cut,
                returned,
                failed,
                mean_yielded: total_yields as f64 / TRIALS as f64,
                conforming,
            }
        })
        .collect()
}

/// Formats the sweep as the E2 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E2 (Figure 3): immutable set with failures — partition sweep",
        &[
            "servers cut (of 8)",
            "returned",
            "failed",
            "mean yielded (of 64)",
            "fig3 conforms",
        ],
    );
    for p in points() {
        t.row(&[
            p.cut.to_string(),
            pct(p.returned, TRIALS as usize),
            pct(p.failed, TRIALS as usize),
            format!("{:.1}", p.mean_yielded),
            pct(p.conforming, TRIALS as usize),
        ]);
    }
    t.note("expected: fail rate jumps to 100% once any member is unreachable;");
    t.note("yields fall roughly with the reachable fraction (64 × (8-cut)/8)");
    vec![t]
}

/// `BENCH_e2.json`: the E1 snapshot's run with one of the four servers
/// down throughout; the pessimistic iterator reports what it cannot
/// reach.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 4, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 24, SimDuration::from_millis(100));
    w.world.topology_mut().crash(w.servers[3]);
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, SimDuration::from_millis(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e2", seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_partition_always_returns() {
        let ps = points();
        assert_eq!(ps[0].cut, 0);
        assert_eq!(ps[0].returned, TRIALS as usize);
        assert_eq!(ps[0].failed, 0);
        assert_eq!(ps[0].mean_yielded, N_ELEMS as f64);
    }

    #[test]
    fn any_partition_fails_pessimistically() {
        for p in points().iter().skip(1) {
            assert_eq!(p.failed, TRIALS as usize, "cut={}", p.cut);
        }
    }

    #[test]
    fn yields_track_reachable_fraction() {
        for p in points() {
            let expected = N_ELEMS as f64 * (N_SERVERS - p.cut) as f64 / N_SERVERS as f64;
            assert!(
                (p.mean_yielded - expected).abs() <= 1.0,
                "cut={} mean={} expected={expected}",
                p.cut,
                p.mean_yielded
            );
        }
    }

    #[test]
    fn every_trial_conforms() {
        for p in points() {
            assert_eq!(p.conforming, TRIALS as usize, "cut={}", p.cut);
        }
    }
}
