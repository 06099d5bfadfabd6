//! E5 — Figure 6: growing and shrinking set, optimistic failure handling.
//!
//! A partition cuts half the servers before the run; it heals after a
//! configurable repair time (or never). The optimistic iterator never
//! fails: it yields everything reachable, blocks, and — once the heal
//! lands — resumes and finishes. Availability degrades gracefully with
//! repair time instead of collapsing, and every run conforms to
//! Figure 6.

use crate::report::{ms, Table};
use crate::scenarios::{populated_set, wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective, world_events};
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::fault::FaultPlan;
use weakset_sim::time::SimDuration;
use weakset_spec::checker::{check_computation, Figure};
use weakset_spec::specs::fig6;

const N_ELEMS: usize = 32;
const N_SERVERS: usize = 8;

/// One sweep point.
pub struct Point {
    /// Repair time in ms (`None` = the partition never heals).
    pub heal_after_ms: Option<u64>,
    /// Elements eventually yielded.
    pub yielded: usize,
    /// Blocked invocations along the way.
    pub blocked: usize,
    /// Final step: true = terminated, false = still blocked at budget.
    pub terminated: bool,
    /// Total simulated time spent.
    pub sim_time: SimDuration,
    /// Figure 6 conformance (including the §3.4 membership property).
    pub conforms: bool,
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    [Some(100u64), Some(500), Some(2_000), None]
        .into_iter()
        .map(|heal_after_ms| {
            let mut w = wan(500, N_SERVERS, SimDuration::from_millis(5));
            let set = populated_set(&mut w, N_ELEMS, SimDuration::from_millis(200));
            // Cut half the servers (not the membership home).
            let side: Vec<_> = w.servers[N_SERVERS / 2..].to_vec();
            w.world.topology_mut().partition(&side);
            if let Some(h) = heal_after_ms {
                w.world.install_plan(
                    &FaultPlan::none().heal_at(w.world.now() + SimDuration::from_millis(h)),
                );
            }
            let start = w.world.now();
            let mut it = set.elements_observed(Semantics::Optimistic);
            let (yielded, step) = it.drain(&mut w.world, 40, SimDuration::from_millis(50));
            let blocked = w.world.metrics().counter("iter.fig6.blocked") as usize;
            let sim_time = w.world.now().saturating_since(start);
            let comp = it.take_computation(&w.world).expect("observed");
            let conforms = check_computation(Figure::Fig6, &comp).is_ok()
                && comp
                    .runs
                    .iter()
                    .all(|run| fig6::yields_were_members(&comp, run));
            assert!(
                !matches!(step, IterStep::Failed(_)),
                "optimistic runs never fail"
            );
            Point {
                heal_after_ms,
                yielded: yielded.len(),
                blocked,
                terminated: step == IterStep::Done,
                sim_time,
                conforms,
            }
        })
        .collect()
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
    for p in points() {
        t.row(&[
            p.heal_after_ms
                .map_or("never".to_string(), |h| h.to_string()),
            p.yielded.to_string(),
            p.blocked.to_string(),
            p.terminated.to_string(),
            ms(p.sim_time),
            p.conforms.to_string(),
        ]);
    }
    t.note("expected: every healed run eventually yields all 32 (availability = 100%),");
    t.note("paying block time that grows with repair time; the never-healed run yields");
    t.note("the reachable half and blocks instead of failing (contrast E2/E4b)");
    vec![t]
}

/// `BENCH_e5.json`: not the table's partition sweep but a mid-run
/// *crash* on two servers — the iterator yields a prefix, blocks instead
/// of failing while a server is down, and finishes after the restart.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 2, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 12, SimDuration::from_millis(50));
    let mut it = set.elements(Semantics::Optimistic);
    for _ in 0..4 {
        it.next(&mut w.world);
    }
    w.world.topology_mut().crash(w.servers[1]);
    it.drain(&mut w.world, 3, SimDuration::from_millis(10));
    w.world.topology_mut().restart(w.servers[1]);
    it.drain(&mut w.world, 5, SimDuration::from_millis(10));
    let events = world_events(&mut w.world);
    with_yield_objective(snapshot_with_trace(
        w.world.metrics_mut(),
        &events,
        "e5",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healed_runs_reach_full_availability() {
        for p in points() {
            if p.heal_after_ms.is_some() {
                assert_eq!(p.yielded, N_ELEMS, "heal={:?}", p.heal_after_ms);
                assert!(p.terminated);
            }
        }
    }

    #[test]
    fn unhealed_run_yields_reachable_half_and_blocks() {
        let p = points().into_iter().last().expect("points");
        assert_eq!(p.heal_after_ms, None);
        assert_eq!(p.yielded, N_ELEMS / 2);
        assert!(!p.terminated);
        assert!(p.blocked > 0);
    }

    #[test]
    fn block_time_grows_with_repair_time() {
        let ps = points();
        assert!(ps[0].sim_time < ps[1].sim_time);
        assert!(ps[1].sim_time < ps[2].sim_time);
    }

    #[test]
    fn all_runs_conform_to_fig6() {
        for p in points() {
            assert!(p.conforms, "heal={:?}", p.heal_after_ms);
        }
    }
}
