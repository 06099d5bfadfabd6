//! What every `BENCH_<id>.json` has in common: the seed the checked-in
//! baselines were produced with, and the helpers that freeze a world's
//! [`MetricsRegistry`](weakset_obs::MetricsRegistry) into an
//! [`ObsSnapshot`] and attach its named *objectives* — the numbers a PR
//! that moves a baseline quotes old → new. The runs themselves live in
//! [`crate::experiments`], one `snapshot` function per module.
//!
//! Determinism contract: no wall-clock value ever enters a snapshot —
//! only counters, high-water gauges, and simulated-microsecond
//! latencies — so two runs with the same seed serialize
//! byte-identically, and CI fails on any byte of difference from the
//! checked-in files.

use weakset_obs::{critical_path, CausalDag, CriticalPath, Direction, ObsEvent, ObsSnapshot};
use weakset_store::prelude::StoreWorld;

/// The seed every checked-in baseline was produced with.
pub const DEFAULT_SEED: u64 = 42;

/// Sum of counters whose name ends with `suffix` (e.g. `.yielded`
/// across all figures).
pub(crate) fn sum_suffix(snap: &ObsSnapshot, suffix: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, &v)| v as f64)
        .sum()
}

pub(crate) fn counter(snap: &ObsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// The two objectives every scenario carries: RPC traffic and scheduler
/// work for the same logical workload. Both shrinking means the stack
/// got cheaper.
pub(crate) fn with_common_objectives(snap: ObsSnapshot) -> ObsSnapshot {
    let rpc = counter(&snap, "rpc.sent");
    let events = counter(&snap, "sim.dispatch.total");
    snap.with_objective("rpc_sent", rpc, Direction::LowerIsBetter)
        .with_objective("sim_events", events, Direction::LowerIsBetter)
}

pub(crate) fn with_yield_objective(snap: ObsSnapshot) -> ObsSnapshot {
    let yields = sum_suffix(&snap, ".yielded");
    with_common_objectives(snap).with_objective("yields", yields, Direction::HigherIsBetter)
}

/// Closes the world's span ledger and drains the causal event stream,
/// folding per-kind event counts into the metrics registry
/// (`events.<kind>`) so trace-volume regressions show up next to every
/// other counter.
fn drain_events(world: &mut StoreWorld) -> Vec<ObsEvent> {
    let at = world.now().as_micros();
    let unclosed = world.events_mut().finish(at);
    debug_assert!(unclosed.is_empty(), "unclosed spans: {unclosed:?}");
    let events = world.events_mut().take_events();
    for e in &events {
        world.metrics_mut().incr(&format!("events.{}", e.kind));
    }
    events
}

/// Attaches the gated trace objectives: the critical-path decomposition
/// of all simulated latency the run's span DAG explains, and the total
/// event volume (so an instrumentation change that floods the sink
/// shows up in the gated bytes under a name).
pub(crate) fn with_trace_objectives(
    snap: ObsSnapshot,
    cp: &CriticalPath,
    total_events: usize,
) -> ObsSnapshot {
    snap.with_objective(
        "trace.critical_path.network_us",
        cp.network_us as f64,
        Direction::LowerIsBetter,
    )
    .with_objective(
        "trace.critical_path.queue_us",
        cp.queue_us as f64,
        Direction::LowerIsBetter,
    )
    .with_objective(
        "trace.critical_path.quorum_wait_us",
        cp.quorum_wait_us as f64,
        Direction::LowerIsBetter,
    )
    .with_objective(
        "trace.critical_path.gossip_us",
        cp.gossip_us as f64,
        Direction::LowerIsBetter,
    )
    .with_objective(
        "trace.critical_path.total_us",
        cp.total_us() as f64,
        Direction::LowerIsBetter,
    )
    .with_objective(
        "trace_events",
        total_events as f64,
        Direction::LowerIsBetter,
    )
}

/// Drains the event stream, takes the metrics snapshot, and attaches
/// the trace objectives — the common tail of every world-backed
/// scenario.
pub(crate) fn snapshot_with_trace(world: &mut StoreWorld, id: &str, seed: u64) -> ObsSnapshot {
    let events = drain_events(world);
    let snap = world.metrics().snapshot(id, seed);
    let cp = critical_path(&CausalDag::from_events(&events));
    with_trace_objectives(snap, &cp, events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find, ALL};
    use std::path::Path;

    fn build(id: &str, seed: u64) -> ObsSnapshot {
        (find(id).expect("a registered id").snapshot)(seed)
    }

    /// The workspace root, where the baselines are checked in.
    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }

    #[test]
    fn checked_in_baselines_are_current() {
        for row in &ALL {
            // E10's big-reconcile `n` scales down in debug builds; CI's
            // bench-snapshot job holds that file in release.
            if row.id == "e10" && cfg!(debug_assertions) {
                continue;
            }
            let snap = (row.snapshot)(DEFAULT_SEED);
            let file = root().join(snap.file_name());
            let baseline = std::fs::read_to_string(&file).expect("a baseline per registry row");
            assert!(
                snap.to_json() == baseline,
                "{} is stale: `experiments snapshot --out .` (release) regenerates it",
                file.display()
            );
        }
    }

    #[test]
    fn registry_and_baseline_files_agree() {
        let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        let numbered = (1..=12).map(|n| format!("e{n}"));
        let paper_order: Vec<String> = numbered.chain(["fuzz".to_string()]).collect();
        assert_eq!(ids, paper_order, "ids unique and in paper order");
        let mut files: Vec<String> = std::fs::read_dir(root())
            .expect("workspace root")
            .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        files.sort();
        let mut expected: Vec<String> = ids.iter().map(|id| format!("BENCH_{id}.json")).collect();
        expected.sort();
        assert_eq!(files, expected, "one baseline file per row, no others");
    }

    #[test]
    fn every_scenario_builds_and_round_trips() {
        for id in ALL.iter().map(|e| e.id) {
            let snap = build(id, 7);
            assert_eq!(snap.scenario, id);
            assert!(!snap.objectives.is_empty(), "{id}: no objectives");
            let json = snap.to_json();
            let back = weakset_obs::Json::parse(&json).expect(id);
            assert_eq!(back.to_pretty(), json, "{id}: not canonical");
        }
    }

    #[test]
    fn same_seed_means_identical_snapshot() {
        for id in ["e1", "e7", "e10"] {
            assert_eq!(build(id, 5).to_json(), build(id, 5).to_json(), "{id}");
        }
    }

    #[test]
    fn iteration_scenarios_actually_yield() {
        let snap = build("e1", 3);
        assert!(sum_suffix(&snap, ".yielded") > 0.0);
        assert!(snap.latencies.contains_key("iter.fig4.invocation_us"));
    }

    #[test]
    fn sharded_scenario_shows_a_real_batching_win() {
        let snap = build("e11", 9);
        let speedup = snap
            .objectives
            .get("sharded_read_speedup")
            .expect("objective present")
            .value;
        assert!(speedup > 1.5, "batched reads too slow: {speedup:.2}x");
        assert!(counter(&snap, "net.batch.envelopes") > 0.0);
    }

    #[test]
    fn gossip_scenario_converges_and_measures_the_wire() {
        let snap = build("e10", 11);
        assert_eq!(snap.gauges.get("gossip.converged"), Some(&1));
        assert!(counter(&snap, "gossip.delta_bytes") > 0.0);
        assert!(counter(&snap, "gossip.digest_bytes") > 0.0);
        // Big-reconcile sub-phase: both modes converged, and the
        // Merkle-range descent beat shipping the full live-dot list.
        // The gap is O(n / (k log n)), so the floor scales with E10's
        // `BIG_N`: at the release million-dot size the descent wins by
        // an order of magnitude; at the debug 20k size the per-range
        // split constant eats most of it.
        assert_eq!(snap.gauges.get("e10.big.converged"), Some(&1));
        let advantage = snap
            .objectives
            .get("merkle_advantage_1m")
            .expect("objective present")
            .value;
        let floor = if cfg!(debug_assertions) { 1.2 } else { 10.0 };
        assert!(
            advantage > floor,
            "merkle reconciliation advantage too small: {advantage:.2}x (floor {floor}x)"
        );
    }

    #[test]
    fn session_scenario_contrasts_staleness_with_wait_cost() {
        let snap = build("e12", 13);
        // The sessionless leaderless reads see the laggard secondaries
        // at least once, while the session client never misses its own
        // writes and pays for that with parked wait time.
        assert!(
            counter(&snap, "e12.read.leaderless.stale") > 0.0,
            "leaderless baseline never went stale — the contrast is gone"
        );
        let stale = snap
            .objectives
            .get("session_stale_reads")
            .expect("objective present")
            .value;
        assert_eq!(stale, 0.0, "session read missed its own write");
        assert!(counter(&snap, "e12.read.session.fresh") > 0.0);
        let wait = snap
            .objectives
            .get("session_wait_p50_us")
            .expect("objective present")
            .value;
        assert!(
            wait > 0.0,
            "session reads never waited — partition had no effect"
        );
        assert_eq!(snap.gauges.get("gossip.converged"), Some(&1));
    }
}
