//! Well-known metric names for the record/replay bridge.
//!
//! A replayed run drives the simulator from a recording of a real
//! (threaded) run, so it has its own instrumentation surface: how many
//! log entries were consumed, substituted, or re-executed — and, most
//! importantly, whether the simulated run ever *diverged* from the log.
//! The names live here (rather than as string literals in
//! `weakset-dst`) so dashboards, snapshot baselines, and tests agree on
//! the spelling, matching how the rest of the workspace treats metric
//! names as a shared contract.
//!
//! Divergence is a first-class signal, never an ignored soft error:
//! replay bumps [`DIVERGENCE`] once per mismatch and records the detail
//! alongside, so a zero counter *is* the determinism claim.

/// Counter: log/sim mismatches detected during replay (payload hash
/// differs, pinned winner unavailable, alignment marker missing…). Any
/// non-zero value means the replay is not a faithful reproduction.
pub const DIVERGENCE: &str = "replay.divergence";

/// Counter: recorded requests (sends, an rpc's included) re-executed
/// against the simulated services.
pub const RPC_REPLAYED: &str = "replay.rpc.replayed";

/// Counter: recorded waits that ran out, substituted from the log: the
/// wait returns no winner at its deadline whatever the simulated network
/// did, and the rpc waiting fails as the live one did.
pub const RPC_SUBSTITUTED: &str = "replay.rpc.substituted";

/// Counter: `wait_any` completions pinned to the recorded winner.
pub const WAIT_PINNED: &str = "replay.wait.pinned";

/// Counter: recorded fault-table transitions applied to the simulated
/// topology (reachability cuts/heals, node down/up).
pub const FAULT_APPLIED: &str = "replay.fault.applied";

/// Counter: log entries consumed (all kinds, including informational).
pub const ENTRIES_CONSUMED: &str = "replay.entries.consumed";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn names_are_distinct_and_namespaced() {
        let all = [
            DIVERGENCE,
            RPC_REPLAYED,
            RPC_SUBSTITUTED,
            WAIT_PINNED,
            FAULT_APPLIED,
            ENTRIES_CONSUMED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("replay."), "{a} must be namespaced");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn usable_as_registry_keys() {
        let mut m = MetricsRegistry::new();
        m.incr(DIVERGENCE);
        m.add(ENTRIES_CONSUMED, 10);
        assert_eq!(m.counter(DIVERGENCE), 1);
        assert_eq!(m.counter(ENTRIES_CONSUMED), 10);
    }
}
