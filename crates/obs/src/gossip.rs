//! Well-known metric names for anti-entropy gossip.
//!
//! `weakset-gossip`'s engine charges every exchange to these counters,
//! and the bench compare gate regresses on several of them — so the
//! spellings live here (rather than as string literals in the engine)
//! where dashboards, snapshot baselines, and tests agree on them.
//!
//! The byte counters are *honest*: they charge the compact encoded size
//! defined by `weakset_store::wire` (varints, per-replica dot-list
//! dedup), for both the classic `DigestMode::Full` exchange and the
//! Merkle-range descent, so the two modes are comparable on one axis.

/// Counter: anti-entropy rounds fired by the schedule.
pub const ROUNDS: &str = "gossip.rounds";

/// Counter: anti-entropy exchanges initiated (one per origin/peer pair
/// per round, any mode).
pub const EXCHANGES: &str = "gossip.exchanges";

/// Counter: novel dotted entries shipped in deltas and delta batches.
pub const NOVEL_SHIPPED: &str = "gossip.novel_shipped";

/// Counter: push legs skipped because the peer's digest proved it needed
/// nothing.
pub const PUSH_SKIPPED: &str = "gossip.push_skipped";

/// Counter: exchanges that failed — RPC errors, and replies of an
/// unexpected type (a peer that does not speak the protocol).
pub const FAILURES: &str = "gossip.failures";

/// Counter: encoded bytes of digest/summary metadata shipped — version
/// vectors in `Full` mode, range summaries and range replies (minus the
/// leaf entry payloads) in `MerkleRange` mode.
pub const DIGEST_BYTES: &str = "gossip.digest_bytes";

/// Counter: encoded bytes of delta payloads shipped — `MembershipDelta`s
/// in `Full` mode, leaf entries and `DeltaBatch`es in `MerkleRange`
/// mode.
pub const DELTA_BYTES: &str = "gossip.delta_bytes";

/// Counter: round trips spent descending Merkle ranges (excludes the
/// final delta-batch exchange).
pub const RANGE_RPCS: &str = "gossip.range_rpcs";

/// Counter: rounds in which some replica's digest was still dominated by
/// the join of every replica's digest (staleness × rounds integral).
pub const REPLICA_STALE_ROUNDS: &str = "gossip.replica_stale_rounds";

/// Gauge (max): most replicas simultaneously stale in any round.
pub const STALE_REPLICAS_MAX: &str = "gossip.stale_replicas.max";

/// Gauge (max): dots held *only* by replicas a round's exchanges did not
/// reach (crashed or cut off) — state that would be lost if they never
/// came back, and the reason [`CONVERGED`] alone cannot certify
/// durability.
pub const UNREPLICATED_DOTS: &str = "gossip.unreplicated_dots";

/// Gauge: 1 when every live replica's digest equals the all-replica
/// join, else 0 (set each round by the convergence probe).
pub const CONVERGED: &str = "gossip.converged";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn names_are_distinct_and_namespaced() {
        let all = [
            ROUNDS,
            EXCHANGES,
            NOVEL_SHIPPED,
            PUSH_SKIPPED,
            FAILURES,
            DIGEST_BYTES,
            DELTA_BYTES,
            RANGE_RPCS,
            REPLICA_STALE_ROUNDS,
            STALE_REPLICAS_MAX,
            UNREPLICATED_DOTS,
            CONVERGED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("gossip."), "{a} must be namespaced");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn usable_as_registry_keys() {
        let mut m = MetricsRegistry::new();
        m.incr(ROUNDS);
        m.add(DIGEST_BYTES, 64);
        m.gauge_set(CONVERGED, 1);
        assert_eq!(m.counter(ROUNDS), 1);
        assert_eq!(m.counter(DIGEST_BYTES), 64);
    }
}
