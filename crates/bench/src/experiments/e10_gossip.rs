//! E10 — anti-entropy membership replication (`weakset-gossip`).
//!
//! The paper's weak sets tolerate partial failure at the *iterator*; this
//! experiment measures what a leaderless, gossip-converged membership
//! layer buys underneath it:
//!
//! * **E10a** — convergence time of pairwise anti-entropy as fan-out and
//!   replica count vary (seeded, deterministic).
//! * **E10b**, **E10c** — availability through a primary-isolating cut,
//!   as judged gossip scenarios (`e10_availability`).
//! * **E10d** — reconciliation bytes vs set size at fixed divergence:
//!   `Full` ships the whole live-dot list (linear in `n`), the
//!   Merkle-range descent pays `O(k log n)` — its curve flattens as the
//!   set grows.

use super::e10_availability;
use crate::report::Table;
use crate::scenarios::{gossip_fleet, replicated, Wan};
use crate::snapshot::{counter, snapshot_with_trace, with_common_objectives, world_events};
use weakset::prelude::WeakSet;
use weakset_gossip::prelude::*;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_runtime::prelude::RuntimeExt;
use weakset_sim::time::SimDuration;
use weakset_sim::traits::{Clock, Observe};
use weakset_store::collection::MemberEntry;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::StoreClient;

const COLL: CollectionId = CollectionId(1);
/// Members of every E10a, E10b and E10c set.
pub(crate) const N_MEMBERS: u64 = 24;
const INTERVAL_MS: u64 = 20;

/// One convergence measurement.
pub struct ConvergencePoint {
    /// Membership hosts (primary + replicas).
    pub replicas: usize,
    /// Peers contacted per replica per round.
    pub fanout: usize,
    /// Anti-entropy rounds until all replicas agreed.
    pub rounds: u64,
    /// Simulated time from first round to convergence.
    pub ms: u64,
    /// Dotted entries shipped in total (delta efficiency).
    pub shipped: u64,
}

/// E10a: sweeps replica count × fan-out, measuring time-to-convergence
/// of `N_MEMBERS` adds whose object records are spread round-robin over
/// the non-primary replicas.
fn convergence_points() -> Vec<ConvergencePoint> {
    let mut out = Vec::new();
    for &n in &[3usize, 5, 9] {
        for &fanout in &[1usize, 2, 3] {
            let seed = 1000 + (n * 10 + fanout) as u64;
            let Wan {
                world: mut w,
                client_node,
                servers,
            } = gossip_fleet(seed, n, SimDuration::from_millis(2));
            let client = StoreClient::new(client_node, SimDuration::from_millis(100));
            let cref = replicated(&servers);
            client
                .create_collection(&mut w, &cref)
                .expect("healthy world");
            let set = WeakSet::new(client, cref.clone());
            for i in 0..N_MEMBERS {
                let rec = ObjectRecord::new(ObjectId(i + 1), format!("o{}", i + 1), &b"x"[..]);
                let home = cref.replicas[(i as usize) % cref.replicas.len()];
                set.add(&mut w, rec, home).expect("healthy world");
            }
            let handle = engine::install(
                &mut w,
                COLL,
                cref.all_nodes(),
                GossipConfig {
                    fanout,
                    interval: SimDuration::from_millis(INTERVAL_MS),
                    ..GossipConfig::default()
                },
            );
            let start = w.now();
            // Step a millisecond at a time until every replica agrees: a
            // round is woken by its exchanges' replies, so it spans many
            // steps, and the rounds are the ones begun by then.
            while !engine::converged(&w, COLL, &cref.all_nodes()) {
                let ms = w.now().saturating_since(start).as_millis();
                assert!(ms < 20_000, "gossip failed to converge");
                let deadline = w.now() + SimDuration::from_millis(1);
                w.run_until(deadline);
            }
            let ms = w.now().saturating_since(start).as_millis();
            let rounds = w.metrics().counter("gossip.rounds");
            let shipped = w.metrics().counter("gossip.novel_shipped");
            handle.stop();
            w.run_to_quiescence();
            out.push(ConvergencePoint {
                replicas: n,
                fanout,
                rounds,
                ms,
                shipped,
            });
        }
    }
    out
}

/// One reconciliation-cost measurement: a `set_size`-dot OR-Set pair
/// diverged by [`RECONCILE_K`] elements, reconciled with one push-pull
/// exchange in `mode`.
pub struct ReconcilePoint {
    /// Live dots shared by both replicas before divergence.
    pub set_size: u64,
    /// Digest mode label (`full` / `merkle`).
    pub mode: &'static str,
    /// Bytes of digest/summary metadata the exchange charged.
    pub digest_bytes: u64,
    /// Bytes of delta payload the exchange charged.
    pub delta_bytes: u64,
}

impl ReconcilePoint {
    /// Total wire cost of the exchange.
    pub fn total(&self) -> u64 {
        self.digest_bytes + self.delta_bytes
    }
}

/// Fixed symmetric-difference size for the E10d sweep.
pub const RECONCILE_K: u64 = 32;

/// Two replicas share a `GrowShrink` set of `n` dots, diverge by `k`
/// fresh elements (half novel on each side) and reconcile with one
/// push-pull exchange in `mode`, in a two-node world of their own.
/// Returns the `(digest, delta)` bytes the exchange charged and whether
/// the pair converged.
fn reconcile_pair(seed: u64, n: u64, k: u64, mode: DigestMode) -> (u64, u64, bool) {
    let Wan {
        world: mut w,
        servers,
        ..
    } = gossip_fleet(seed, 2, SimDuration::from_millis(2));
    let entry = |i: u64, home| MemberEntry {
        elem: ObjectId(i),
        home,
    };
    let mut base = MembershipCrdt::new(GossipSemantics::GrowShrink);
    for i in 1..=n {
        base.add(servers[0], entry(i, servers[0]));
    }
    let mut a = base.clone();
    let mut b = base;
    for i in 0..k / 2 {
        a.add(servers[0], entry(n + 1 + i, servers[0]));
        b.add(servers[1], entry(n + k + 1 + i, servers[1]));
    }
    for (node, set) in [(servers[0], a), (servers[1], b)] {
        w.with_service_mut(node, |g: &mut GossipNode| {
            g.create_replica(COLL, GossipSemantics::GrowShrink);
            *g.crdt_mut(COLL).expect("replica just created") = set;
        });
    }
    engine::sync_pair(
        &mut w,
        COLL,
        servers[0],
        servers[1],
        mode,
        SimDuration::from_millis(200),
    );
    (
        w.metrics().counter(weakset_obs::gossip::DIGEST_BYTES),
        w.metrics().counter(weakset_obs::gossip::DELTA_BYTES),
        engine::converged(&w, COLL, &servers),
    )
}

/// E10d: sweeps the set size at fixed divergence, one point per digest
/// mode. Both modes must converge; only the wire cost differs.
fn reconcile_points() -> Vec<ReconcilePoint> {
    let mut out = Vec::new();
    for &n in &[1_000u64, 8_000, 64_000] {
        for (label, mode) in [
            ("full", DigestMode::Full),
            ("merkle", DigestMode::MerkleRange),
        ] {
            let (digest_bytes, delta_bytes, converged) =
                reconcile_pair(4000 + n, n, RECONCILE_K, mode);
            assert!(converged, "n={n} {label}: reconciliation must converge");
            out.push(ReconcilePoint {
                set_size: n,
                mode: label,
                digest_bytes,
                delta_bytes,
            });
        }
    }
    out
}

/// Formats E10 as its four tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E10a: anti-entropy convergence time vs replica count and fan-out",
        &[
            "replicas",
            "fan-out",
            "rounds to converge",
            "sim time (ms)",
            "entries shipped",
        ],
    );
    for p in convergence_points() {
        t.row(&[
            p.replicas.to_string(),
            p.fanout.to_string(),
            p.rounds.to_string(),
            p.ms.to_string(),
            p.shipped.to_string(),
        ]);
    }
    t.note("expected: rounds shrink as fan-out grows; shipped entries stay near");
    t.note("members x (replicas-1) — digests keep converged pairs from re-sending");

    let mut t4 = Table::new(
        "E10d: reconciliation bytes vs set size (32-element divergence)",
        &[
            "set size",
            "digest mode",
            "digest bytes",
            "delta bytes",
            "total bytes",
        ],
    );
    for p in reconcile_points() {
        t4.row(&[
            p.set_size.to_string(),
            p.mode.to_string(),
            p.digest_bytes.to_string(),
            p.delta_bytes.to_string(),
            p.total().to_string(),
        ]);
    }
    t4.note("expected: Full grows linearly with the set (it ships every live dot both");
    t4.note("ways); the Merkle-range curve flattens — O(k log n) descent plus k entries");
    vec![
        t,
        e10_availability::cut_table(),
        e10_availability::outage_table(),
        t4,
    ]
}

/// The `n` for the snapshot's big-reconcile sub-phase: a million live
/// dots in release (the headline anti-entropy-at-scale measurement),
/// scaled down in debug so `cargo test` builds it in seconds.
const BIG_N: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

/// `BENCH_e10.json`: three replicas diverge behind a partition and
/// converge by digest-then-delta exchange; then E10d's pair at `BIG_N`
/// dots and a 64-element divergence, where `MerkleRange` must cost
/// `O(k log n)` bytes and `Full` ships the whole live-dot list.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let Wan {
        mut world,
        client_node,
        servers,
    } = gossip_fleet(seed, 3, SimDuration::from_millis(3));
    world.events_mut().set_enabled(true);
    let client = StoreClient::new(client_node, SimDuration::from_millis(50));
    let cref = replicated(&servers);
    client
        .create_collection(&mut world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(client, cref.clone());
    let record = |i: u64| ObjectRecord::new(ObjectId(i + 1), format!("obj-{i}"), vec![b'x'; 64]);
    for i in 0..8u64 {
        set.add(&mut world, record(i), servers[(i % 3) as usize])
            .expect("healthy world at setup");
    }
    // Diverge one replica behind a partition, then let gossip repair it.
    world.topology_mut().partition(&[servers[2]]);
    for i in 8..12u64 {
        let _ = set.add(&mut world, record(i), servers[0]);
    }
    world.topology_mut().heal_partition();
    // 400 ms of fan-out-1 anti-entropy every 10 ms, then stopped and
    // drained to quiescence.
    let config = GossipConfig {
        interval: SimDuration::from_millis(10),
        fanout: 1,
        ..GossipConfig::default()
    };
    let gossip = engine::install(&mut world, cref.id, cref.all_nodes(), config);
    let deadline = world.now() + SimDuration::from_millis(400);
    world.run_until(deadline);
    gossip.stop();
    world.run_to_quiescence();
    let converged = engine::converged(&world, cref.id, &cref.all_nodes());
    world
        .metrics_mut()
        .gauge_set("gossip.converged", u64::from(converged));

    let (full_digest, full_delta, full_conv) = reconcile_pair(seed, BIG_N, 64, DigestMode::Full);
    let (mk_digest, mk_delta, mk_conv) = reconcile_pair(seed, BIG_N, 64, DigestMode::MerkleRange);
    let m = world.metrics_mut();
    m.add("e10.big.full.digest_bytes", full_digest);
    m.add("e10.big.full.delta_bytes", full_delta);
    m.add("e10.big.merkle.digest_bytes", mk_digest);
    m.add("e10.big.merkle.delta_bytes", mk_delta);
    m.gauge_set("e10.big.converged", u64::from(full_conv && mk_conv));

    let events = world_events(&mut world);
    let snap = snapshot_with_trace(world.metrics_mut(), &events, "e10", seed);
    let wire = counter(&snap, "gossip.digest_bytes") + counter(&snap, "gossip.delta_bytes");
    let stale = counter(&snap, "gossip.replica_stale_rounds");
    let full_wire = (full_digest + full_delta) as f64;
    let merkle_wire = (mk_digest + mk_delta) as f64;
    with_common_objectives(snap)
        .with_objective("gossip_wire_bytes", wire, Direction::LowerIsBetter)
        .with_objective("stale_replica_rounds", stale, Direction::LowerIsBetter)
        .with_objective(
            "gossip_digest_bytes_1m",
            mk_digest as f64,
            Direction::LowerIsBetter,
        )
        .with_objective(
            "gossip_sync_bytes_1m",
            merkle_wire,
            Direction::LowerIsBetter,
        )
        .with_objective(
            "merkle_advantage_1m",
            full_wire / merkle_wire.max(1.0),
            Direction::HigherIsBetter,
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_converges_at_every_scale() {
        for p in convergence_points() {
            assert!(p.rounds > 0, "starts unconverged");
            assert!(p.ms > 0);
            // Every replica must receive every member exactly no more than
            // a constant factor beyond the minimum shipment.
            let min = N_MEMBERS * (p.replicas as u64 - 1);
            assert!(p.shipped >= min, "{} < {min}", p.shipped);
            assert!(p.shipped <= min * 3, "{} way over {min}", p.shipped);
        }
    }

    #[test]
    fn merkle_reconciliation_curve_flattens() {
        let points = reconcile_points();
        let total = |n: u64, mode: &str| {
            points
                .iter()
                .find(|p| p.set_size == n && p.mode == mode)
                .expect("point present")
                .total()
        };
        // Full scales with the set: 64x the dots cost well over 20x the
        // bytes. Merkle scales with k log n: the same growth costs under
        // 6x, and at the top size merkle undercuts Full severalfold.
        // (At 1k dots Full is actually *cheaper* — the descent's
        // per-range summaries only pay off once the set dwarfs the
        // divergence, which the table makes visible.)
        assert!(total(64_000, "full") > total(1_000, "full") * 20);
        assert!(total(64_000, "merkle") < total(1_000, "merkle") * 6);
        assert!(total(64_000, "merkle") * 3 < total(64_000, "full"));
    }
}
