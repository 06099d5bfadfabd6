//! E10 — anti-entropy membership replication (`weakset-gossip`).
//!
//! The paper's weak sets tolerate partial failure at the *iterator*; this
//! experiment measures what a leaderless, gossip-converged membership
//! layer buys underneath it:
//!
//! * **E10a** — convergence time of pairwise anti-entropy as fan-out and
//!   replica count vary (seeded, deterministic).
//! * **E10b** — membership-read availability during a partition that
//!   isolates the primary and a majority: `Primary` reads fail with a
//!   network error, `Quorum` reads fail with `NoQuorum`, `Leaderless`
//!   reads keep answering from the surviving converged replicas.
//! * **E10c** — iterator availability across partition durations: the
//!   optimistic iterator configured leaderless keeps yielding through the
//!   outage, while the primary-read configuration blocks until heal.
//! * **E10d** — reconciliation bytes vs set size at fixed divergence:
//!   `Full` ships the whole live-dot list (linear in `n`), the
//!   Merkle-range descent pays `O(k log n)` — its curve flattens as the
//!   set grows.

use crate::report::{pct, Table};
use crate::scenarios::{gossip_fleet, replicated, Wan};
use crate::snapshot::{counter, snapshot_with_trace, with_common_objectives};
use weakset::prelude::{Elements, IterConfig, IterStep, Semantics, WeakSet};
use weakset_gossip::prelude::*;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_runtime::prelude::RuntimeExt;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, ReadPolicy, StoreClient, StoreError, StoreWorld};

const COLL: CollectionId = CollectionId(1);
const N_MEMBERS: u64 = 24;
const INTERVAL_MS: u64 = 20;

fn gossip_world(n_replicas: usize, seed: u64) -> (StoreWorld, StoreClient, CollectionRef) {
    let Wan {
        mut world,
        client_node,
        servers,
    } = gossip_fleet(seed, n_replicas, SimDuration::from_millis(2));
    let client = StoreClient::new(client_node, SimDuration::from_millis(100));
    let cref = replicated(&servers);
    client
        .create_collection(&mut world, &cref)
        .expect("healthy world");
    (world, client, cref)
}

/// Adds `N_MEMBERS` elements, object records spread round-robin over the
/// non-primary replicas (so fetches survive a primary-isolating cut).
fn populate(w: &mut StoreWorld, client: &StoreClient, cref: &CollectionRef) {
    for i in 0..N_MEMBERS {
        let home = cref.replicas[(i as usize) % cref.replicas.len()];
        client
            .put_object(
                w,
                home,
                ObjectRecord::new(ObjectId(i + 1), format!("o{}", i + 1), &b"x"[..]),
            )
            .expect("healthy world");
        client
            .add_member(
                w,
                cref,
                MemberEntry {
                    elem: ObjectId(i + 1),
                    home,
                },
            )
            .expect("healthy world");
    }
}

/// Two seconds of fan-out-2 anti-entropy, which must converge the
/// replicas; gossip keeps running until the returned handle is stopped.
fn converge(w: &mut StoreWorld, cref: &CollectionRef) -> GossipHandle {
    let handle = engine::install(
        w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            fanout: 2,
            interval: SimDuration::from_millis(INTERVAL_MS),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_secs(2);
    w.run_until(deadline);
    assert!(engine::converged(w, COLL, &cref.all_nodes()));
    handle
}

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

/// E10a: sweeps replica count × fan-out, measuring time-to-convergence.
fn convergence_points() -> Vec<ConvergencePoint> {
    let mut out = Vec::new();
    for &n in &[3usize, 5, 9] {
        for &fanout in &[1usize, 2, 3] {
            let (mut w, client, cref) = gossip_world(n, 1000 + (n * 10 + fanout) as u64);
            populate(&mut w, &client, &cref);
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
            // Step one interval at a time until every replica agrees.
            let mut rounds = 0u64;
            while !engine::converged(&w, COLL, &cref.all_nodes()) {
                assert!(rounds < 1_000, "gossip failed to converge");
                let deadline = w.now() + SimDuration::from_millis(INTERVAL_MS);
                w.run_until(deadline);
                rounds += 1;
            }
            let ms = w.now().saturating_since(start).as_millis();
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

/// Read outcomes during a primary-isolating partition.
pub struct AvailabilityPoint {
    /// Membership hosts.
    pub replicas: usize,
    /// Hosts cut away from the client (primary + enough replicas to deny
    /// a majority).
    pub cut: usize,
    /// What `ReadPolicy::Primary` returned.
    pub primary: &'static str,
    /// What `ReadPolicy::Quorum` returned.
    pub quorum: &'static str,
    /// What `ReadPolicy::Leaderless` returned.
    pub leaderless: &'static str,
    /// Entries the leaderless read served (out of `N_MEMBERS`).
    pub leaderless_entries: usize,
}

fn classify(r: Result<usize, StoreError>) -> (&'static str, usize) {
    match r {
        Ok(n) => ("ok", n),
        Err(StoreError::Net(_)) => ("net error", 0),
        Err(StoreError::NoQuorum { .. }) => ("no quorum", 0),
        Err(_) => ("error", 0),
    }
}

/// E10b: after convergence, cuts the primary plus a majority of replicas
/// and probes each read policy.
fn availability_points() -> Vec<AvailabilityPoint> {
    let mut out = Vec::new();
    for &n in &[3usize, 5, 9] {
        let (mut w, client, cref) = gossip_world(n, 2000 + n as u64);
        populate(&mut w, &client, &cref);
        let handle = converge(&mut w, &cref);
        handle.stop();
        w.run_to_quiescence();
        // Cut the primary plus replicas until under half remain reachable.
        let cut = n / 2 + 1;
        let mut side = vec![cref.home];
        side.extend(cref.replicas.iter().copied().take(cut - 1));
        w.topology_mut().partition(&side);
        let (primary, _) = classify(
            client
                .read_members(&mut w, &cref, ReadPolicy::Primary)
                .map(|r| r.entries.len()),
        );
        let (quorum, _) = classify(
            client
                .read_members(&mut w, &cref, ReadPolicy::Quorum)
                .map(|r| r.entries.len()),
        );
        let (leaderless, served) = classify(
            client
                .read_members(&mut w, &cref, ReadPolicy::Leaderless)
                .map(|r| r.entries.len()),
        );
        out.push(AvailabilityPoint {
            replicas: n,
            cut,
            primary,
            quorum,
            leaderless,
            leaderless_entries: served,
        });
    }
    out
}

/// Iterator progress across one partition window.
pub struct IterAvailabilityPoint {
    /// Partition duration in simulated milliseconds.
    pub partition_ms: u64,
    /// Elements the primary-read iterator yielded *during* the outage.
    pub primary_during: usize,
    /// Elements the leaderless iterator yielded during the outage.
    pub leaderless_during: usize,
    /// Both iterators' totals once healed (completeness check).
    pub primary_total: usize,
    /// Total the leaderless iterator reached.
    pub leaderless_total: usize,
}

/// E10c: a 5-host deployment converges, the primary side drops out for a
/// configurable window, and two optimistic iterators race: one reading
/// the primary, one leaderless.
fn iter_availability_points() -> Vec<IterAvailabilityPoint> {
    [100u64, 400, 1600]
        .into_iter()
        .map(|partition_ms| {
            let (mut w, client, cref) = gossip_world(5, 3000 + partition_ms);
            populate(&mut w, &client, &cref);
            let handle = converge(&mut w, &cref);
            let mut primary_it = Elements::new(
                Semantics::Optimistic,
                client.clone(),
                cref.clone(),
                IterConfig::default(),
            );
            let mut leaderless_it = Elements::new(
                Semantics::Optimistic,
                client.clone(),
                cref.clone(),
                IterConfig::leaderless(),
            );
            // Partition the primary away for the window; every object
            // record stays reachable (they are homed on the replicas).
            w.topology_mut().partition(&[cref.home]);
            let heal_at = w.now() + SimDuration::from_millis(partition_ms);
            let mut primary_during = 0;
            let mut leaderless_during = 0;
            while w.now() < heal_at {
                if let IterStep::Yielded(_) = primary_it.next(&mut w) {
                    primary_during += 1;
                }
                if let IterStep::Yielded(_) = leaderless_it.next(&mut w) {
                    leaderless_during += 1;
                }
            }
            w.topology_mut().heal_partition();
            let (rest_p, end_p) = primary_it.drain(&mut w, 10, SimDuration::from_millis(20));
            let (rest_l, end_l) = leaderless_it.drain(&mut w, 10, SimDuration::from_millis(20));
            assert_eq!(end_p, IterStep::Done);
            assert_eq!(end_l, IterStep::Done);
            handle.stop();
            w.run_to_quiescence();
            IterAvailabilityPoint {
                partition_ms,
                primary_during,
                leaderless_during,
                primary_total: primary_during + rest_p.len(),
                leaderless_total: leaderless_during + rest_l.len(),
            }
        })
        .collect()
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

    let mut t2 = Table::new(
        "E10b: membership reads during a primary-isolating partition",
        &[
            "replicas",
            "hosts cut",
            "Primary",
            "Quorum",
            "Leaderless",
            "entries served",
        ],
    );
    for p in availability_points() {
        t2.row(&[
            p.replicas.to_string(),
            p.cut.to_string(),
            p.primary.to_string(),
            p.quorum.to_string(),
            p.leaderless.to_string(),
            pct(p.leaderless_entries, N_MEMBERS as usize),
        ]);
    }
    t2.note("expected: Primary hits a net error, Quorum reports no quorum, and the");
    t2.note("leaderless union serves 100% from any converged survivor");

    let mut t3 = Table::new(
        "E10c: optimistic-iterator progress through the outage (24 members)",
        &[
            "partition (ms)",
            "primary-read yields during",
            "leaderless yields during",
            "primary total",
            "leaderless total",
        ],
    );
    for p in iter_availability_points() {
        t3.row(&[
            p.partition_ms.to_string(),
            p.primary_during.to_string(),
            p.leaderless_during.to_string(),
            p.primary_total.to_string(),
            p.leaderless_total.to_string(),
        ]);
    }
    t3.note("expected: the primary-read iterator blocks for the whole window (0 yields)");
    t3.note("while the leaderless one keeps yielding; both complete after heal");

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
    vec![t, t2, t3, t4]
}

/// Runs anti-entropy (fan-out 1, every 10 ms) over `cref`'s replicas for
/// 400 ms, to quiescence, and records whether they converged in the
/// `gossip.converged` gauge.
pub(crate) fn gossip_to_quiescence(world: &mut StoreWorld, cref: &CollectionRef) {
    let until = world.now() + SimDuration::from_millis(400);
    engine::install(
        world,
        cref.id,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            fanout: 1,
            until: Some(until),
            ..GossipConfig::default()
        },
    );
    world.run_to_quiescence();
    let converged = engine::converged(world, cref.id, &cref.all_nodes());
    world
        .metrics_mut()
        .gauge_set("gossip.converged", u64::from(converged));
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
    gossip_to_quiescence(&mut world, &cref);

    let (full_digest, full_delta, full_conv) = reconcile_pair(seed, BIG_N, 64, DigestMode::Full);
    let (mk_digest, mk_delta, mk_conv) = reconcile_pair(seed, BIG_N, 64, DigestMode::MerkleRange);
    let m = world.metrics_mut();
    m.add("e10.big.full.digest_bytes", full_digest);
    m.add("e10.big.full.delta_bytes", full_delta);
    m.add("e10.big.merkle.digest_bytes", mk_digest);
    m.add("e10.big.merkle.delta_bytes", mk_delta);
    m.gauge_set("e10.big.converged", u64::from(full_conv && mk_conv));

    let snap = snapshot_with_trace(&mut world, "e10", seed);
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
    fn only_leaderless_survives_the_partition() {
        for p in availability_points() {
            assert_eq!(p.primary, "net error", "n={}", p.replicas);
            assert_eq!(p.quorum, "no quorum", "n={}", p.replicas);
            assert_eq!(p.leaderless, "ok", "n={}", p.replicas);
            assert_eq!(p.leaderless_entries, N_MEMBERS as usize);
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

    #[test]
    fn leaderless_iterator_finishes_during_long_outages() {
        let points = iter_availability_points();
        for p in &points {
            assert_eq!(p.primary_during, 0, "primary reads block under the cut");
            assert_eq!(p.primary_total, N_MEMBERS as usize);
            assert_eq!(p.leaderless_total, N_MEMBERS as usize);
        }
        // Leaderless progress is real in every window and grows with the
        // outage; primary-read progress is identically zero throughout.
        assert!(points.iter().all(|p| p.leaderless_during > 0));
        assert!(
            points.last().unwrap().leaderless_during > points[0].leaderless_during,
            "longer outage, more leaderless yields"
        );
    }
}
