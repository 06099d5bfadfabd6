//! Machine-readable benchmark snapshots (`BENCH_<scenario>.json`).
//!
//! One small, fully instrumented workload per experiment E1–E11 plus a
//! `fuzz` scenario measuring DST throughput and shrink cost. Each
//! builder runs its workload in a seeded world, freezes the world's
//! [`MetricsRegistry`] into an [`ObsSnapshot`], and attaches the named
//! perf *objectives* the CI `compare` gate enforces (everything else in
//! the snapshot is context, not gated).
//!
//! Determinism contract: no wall-clock value ever enters a snapshot —
//! only counters, high-water gauges, and simulated-microsecond
//! latencies — so two runs with the same seed serialize
//! byte-identically.

use crate::scenarios::{drive, populated_set, schedule_churn, wan, wan_with_model};
use weakset::prelude::*;
use weakset::semantics::Semantics;
use weakset_dst::prelude::{execute, generate, mix, shrink, Chaos};
use weakset_gossip::prelude::{
    engine, DigestMode, GossipConfig, GossipNode, GossipSemantics, MembershipCrdt,
};
use weakset_obs::{
    critical_path, CausalDag, CriticalPath, Direction, MetricsRegistry, ObsEvent, ObsSnapshot,
};
use weakset_runtime::prelude::RuntimeExt;
use weakset_sim::latency::LatencyModel;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_sim::world::WorldConfig;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, ReadPolicy, StoreClient, StoreWorld};

/// Every snapshot scenario id, in emission order.
pub const SCENARIOS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "fuzz",
];

/// The seed every checked-in baseline was produced with.
pub const DEFAULT_SEED: u64 = 42;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Builds the snapshot for one scenario id.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn build(id: &str, seed: u64) -> ObsSnapshot {
    match id {
        "e1" => e1_immutable(seed),
        "e2" => e2_immutable_failures(seed),
        "e3" => e3_snapshot_loss(seed),
        "e4" => e4_growonly(seed),
        "e5" => e5_optimistic(seed),
        "e6" => e6_latency(seed),
        "e7" => e7_availability(seed),
        "e8" => e8_taxonomy(seed),
        "e9" => e9_locking(seed),
        "e10" => e10_gossip(seed),
        "e11" => e11_sharded(seed),
        "e12" => e12_session(seed),
        "fuzz" => fuzz(seed),
        other => panic!("unknown snapshot scenario {other:?} (expected one of {SCENARIOS:?})"),
    }
}

/// Builds every scenario's snapshot, in [`SCENARIOS`] order.
pub fn build_all(seed: u64) -> Vec<ObsSnapshot> {
    SCENARIOS.iter().map(|id| build(id, seed)).collect()
}

/// Sum of counters whose name ends with `suffix` (e.g. `.yielded`
/// across all figures).
fn sum_suffix(snap: &ObsSnapshot, suffix: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, &v)| v as f64)
        .sum()
}

fn counter(snap: &ObsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// The two objectives every scenario carries: RPC traffic and scheduler
/// work for the same logical workload. Both shrinking means the stack
/// got cheaper.
fn with_common_objectives(snap: ObsSnapshot) -> ObsSnapshot {
    let rpc = counter(&snap, "rpc.sent");
    let events = counter(&snap, "sim.dispatch.total");
    snap.with_objective("rpc_sent", rpc, Direction::LowerIsBetter)
        .with_objective("sim_events", events, Direction::LowerIsBetter)
}

fn with_yield_objective(snap: ObsSnapshot) -> ObsSnapshot {
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
/// fails the compare gate instead of slipping through).
fn with_trace_objectives(snap: ObsSnapshot, cp: &CriticalPath, total_events: usize) -> ObsSnapshot {
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
fn snapshot_with_trace(world: &mut StoreWorld, id: &str, seed: u64) -> ObsSnapshot {
    let events = drain_events(world);
    let snap = world.metrics().snapshot(id, seed);
    let cp = critical_path(&CausalDag::from_events(&events));
    with_trace_objectives(snap, &cp, events.len())
}

/// E1 — immutable set on a healthy WAN: full snapshot iteration.
fn e1_immutable(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 4, ms(5));
    let set = populated_set(&mut w, 24, ms(100));
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, ms(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e1", seed))
}

/// E2 — immutable set with failures: one of four servers is down for
/// the whole run; the pessimistic iterator reports what it cannot
/// reach.
fn e2_immutable_failures(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 4, ms(5));
    let set = populated_set(&mut w, 24, ms(100));
    w.world.topology_mut().crash(w.servers[3]);
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, ms(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e2", seed))
}

/// E3 — snapshot semantics under churn: mutations land mid-iteration
/// and the snapshot misses them (the paper's loss of mutations).
fn e3_snapshot_loss(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, ms(5));
    let set = populated_set(&mut w, 18, ms(100));
    let now = w.world.now();
    schedule_churn(&mut w, &set, now, ms(4), 30, 0.5, seed);
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, ms(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e3", seed))
}

/// E4 — grow-only pessimistic iteration while the set only grows.
fn e4_growonly(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, ms(5));
    let set = populated_set(&mut w, 12, ms(100));
    let now = w.world.now();
    schedule_churn(&mut w, &set, now, ms(4), 20, 1.1, seed); // pure adds
    let mut it = set.elements(Semantics::GrowOnly);
    drive(&mut w.world, &mut it, 3, ms(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e4", seed))
}

/// E5 — optimistic iteration riding out a mid-run crash: the iterator
/// blocks instead of failing, then resumes after the restart.
fn e5_optimistic(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 2, ms(5));
    let set = populated_set(&mut w, 12, ms(50));
    let mut it = set.elements(Semantics::Optimistic);
    // Yield a prefix, lose a server, let the iterator block, heal,
    // finish.
    for _ in 0..4 {
        it.next(&mut w.world);
    }
    w.world.topology_mut().crash(w.servers[1]);
    drive(&mut w.world, &mut it, 3, ms(10));
    w.world.topology_mut().restart(w.servers[1]);
    drive(&mut w.world, &mut it, 5, ms(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e5", seed))
}

/// E6 — fetch ordering over a distance-graded WAN: closest-first keeps
/// per-invocation latency down.
fn e6_latency(seed: u64) -> ObsSnapshot {
    let mut w = wan_with_model(
        seed,
        5,
        LatencyModel::SiteDistance {
            base: ms(1),
            per_hop: ms(8),
        },
    );
    let set = populated_set(&mut w, 20, ms(400));
    let mut it = set.elements(Semantics::Snapshot);
    drive(&mut w.world, &mut it, 3, ms(10));
    let snap = snapshot_with_trace(&mut w.world, "e6", seed);
    let p50 = snap
        .latencies
        .get("iter.fig4.invocation_us")
        .map(|s| s.p50_us as f64)
        .unwrap_or(0.0);
    with_yield_objective(snap).with_objective("invocation_p50_us", p50, Direction::LowerIsBetter)
}

/// E7 — membership availability: reads under all four policies against
/// a three-replica collection with a partitioned minority.
fn e7_availability(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, ms(5));
    let client = StoreClient::new(w.client_node, ms(100));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: w.servers[0],
        replicas: w.servers[1..].to_vec(),
    };
    client
        .create_collection(&mut w.world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(client.clone(), cref.clone());
    for i in 0..9u64 {
        set.add(
            &mut w.world,
            ObjectRecord::new(ObjectId(i + 1), format!("obj-{i}"), vec![b'x'; 64]),
            w.servers[(i % 3) as usize],
        )
        .expect("healthy world at setup");
    }
    // Partition the primary away; quorum and leaderless keep answering.
    let primary = w.servers[0];
    w.world.topology_mut().partition(&[primary]);
    for _ in 0..4 {
        for policy in [
            ReadPolicy::Primary,
            ReadPolicy::Any,
            ReadPolicy::Quorum,
            ReadPolicy::Leaderless,
        ] {
            let _ = client.read_members(&mut w.world, &cref, policy);
        }
    }
    w.world.topology_mut().heal_partition();
    let snap = snapshot_with_trace(&mut w.world, "e7", seed);
    let ok = sum_suffix(&snap, ".ok");
    with_common_objectives(snap).with_objective("reads_ok", ok, Direction::HigherIsBetter)
}

/// E8 — the design-space taxonomy: one full run per semantics on the
/// same world.
fn e8_taxonomy(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, ms(5));
    let set = populated_set(&mut w, 12, ms(100));
    for sem in Semantics::ALL {
        let mut it = set.elements(sem);
        drive(&mut w.world, &mut it, 3, ms(10));
    }
    with_yield_objective(snapshot_with_trace(&mut w.world, "e8", seed))
}

/// E9 — the locked strong baseline: writers stall while a locked
/// iteration holds the read lock.
fn e9_locking(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 2, ms(5));
    let set = populated_set(&mut w, 10, ms(100));
    let mut it = set.elements(Semantics::Locked);
    // Interleave writes with the locked iteration: they bounce off the
    // read lock (store.write.err) until the iterator returns.
    for i in 0..10u64 {
        it.next(&mut w.world);
        let _ = set.add(
            &mut w.world,
            ObjectRecord::new(ObjectId(100 + i), format!("late-{i}"), vec![b'z'; 16]),
            w.servers[0],
        );
    }
    drive(&mut w.world, &mut it, 3, ms(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e9", seed))
}

/// The `n` for E10's big-reconcile sub-phase: a million live dots in
/// release (the headline anti-entropy-at-scale measurement), scaled down
/// in debug so `cargo test` builds the scenario in seconds.
const E10_BIG_N: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

/// E10 sub-phase: two replicas share an OR-Set of `n` dots but diverge
/// by `k` fresh elements (half novel on each side), then reconcile with
/// one push-pull exchange in `mode`, in an isolated two-node world.
/// Returns the (digest, delta) bytes the exchange charged and whether it
/// converged.
fn big_reconcile(seed: u64, n: u64, k: u64, mode: DigestMode) -> (u64, u64, bool) {
    let mut topo = Topology::new();
    let _client = topo.add_node("client", 0);
    let servers: Vec<_> = topo.add_servers("replica-", 2);
    let mut config = WorldConfig::seeded(seed);
    config.trace = false;
    let mut world = StoreWorld::new(config, topo, LatencyModel::Constant(ms(3)));
    for &s in &servers {
        world.install_service(s, Box::new(GossipNode::new(s)));
    }
    let coll = CollectionId(1);
    let mut base = MembershipCrdt::new(GossipSemantics::GrowShrink);
    for i in 1..=n {
        base.add(
            servers[0],
            weakset_store::collection::MemberEntry {
                elem: ObjectId(i),
                home: servers[0],
            },
        );
    }
    let mut diverged_a = base.clone();
    let mut diverged_b = base;
    for i in 0..k / 2 {
        diverged_a.add(
            servers[0],
            weakset_store::collection::MemberEntry {
                elem: ObjectId(n + 1 + i),
                home: servers[0],
            },
        );
        diverged_b.add(
            servers[1],
            weakset_store::collection::MemberEntry {
                elem: ObjectId(n + k + 1 + i),
                home: servers[1],
            },
        );
    }
    for (node, set) in [(servers[0], diverged_a), (servers[1], diverged_b)] {
        world.with_service_mut(node, |g: &mut GossipNode| {
            g.create_replica(coll, GossipSemantics::GrowShrink);
            *g.crdt_mut(coll).expect("replica just created") = set;
        });
    }
    engine::sync_pair(&mut world, coll, servers[0], servers[1], mode, ms(200));
    let digest = world.metrics().counter(weakset_obs::gossip::DIGEST_BYTES);
    let delta = world.metrics().counter(weakset_obs::gossip::DELTA_BYTES);
    let converged = engine::converged(&world, coll, &servers);
    (digest, delta, converged)
}

/// E10 — anti-entropy gossip: replicas diverge behind a partition, then
/// converge by digest-then-delta exchange. Objectives watch the wire —
/// including the big-reconcile sub-phase, where a `k`-element divergence
/// of an [`E10_BIG_N`]-dot OR-Set must cost `O(k log n)` bytes under
/// `MerkleRange` where `Full` ships the whole live-dot list.
fn e10_gossip(seed: u64) -> ObsSnapshot {
    let mut topo = Topology::new();
    let client_node = topo.add_node("client", 0);
    let servers: Vec<_> = topo.add_servers("replica-", 3);
    let mut config = WorldConfig::seeded(seed);
    config.trace = false;
    let mut world = StoreWorld::new(config, topo, LatencyModel::Constant(ms(3)));
    world.events_mut().set_enabled(true);
    for &s in &servers {
        world.install_service(s, Box::new(GossipNode::new(s)));
    }
    let client = StoreClient::new(client_node, ms(50));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client
        .create_collection(&mut world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(client, cref.clone());
    for i in 0..8u64 {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("obj-{i}"), vec![b'x'; 64]),
            servers[(i % 3) as usize],
        )
        .expect("healthy world at setup");
    }
    // Diverge one replica behind a partition, then let gossip repair it.
    world.topology_mut().partition(&[servers[2]]);
    for i in 8..12u64 {
        let _ = set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("obj-{i}"), vec![b'x'; 64]),
            servers[0],
        );
    }
    world.topology_mut().heal_partition();
    let until = world.now() + ms(400);
    engine::install(
        &mut world,
        cref.id,
        cref.all_nodes(),
        GossipConfig {
            interval: ms(10),
            fanout: 1,
            until: Some(until),
            ..GossipConfig::default()
        },
    );
    world.run_to_quiescence();
    let converged = engine::converged(&world, cref.id, &cref.all_nodes());
    world
        .metrics_mut()
        .gauge_set("gossip.converged", u64::from(converged));

    // Big-reconcile sub-phase: both digest modes over the same
    // divergence, folded into this snapshot's registry so the compare
    // gate holds the O(k log n) claim at scale.
    let big_k = 64u64;
    let (full_digest, full_delta, full_conv) =
        big_reconcile(seed, E10_BIG_N, big_k, DigestMode::Full);
    let (mk_digest, mk_delta, mk_conv) =
        big_reconcile(seed, E10_BIG_N, big_k, DigestMode::MerkleRange);
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

/// E11 — sharded batched reads: four shards co-located on one
/// three-node quorum group, read first shard-by-shard (the
/// pre-batching client, one round-trip per shard) and then through one
/// batch envelope per node. The gated objective is the batched path's
/// speedup over the sequential rounds.
fn e11_sharded(seed: u64) -> ObsSnapshot {
    const SHARDS: usize = 4;
    const ROUNDS: usize = 4;
    let mut w = wan(seed, 3, ms(5));
    let client = StoreClient::new(w.client_node, ms(200));
    let groups: Vec<ShardGroup> = (0..SHARDS)
        .map(|_| ShardGroup {
            home: w.servers[0],
            replicas: w.servers[1..].to_vec(),
        })
        .collect();
    let config = IterConfig {
        read_policy: ReadPolicy::Quorum,
        ..IterConfig::default()
    };
    let set = ShardedWeakSet::create(
        &mut w.world,
        CollectionId(1),
        client.clone(),
        &groups,
        config,
    )
    .expect("healthy world at setup");
    for i in 0..24u64 {
        set.add(
            &mut w.world,
            ObjectRecord::new(ObjectId(i + 1), format!("obj-{i}"), vec![b'x'; 64]),
            w.servers[(i % 3) as usize],
        )
        .expect("healthy world at setup");
    }

    let t0 = w.world.now();
    for _ in 0..ROUNDS {
        for i in 0..set.shard_count() {
            client
                .read_members(&mut w.world, set.shard(i).cref(), ReadPolicy::Quorum)
                .expect("healthy world");
        }
    }
    let sequential = w.world.now().saturating_since(t0);
    let t1 = w.world.now();
    for _ in 0..ROUNDS {
        for r in set.read_all_batched(&mut w.world) {
            r.expect("healthy world");
        }
    }
    let batched = w.world.now().saturating_since(t1);

    let speedup = sequential.as_micros() as f64 / batched.as_micros().max(1) as f64;
    let snap = snapshot_with_trace(&mut w.world, "e11", seed);
    let envelopes = counter(&snap, "net.batch.envelopes");
    with_common_objectives(snap)
        .with_objective("sharded_read_speedup", speedup, Direction::HigherIsBetter)
        .with_objective("batch_envelopes", envelopes, Direction::LowerIsBetter)
}

/// E12 — causal-session reads: wait latency vs staleness. Three gossip
/// replicas; a session client keeps adding members (secondaries lag —
/// no anti-entropy yet) while the primary is repeatedly partitioned
/// away at read time. A plain `Leaderless` union read serves whatever
/// the laggard secondaries hold (stale); the `CausalSession` read
/// parks until the partition heals and never misses a session write.
/// After anti-entropy converges the replicas, the same partitioned
/// read is served by the secondaries instantly — the wait cost decays
/// to zero as convergence catches up. Gated: the session must stay
/// perfectly fresh (a zero baseline, so *any* stale session read fails
/// the compare gate) and its wait latency must not regress.
fn e12_session(seed: u64) -> ObsSnapshot {
    const ROUNDS: u64 = 4;
    let mut topo = Topology::new();
    let client_node = topo.add_node("client", 0);
    let servers: Vec<_> = topo.add_servers("replica-", 3);
    let mut config = WorldConfig::seeded(seed);
    config.trace = false;
    let mut world = StoreWorld::new(config, topo, LatencyModel::Constant(ms(3)));
    world.events_mut().set_enabled(true);
    for &s in &servers {
        world.install_service(s, Box::new(GossipNode::new(s)));
    }
    let session = StoreClient::new(client_node, ms(200)).with_session();
    let plain = StoreClient::new(client_node, ms(200));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    session
        .create_collection(&mut world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(session.clone(), cref.clone());
    let mut expected: Vec<u64> = Vec::new();
    let note_read = |world: &mut StoreWorld,
                     label: &str,
                     entries: &[weakset_store::collection::MemberEntry],
                     expected: &[u64]| {
        let missing = expected
            .iter()
            .filter(|e| !entries.iter().any(|m| m.elem.0 == **e))
            .count() as u64;
        if missing > 0 {
            world.metrics_mut().incr(&format!("e12.read.{label}.stale"));
            world
                .metrics_mut()
                .add(&format!("e12.read.{label}.missing"), missing);
        } else {
            world.metrics_mut().incr(&format!("e12.read.{label}.fresh"));
        }
    };

    // Phase 1: the secondaries lag (anti-entropy not running yet) and
    // the primary vanishes right when the client reads.
    for r in 0..ROUNDS {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(r + 1), format!("obj-{r}"), vec![b'x'; 64]),
            servers[0],
        )
        .expect("healthy world between partitions");
        expected.push(r + 1);
        world.topology_mut().partition(&[servers[0]]);
        if let Ok(read) = plain.read_members(&mut world, &cref, ReadPolicy::Leaderless) {
            note_read(&mut world, "leaderless", &read.entries, &expected);
        }
        world.spawn_in(ms(20), |w: &mut StoreWorld| {
            w.topology_mut().heal_partition();
        });
        let read = session
            .read_members(&mut world, &cref, ReadPolicy::CausalSession)
            .expect("session read completes once the partition heals");
        note_read(&mut world, "session", &read.entries, &expected);
        world.run_to_quiescence();
    }

    // Phase 2: let anti-entropy converge the replicas, then partition
    // the primary again — both reads are fresh now, and the session
    // read is served by the secondaries with no wait at all.
    let until = world.now() + ms(400);
    engine::install(
        &mut world,
        cref.id,
        cref.all_nodes(),
        GossipConfig {
            interval: ms(10),
            fanout: 1,
            until: Some(until),
            ..GossipConfig::default()
        },
    );
    world.run_to_quiescence();
    let converged = engine::converged(&world, cref.id, &cref.all_nodes());
    world
        .metrics_mut()
        .gauge_set("gossip.converged", u64::from(converged));
    world.topology_mut().partition(&[servers[0]]);
    if let Ok(read) = plain.read_members(&mut world, &cref, ReadPolicy::Leaderless) {
        note_read(&mut world, "leaderless", &read.entries, &expected);
    }
    let read = session
        .read_members(&mut world, &cref, ReadPolicy::CausalSession)
        .expect("converged secondaries satisfy the session");
    note_read(&mut world, "session", &read.entries, &expected);
    world.topology_mut().heal_partition();
    world.run_to_quiescence();

    let snap = snapshot_with_trace(&mut world, "e12", seed);
    let wait_p50 = snap
        .latencies
        .get(weakset_obs::session::READ_WAIT_US)
        .map(|s| s.p50_us as f64)
        .unwrap_or(0.0);
    let stale = counter(&snap, "e12.read.session.stale");
    let fresh = counter(&snap, "e12.read.session.fresh");
    with_common_objectives(snap)
        .with_objective("session_stale_reads", stale, Direction::LowerIsBetter)
        .with_objective("session_fresh_reads", fresh, Direction::HigherIsBetter)
        .with_objective("session_wait_p50_us", wait_p50, Direction::LowerIsBetter)
}

/// `fuzz` — DST throughput: a fixed batch of generated scenarios plus
/// one forced-violation shrink. Throughput is expressed in simulated
/// time (steps per simulated second), so the snapshot stays
/// byte-identical across machines.
fn fuzz(seed: u64) -> ObsSnapshot {
    let mut agg = MetricsRegistry::new();
    let mut steps = 0u64;
    let mut sim_us = 0u64;
    let mut cp = CriticalPath::default();
    let mut total_events = 0usize;
    for i in 0..12 {
        let s = generate(mix(seed, i));
        let report = execute(&s);
        agg.merge(&report.metrics);
        agg.incr("dst.scenarios");
        agg.add("dst.steps", report.steps as u64);
        agg.add("dst.violations", report.violations.len() as u64);
        steps += report.steps as u64;
        sim_us += report.sim_time_us;
        // Fold each run's causal stream into the aggregate: per-kind
        // event counts plus the critical-path decomposition.
        for e in &report.events {
            agg.incr(&format!("events.{}", e.kind));
        }
        cp.absorb(&critical_path(&CausalDag::from_events(&report.events)));
        total_events += report.events.len();
    }
    // A guaranteed violation exercises the shrinker; its cost in
    // executions is the metric.
    let mut sabotaged = generate(mix(seed, 0));
    sabotaged.chaos = Chaos::PhantomYield;
    let (minimal, execs) = shrink(&sabotaged);
    agg.add("dst.shrink.execs", execs as u64);
    agg.add("dst.shrink.final_ops", minimal.ops.len() as u64);

    let snap = agg.snapshot("fuzz", seed);
    let per_sim_sec = if sim_us == 0 {
        0.0
    } else {
        steps as f64 / (sim_us as f64 / 1_000_000.0)
    };
    let snap = with_common_objectives(snap)
        .with_objective("steps_per_sim_sec", per_sim_sec, Direction::HigherIsBetter)
        .with_objective("shrink_execs", execs as f64, Direction::LowerIsBetter);
    with_trace_objectives(snap, &cp, total_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_and_round_trips() {
        for id in SCENARIOS {
            let snap = build(id, 7);
            assert_eq!(snap.scenario, id);
            assert!(!snap.objectives.is_empty(), "{id}: no objectives");
            let json = snap.to_json();
            let back = ObsSnapshot::from_json(&json).expect(id);
            assert_eq!(back.to_json(), json, "{id}: not canonical");
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
        // The gap is O(n / (k log n)), so the floor scales with
        // E10_BIG_N: at the release million-dot size the descent wins by
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
