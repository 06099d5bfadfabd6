//! Engine-level integration: anti-entropy rounds on the simulated event
//! loop converge replicas, survive partitions, and back
//! leaderless membership reads.

use weakset_gossip::prelude::*;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::topology::Topology;
use weakset_store::client::ReadPolicy;
use weakset_store::collection::MemberEntry;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreError, StoreWorld};

const COLL: CollectionId = CollectionId(1);

/// A client node plus `n` gossip replica nodes, one site each.
fn setup(n: usize, seed: u64) -> (StoreWorld, StoreClient, CollectionRef) {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", n);
    let mut w = StoreWorld::new(seed, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(s, Box::new(GossipNode::new(s)));
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(50));
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(&mut w, &cref).unwrap();
    (w, client, cref)
}

fn entry(id: u64, home: NodeId) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(id),
        home,
    }
}

/// Mutations at the primary reach every replica through gossip alone —
/// the best-effort SyncMembers path plays no part in CRDT state.
#[test]
fn rounds_converge() {
    let (mut w, client, cref) = setup(4, 11);
    for i in 1..=5 {
        client
            .add_member(&mut w, &cref, entry(i, cref.home))
            .unwrap();
    }
    assert!(
        !engine::converged(&w, COLL, &cref.all_nodes()),
        "secondaries must start stale"
    );
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(500);
    w.run_until(deadline);
    assert!(
        engine::converged(&w, COLL, &cref.all_nodes()),
        "failed to converge"
    );
    assert_eq!(
        engine::elements_at(&w, cref.replicas[0], COLL)
            .unwrap()
            .len(),
        5
    );
    handle.stop();
    w.run_to_quiescence();
}

/// Removals propagate: the (vv, live) half of the delta carries them even
/// when no entry payloads ship.
#[test]
fn removals_propagate() {
    let (mut w, client, cref) = setup(3, 5);
    client
        .add_member(&mut w, &cref, entry(1, cref.home))
        .unwrap();
    client
        .add_member(&mut w, &cref, entry(2, cref.home))
        .unwrap();
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(5),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(200);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    client.remove_member(&mut w, &cref, ObjectId(1)).unwrap();
    let deadline = w.now() + SimDuration::from_millis(200);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    let members = engine::elements_at(&w, cref.replicas[1], COLL).unwrap();
    assert_eq!(members[..], [entry(2, cref.home)]);
    handle.stop();
    w.run_to_quiescence();
}

/// A partitioned replica goes stale, keeps answering from its converged
/// state, and catches up after healing — rounds that cannot reach it are
/// counted as failures, not errors.
#[test]
fn partition_stalls_then_heals() {
    let (mut w, client, cref) = setup(3, 23);
    let isolated = cref.replicas[1];
    client
        .add_member(&mut w, &cref, entry(1, cref.home))
        .unwrap();
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(300);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    // Isolate one replica; the primary keeps mutating.
    w.topology_mut().partition(&[isolated]);
    client
        .add_member(&mut w, &cref, entry(2, cref.home))
        .unwrap();
    let deadline = w.now() + SimDuration::from_millis(300);
    w.run_until(deadline);
    assert_eq!(engine::elements_at(&w, isolated, COLL).unwrap().len(), 1);
    assert!(!engine::converged(&w, COLL, &cref.all_nodes()));
    assert!(w.metrics().counter("gossip.failures") > 0);
    // Heal: anti-entropy repairs the divergence.
    w.topology_mut().heal_partition();
    let deadline = w.now() + SimDuration::from_millis(300);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    assert_eq!(engine::elements_at(&w, isolated, COLL).unwrap().len(), 2);
    handle.stop();
    w.run_to_quiescence();
}

/// The headline scenario: a partition isolates the primary *and* a
/// majority of replicas. Primary reads fail, quorum reads fail, but the
/// leaderless read answers complete converged membership from the
/// minority side.
#[test]
fn leaderless_reads_survive_primary_isolating_partition() {
    let (mut w, client, cref) = setup(5, 77);
    for i in 1..=4 {
        client
            .add_member(&mut w, &cref, entry(i, cref.home))
            .unwrap();
    }
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            fanout: 2,
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(500);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    // Cut the primary and two replicas away from the client: 3 of 5
    // membership hosts unreachable, no majority on the client's side.
    w.topology_mut()
        .partition(&[cref.home, cref.replicas[0], cref.replicas[1]]);
    assert!(matches!(
        client.read_members(&mut w, &cref, ReadPolicy::Primary),
        Err(StoreError::Net(_))
    ));
    assert!(matches!(
        client.read_members(&mut w, &cref, ReadPolicy::Quorum),
        Err(StoreError::NoQuorum { got: 2, need: 3 })
    ));
    let read = client
        .read_members(&mut w, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!(
        read.entries.len(),
        4,
        "converged minority serves everything"
    );
    assert_eq!(read.version, 4);
    handle.stop();
    w.run_to_quiescence();
}

/// `until` bounds the schedule without an explicit stop.
#[test]
fn until_deadline_stops_the_schedule() {
    let (mut w, client, cref) = setup(2, 3);
    client
        .add_member(&mut w, &cref, entry(1, cref.home))
        .unwrap();
    let _handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            until: Some(SimTime::from_millis(100)),
            ..GossipConfig::default()
        },
    );
    // Quiescence is reachable because the round past the deadline exits
    // without rescheduling.
    w.run_to_quiescence();
    assert!(w.now() >= SimTime::from_millis(100));
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
}

/// A one-shot pairwise sync without a schedule.
#[test]
fn sync_pair_repairs_two_replicas() {
    let (mut w, client, cref) = setup(2, 9);
    client
        .add_member(&mut w, &cref, entry(1, cref.home))
        .unwrap();
    assert!(!engine::converged(&w, COLL, &cref.all_nodes()));
    engine::sync_pair(
        &mut w,
        COLL,
        cref.replicas[0],
        cref.home,
        DigestMode::Full,
        SimDuration::from_millis(20),
    );
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
}

/// Digest-then-delta does its job: once converged, further rounds ship
/// no entry payloads.
#[test]
fn converged_rounds_ship_nothing() {
    let (mut w, client, cref) = setup(3, 41);
    for i in 1..=3 {
        client
            .add_member(&mut w, &cref, entry(i, cref.home))
            .unwrap();
    }
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(400);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    let shipped = w.metrics().counter("gossip.novel_shipped");
    let deadline = w.now() + SimDuration::from_millis(400);
    w.run_until(deadline);
    assert_eq!(
        w.metrics().counter("gossip.novel_shipped"),
        shipped,
        "converged replicas must exchange digests only"
    );
    handle.stop();
    w.run_to_quiescence();
}
