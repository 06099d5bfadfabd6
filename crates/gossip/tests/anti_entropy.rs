//! Engine-level integration: anti-entropy rounds on the simulated event
//! loop converge replicas, survive partitions, and back
//! leaderless membership reads.

use weakset_gossip::prelude::*;
use weakset_runtime::traits::Transport;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::topology::Topology;
use weakset_sim::traits::{Clock, Observe, ServiceHost};
use weakset_store::client::ReadPolicy;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreError, StoreWorld};

const SECS: SimDuration = SimDuration::from_secs(1);

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

/// `stop` is honoured at a round's start: the round in flight finishes,
/// and none follows, so the schedule drains to quiescence.
#[test]
fn stop_ends_the_schedule_at_the_next_round() {
    let (mut w, client, cref) = setup(2, 3);
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
    w.run_until(SimTime::from_millis(100));
    handle.stop();
    let rounds = w.metrics().counter("gossip.rounds");
    assert!(rounds > 0);
    // Quiescence is reachable because the next round exits without
    // rescheduling.
    w.run_to_quiescence();
    assert_eq!(w.metrics().counter("gossip.rounds"), rounds);
    assert!(w.now() < SimTime::from_millis(200));
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
}

/// A client rpc that overlaps a round returns one round trip after it
/// was sent: the round's exchanges are woken by their own replies, so
/// none holds the client's wait until the round ends.
#[test]
fn a_round_in_flight_never_holds_a_client_rpc() {
    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(17, t, LatencyModel::Constant(SimDuration::from_millis(5)));
    for &s in &servers {
        w.install_service(s, Box::new(GossipNode::new(s)));
    }
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    let cl = StoreClient::new(client, SimDuration::from_millis(50));
    cl.create_collection(&mut w, &cref).unwrap();
    cl.add_member(&mut w, &cref, entry(1, cref.home)).unwrap();
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    // The first round starts 1 ms after the read is sent, and its
    // exchanges (10 ms each) outlast the read's reply.
    let before_round = w.now() + SimDuration::from_millis(9);
    w.run_until(before_round);
    let sent = w.now();
    let read = w.rpc(client, servers[1], StoreMsg::ListMembers(COLL), SECS);
    assert!(matches!(read, Ok(StoreMsg::Members { .. })), "{read:?}");
    assert_eq!(
        w.now(),
        sent + SimDuration::from_millis(10),
        "one round trip"
    );
    assert_eq!(w.metrics().counter("gossip.rounds"), 1);
    assert!(
        w.metrics().counter("rpc.ok") < w.metrics().counter("rpc.sent"),
        "the round is in flight"
    );
    handle.stop();
    w.run_to_quiescence();
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
}

/// The traffic keeps its shape: a round's exchanges run one after
/// another, origins in replica order, and the next round starts one
/// interval after the round's last exchange ends; `stop` is honoured at
/// the next round's start. Three converged replicas behind 5 ms links,
/// so each exchange is one 10 ms pull (its push is skipped).
#[test]
fn a_round_runs_its_exchanges_in_order_and_then_rests_an_interval() {
    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(5, t, LatencyModel::Constant(SimDuration::from_millis(5)));
    for &s in &servers {
        w.install_service(s, Box::new(GossipNode::new(s)));
    }
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    let cl = StoreClient::new(client, SimDuration::from_millis(50));
    cl.create_collection(&mut w, &cref).unwrap();
    w.events_mut().set_enabled(true);
    let t0 = w.now();
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    // Stopped in the middle of the second round, which runs to its end.
    w.run_until(t0 + SimDuration::from_millis(55));
    handle.stop();
    w.run_to_quiescence();
    let sends: Vec<(u64, String)> = (w.events().events().iter())
        .filter(|e| e.kind == "net.rpc")
        .map(|e| ((e.at_us - t0.as_micros()) / 1000, e.detail.as_str().into()))
        .collect();
    let at: Vec<u64> = sends.iter().map(|(ms, _)| *ms).collect();
    assert_eq!(at, [10, 20, 30, 50, 60, 70], "{sends:?}");
    let origins: Vec<&str> = sends.iter().map(|(_, link)| &link[..2]).collect();
    assert_eq!(origins, ["n1", "n2", "n3", "n1", "n2", "n3"], "{sends:?}");
    assert_eq!(w.metrics().counter("gossip.rounds"), 2);
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
