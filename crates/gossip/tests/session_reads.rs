//! Read-your-writes through gossip convergence lag.
//!
//! Gossip replicas converge by anti-entropy, so right after a write only
//! the primary's CRDT holds the new dot. A plain leaderless union read
//! served by the lagging replicas can miss the session's own committed
//! insert; `ReadPolicy::CausalSession` must never do so — it redirects
//! to a replica that dominates the session clock, waits for convergence,
//! or fails, but it never silently serves the stale membership.

use weakset_gossip::prelude::*;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_store::collection::MemberEntry;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::{CollectionRef, ReadPolicy, StoreClient, StoreError, StoreWorld};

const COLL: CollectionId = CollectionId(1);

fn setup(seed: u64) -> (StoreWorld, StoreClient, CollectionRef) {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(seed, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(
            s,
            Box::new(GossipNode::new(s).with_default_semantics(GossipSemantics::GrowShrink)),
        );
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(50)).with_session();
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(&mut w, &cref).unwrap();
    (w, client, cref)
}

fn converge(w: &mut StoreWorld, cref: &CollectionRef) {
    let handle = engine::install(
        w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(5),
            fanout: 2,
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(400);
    w.run_until(deadline);
    assert!(engine::converged(w, COLL, &cref.all_nodes()), "convergence");
    handle.stop();
    w.run_to_quiescence();
}

fn elems(read: &weakset_store::client::MembershipRead) -> Vec<u64> {
    let mut ids: Vec<u64> = read.entries.iter().map(|m| m.elem.0).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn session_reads_never_miss_own_writes_during_convergence_lag() {
    let (mut w, client, cref) = setup(11);
    // Two writes land at the primary's CRDT; the secondaries' CRDTs stay
    // empty until anti-entropy runs (which it has not yet).
    for id in [1u64, 2] {
        client
            .add_member(
                &mut w,
                &cref,
                MemberEntry {
                    elem: ObjectId(id),
                    home: cref.home,
                },
            )
            .unwrap();
    }
    // The session learned the primary's post-write digest.
    let tok = client.session_token().unwrap();
    assert_eq!(tok.clock(COLL).map(|c| c.total()), Some(2));

    // A session read during the lag: both secondaries answer
    // SessionBehind and the union is served by the primary — the client
    // sees its own writes.
    let read = client
        .read_members(&mut w, &cref, ReadPolicy::CausalSession)
        .unwrap();
    assert_eq!(elems(&read), vec![1, 2], "read-your-writes despite lag");
    assert!(w.metrics().counter("session.read.behind") >= 2);

    // With the primary gone and the replicas still unconverged, a plain
    // leaderless union happily serves an EMPTY membership — the client's
    // own writes vanish. The session read refuses and fails instead.
    w.topology_mut().partition(&[cref.home]);
    let stale = client
        .read_members(&mut w, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!(elems(&stale), Vec::<u64>::new(), "lagging union is empty");
    let err = client
        .read_members(&mut w, &cref, ReadPolicy::CausalSession)
        .unwrap_err();
    assert!(matches!(err, StoreError::SessionBehind { need: 2, .. }));
    assert!(err.is_failure());

    // After anti-entropy converges the ring, the same session read is
    // satisfied by the secondaries alone (primary still partitioned).
    w.topology_mut().heal_partition();
    converge(&mut w, &cref);
    w.topology_mut().partition(&[cref.home]);
    let read = client
        .read_members(&mut w, &cref, ReadPolicy::CausalSession)
        .unwrap();
    assert_eq!(elems(&read), vec![1, 2], "converged replicas satisfy");
}

#[test]
fn session_reads_stay_monotonic_across_replicas() {
    let (mut w, client, cref) = setup(12);
    client
        .add_member(
            &mut w,
            &cref,
            MemberEntry {
                elem: ObjectId(1),
                home: cref.home,
            },
        )
        .unwrap();
    converge(&mut w, &cref);
    // Read once from the converged ring: the session clock now covers
    // the whole membership.
    let first = client
        .read_members(&mut w, &cref, ReadPolicy::CausalSession)
        .unwrap();
    assert_eq!(elems(&first), vec![1]);
    // A second write lands at the primary only; the secondaries lag
    // again. Every subsequent session read must include BOTH elements
    // (monotonic reads + read-your-writes), no matter which replicas it
    // ends up touching.
    client
        .add_member(
            &mut w,
            &cref,
            MemberEntry {
                elem: ObjectId(2),
                home: cref.home,
            },
        )
        .unwrap();
    for _ in 0..3 {
        let read = client
            .read_members(&mut w, &cref, ReadPolicy::CausalSession)
            .unwrap();
        assert_eq!(elems(&read), vec![1, 2], "no going back in time");
    }
}
