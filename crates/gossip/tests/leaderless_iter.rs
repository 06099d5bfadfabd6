//! End-to-end: the `weakset` iterators running leaderless over a
//! gossip-replicated deployment, with their histories checked against the
//! paper's figures.
//!
//! The point of the exercise: with [`IterConfig::leaderless`] an iterator
//! makes progress from *any reachable converged replica* — it neither
//! fails nor blocks when the primary is unreachable — and the runs it
//! produces still conform to Figure 5 / Figure 6. The conformance
//! observer keeps reading ground truth from the primary's log through a
//! [`HistorySource`] that reaches inside the [`GossipNode`] wrapper.

use weakset::prelude::{Elements, HistorySource, IterConfig, IterStep, RunObserver, Semantics};
use weakset_gossip::prelude::*;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_sim::traits::{Clock, ServiceHost};
use weakset_spec::checker::{check_computation, Figure};
use weakset_store::collection::MemberEntry;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreWorld};

const COLL: CollectionId = CollectionId(1);

fn setup(n: usize, semantics: GossipSemantics) -> (StoreWorld, StoreClient, CollectionRef) {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", n);
    let mut w = StoreWorld::new(29, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(
            s,
            Box::new(GossipNode::new(s).with_default_semantics(semantics)),
        );
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

/// Adds element `id`, homing its object record on `home` (which need not
/// be the collection primary — that is what keeps fetches alive when the
/// primary is partitioned away).
fn add(w: &mut StoreWorld, client: &StoreClient, cref: &CollectionRef, id: u64, home: NodeId) {
    client
        .put_object(
            w,
            home,
            ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]),
        )
        .unwrap();
    client
        .add_member(
            w,
            cref,
            MemberEntry {
                elem: ObjectId(id),
                home,
            },
        )
        .unwrap();
}

/// The observer's omniscient history accessor for gossip deployments:
/// reach through the [`GossipNode`] wrapper to the inner store's log.
fn gossip_history() -> HistorySource {
    HistorySource::new(GossipNode::visit_collection_history)
}

/// Converge all membership hosts, then stop gossiping.
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
    let deadline = w.now() + SimDuration::from_millis(300);
    w.run_until(deadline);
    assert!(
        engine::converged(w, COLL, &cref.all_nodes()),
        "setup gossip"
    );
    handle.stop();
    w.run_to_quiescence();
}

/// Figure 6 end-to-end: the optimistic iterator with leaderless reads
/// completes from surviving replicas while the primary is partitioned
/// away — where the primary-read iterator can only block.
#[test]
fn optimistic_leaderless_completes_without_the_primary() {
    let (mut w, client, cref) = setup(3, GossipSemantics::GrowShrink);
    // Objects homed off-primary so fetches survive the partition.
    add(&mut w, &client, &cref, 1, cref.replicas[0]);
    add(&mut w, &client, &cref, 2, cref.replicas[1]);
    converge(&mut w, &cref);
    w.topology_mut().partition(&[cref.home]);

    // Control: primary reads block (never fail — Fig. 6), no progress.
    let mut blocked = Elements::new(
        Semantics::Optimistic,
        client.clone(),
        cref.clone(),
        IterConfig::default(),
    );
    assert_eq!(blocked.next(&mut w), IterStep::Blocked);

    // Leaderless: both elements arrive from the converged replicas.
    let mut it = Elements::new(
        Semantics::Optimistic,
        client.clone(),
        cref.clone(),
        IterConfig::leaderless(),
    );
    it.observe(
        RunObserver::new(cref.id, cref.home, client.node()).with_history_source(gossip_history()),
    );
    let (got, end) = it.drain(&mut w, 3, SimDuration::from_millis(10));
    assert_eq!(end, IterStep::Done);
    let mut ids: Vec<ObjectId> = got.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![ObjectId(1), ObjectId(2)]);

    let comp = it.take_computation(&w).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
}

/// Figure 5 end-to-end: grow-only gossip replicas back a grow-only
/// iterator reading leaderless; the recorded history satisfies both the
/// grow-only spec and the weaker Figure 6.
#[test]
fn grow_only_leaderless_conforms_to_fig5() {
    let (mut w, client, cref) = setup(3, GossipSemantics::GrowOnly);
    add(&mut w, &client, &cref, 1, cref.replicas[0]);
    add(&mut w, &client, &cref, 2, cref.replicas[1]);
    add(&mut w, &client, &cref, 3, cref.replicas[0]);
    converge(&mut w, &cref);
    w.topology_mut().partition(&[cref.home]);

    let mut it = Elements::new(
        Semantics::GrowOnly,
        client.clone(),
        cref.clone(),
        IterConfig::leaderless(),
    );
    it.observe(
        RunObserver::new(cref.id, cref.home, client.node()).with_history_source(gossip_history()),
    );
    let mut yielded = 0;
    loop {
        match it.next(&mut w) {
            IterStep::Yielded(_) => yielded += 1,
            IterStep::Done => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(yielded, 3);

    let comp = it.take_computation(&w).unwrap();
    check_computation(Figure::Fig5, &comp).assert_ok();
    check_computation(Figure::Fig6, &comp).assert_ok();
}

/// Growth that arrives *by gossip* mid-run is picked up: the iterator
/// yields an element added at the primary after the run started, then the
/// primary vanishes and the new member is still served leaderless.
#[test]
fn leaderless_iterator_sees_gossiped_growth() {
    let (mut w, client, cref) = setup(3, GossipSemantics::GrowShrink);
    add(&mut w, &client, &cref, 1, cref.replicas[0]);
    converge(&mut w, &cref);

    let mut it = Elements::new(
        Semantics::Optimistic,
        client.clone(),
        cref.clone(),
        IterConfig::leaderless(),
    );
    it.observe(
        RunObserver::new(cref.id, cref.home, client.node()).with_history_source(gossip_history()),
    );
    assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));

    // Concurrent growth at the (still healthy) primary, spread by
    // anti-entropy; then the primary drops off the network.
    add(&mut w, &client, &cref, 2, cref.replicas[1]);
    converge(&mut w, &cref);
    w.topology_mut().partition(&[cref.home]);

    assert_eq!(it.next(&mut w).elem(), Some(ObjectId(2)));
    assert_eq!(it.next(&mut w), IterStep::Done);

    let comp = it.take_computation(&w).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
}
