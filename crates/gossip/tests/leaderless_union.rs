//! Property: OR-Set removal dots win. An element removed while a
//! partition holds stale replicas apart must not resurrect — not in the
//! client's `ReadPolicy::Leaderless` union read, and not on any replica
//! once anti-entropy reconverges after the heal.

use proptest::prelude::*;
use weakset_gossip::prelude::*;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_sim::traits::{Clock, ServiceHost};
use weakset_store::collection::MemberEntry;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, ReadPolicy, StoreClient, StoreWorld};

const COLL: CollectionId = CollectionId(1);

fn setup(seed: u64, n: usize) -> (StoreWorld, StoreClient, CollectionRef) {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", n);
    let mut w = StoreWorld::new(seed, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(
            s,
            Box::new(GossipNode::new(s).with_default_semantics(GossipSemantics::GrowShrink)),
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

fn union_elems(w: &mut StoreWorld, client: &StoreClient, cref: &CollectionRef) -> Vec<u64> {
    let mut ids: Vec<u64> = client
        .read_members(w, cref, ReadPolicy::Leaderless)
        .expect("leaderless read with a reachable replica")
        .entries
        .iter()
        .map(|m| m.elem.0)
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Removals issued at the primary while the replicas are partitioned
    /// away never resurrect: the leaderless union read excludes the
    /// victim both during the partition (primary-only union) and after
    /// heal + reconvergence (every replica has applied the removal dots,
    /// which dominate the stale add dots the replicas still carry).
    #[test]
    fn partition_era_removals_do_not_resurrect(
        seed in 0u64..500,
        k in 2usize..6,
        victim_pick in 0usize..6,
    ) {
        let victim = (victim_pick % k) as u64 + 1;
        let (mut w, client, cref) = setup(seed, 3);
        for id in 1..=k as u64 {
            let home = cref.all_nodes()[(id as usize) % 3];
            client
                .put_object(&mut w, home, ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]))
                .unwrap();
            client
                .add_member(&mut w, &cref, MemberEntry { elem: ObjectId(id), home })
                .unwrap();
        }
        converge(&mut w, &cref);

        // Replicas drop off together; client and primary stay connected,
        // so the removal lands at the primary while both replicas keep
        // their (now stale) membership including the victim.
        w.topology_mut().partition(&cref.replicas);
        client.remove_member(&mut w, &cref, ObjectId(victim)).unwrap();

        let expected: Vec<u64> = (1..=k as u64).filter(|&e| e != victim).collect();
        prop_assert_eq!(union_elems(&mut w, &client, &cref), expected.clone());

        // Heal and reconverge: the removal dots must beat the stale adds
        // on every replica, and the union must stay shrunk.
        w.topology_mut().heal_partition();
        converge(&mut w, &cref);
        prop_assert_eq!(union_elems(&mut w, &client, &cref), expected);
        for &node in &cref.all_nodes() {
            let elems = engine::elements_at(&w, node, COLL).expect("replica hosts the collection");
            prop_assert!(
                !elems.iter().any(|m| m.elem == ObjectId(victim)),
                "victim resurrected on {node}"
            );
        }
    }
}
