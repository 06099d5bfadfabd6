//! End-to-end: a sharded weak set over gossip-replicated shard groups.
//!
//! Each shard's sub-collection runs its own anti-entropy schedule
//! strictly inside its replica group (one `engine::install` per shard);
//! convergence is per shard (`engine::converged` over each). Once the
//! groups converge, leaderless batched reads and iteration over the
//! union keep working with EVERY shard primary partitioned away — and
//! the run still conforms to the paper's figures.

use weakset::prelude::*;
use weakset::shard::shard_key;
use weakset_gossip::prelude::*;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_spec::checker::check_computation;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{StoreClient, StoreWorld};

const BASE: CollectionId = CollectionId(7);

fn sharded_gossip_world(
    n_shards: usize,
    group_size: usize,
) -> (StoreWorld, ShardedWeakSet, Vec<ShardGroup>) {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let groups: Vec<ShardGroup> = (0..n_shards)
        .map(|g| {
            let nodes: Vec<NodeId> = t.add_servers(&format!("g{g}-"), group_size);
            ShardGroup {
                home: nodes[0],
                replicas: nodes[1..].to_vec(),
            }
        })
        .collect();
    let mut w = StoreWorld::new(31, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for id in w.topology().node_ids().collect::<Vec<_>>() {
        if id != cn {
            w.install_service(
                id,
                Box::new(GossipNode::new(id).with_default_semantics(GossipSemantics::GrowShrink)),
            );
        }
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(50));
    let set = ShardedWeakSet::create(&mut w, BASE, client, &groups, IterConfig::leaderless())
        .expect("create sharded set");
    (w, set, groups)
}

/// Adds element `id`, homing its object on the routed shard's FIRST
/// REPLICA so fetches survive a partition of the shard primary.
fn add_off_primary(w: &mut StoreWorld, set: &ShardedWeakSet, groups: &[ShardGroup], id: u64) {
    let shard = set.shard_for(ObjectId(id));
    let home = groups[shard].replicas[0];
    set.add(
        w,
        ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]),
        home,
    )
    .unwrap();
}

/// The per-shard gossip wiring: one schedule per shard group.
fn shard_pairs(set: &ShardedWeakSet) -> Vec<(CollectionId, Vec<NodeId>)> {
    (0..set.shard_count())
        .map(|i| (set.shard(i).cref().id, set.shard(i).cref().all_nodes()))
        .collect()
}

/// One independent schedule per shard, gossiping strictly within its
/// own replica group; handles come back in shard order.
fn install_per_shard(
    w: &mut StoreWorld,
    pairs: &[(CollectionId, Vec<NodeId>)],
) -> Vec<GossipHandle> {
    let config = GossipConfig {
        interval: SimDuration::from_millis(5),
        fanout: 2,
        ..GossipConfig::default()
    };
    pairs
        .iter()
        .map(|(coll, replicas)| engine::install(w, *coll, replicas.clone(), config))
        .collect()
}

fn converge_all(w: &mut StoreWorld, set: &ShardedWeakSet) {
    let pairs = shard_pairs(set);
    let handles = install_per_shard(w, &pairs);
    assert_eq!(handles.len(), set.shard_count());
    let deadline = w.now() + SimDuration::from_millis(500);
    w.run_until(deadline);
    assert!(
        pairs
            .iter()
            .all(|(coll, replicas)| engine::converged(w, *coll, replicas)),
        "every shard group converged"
    );
    for h in handles {
        h.stop();
    }
    w.run_to_quiescence();
}

#[test]
fn sharded_leaderless_reads_survive_all_primaries_partitioned() {
    let (mut w, set, groups) = sharded_gossip_world(2, 3);
    for id in 1..=8 {
        add_off_primary(&mut w, &set, &groups, id);
    }
    converge_all(&mut w, &set);

    // Cut off EVERY shard primary at once.
    let primaries: Vec<NodeId> = groups.iter().map(|g| g.home).collect();
    w.topology_mut().partition(&primaries);

    // One batched leaderless round still counts the whole set.
    assert_eq!(set.size(&mut w).unwrap(), 8);

    // And one optimistic run over the union drains it, its one
    // computation conforming to Figure 6 against the gossip-wrapped
    // history of every shard.
    let mut it = set
        .elements(Semantics::Optimistic)
        .observed(HistorySource::new(GossipNode::visit_collection_history));
    let mut got = Vec::new();
    loop {
        match it.next(&mut w) {
            IterStep::Yielded(rec) => got.push(rec.id),
            IterStep::Done => break,
            other => panic!("unexpected step: {other:?}"),
        }
    }
    got.sort_unstable();
    assert_eq!(got, (1..=8).map(ObjectId).collect::<Vec<_>>());
    let comp = it.take_computation(&w).expect("observed");
    check_computation(Semantics::Optimistic.figure(), &comp).assert_ok();

    // Per-shard observability was recorded by the batched read.
    let m = w.metrics();
    for i in 0..2 {
        assert!(m.counter(&shard_key(i, "read.ok")) >= 1, "shard {i}");
        assert_eq!(
            m.gauge(&shard_key(i, "queue.depth.max")),
            3,
            "whole group shares one envelope"
        );
    }
    assert_eq!(m.counter(&shard_key(2, "read.ok")), 0, "two shards only");
}

#[test]
fn per_shard_gossip_stays_inside_its_group() {
    let (mut w, set, groups) = sharded_gossip_world(2, 3);
    for id in 1..=6 {
        add_off_primary(&mut w, &set, &groups, id);
    }
    // Partition shard 1's whole group away BEFORE gossip: shard 0 must
    // still converge on its own — its schedule never needs the other
    // group.
    let mut other_group: Vec<NodeId> = vec![groups[1].home];
    other_group.extend(&groups[1].replicas);
    w.topology_mut().partition(&other_group);

    let pairs = shard_pairs(&set);
    let handles = install_per_shard(&mut w, &pairs);
    let deadline = w.now() + SimDuration::from_millis(500);
    w.run_until(deadline);
    assert!(
        engine::converged(&w, pairs[0].0, &pairs[0].1),
        "shard 0 converges despite shard 1's group being cut off"
    );
    // Shard 1's group ALSO converges internally: the partition split
    // groups apart, not group members from each other.
    assert!(engine::converged(&w, pairs[1].0, &pairs[1].1));
    for h in handles {
        h.stop();
    }
    w.run_to_quiescence();

    // Shard 0 reads fine; shard 1 is unreachable from the client, so
    // the whole-set read reports it.
    let shard0_members = set.shard(0).size(&mut w).unwrap();
    assert_eq!(
        shard0_members,
        (1..=6)
            .filter(|&id| set.shard_for(ObjectId(id)) == 0)
            .count()
    );
    assert!(matches!(
        set.size(&mut w),
        Err(Failure::MembershipUnavailable(_))
    ));
}
