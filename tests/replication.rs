//! Replication and staleness: the paper's observation that "the single
//! 'logical' object may be represented by a set of replicas ... one node
//! may have more up-to-date information than another; cached data may be
//! stale" — and what that does to spec conformance.
//!
//! The headline ablation: an *optimistic iterator reading stale replicas*
//! (`ReadPolicy::Any`) can yield an element that was removed before the
//! run even started, violating Figure 6's "every yield was a member in
//! some state between first and last". The same iterator with
//! `ReadPolicy::Primary` (or `Quorum`) conforms.

use weak_sets::prelude::*;

struct Rig {
    world: StoreWorld,
    client: StoreClient,
    cref: CollectionRef,
    primary: NodeId,
    replica: NodeId,
}

fn rig(seed: u64) -> Rig {
    let mut topo = Topology::new();
    let client_node = topo.add_node("client", 0);
    // The replica is *closer* to the client than the primary, so
    // ReadPolicy::Any prefers it.
    let replica = topo.add_node("replica", 1);
    let primary = topo.add_node("primary", 6);
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(2),
            per_hop: SimDuration::from_millis(2),
        },
    );
    world.install_service(primary, Box::new(StoreServer::new()));
    world.install_service(replica, Box::new(StoreServer::new()));
    let client = StoreClient::new(client_node, SimDuration::from_millis(150));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: primary,
        replicas: vec![replica],
    };
    client.create_collection(&mut world, &cref).unwrap();
    for i in 1..=3u64 {
        client
            .put_object(
                &mut world,
                primary,
                ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            )
            .unwrap();
        client
            .add_member(
                &mut world,
                &cref,
                MemberEntry {
                    elem: ObjectId(i),
                    home: primary,
                },
            )
            .unwrap();
    }
    Rig {
        world,
        client,
        cref,
        primary,
        replica,
    }
}

/// Makes the replica stale: cut it off, remove element 1 at the primary,
/// reconnect it. Replica still lists {1,2,3}; truth is {2,3}.
fn make_replica_stale(r: &mut Rig) {
    r.world.topology_mut().partition(&[r.replica]);
    r.client
        .remove_member(&mut r.world, &r.cref, ObjectId(1))
        .unwrap();
    r.world.topology_mut().heal_partition();
}

#[test]
fn stale_any_reads_break_fig6_conformance() {
    let mut r = rig(1);
    make_replica_stale(&mut r);
    let set = WeakSet::new(r.client.clone(), r.cref.clone()).with_config(IterConfig {
        read_policy: ReadPolicy::Any,
        fetch_order: FetchOrder::IdOrder,
        ..Default::default()
    });
    let mut it = set.elements_observed(Semantics::Optimistic);
    let mut yields = Vec::new();
    loop {
        match it.next(&mut r.world) {
            IterStep::Yielded(rec) => yields.push(rec.id),
            IterStep::Done => break,
            other => panic!("{other:?}"),
        }
    }
    // The stale replica resurrected element 1.
    assert!(yields.contains(&ObjectId(1)), "{yields:?}");
    let comp = it.take_computation(&r.world).expect("observed");
    let conf = check_computation(Figure::Fig6, &comp);
    assert!(
        !conf.is_ok(),
        "stale reads must be flagged: yielding a long-removed element"
    );
    assert!(conf
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Ensures { .. })));
}

#[test]
fn primary_reads_conform_where_any_reads_do_not() {
    let mut r = rig(2);
    make_replica_stale(&mut r);
    let set = WeakSet::new(r.client.clone(), r.cref.clone()).with_config(IterConfig {
        read_policy: ReadPolicy::Primary,
        ..Default::default()
    });
    let mut it = set.elements_observed(Semantics::Optimistic);
    let mut yields = Vec::new();
    loop {
        match it.next(&mut r.world) {
            IterStep::Yielded(rec) => yields.push(rec.id),
            IterStep::Done => break,
            other => panic!("{other:?}"),
        }
    }
    assert!(!yields.contains(&ObjectId(1)));
    let comp = it.take_computation(&r.world).expect("observed");
    check_computation(Figure::Fig6, &comp).assert_ok();
}

#[test]
fn quorum_reads_also_conform() {
    let mut r = rig(3);
    make_replica_stale(&mut r);
    let set = WeakSet::new(r.client.clone(), r.cref.clone()).with_config(IterConfig {
        read_policy: ReadPolicy::Quorum,
        ..Default::default()
    });
    let (records, end) = set.collect(&mut r.world, Semantics::Optimistic);
    assert_eq!(end, IterStep::Done);
    let ids: Vec<ObjectId> = records.iter().map(|rec| rec.id).collect();
    assert!(!ids.contains(&ObjectId(1)));
    assert_eq!(ids.len(), 2);
}

#[test]
fn replica_catches_up_on_next_write() {
    let mut r = rig(4);
    make_replica_stale(&mut r);
    // Any write propagates the whole membership, healing the replica.
    r.client
        .put_object(
            &mut r.world,
            r.primary,
            ObjectRecord::new(ObjectId(9), "o9", &b"x"[..]),
        )
        .unwrap();
    r.client
        .add_member(
            &mut r.world,
            &r.cref,
            MemberEntry {
                elem: ObjectId(9),
                home: r.primary,
            },
        )
        .unwrap();
    let any = r
        .client
        .read_members(&mut r.world, &r.cref, ReadPolicy::Any)
        .unwrap();
    let primary = r
        .client
        .read_members(&mut r.world, &r.cref, ReadPolicy::Primary)
        .unwrap();
    assert_eq!(any.version, primary.version);
    assert_eq!(any.entries, primary.entries);
}

#[test]
fn availability_ranking_under_primary_outage() {
    // With the primary down: Primary fails, Quorum fails (1 of 2 < 2),
    // Any survives on the stale replica — the paper's
    // pessimistic/optimistic trade-off on the membership list itself.
    let mut r = rig(5);
    make_replica_stale(&mut r);
    r.world.topology_mut().crash(r.primary);
    let p = r
        .client
        .read_members(&mut r.world, &r.cref, ReadPolicy::Primary);
    assert!(p.is_err());
    let q = r
        .client
        .read_members(&mut r.world, &r.cref, ReadPolicy::Quorum);
    assert!(matches!(q, Err(StoreError::NoQuorum { got: 1, need: 2 })));
    let a = r
        .client
        .read_members(&mut r.world, &r.cref, ReadPolicy::Any)
        .unwrap();
    assert_eq!(a.entries.len(), 3); // stale but available
}
