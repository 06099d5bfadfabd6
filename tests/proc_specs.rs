//! Executable checking of Figure 1's *procedure* specifications
//! (`create`, `add`, `remove`, `size`) against the running store: every
//! membership transition in the primary's history must be explained by a
//! specified operation, and each client call's observable effect must
//! match its `ensures` clause.

use weak_sets::prelude::*;

fn sv(entries: &[MemberEntry]) -> SetValue {
    entries.iter().map(|m| ElemId(m.elem.0)).collect()
}

struct Rig {
    world: StoreWorld,
    set: WeakSet,
    server: NodeId,
}

fn rig(seed: u64) -> Rig {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let server = topo.add_node("server", 1);
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(2)),
    );
    world.install_service(server, Box::new(StoreServer::new()));
    let client = StoreClient::new(cn, SimDuration::from_millis(100));
    let cref = CollectionRef::unreplicated(CollectionId(1), server);
    client.create_collection(&mut world, &cref).unwrap();
    let set = WeakSet::new(client, cref);
    Rig { world, set, server }
}

fn membership(r: &mut Rig) -> SetValue {
    let read = r
        .set
        .client()
        .read_members(&mut r.world, r.set.cref(), ReadPolicy::Primary)
        .unwrap();
    sv(&read.entries)
}

#[test]
fn create_satisfies_its_ensures() {
    let mut r = rig(1);
    let value = membership(&mut r);
    check_create(&value).unwrap();
}

#[test]
fn add_and_remove_satisfy_their_ensures_clauses() {
    let mut r = rig(2);
    let mut pre = membership(&mut r);
    // A random-ish sequence of adds and removes, each checked against
    // the procedure spec.
    let script: [(bool, u64); 9] = [
        (true, 1),
        (true, 2),
        (true, 3),
        (false, 2),
        (true, 2),  // re-add
        (true, 2),  // duplicate add: identity
        (false, 9), // remove non-member: identity
        (false, 1),
        (false, 3),
    ];
    for (is_add, id) in script {
        if is_add {
            r.set
                .add(
                    &mut r.world,
                    ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]),
                    r.server,
                )
                .unwrap();
        } else {
            r.set.remove(&mut r.world, ObjectId(id)).unwrap();
        }
        let post = membership(&mut r);
        if is_add {
            check_add(&pre, ElemId(id), &post).unwrap();
        } else {
            check_remove(&pre, ElemId(id), &post).unwrap();
        }
        pre = post;
    }
}

#[test]
fn size_satisfies_its_ensures() {
    let mut r = rig(3);
    for i in 1..=5u64 {
        r.set
            .add(
                &mut r.world,
                ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
                r.server,
            )
            .unwrap();
        let pre = membership(&mut r);
        let reported = r.set.size(&mut r.world).unwrap();
        check_size(&pre, reported).unwrap();
    }
}

#[test]
fn primary_history_contains_only_specified_transitions() {
    let mut r = rig(4);
    for i in 1..=6u64 {
        r.set
            .add(
                &mut r.world,
                ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
                r.server,
            )
            .unwrap();
    }
    r.set.remove(&mut r.world, ObjectId(2)).unwrap();
    r.set.remove(&mut r.world, ObjectId(4)).unwrap();
    // Omnisciently read the primary's version log and validate every
    // adjacent transition.
    let server = r
        .world
        .service::<StoreServer>(r.server)
        .expect("primary service");
    let coll = server.collection(r.set.cref().id).expect("collection");
    let history: Vec<SetValue> = coll
        .history()
        .map(|mv| mv.members.iter().map(|m| ElemId(m.elem.0)).collect())
        .collect();
    assert_eq!(history.len(), 9); // initial + 6 adds + 2 removes
    validate_history(&history).expect("every step is a specified op");
    // And the individual steps classify as expected.
    assert_eq!(
        classify_transition(&history[0], &history[1]),
        Transition::Add(ElemId(1))
    );
    assert_eq!(
        classify_transition(&history[6], &history[7]),
        Transition::Remove(ElemId(2))
    );
}

#[test]
fn replica_bulk_sync_is_not_a_specified_transition() {
    // A replica that missed several updates jumps versions in one sync:
    // its local history legitimately contains an `Other` transition —
    // the specs describe the logical object, not replica internals.
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let primary = topo.add_node("primary", 1);
    let replica = topo.add_node("replica", 2);
    let mut world = StoreWorld::new(5, topo, LatencyModel::Constant(SimDuration::from_millis(2)));
    world.install_service(primary, Box::new(StoreServer::new()));
    world.install_service(replica, Box::new(StoreServer::new()));
    let client = StoreClient::new(cn, SimDuration::from_millis(100));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: primary,
        replicas: vec![replica],
    };
    client.create_collection(&mut world, &cref).unwrap();
    // Replica offline while two members land.
    world.topology_mut().partition(&[replica]);
    for i in 1..=2u64 {
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
    world.topology_mut().heal_partition();
    // Third add triggers a sync carrying all three at once.
    client
        .add_member(
            &mut world,
            &cref,
            MemberEntry {
                elem: ObjectId(3),
                home: primary,
            },
        )
        .unwrap();
    let replica_srv = world.service::<StoreServer>(replica).unwrap();
    let history: Vec<SetValue> = replica_srv
        .collection(cref.id)
        .unwrap()
        .history()
        .map(|mv| mv.members.iter().map(|m| ElemId(m.elem.0)).collect())
        .collect();
    // {} -> {1,2,3} in one step: an unspecified (sync) transition.
    assert_eq!(validate_history(&history), Err(0));
    // The primary's own history stays specified.
    let primary_srv = world.service::<StoreServer>(primary).unwrap();
    let phistory: Vec<SetValue> = primary_srv
        .collection(cref.id)
        .unwrap()
        .history()
        .map(|mv| mv.members.iter().map(|m| ElemId(m.elem.0)).collect())
        .collect();
    validate_history(&phistory).unwrap();
}
