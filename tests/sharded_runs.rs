//! A sharded set is one logical set: its `elements` run is one
//! `Elements` over the union of its shards, holding every shard from its
//! first invocation, and its observer records one computation whose
//! states are the union of the shards' logs.

use weak_sets::prelude::*;

/// Three unreplicated shards, one per server, holding elements 1–6.
fn sharded_set() -> (StoreWorld, ShardedWeakSet, Vec<ShardGroup>) {
    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let servers = t.add_servers("s", 3);
    let groups: Vec<ShardGroup> = servers.into_iter().map(ShardGroup::unreplicated).collect();
    let mut w = StoreWorld::new(23, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for g in &groups {
        w.install_service(g.home, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(client, SimDuration::from_millis(50));
    let config = IterConfig::default();
    let set = ShardedWeakSet::create(&mut w, CollectionId(1), client, &groups, config).unwrap();
    for id in (1..=6).map(ObjectId) {
        let home = groups[set.shard_for(id)].home;
        set.add(&mut w, ObjectRecord::new(id, "o", &b"x"[..]), home)
            .unwrap();
    }
    (w, set, groups)
}

/// A Locked run takes every shard's lock in its first invocation: an
/// add routed to the last shard is refused while it lasts, and every
/// shard is writable once it ends.
#[test]
fn a_locked_sharded_run_holds_every_shard_from_its_first_invocation() {
    let (mut w, set, groups) = sharded_set();
    let on_shard = |shard| (100..).map(ObjectId).find(|&id| set.shard_for(id) == shard);
    let record = |id| ObjectRecord::new(id, "late", &b"x"[..]);
    let mut it = set.elements_observed(Semantics::Locked);
    assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
    let last = set.shard_count() - 1;
    let late = on_shard(last).unwrap();
    assert_eq!(
        set.add(&mut w, record(late), groups[last].home),
        Err(Failure::Store(StoreError::Locked))
    );
    let (_, end) = it.drain(&mut w, 3, SimDuration::from_millis(20));
    assert_eq!(end, IterStep::Done);
    assert!(!it.holds());
    let comp = it.take_computation(&w).unwrap();
    check_computation(Figure::Fig3, &comp).assert_ok();
    for (shard, g) in groups.iter().enumerate() {
        let id = on_shard(shard).unwrap();
        assert_eq!(set.add(&mut w, record(id), g.home), Ok(()));
    }
}

/// Over a union, each recording point appends one collection's changes
/// after another's: a read of the second collection's new version beside
/// the first's old one names no appended state, and is reported.
#[test]
fn a_union_read_that_is_no_appended_state_is_reported() {
    let mut t = Topology::new();
    let (client, home) = (t.add_node("client", 0), t.add_node("home", 1));
    let mut w = StoreWorld::new(1, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    w.install_service(home, Box::new(StoreServer::new()));
    let writer = StoreClient::new(client, SimDuration::from_millis(50));
    let entry = |id| MemberEntry {
        elem: ObjectId(id),
        home,
    };
    for (k, versions, reported) in [(1, [2, 1], false), (2, [1, 2], true)] {
        let [a, b] =
            [2 * k, 2 * k + 1].map(|id| CollectionRef::unreplicated(CollectionId(id), home));
        for (cref, id) in [(&a, 1), (&b, 2)] {
            writer.create_collection(&mut w, cref).unwrap();
            writer.add_member(&mut w, cref, entry(id)).unwrap();
        }
        let mut obs = RunObserver::union(&[a.clone(), b.clone()], client);
        let none = StepEvidence::default();
        obs.record_step(&w, Outcome::Yielded(ElemId(1)), &[1, 1], &none);
        writer.add_member(&mut w, &a, entry(3)).unwrap();
        writer.add_member(&mut w, &b, entry(4)).unwrap();
        obs.record_step(&w, Outcome::Yielded(ElemId(2)), &versions, &none);
        assert_eq!(
            obs.unexplained().len(),
            usize::from(reported),
            "{versions:?}"
        );
    }
}
