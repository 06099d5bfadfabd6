//! Client-side caching as the paper frames it: "it is reasonable to
//! assume that the iterator does not mutate the set (it might keep a
//! cached version, which is a way to implement a history object)" —
//! and the availability dividend of holding local copies.

use weak_sets::prelude::*;

struct Rig {
    world: StoreWorld,
    set: WeakSet,
    servers: Vec<NodeId>,
}

fn rig(seed: u64, ttl: Option<SimDuration>) -> Rig {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(format!("s{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(5)),
    );
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(150));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    let iter_config = IterConfig {
        cache_ttl: ttl,
        ..IterConfig::default()
    };
    let set = WeakSet::new(client, cref).with_config(iter_config);
    for i in 1..=9u64 {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            servers[(i % 3) as usize],
        )
        .unwrap();
    }
    Rig {
        world,
        set,
        servers,
    }
}

fn drain(r: &mut Rig, it: &mut Elements) -> usize {
    let mut n = 0;
    loop {
        match it.next(&mut r.world) {
            IterStep::Yielded(_) => n += 1,
            IterStep::Done => return n,
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn warm_cache_halves_rerun_rpc_traffic() {
    let mut r = rig(1, Some(SimDuration::from_secs(60)));
    let mut it1 = r.set.elements(Semantics::Snapshot);
    assert_eq!(drain(&mut r, &mut it1), 9);
    let after_first = r.world.metrics().counter("rpc.sent");
    // Second run with the warm cache: only membership reads go out.
    let cache = it1.take_cache().expect("cache configured");
    let mut it2 = r.set.elements(Semantics::Snapshot);
    it2.set_cache(cache);
    assert_eq!(drain(&mut r, &mut it2), 9);
    let second_run_rpcs = r.world.metrics().counter("rpc.sent") - after_first;
    // Only the snapshot membership read: one RPC instead of 1 + 9.
    assert_eq!(second_run_rpcs, 1, "cache hits eliminate object fetches");
}

#[test]
fn cold_rerun_pays_full_price() {
    let mut r = rig(2, None);
    let mut it1 = r.set.elements(Semantics::Snapshot);
    assert_eq!(drain(&mut r, &mut it1), 9);
    let after_first = r.world.metrics().counter("rpc.sent");
    let mut it2 = r.set.elements(Semantics::Snapshot);
    assert!(it2.take_cache().is_none());
    assert_eq!(drain(&mut r, &mut it2), 9);
    let second = r.world.metrics().counter("rpc.sent") - after_first;
    assert_eq!(second, 10); // membership + 9 fetches
}

#[test]
fn cached_copies_survive_a_partition() {
    // After a warm run, the element homes vanish — but the membership
    // home stays up. The cached rerun still yields everything: a local
    // copy is accessible, which is the whole point of hoarding.
    let mut r = rig(3, Some(SimDuration::from_secs(60)));
    let mut it1 = r.set.elements(Semantics::Optimistic);
    assert_eq!(drain(&mut r, &mut it1), 9);
    let cache = it1.take_cache().unwrap();
    // Cut off the two servers that hold elements but not the membership
    // home... elements live on all three (i%3 ∈ {0,1,2}), home=s0.
    let cut: Vec<NodeId> = r.servers[1..].to_vec();
    r.world.topology_mut().partition(&cut);
    let mut it2 = r.set.elements_observed(Semantics::Optimistic);
    it2.set_cache(cache);
    let mut n = 0;
    loop {
        match it2.next(&mut r.world) {
            IterStep::Yielded(_) => n += 1,
            IterStep::Done => break,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(n, 9, "all elements served (6 from cache, 3 from s0)");
    // The run conforms: cached copies count as accessible.
    let comp = it2.take_computation(&r.world).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
}

#[test]
fn expired_cache_is_not_used() {
    let mut r = rig(4, Some(SimDuration::from_millis(50)));
    let mut it1 = r.set.elements(Semantics::Snapshot);
    assert_eq!(drain(&mut r, &mut it1), 9);
    let after_first = r.world.metrics().counter("rpc.sent");
    let cache = it1.take_cache().unwrap();
    // Let the TTL lapse.
    r.world.sleep(SimDuration::from_millis(200));
    let mut it2 = r.set.elements(Semantics::Snapshot);
    it2.set_cache(cache);
    assert_eq!(drain(&mut r, &mut it2), 9);
    let second = r.world.metrics().counter("rpc.sent") - after_first;
    assert_eq!(second, 10, "expired entries are refetched");
}

#[test]
fn cache_can_serve_stale_ghost_objects() {
    // The flip side of hoarding (§1: "we probably would not be overly
    // annoyed"): an object updated remotely keeps its old payload in the
    // cache until the TTL lapses. Model item mutation as remove+add of
    // the same id with new content (§3's convention collapses to an
    // overwrite here).
    let mut r = rig(5, Some(SimDuration::from_secs(60)));
    let mut it1 = r.set.elements(Semantics::Snapshot);
    assert_eq!(drain(&mut r, &mut it1), 9);
    let cache = it1.take_cache().unwrap();
    // o1 is updated at its home.
    r.set
        .client()
        .put_object(
            &mut r.world,
            r.servers[1],
            ObjectRecord::new(ObjectId(1), "o1", &b"NEW"[..]),
        )
        .unwrap();
    let mut it2 = r.set.elements(Semantics::Snapshot);
    it2.set_cache(cache);
    let mut saw_stale = false;
    loop {
        match it2.next(&mut r.world) {
            IterStep::Yielded(rec) => {
                if rec.id == ObjectId(1) {
                    saw_stale = rec.payload.as_ref() == b"x";
                }
            }
            IterStep::Done => break,
            other => panic!("{other:?}"),
        }
    }
    assert!(saw_stale, "the cached copy is the old version");
}
