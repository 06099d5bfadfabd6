//! The §3.3 grow guard end-to-end: "To ensure that sets only grow during
//! the iterator's use of the set, we can prevent objects from being
//! deleted until the iterator terminates ... and then garbage collect
//! these 'ghost' copies upon termination."
//!
//! With the guard, a grow-only iteration satisfies Figure 5 with the
//! relaxed §3.3 constraint (grow-only during each run, arbitrary between
//! runs) even against writers that delete concurrently; without it, the
//! same workload breaks the constraint.

use weak_sets::prelude::*;

struct Rig {
    world: StoreWorld,
    set: WeakSet,
}

fn rig(seed: u64, guarded: bool) -> Rig {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let server = topo.add_node("server", 1);
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(5)),
    );
    world.install_service(server, Box::new(StoreServer::new()));
    let client = StoreClient::new(cn, SimDuration::from_millis(150));
    let cref = CollectionRef::unreplicated(CollectionId(1), server);
    client.create_collection(&mut world, &cref).unwrap();
    let config = IterConfig {
        guard_growth: guarded,
        ..IterConfig::default()
    };
    let set = WeakSet::new(client, cref).with_config(config);
    for i in 1..=8u64 {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            server,
        )
        .unwrap();
    }
    // A deleting writer fires mid-run (as loopback environment actions).
    for (k, at_ms) in [30u64, 60, 90].iter().enumerate() {
        let cref = set.cref().clone();
        let victim = ObjectId(k as u64 + 5);
        let t = world.now() + SimDuration::from_millis(*at_ms);
        world.spawn_at(t, move |w: &mut StoreWorld| {
            if let Some(primary) = w.service_mut::<StoreServer>(cref.home) {
                primary.apply(StoreMsg::RemoveMember {
                    coll: cref.id,
                    elem: victim,
                });
            }
        });
    }
    Rig { world, set }
}

fn run_grow(rig: &mut Rig) -> (Computation, Vec<ObjectId>, IterStep) {
    let mut it = rig.set.elements_observed(Semantics::GrowOnly);
    let mut yields = Vec::new();
    let end = loop {
        match it.next(&mut rig.world) {
            IterStep::Yielded(rec) => yields.push(rec.id),
            step => break step,
        }
    };
    (
        it.take_computation(&rig.world).expect("observed"),
        yields,
        end,
    )
}

#[test]
fn guarded_run_satisfies_relaxed_grow_only_under_deletions() {
    let mut r = rig(1, true);
    let (comp, yields, end) = run_grow(&mut r);
    assert_eq!(end, IterStep::Done);
    // The guard deferred the deletions: every element was still yielded.
    assert_eq!(yields.len(), 8);
    // The run satisfies Figure 5 under the §3.3 relaxed constraint.
    Checker::new(Figure::Fig5)
        .with_constraint(ConstraintKind::GrowOnlyDuringRuns)
        .check(&comp)
        .assert_ok();
    // After release, the ghosts were collected: deletions landed.
    let remaining = r.set.size(&mut r.world).unwrap();
    assert_eq!(remaining, 8 - 3);
}

#[test]
fn unguarded_run_breaks_the_grow_only_constraint() {
    let mut r = rig(2, false);
    let (comp, _yields, _end) = run_grow(&mut r);
    let conf = Checker::new(Figure::Fig5)
        .with_constraint(ConstraintKind::GrowOnlyDuringRuns)
        .check(&comp);
    assert!(
        conf.violations
            .iter()
            .any(|v| matches!(v, Violation::Constraint(_))),
        "mid-run deletions must break grow-only: {:?}",
        conf.violations
    );
    // The same trace is fine for Figure 6 (no constraint).
    check_computation(Figure::Fig6, &comp).assert_ok();
}

#[test]
fn guard_is_released_on_failure_too() {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let s0 = topo.add_node("s0", 1);
    let s1 = topo.add_node("s1", 2);
    let mut world = StoreWorld::new(3, topo, LatencyModel::Constant(SimDuration::from_millis(5)));
    world.install_service(s0, Box::new(StoreServer::new()));
    world.install_service(s1, Box::new(StoreServer::new()));
    let client = StoreClient::new(cn, SimDuration::from_millis(100));
    let cref = CollectionRef::unreplicated(CollectionId(1), s0);
    client.create_collection(&mut world, &cref).unwrap();
    let config = IterConfig {
        guard_growth: true,
        ..IterConfig::default()
    };
    let set = WeakSet::new(client.clone(), cref.clone()).with_config(config);
    set.add(
        &mut world,
        ObjectRecord::new(ObjectId(1), "a", &b""[..]),
        s0,
    )
    .unwrap();
    set.add(
        &mut world,
        ObjectRecord::new(ObjectId(2), "b", &b""[..]),
        s1,
    )
    .unwrap();
    let mut it = set.elements(Semantics::GrowOnly);
    assert!(matches!(it.next(&mut world), IterStep::Yielded(_)));
    // s1 becomes unreachable: the pessimistic run fails and releases.
    world.topology_mut().partition(&[s1]);
    assert!(matches!(it.next(&mut world), IterStep::Failed(_)));
    // A removal now lands immediately (no guard held).
    client
        .remove_member(&mut world, &cref, ObjectId(1))
        .unwrap();
    let read = client
        .read_members(&mut world, &cref, ReadPolicy::Primary)
        .unwrap();
    assert!(!read.entries.iter().any(|m| m.elem == ObjectId(1)));
}

/// A caller that stops before the terminal step — a budgeted listing, a
/// closed window — must be able to give the guard back: until it does,
/// every removal is a ghost.
#[test]
fn abort_releases_the_guard_early() {
    let mut r = rig(4, true);
    let mut it = r.set.elements(Semantics::GrowOnly);
    assert!(matches!(it.next(&mut r.world), IterStep::Yielded(_)));
    assert!(it.holds());
    // Deferred: accepted, but the member is still read back.
    r.set.remove(&mut r.world, ObjectId(1)).unwrap();
    assert!(r.set.contains(&mut r.world, ObjectId(1)).unwrap());
    it.abort(&mut r.world);
    assert!(!it.holds());
    assert_eq!(it.next(&mut r.world), IterStep::Done);
    // The guard is gone and the ghost with it.
    assert!(!r.set.contains(&mut r.world, ObjectId(1)).unwrap());
}
