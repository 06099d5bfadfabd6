//! Multi-run computations: one observer witnessing several uses of the
//! iterator over the same set.
//!
//! This exercises two things the paper calls out:
//!
//! * §3.2: "If clients were concerned about these possible losses, after
//!   the iterator terminates, they can run the iterator again and hope to
//!   catch discrepancies."
//! * §3.1/§3.3: the relaxed constraints that allow mutation *between*
//!   runs but not *within* one — checkable only over a computation that
//!   spans several runs.

use weak_sets::prelude::*;

struct Rig {
    world: StoreWorld,
    set: WeakSet,
    server: NodeId,
}

fn rig(seed: u64, n: u64) -> Rig {
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
    for i in 1..=n {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            server,
        )
        .unwrap();
    }
    Rig { world, set, server }
}

fn drain(rig: &mut Rig, it: &mut Elements) -> Vec<ObjectId> {
    let mut out = Vec::new();
    loop {
        match it.next(&mut rig.world) {
            IterStep::Yielded(rec) => out.push(rec.id),
            IterStep::Done => return out,
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn rerun_catches_the_discrepancy() {
    // Run 1 misses an element added mid-run (snapshot semantics); run 2,
    // recorded into the same computation, picks it up — and the whole
    // two-run computation conforms to Figure 4.
    let mut r = rig(1, 4);
    let mut it1 = r.set.elements_observed(Semantics::Snapshot);
    // Pull one element, then a concurrent add lands.
    assert!(matches!(it1.next(&mut r.world), IterStep::Yielded(_)));
    r.set
        .add(
            &mut r.world,
            ObjectRecord::new(ObjectId(99), "late", &b"y"[..]),
            r.server,
        )
        .unwrap();
    let mut first: Vec<ObjectId> = Vec::new();
    loop {
        match it1.next(&mut r.world) {
            IterStep::Yielded(rec) => first.push(rec.id),
            IterStep::Done => break,
            other => panic!("{other:?}"),
        }
    }
    assert!(!first.contains(&ObjectId(99)), "run 1 must miss the add");

    // Hand the observer to a second run.
    let obs = it1.take_observer().expect("observer still attached");
    let mut it2 = r.set.elements(Semantics::Snapshot);
    it2.observe(obs);
    let second = drain(&mut r, &mut it2);
    assert!(second.contains(&ObjectId(99)), "run 2 catches it");

    let comp = it2.take_computation(&r.world).expect("observed");
    assert_eq!(comp.runs.len(), 2);
    let conf = check_computation(Figure::Fig4, &comp);
    conf.assert_ok();
    // Figure 3's full immutability rejects the two-run history (the add
    // happened between states), but...
    assert!(!check_computation(Figure::Fig3, &comp).is_ok());
    // ...the §3.1 relaxed constraint (immutable during each run only)
    // accepts it: the mutation landed inside run 1, wait — it landed
    // during run 1, so even the relaxed form rejects run 1's window.
    let relaxed = Checker::new(Figure::Fig3)
        .with_constraint(ConstraintKind::ImmutableDuringRuns)
        .check(&comp);
    assert!(!relaxed.is_ok());
}

#[test]
fn mutation_between_runs_satisfies_relaxed_constraint_only() {
    let mut r = rig(2, 3);
    // Run 1: quiescent.
    let mut it1 = r.set.elements_observed(Semantics::Snapshot);
    let first = drain(&mut r, &mut it1);
    assert_eq!(first.len(), 3);
    let obs = it1.take_observer().unwrap();
    // Mutate strictly BETWEEN runs.
    r.set
        .add(
            &mut r.world,
            ObjectRecord::new(ObjectId(50), "between", &b"z"[..]),
            r.server,
        )
        .unwrap();
    // Run 2: quiescent again.
    let mut it2 = r.set.elements(Semantics::Snapshot);
    it2.observe(obs);
    let second = drain(&mut r, &mut it2);
    assert_eq!(second.len(), 4);
    let comp = it2.take_computation(&r.world).unwrap();
    assert_eq!(comp.runs.len(), 2);
    // Full immutability: violated. Relaxed per-run immutability: holds.
    assert!(!check_computation(Figure::Fig3, &comp).is_ok());
    Checker::new(Figure::Fig3)
        .with_constraint(ConstraintKind::ImmutableDuringRuns)
        .check(&comp)
        .assert_ok();
    // Each run is also individually Figure-4 conformant.
    check_computation(Figure::Fig4, &comp).assert_ok();
}

#[test]
fn same_query_twice_may_differ_under_churn() {
    // §1's non-serializable expectations: "running the same query twice
    // in a row may return different sets of elements."
    let mut r = rig(3, 5);
    let mut it1 = r.set.elements_observed(Semantics::Optimistic);
    let first = drain(&mut r, &mut it1);
    let obs = it1.take_observer().unwrap();
    r.set.remove(&mut r.world, ObjectId(2)).unwrap();
    r.set
        .add(
            &mut r.world,
            ObjectRecord::new(ObjectId(77), "new", &b"n"[..]),
            r.server,
        )
        .unwrap();
    let mut it2 = r.set.elements(Semantics::Optimistic);
    it2.observe(obs);
    let second = drain(&mut r, &mut it2);
    assert_ne!(
        first.iter().collect::<std::collections::BTreeSet<_>>(),
        second.iter().collect::<std::collections::BTreeSet<_>>()
    );
    let comp = it2.take_computation(&r.world).unwrap();
    assert_eq!(comp.runs.len(), 2);
    // Figure 6 has no constraint: the whole two-run history conforms.
    check_computation(Figure::Fig6, &comp).assert_ok();
    // And each run classifies independently in the taxonomy.
    let c1 = classify_run(&comp, &comp.runs[0]);
    assert_eq!(c1.consistency, Consistency::Strong);
}

#[test]
fn three_runs_in_one_computation() {
    let mut r = rig(4, 2);
    let mut obs = None;
    for round in 0..3 {
        let mut it = r.set.elements(Semantics::GrowOnly);
        match obs.take() {
            Some(o) => it.observe(o),
            None => {
                it = {
                    let mut it = r.set.elements_observed(Semantics::GrowOnly);
                    let _ = &mut it;
                    it
                }
            }
        }
        let got = drain(&mut r, &mut it);
        assert_eq!(got.len(), 2 + round);
        obs = it.take_observer();
        // Grow between runs.
        r.set
            .add(
                &mut r.world,
                ObjectRecord::new(ObjectId(100 + round as u64), "g", &b"g"[..]),
                r.server,
            )
            .unwrap();
        // Re-wrap for the next round.
        let o = obs.take().expect("observer");
        obs = Some(o);
    }
    // Final check over all three runs: grow-only holds globally here.
    let o = obs.expect("observer");
    let mut final_it = r.set.elements(Semantics::GrowOnly);
    final_it.observe(o);
    let comp = final_it.take_computation(&r.world).expect("computation");
    assert_eq!(comp.runs.len(), 3);
    check_computation(Figure::Fig5, &comp).assert_ok();
}
