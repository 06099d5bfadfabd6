//! Iteration over genuinely hostile networks: flapping links, lossy
//! links, and cascades of outages — the environments the paper's target
//! systems (mobile WAN clients) actually live in.

use weak_sets::prelude::*;

struct Rig {
    world: StoreWorld,
    set: WeakSet,
    servers: Vec<NodeId>,
    client_node: NodeId,
}

fn rig(seed: u64, n_elems: u64) -> Rig {
    let mut topo = Topology::new();
    let client_node = topo.add_node("client", 0);
    let servers: Vec<NodeId> = (0..4)
        .map(|i| topo.add_node(format!("s{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(3)),
    );
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(client_node, SimDuration::from_millis(120));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    let set = WeakSet::new(client, cref);
    for i in 1..=n_elems {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            servers[(i % 4) as usize],
        )
        .unwrap();
    }
    Rig {
        world,
        set,
        servers,
        client_node,
    }
}

#[test]
fn optimistic_iteration_survives_a_flapping_link() {
    let mut r = rig(1, 16);
    // The link to one server flaps: 40ms down, 40ms up, 20 cycles.
    let victim = r.servers[2];
    let plan = FaultPlan::none().flap_link(
        r.world.now(),
        r.client_node,
        victim,
        SimDuration::from_millis(40),
        SimDuration::from_millis(40),
        20,
    );
    r.world.install_plan(&plan);
    let mut it = r.set.elements_observed(Semantics::Optimistic);
    let mut yields = 0;
    let mut blocks = 0;
    loop {
        match it.next(&mut r.world) {
            IterStep::Yielded(_) => yields += 1,
            IterStep::Blocked => {
                blocks += 1;
                assert!(blocks < 100, "must not block forever on a flapping link");
                r.world.sleep(SimDuration::from_millis(15));
            }
            IterStep::Done => break,
            IterStep::Failed(e) => panic!("optimistic never fails: {e}"),
        }
    }
    assert_eq!(yields, 16, "every element eventually arrives between flaps");
    let comp = it.take_computation(&r.world).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
}

#[test]
fn retrying_client_iterates_over_a_lossy_network() {
    // A pessimistic run fails at its first invocation whose fetches all
    // fail, so it finishes only if its fetches are retried too.
    for semantics in [Semantics::Optimistic, Semantics::Snapshot] {
        let mut r = rig(2, 12);
        // Every link drops 40% of messages.
        for &s in &r.servers.clone() {
            r.world
                .topology_mut()
                .set_link(r.client_node, s, LinkState::lossy(0.4));
        }
        // A retry-hardened client copes.
        let sturdy = r.set.client().clone().with_retries(20);
        let set = WeakSet::new(sturdy, r.set.cref().clone());
        let (records, end) = set.collect(&mut r.world, semantics);
        assert_eq!((records.len(), end), (12, IterStep::Done), "{semantics:?}");
    }
}

#[test]
fn snapshot_iteration_under_rolling_outages() {
    // Servers crash and restart one after another. Because the iterator
    // tries *any* reachable unyielded member before declaring failure,
    // brief staggered outages are routed around: the paper's pessimism
    // only bites when every remaining member is unreachable at once.
    let mut r = rig(3, 12);
    let t0 = r.world.now();
    let mut plan = FaultPlan::none();
    for (k, &s) in r.servers.clone().iter().enumerate().skip(1) {
        plan = plan.outage(
            t0 + SimDuration::from_millis(20 + 60 * k as u64),
            s,
            SimDuration::from_millis(50),
        );
    }
    r.world.install_plan(&plan);
    let mut it = r.set.elements_observed(Semantics::Snapshot);
    let mut yields = 0;
    let end = loop {
        match it.next(&mut r.world) {
            IterStep::Yielded(_) => yields += 1,
            step => break step,
        }
    };
    assert_eq!(
        end,
        IterStep::Done,
        "staggered brief outages are routed around"
    );
    assert_eq!(yields, 12);
    let comp = it.take_computation(&r.world).unwrap();
    check_computation(Figure::Fig3, &comp).assert_ok();
    check_computation(Figure::Fig4, &comp).assert_ok();

    // Same schedule, optimistic semantics: full availability.
    let mut r2 = rig(3, 12);
    let t0 = r2.world.now();
    let mut plan = FaultPlan::none();
    for (k, &s) in r2.servers.clone().iter().enumerate().skip(1) {
        plan = plan.outage(
            t0 + SimDuration::from_millis(20 + 60 * k as u64),
            s,
            SimDuration::from_millis(50),
        );
    }
    r2.world.install_plan(&plan);
    let mut it = r2.set.elements_observed(Semantics::Optimistic);
    let mut yields = 0;
    let mut blocks = 0;
    loop {
        match it.next(&mut r2.world) {
            IterStep::Yielded(_) => yields += 1,
            IterStep::Blocked => {
                blocks += 1;
                assert!(blocks < 100);
                r2.world.sleep(SimDuration::from_millis(20));
            }
            IterStep::Done => break,
            IterStep::Failed(e) => panic!("optimistic never fails: {e}"),
        }
    }
    assert_eq!(yields, 12);
    let comp = it.take_computation(&r2.world).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
}

#[test]
fn dynamic_set_paints_through_churn_and_faults_together() {
    let mut r = rig(4, 20);
    // Flap one server while a mutator churns membership.
    let victim = r.servers[3];
    let plan = FaultPlan::none().flap_link(
        r.world.now(),
        r.client_node,
        victim,
        SimDuration::from_millis(30),
        SimDuration::from_millis(30),
        10,
    );
    r.world.install_plan(&plan);
    for k in 0..6u64 {
        let cref = r.set.cref().clone();
        let at = r.world.now() + SimDuration::from_millis(25 * (k + 1));
        let home = r.servers[(k % 4) as usize];
        r.world.spawn_at(at, move |w: &mut StoreWorld| {
            if let Some(srv) = w.service_mut::<StoreServer>(home) {
                srv.preload_object(ObjectRecord::new(
                    ObjectId(500 + k),
                    format!("late{k}"),
                    &b"y"[..],
                ));
            }
            if let Some(primary) = w.service_mut::<StoreServer>(cref.home) {
                primary.apply(StoreMsg::AddMember {
                    coll: cref.id,
                    entry: MemberEntry {
                        elem: ObjectId(500 + k),
                        home,
                    },
                });
            }
        });
    }
    // The membership read once, at open; each run lists what the ones
    // before it could not reach, four fetches in flight.
    let client = r.set.client().clone();
    let opened = client
        .read_members(&mut r.world, r.set.cref(), ReadPolicy::Primary)
        .unwrap()
        .entries;
    let config = IterConfig {
        window: 4,
        ..IterConfig::default()
    };
    let mut listed = std::collections::BTreeSet::new();
    let mut got = 0;
    let mut rounds = 0;
    loop {
        let rest: Vec<MemberEntry> = opened
            .iter()
            .filter(|m| !listed.contains(&m.elem))
            .copied()
            .collect();
        let mut run = Elements::pinned(client.clone(), rest.into(), None, config.clone());
        let (batch, end) = run.drain(&mut r.world, 1, SimDuration::ZERO);
        got += batch.len();
        listed.extend(batch.iter().map(|rec| rec.id));
        match end {
            IterStep::Done => break,
            IterStep::Failed(Failure::MembersUnreachable { .. }) => {
                rounds += 1;
                assert!(rounds < 50);
                r.world.sleep(SimDuration::from_millis(25));
            }
            other => panic!("{other:?}"),
        }
    }
    // The 20 originals all arrive (membership snapshot at open); the
    // late adds are not in this open's member list.
    assert_eq!(got, 20);
}
