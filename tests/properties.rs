//! Property-based tests (proptest) over the whole stack: randomized
//! environments — churn scripts, fault plans, latencies — under which
//! every iterator must still satisfy its figure, and the simulator must
//! stay deterministic.

use proptest::prelude::*;
use weak_sets::prelude::*;

/// A randomized environment script.
#[derive(Clone, Debug)]
struct EnvScript {
    seed: u64,
    n_elems: usize,
    /// (at_ms, is_add, key) mutation events.
    mutations: Vec<(u64, bool, u64)>,
    /// Optional (partition_at_ms, heal_at_ms, victim_index).
    partition: Option<(u64, u64, usize)>,
    latency_ms: u64,
}

fn env_script() -> impl Strategy<Value = EnvScript> {
    (
        0u64..1000,
        2usize..10,
        proptest::collection::vec((1u64..600, any::<bool>(), 0u64..12), 0..8),
        proptest::option::of((1u64..300, 301u64..900, 0usize..4)),
        1u64..10,
    )
        .prop_map(
            |(seed, n_elems, mutations, partition, latency_ms)| EnvScript {
                seed,
                n_elems,
                mutations,
                partition,
                latency_ms,
            },
        )
}

struct Built {
    world: StoreWorld,
    set: WeakSet,
}

fn build(script: &EnvScript) -> Built {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let servers: Vec<NodeId> = (0..4)
        .map(|i| topo.add_node(format!("s{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        script.seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(script.latency_ms)),
    );
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(150));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    let set = WeakSet::new(client, cref);
    for i in 0..script.n_elems as u64 {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
            servers[(i % 4) as usize],
        )
        .unwrap();
    }
    // Mutation events as loopback environment actions.
    let t0 = world.now();
    for &(at_ms, is_add, key) in &script.mutations {
        let cref = set.cref().clone();
        let home = servers[(key % 4) as usize];
        let fresh = 1_000 + key;
        world.spawn_at(
            t0 + SimDuration::from_millis(at_ms),
            move |w: &mut StoreWorld| {
                if is_add {
                    if let Some(srv) = w.service_mut::<StoreServer>(home) {
                        srv.preload_object(ObjectRecord::new(
                            ObjectId(fresh),
                            format!("f{fresh}"),
                            &b"y"[..],
                        ));
                    }
                    if let Some(primary) = w.service_mut::<StoreServer>(cref.home) {
                        primary.apply(StoreMsg::AddMember {
                            coll: cref.id,
                            entry: MemberEntry {
                                elem: ObjectId(fresh),
                                home,
                            },
                        });
                    }
                } else if let Some(primary) = w.service_mut::<StoreServer>(cref.home) {
                    primary.apply(StoreMsg::RemoveMember {
                        coll: cref.id,
                        elem: ObjectId(key + 1),
                    });
                }
            },
        );
    }
    // Never partition the membership home (index 0): Fig 4/6 runs could
    // otherwise not even start, which is legal but uninteresting.
    if let Some((at, heal, victim)) = script.partition {
        let victim = servers[1 + victim % 3];
        world.install_plan(
            &FaultPlan::none()
                .partition_at(t0 + SimDuration::from_millis(at), &[victim])
                .heal_at(t0 + SimDuration::from_millis(heal)),
        );
    }
    Built { world, set }
}

fn drive_observed(built: &mut Built, semantics: Semantics) -> (Computation, IterStep) {
    let mut it = built.set.elements_observed(semantics);
    let mut blocks = 0;
    let end = loop {
        match it.next(&mut built.world) {
            IterStep::Yielded(_) => {}
            IterStep::Blocked => {
                blocks += 1;
                if blocks > 25 {
                    break IterStep::Blocked;
                }
                built.world.sleep(SimDuration::from_millis(40));
            }
            step => break step,
        }
    };
    (it.take_computation(&built.world).expect("observed"), end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The snapshot iterator conforms to Figure 4 under EVERY random
    /// environment (churn + partitions + latencies).
    #[test]
    fn snapshot_always_conforms_to_fig4(script in env_script()) {
        let mut built = build(&script);
        let (comp, end) = drive_observed(&mut built, Semantics::Snapshot);
        prop_assert!(!matches!(end, IterStep::Blocked));
        let conf = check_computation(Figure::Fig4, &comp);
        prop_assert!(conf.is_ok(), "violations: {:?}", conf.violations);
    }

    /// The optimistic iterator conforms to Figure 6 under every random
    /// environment, never fails, and every yield was a member in-window.
    #[test]
    fn optimistic_always_conforms_to_fig6(script in env_script()) {
        let mut built = build(&script);
        let (comp, end) = drive_observed(&mut built, Semantics::Optimistic);
        prop_assert!(!matches!(end, IterStep::Failed(_)));
        let conf = check_computation(Figure::Fig6, &comp);
        prop_assert!(conf.is_ok(), "violations: {:?}", conf.violations);
        for run in &comp.runs {
            prop_assert!(weakset_spec::specs::fig6::yields_were_members(&comp, run));
        }
    }

    /// The grow-only iterator conforms to Figure 5 whenever the
    /// environment honours the grow-only constraint.
    #[test]
    fn grow_only_conforms_to_fig5_in_growing_envs(mut script in env_script()) {
        for m in &mut script.mutations {
            m.1 = true; // adds only
        }
        let mut built = build(&script);
        let (comp, _end) = drive_observed(&mut built, Semantics::GrowOnly);
        let conf = check_computation(Figure::Fig5, &comp);
        prop_assert!(conf.is_ok(), "violations: {:?}", conf.violations);
    }

    /// Deterministic replay: the same script produces byte-identical
    /// computations.
    #[test]
    fn same_script_same_computation(script in env_script()) {
        let mut a = build(&script);
        let (comp_a, _) = drive_observed(&mut a, Semantics::Optimistic);
        let mut b = build(&script);
        let (comp_b, _) = drive_observed(&mut b, Semantics::Optimistic);
        prop_assert_eq!(comp_a, comp_b);
    }

    /// No duplicates, ever: yields within one run are unique (sets have
    /// no duplicates — §1's requirement).
    #[test]
    fn yields_are_duplicate_free(script in env_script()) {
        let mut built = build(&script);
        for semantics in [Semantics::Snapshot, Semantics::Optimistic] {
            let mut it = built.set.elements(semantics);
            let mut seen = std::collections::BTreeSet::new();
            let mut blocks = 0;
            loop {
                match it.next(&mut built.world) {
                    IterStep::Yielded(rec) => {
                        prop_assert!(seen.insert(rec.id), "duplicate {:?}", rec.id);
                    }
                    IterStep::Blocked => {
                        blocks += 1;
                        if blocks > 10 { break; }
                        built.world.sleep(SimDuration::from_millis(30));
                    }
                    _ => break,
                }
            }
        }
    }
}
