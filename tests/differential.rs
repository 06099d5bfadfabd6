//! Differential testing against the Section 2 reference model: in a
//! fault-free, quiescent world, every distributed iterator semantics must
//! yield exactly the element set the pure [`ModelSet`] yields, and the
//! distributed mutation history must track the model's value op-for-op.

use proptest::prelude::*;
use weak_sets::prelude::*;

fn build_world(seed: u64) -> (StoreWorld, WeakSet, Vec<NodeId>) {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(format!("s{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(8),
        },
    );
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(150));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    (world, WeakSet::new(client, cref), servers)
}

/// Applies the same op script to the model and the distributed set.
fn apply_script(
    world: &mut StoreWorld,
    set: &WeakSet,
    servers: &[NodeId],
    script: &[(bool, u64)],
) -> ModelSet {
    let mut model = ModelSet::create();
    for &(is_add, id) in script {
        if is_add {
            let home = servers[(id % 3) as usize];
            // The distributed add is put-object + add-member; re-adding an
            // existing element is idempotent in both worlds.
            set.add(
                world,
                ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]),
                home,
            )
            .unwrap();
            model = model.add(ElemId(id));
        } else {
            set.remove(world, ObjectId(id)).unwrap();
            model = model.remove(ElemId(id));
        }
    }
    model
}

fn distributed_value(world: &mut StoreWorld, set: &WeakSet) -> SetValue {
    set.client()
        .read_members(world, set.cref(), ReadPolicy::Primary)
        .unwrap()
        .entries
        .iter()
        .map(|m| ElemId(m.elem.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any op script, the distributed membership equals the model's
    /// value, and `size` agrees.
    #[test]
    fn membership_tracks_the_model(
        seed in 0u64..500,
        script in proptest::collection::vec((any::<bool>(), 1u64..12), 0..25),
    ) {
        let (mut world, set, servers) = build_world(seed);
        let model = apply_script(&mut world, &set, &servers, &script);
        prop_assert_eq!(&distributed_value(&mut world, &set), model.value());
        prop_assert_eq!(set.size(&mut world).unwrap(), model.size());
    }

    /// Every distributed semantics yields exactly the model's element set
    /// in a quiescent, fault-free world.
    #[test]
    fn all_semantics_agree_with_the_model(
        seed in 0u64..500,
        script in proptest::collection::vec((any::<bool>(), 1u64..12), 0..25),
    ) {
        let (mut world, set, servers) = build_world(seed);
        let model = apply_script(&mut world, &set, &servers, &script);
        let expected: Vec<ElemId> = model.elements().collect();
        for semantics in Semantics::ALL {
            let (records, end) = set.collect(&mut world, semantics);
            prop_assert_eq!(&end, &IterStep::Done, "{}", semantics);
            let mut got: Vec<ElemId> = records.iter().map(|r| ElemId(r.id.0)).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{}", semantics);
        }
    }

    /// The distributed primary's whole version log replays through the
    /// model: each logged transition is a model `add` or `remove`.
    #[test]
    fn version_log_replays_through_the_model(
        seed in 0u64..500,
        script in proptest::collection::vec((any::<bool>(), 1u64..12), 1..20),
    ) {
        let (mut world, set, servers) = build_world(seed);
        apply_script(&mut world, &set, &servers, &script);
        let primary = world
            .service::<StoreServer>(set.cref().home)
            .expect("primary");
        let collection = primary.collection(set.cref().id).expect("collection");
        let log: Vec<_> = collection.history().collect();
        let mut model = ModelSet::create();
        for w in log.windows(2) {
            let pre: SetValue = w[0].members.iter().map(|m| ElemId(m.elem.0)).collect();
            let post: SetValue = w[1].members.iter().map(|m| ElemId(m.elem.0)).collect();
            prop_assert_eq!(model.value(), &pre);
            model = match classify_transition(&pre, &post) {
                Transition::Add(e) => model.add(e),
                Transition::Remove(e) => model.remove(e),
                Transition::Same => model,
                Transition::Other => {
                    return Err(TestCaseError::fail("unspecified transition in primary log"));
                }
            };
        }
    }
}
