//! A tour of the executable specifications: record real runs, check them
//! against the paper's figures, and read the rendered traces — including
//! a deliberately misbehaving configuration that the checker catches.
//!
//! Run with: `cargo run --example conformance_lab`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stage 1: a clean run, checked against every figure.
    let mut topo = Topology::new();
    let me = topo.add_node("client", 0);
    let near = topo.add_node("replica-host", 1);
    let far = topo.add_node("primary-host", 6);
    let mut world = StoreWorld::new(
        5,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(2),
            per_hop: SimDuration::from_millis(2),
        },
    );
    world.install_service(near, Box::new(StoreServer::new()));
    world.install_service(far, Box::new(StoreServer::new()));

    let client = StoreClient::new(me, SimDuration::from_millis(150));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: far,
        replicas: vec![near],
    };
    client.create_collection(&mut world, &cref)?;
    let set = WeakSet::new(client.clone(), cref.clone());
    for i in 1..=3u64 {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i), format!("doc-{i}"), format!("contents {i}")),
            far,
        )?;
    }

    println!("== stage 1: a clean optimistic run ==\n");
    let mut it = set.elements_observed(Semantics::Optimistic);
    loop {
        match it.next(&mut world) {
            IterStep::Yielded(_) => {}
            IterStep::Done => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    let comp = it.take_computation(&world).expect("observed");
    for fig in Figure::ALL {
        let conf = check_computation(fig, &comp);
        println!("{}", render_verdict(fig, &comp, &conf).trim_end());
    }
    println!("\nthe recorded trace:\n{}", render(&comp));

    // Stage 2: make the replica stale, then iterate with Any-policy
    // membership reads. Any prefers the *closest* replica — the stale
    // one — which resurrects a removed element; the checker catches it.
    world.topology_mut().partition(&[near]);
    set.remove(&mut world, ObjectId(1))?; // replica misses this removal
    world.topology_mut().heal_partition();

    println!("== stage 2: stale closest-replica reads (ReadPolicy::Any) ==\n");
    let stale_set = WeakSet::new(client, cref).with_config(IterConfig {
        read_policy: ReadPolicy::Any,
        fetch_order: FetchOrder::IdOrder,
        ..Default::default()
    });
    let mut it = stale_set.elements_observed(Semantics::Optimistic);
    let mut blocked = 0;
    loop {
        match it.next(&mut world) {
            IterStep::Yielded(rec) => println!("yielded: {} ({})", rec.name, rec.id),
            IterStep::Blocked => {
                blocked += 1;
                if blocked > 2 {
                    break;
                }
                world.sleep(SimDuration::from_millis(20));
            }
            IterStep::Done => break,
            IterStep::Failed(e) => return Err(e.into()),
        }
    }
    let comp = it.take_computation(&world).expect("observed");
    let conf = check_computation(Figure::Fig6, &comp);
    println!(
        "\n{}",
        render_verdict(Figure::Fig6, &comp, &conf).trim_end()
    );
    assert!(
        !conf.is_ok(),
        "the stale read must violate Figure 6 — that is the lab's point"
    );
    println!("\n(the violation above is the expected outcome: stale replica reads");
    println!(" are observably weaker than even the weakest specified semantics)");
    Ok(())
}
