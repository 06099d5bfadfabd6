//! Quickstart: build a world, create a weak set, iterate it under all
//! four semantics, and machine-check one run against its specification.
//!
//! Run with: `cargo run --example quickstart`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny wide-area system: a laptop and three servers.
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(format!("server-{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        2026,
        topo,
        LatencyModel::Uniform {
            lo: SimDuration::from_millis(2),
            hi: SimDuration::from_millis(12),
        },
    );
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }

    // A weak set whose membership list lives on server-0; elements are
    // scattered over all three servers.
    let client = StoreClient::new(laptop, SimDuration::from_millis(100));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref)?;
    let set = WeakSet::new(client, cref);
    for i in 0..9u64 {
        let home = servers[(i % 3) as usize];
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("item-{i}"), format!("payload {i}")),
            home,
        )?;
    }
    println!(
        "created a weak set with {} elements\n",
        set.size(&mut world)?
    );

    // Iterate under each semantics of the paper's design space.
    for semantics in Semantics::ALL {
        let (records, end) = set.collect(&mut world, semantics);
        println!(
            "{semantics}: yielded {} elements, finished with {end:?}",
            records.len()
        );
    }

    // Machine-check an optimistic run against Figure 6.
    let mut it = set.elements_observed(Semantics::Optimistic);
    loop {
        match it.next(&mut world) {
            IterStep::Yielded(_) => {}
            IterStep::Done => break,
            other => panic!("unexpected step: {other:?}"),
        }
    }
    let computation = it.take_computation(&world).expect("observer attached");
    let conformance = check_computation(Figure::Fig6, &computation);
    println!(
        "\nFigure 6 conformance: {} ({} states, {} invocations recorded)",
        if conformance.is_ok() {
            "OK"
        } else {
            "VIOLATED"
        },
        computation.states.len(),
        computation.runs[0].invocations.len(),
    );
    conformance.assert_ok();
    Ok(())
}
