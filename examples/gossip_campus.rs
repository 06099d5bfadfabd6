//! A multi-campus deployment where membership travels by gossip.
//!
//! The paper's wide-area reality: sites partition, and "clients happily
//! tolerate partial or slightly stale answers in exchange for latency and
//! availability". Here a course-reader collection has its primary at the
//! main campus and gossip replicas at two satellite campuses. Anti-entropy
//! rounds converge all three; then a backhoe takes the main campus off the
//! network. A primary-read iterator can only block — but the same
//! optimistic iterator configured with `IterConfig::leaderless()` finishes
//! the listing from the satellites, and the recorded run still
//! machine-checks against Figure 6.
//!
//! Run with: `cargo run --example gossip_campus`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::new();
    let student = topo.add_node("student-laptop", 0);
    let main_campus = topo.add_node("main-campus", 6);
    let north = topo.add_node("north-campus", 1);
    let south = topo.add_node("south-campus", 2);
    let mut world = StoreWorld::new(
        1995,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(2),
            per_hop: SimDuration::from_millis(3),
        },
    );
    // Every membership host is a gossip replica wrapping a plain store.
    for n in [main_campus, north, south] {
        world.install_service(n, Box::new(GossipNode::new(n)));
    }

    let readings = CollectionRef {
        id: CollectionId(1),
        home: main_campus,
        replicas: vec![north, south],
    };
    let registrar = StoreClient::new(main_campus, SimDuration::from_millis(100));
    registrar.create_collection(&mut world, &readings)?;

    // Course readers live on the satellite campuses' file servers.
    let texts = [
        ("intro-to-dist-sys.ps", north),
        ("weak-sets-paper.ps", south),
        ("crdt-survey.ps", north),
        ("anti-entropy-notes.ps", south),
    ];
    for (i, (name, home)) in texts.iter().enumerate() {
        let id = ObjectId(i as u64 + 1);
        registrar.put_object(
            &mut world,
            *home,
            ObjectRecord::new(id, *name, &b"postscript"[..]),
        )?;
        registrar.add_member(
            &mut world,
            &readings,
            MemberEntry {
                elem: id,
                home: *home,
            },
        )?;
    }

    // Anti-entropy spreads the membership to every campus.
    let gossip = engine::install(
        &mut world,
        readings.id,
        readings.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(25),
            fanout: 1,
            // Campuses are far apart: budget for the cross-site RTT.
            rpc_timeout: SimDuration::from_millis(100),
            ..GossipConfig::default()
        },
    );
    let settle = world.now() + SimDuration::from_millis(500);
    world.run_until(settle);
    assert!(engine::converged(
        &world,
        readings.id,
        &readings.all_nodes()
    ));
    println!(
        "gossip converged all campuses after {} exchanges ({} entries shipped)",
        world.metrics().counter("gossip.exchanges"),
        world.metrics().counter("gossip.novel_shipped"),
    );

    // The backhoe: main campus (the primary!) drops off the WAN.
    world.topology_mut().partition(&[main_campus]);
    println!("main campus partitioned away — the membership primary is gone");

    let client = StoreClient::new(student, SimDuration::from_millis(100));

    // Reading through the primary can only block now.
    let mut stuck = Elements::new(
        Semantics::Optimistic,
        client.clone(),
        readings.clone(),
        IterConfig::default(),
    );
    assert_eq!(stuck.next(&mut world), IterStep::Blocked);
    println!("primary-read iterator: Blocked (optimistic semantics never fail)");

    // Leaderless: any reachable converged replica serves the listing.
    let mut it = Elements::new(
        Semantics::Optimistic,
        client.clone(),
        readings.clone(),
        IterConfig::leaderless(),
    );
    it.observe(
        RunObserver::new(readings.id, readings.home, client.node())
            .with_history_source(HistorySource::new(GossipNode::visit_collection_history)),
    );
    loop {
        match it.next(&mut world) {
            IterStep::Yielded(rec) => println!("  fetched {}", rec.name),
            IterStep::Done => break,
            IterStep::Blocked => world.sleep(SimDuration::from_millis(20)),
            IterStep::Failed(e) => return Err(e.into()),
        }
    }
    println!("leaderless iterator: complete listing, primary still unreachable");

    // The run conforms to Figure 6 — checked against the primary's log,
    // which the observer reads omnisciently through the gossip wrapper.
    let comp = it.take_computation(&world).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
    println!("recorded run machine-checks against Figure 6");

    gossip.stop();
    world.run_to_quiescence();
    Ok(())
}
