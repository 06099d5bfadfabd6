//! The paper's LIS scenario: "through the on-line library information
//! system you want to get a list of papers by a particular author" —
//! and "if the LIS database is not up-to-date, we would not be surprised
//! if an author's most recent paper is not listed."
//!
//! The catalog's membership list is replicated; a replica that was
//! partitioned during an update serves a *stale* read under the
//! optimistic `Any` policy (missing the newest paper), while a `Quorum`
//! read pays more to find the freshest version.
//!
//! Run with: `cargo run --example library_catalog`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::new();
    let patron = topo.add_node("patron", 0);
    // Sites order the replicas by distance from the patron: branch-b is
    // around the corner, the main library is across town.
    let main_lib = topo.add_node("main-library", 9);
    let branch_a = topo.add_node("branch-a", 5);
    let branch_b = topo.add_node("branch-b", 1);
    let mut world = StoreWorld::new(
        11,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(2),
            per_hop: SimDuration::from_millis(3),
        },
    );
    for n in [main_lib, branch_a, branch_b] {
        world.install_service(n, Box::new(StoreServer::new()));
    }

    // The "papers by Wing" catalog: primary at the main library,
    // replicas at both branches.
    let catalog = CollectionRef {
        id: CollectionId(1),
        home: main_lib,
        replicas: vec![branch_a, branch_b],
    };
    let librarian = StoreClient::new(main_lib, SimDuration::from_millis(100));
    librarian.create_collection(&mut world, &catalog)?;

    let papers = [
        "A Two-Tiered Approach to Specifying Programs (1983)",
        "Specifications and Their Use in Defining Subtypes (1993)",
    ];
    for (i, title) in papers.iter().enumerate() {
        let id = ObjectId(i as u64 + 1);
        librarian.put_object(
            &mut world,
            main_lib,
            ObjectRecord::new(id, *title, &b"postscript"[..]).with_attr("author", "wing"),
        )?;
        librarian.add_member(
            &mut world,
            &catalog,
            MemberEntry {
                elem: id,
                home: main_lib,
            },
        )?;
    }

    // Branch B is partitioned when the newest paper is catalogued.
    world.topology_mut().partition(&[branch_b]);
    let newest = ObjectId(3);
    librarian.put_object(
        &mut world,
        main_lib,
        ObjectRecord::new(newest, "Specifying Weak Sets (1995)", &b"postscript"[..])
            .with_attr("author", "wing"),
    )?;
    librarian.add_member(
        &mut world,
        &catalog,
        MemberEntry {
            elem: newest,
            home: main_lib,
        },
    )?;
    world.topology_mut().heal_partition();
    println!("catalogued 3 papers; branch-b missed the 1995 update\n");

    // The patron can only reach the branches (the main library's catalog
    // service is down for the evening).
    world.topology_mut().partition(&[main_lib]);
    let reader = StoreClient::new(patron, SimDuration::from_millis(100));

    // Optimistic read: closest replica, possibly stale.
    let any = reader.read_members(&mut world, &catalog, ReadPolicy::Any)?;
    println!(
        "ReadPolicy::Any     -> version {} with {} papers (stale reads are the price of availability)",
        any.version,
        any.entries.len()
    );

    // Quorum read: majority, newest version wins.
    let quorum = reader.read_members(&mut world, &catalog, ReadPolicy::Quorum)?;
    println!(
        "ReadPolicy::Quorum  -> version {} with {} papers",
        quorum.version,
        quorum.entries.len()
    );

    // Primary read: unavailable tonight.
    let primary = reader.read_members(&mut world, &catalog, ReadPolicy::Primary);
    println!("ReadPolicy::Primary -> {primary:?}");
    assert!(primary.is_err());

    // The closest replica (branch-b) is stale; the quorum found
    // branch-a's fresher copy.
    assert_eq!(any.version, 2);
    assert_eq!(any.entries.len(), 2);
    assert_eq!(quorum.version, 3);
    assert_eq!(quorum.entries.len(), 3);
    println!("\nthe patron tolerates staleness exactly as §1 predicts");
    Ok(())
}
