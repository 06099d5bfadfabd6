//! The §1.1 target environment: "a wide-area file system on a network of
//! (possibly mobile) workstations" where "disconnecting a mobile client
//! from the network while traveling is an induced failure."
//!
//! A laptop starts enumerating a big shared directory, boards a flight
//! (disconnects), keeps the partial listing, lands, reconnects, and
//! finishes — while a colleague kept adding files the whole time
//! (grow-only semantics picks those up too).
//!
//! Run with: `cargo run --example mobile_fs`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let office = topo.add_node("office-server", 1);
    let archive = topo.add_node("archive-server", 2);
    let mut world = StoreWorld::new(
        93,
        topo,
        LatencyModel::Exponential {
            floor: SimDuration::from_millis(5),
            mean: SimDuration::from_millis(10),
        },
    );
    world.install_service(office, Box::new(StoreServer::new()));
    world.install_service(archive, Box::new(StoreServer::new()));

    // A shared project directory with a dozen files.
    let mut fs = FileSystem::format(&mut world, laptop, office, SimDuration::from_millis(400))?;
    let dir = FsPath::parse("/project")?;
    fs.mkdir(&mut world, &dir, office)?;
    for i in 0..12 {
        let vol = if i % 2 == 0 { office } else { archive };
        fs.create_file(
            &mut world,
            &dir.join(format!("draft-{i:02}.tex")),
            b"\\section{}",
            vol,
        )?;
    }

    let mut traveller = MobileClient::new(laptop);
    let mut listing = fs.dynls(&mut world, &dir, 3)?;

    // Grab a few entries at the gate...
    let mut synced = 0;
    for _ in 0..5 {
        match listing.next(&mut world) {
            DynLsStep::Entry(e) => {
                synced += 1;
                println!("synced before boarding: {}", e.name);
            }
            other => panic!("healthy network: {other:?}"),
        }
    }

    // ...then the cabin door closes.
    traveller.disconnect(&mut world);
    println!("\n-- airplane mode: disconnected --\n");
    let (in_flight, status) = listing.drain_available(&mut world);
    synced += in_flight.len();
    println!(
        "in flight: {} stragglers drained, status {status:?}, {} files pending\n",
        in_flight.len(),
        listing.total() - synced
    );

    // A colleague keeps working while we fly.
    let mut colleague_fs = fs.view_from(archive, SimDuration::from_millis(200));
    colleague_fs.create_file(
        &mut world,
        &dir.join("draft-99-final.tex"),
        b"done!",
        archive,
    )?;
    println!("(a colleague added draft-99-final.tex meanwhile)\n");

    // Landing: reconnect and finish the listing.
    world.sleep(SimDuration::from_millis(500));
    traveller.reconnect(&mut world);
    println!("-- landed: reconnected --\n");
    listing.retry();
    let (rest, end) = listing.drain_available(&mut world);
    synced += rest.len();
    for e in &rest {
        println!("synced after landing: {}", e.name);
    }
    assert_eq!(end, DynLsStep::Complete);
    assert_eq!(synced, 12);

    // The dynamic listing was opened before the colleague's add, so the
    // new file is not in it (snapshot-at-open membership) — a fresh
    // grow-only pass picks it up.
    let fresh = fs.ls(&mut world, &dir)?;
    println!(
        "\nfresh ls sees {} files (including the colleague's new draft)",
        fresh.len()
    );
    assert_eq!(fresh.len(), 13);
    Ok(())
}
