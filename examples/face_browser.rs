//! The paper's opening scenario: "display the .face files of all people
//! listed on Carnegie Mellon's home page."
//!
//! The faces directory spans several department volumes. A strict `ls`
//! must fetch every face before showing anything — and fails outright if
//! one volume is down. The dynamic-set listing paints faces as they
//! arrive, closest volumes first, and shrugs off the dead volume.
//!
//! Run with: `cargo run --example face_browser`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::new();
    let browser = topo.add_node("wean-hall-workstation", 0);
    let volumes: Vec<NodeId> = ["cs-vol", "ece-vol", "hcii-vol", "robotics-vol"]
        .iter()
        .enumerate()
        .map(|(i, name)| topo.add_node(*name, i as u32 + 1))
        .collect();
    let mut world = StoreWorld::new(
        1995,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(3),
            per_hop: SimDuration::from_millis(4),
        },
    );
    for &v in &volumes {
        world.install_service(v, Box::new(StoreServer::new()));
    }

    // Build /afs/cmu/faces with one .face file per person, spread over
    // the department volumes.
    let mut fs = FileSystem::format(
        &mut world,
        browser,
        volumes[0],
        SimDuration::from_millis(200),
    )?;
    let faces_dir = FsPath::parse("/faces")?;
    fs.mkdir(&mut world, &faces_dir, volumes[0])?;
    let people = [
        "wing", "steere", "satya", "garlan", "king", "liskov", "guttag", "reynolds",
    ];
    for (i, person) in people.iter().enumerate() {
        fs.create_file(
            &mut world,
            &faces_dir.join(format!("{person}.face")),
            format!("48x48 bitmap of {person}").as_bytes(),
            volumes[i % volumes.len()],
        )?;
    }
    println!(
        "{} .face files across {} volumes\n",
        people.len(),
        volumes.len()
    );

    // The robotics volume is down for maintenance.
    world.topology_mut().crash(volumes[3]);

    // Strict ls: all-or-nothing, so the whole page fails to load.
    match fs.ls(&mut world, &faces_dir) {
        Ok(_) => unreachable!("a volume is down"),
        Err(e) => println!("strict ls:  {e}"),
    }

    // Dynamic-set ls: faces stream in as they arrive, nearest volumes
    // first; the two faces on the dead volume stay pending.
    let t0 = world.now();
    let mut listing = fs.dynls(&mut world, &faces_dir, 4)?;
    println!("dynamic ls: streaming {} entries...", listing.total());
    loop {
        match listing.next(&mut world) {
            DynLsStep::Entry(face) => {
                let dt = world.now().saturating_since(t0);
                println!("  +{:>5}us  painted {}", dt.as_micros(), face.name);
            }
            DynLsStep::Partial { unreachable } => {
                println!("  ({unreachable} faces unreachable — page is usable anyway)");
                break;
            }
            DynLsStep::Complete => break,
        }
    }

    // Maintenance ends; the missing faces pop in.
    world.topology_mut().restart(volumes[3]);
    listing.retry();
    let (rest, end) = listing.drain_available(&mut world);
    for face in &rest {
        println!("  late      painted {}", face.name);
    }
    assert_eq!(end, DynLsStep::Complete);
    println!("\nall {} faces painted", people.len());
    Ok(())
}
