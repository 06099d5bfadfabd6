//! File-system-level integration: directories as weak sets, strict vs
//! dynamic listings, mobile clients, and spec conformance of a directory
//! iteration recorded straight off the DFS.

use weak_sets::prelude::*;

struct Dfs {
    world: StoreWorld,
    fs: FileSystem,
    vols: Vec<NodeId>,
    laptop: NodeId,
}

fn dfs(seed: u64, n_files: usize) -> Dfs {
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let vols: Vec<NodeId> = (0..4)
        .map(|i| topo.add_node(format!("vol{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(3)),
    );
    for &v in &vols {
        world.install_service(v, Box::new(StoreServer::new()));
    }
    let mut fs =
        FileSystem::format(&mut world, laptop, vols[0], SimDuration::from_millis(200)).unwrap();
    flat_dir(&mut world, &mut fs, &FsPath::root(), n_files, 32, &vols).unwrap();
    Dfs {
        world,
        fs,
        vols,
        laptop,
    }
}

#[test]
fn directory_iteration_conforms_as_a_weak_set() {
    // Iterate the root directory through the WeakSet machinery with an
    // observer: a directory really is a weak set.
    let mut d = dfs(1, 10);
    let cref = d.fs.dir(&FsPath::root()).unwrap().clone();
    let client = StoreClient::new(d.laptop, SimDuration::from_millis(200));
    let set = WeakSet::new(client, cref);
    let mut it = set.elements_observed(Semantics::Optimistic);
    loop {
        match it.next(&mut d.world) {
            IterStep::Yielded(_) => {}
            IterStep::Done => break,
            other => panic!("{other:?}"),
        }
    }
    let comp = it.take_computation(&d.world).unwrap();
    check_computation(Figure::Fig6, &comp).assert_ok();
    assert_eq!(comp.runs[0].yielded_set().len(), 10);
}

#[test]
fn strict_and_dynamic_listings_agree_when_healthy() {
    let mut d = dfs(2, 16);
    let strict = d.fs.ls(&mut d.world, &FsPath::root()).unwrap();
    let mut dyn_listing = d.fs.dynls(&mut d.world, &FsPath::root(), 8).unwrap();
    let (mut entries, end) = dyn_listing.drain_available(&mut d.world);
    assert_eq!(end, DynLsStep::Complete);
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let strict_names: Vec<_> = strict.iter().map(|e| &e.name).collect();
    let dyn_names: Vec<_> = entries.iter().map(|e| &e.name).collect();
    assert_eq!(strict_names, dyn_names);
}

#[test]
fn concurrent_creation_during_listing_is_weakly_visible() {
    // A colleague creates files while the listing runs: dynls (snapshot
    // membership at open) misses them; a second listing sees them.
    let mut d = dfs(3, 8);
    let mut dyn_listing = d.fs.dynls(&mut d.world, &FsPath::root(), 1).unwrap();
    // Pull two entries, then create a new file from another node.
    for _ in 0..2 {
        assert!(matches!(
            dyn_listing.next(&mut d.world),
            DynLsStep::Entry(_)
        ));
    }
    let mut colleague = d.fs.view_from(d.vols[1], SimDuration::from_millis(200));
    colleague
        .create_file(
            &mut d.world,
            &FsPath::parse("/surprise.txt").unwrap(),
            b"!",
            d.vols[1],
        )
        .unwrap();
    let (rest, end) = dyn_listing.drain_available(&mut d.world);
    assert_eq!(end, DynLsStep::Complete);
    assert_eq!(rest.len() + 2, 8, "snapshot membership misses the add");
    // Re-running the query catches the discrepancy, as §3.2 suggests.
    let fresh = d.fs.ls(&mut d.world, &FsPath::root()).unwrap();
    assert_eq!(fresh.len(), 9);
}

#[test]
fn mobile_disconnect_mid_listing_then_finish() {
    let mut d = dfs(4, 12);
    let mut mc = MobileClient::new(d.laptop);
    let mut listing = d.fs.dynls(&mut d.world, &FsPath::root(), 2).unwrap();
    let mut got = 0;
    for _ in 0..4 {
        match listing.next(&mut d.world) {
            DynLsStep::Entry(_) => got += 1,
            other => panic!("{other:?}"),
        }
    }
    mc.disconnect(&mut d.world);
    let (in_flight, end) = listing.drain_available(&mut d.world);
    got += in_flight.len();
    assert!(matches!(end, DynLsStep::Partial { .. }));
    mc.reconnect(&mut d.world);
    listing.retry();
    let (rest, end) = listing.drain_available(&mut d.world);
    got += rest.len();
    assert_eq!(end, DynLsStep::Complete);
    assert_eq!(got, 12);
}

#[test]
fn deep_tree_builds_and_lists_recursively() {
    let mut d = dfs(5, 0);
    let spec = TreeSpec {
        depth: 2,
        fanout: 2,
        files_per_dir: 2,
        file_size: 16,
    };
    let stats = spec.build(&mut d.world, &mut d.fs, &d.vols).unwrap();
    // Every directory lists its expected children.
    for dir in std::iter::once(&FsPath::root()).chain(stats.dirs.iter()) {
        let ls = d.fs.ls(&mut d.world, dir).unwrap();
        let expected_subdirs = if dir.depth() < 2 { 2 } else { 0 };
        assert_eq!(
            ls.len(),
            2 + expected_subdirs,
            "{dir}: {:?}",
            ls.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
    }
    // And files read back their payload.
    let rec = d.fs.read_file(&mut d.world, &stats.files[0]).unwrap();
    assert_eq!(rec.size(), 16);
}

#[test]
fn strict_ls_sorted_dynls_unordered_closest_first() {
    // With site-distance latency and window 1, dynls yields nearest
    // volumes first while strict ls is alphabetical regardless.
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let near = topo.add_node("near", 1);
    let far = topo.add_node("far", 8);
    let mut world = StoreWorld::new(
        6,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(1),
            per_hop: SimDuration::from_millis(4),
        },
    );
    world.install_service(near, Box::new(StoreServer::new()));
    world.install_service(far, Box::new(StoreServer::new()));
    let mut fs =
        FileSystem::format(&mut world, laptop, near, SimDuration::from_millis(300)).unwrap();
    // "aaa" lives far away, "zzz" nearby: alphabetical vs proximity.
    fs.create_file(&mut world, &FsPath::parse("/aaa").unwrap(), b"far", far)
        .unwrap();
    fs.create_file(&mut world, &FsPath::parse("/zzz").unwrap(), b"near", near)
        .unwrap();
    let strict = fs.ls(&mut world, &FsPath::root()).unwrap();
    assert_eq!(strict[0].name, "aaa");
    let mut listing = fs.dynls(&mut world, &FsPath::root(), 1).unwrap();
    match listing.next(&mut world) {
        DynLsStep::Entry(e) => assert_eq!(e.name, "zzz", "closest first"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn find_names_the_directory_whose_home_is_cut() {
    let mut d = dfs(7, 0);
    let near = FsPath::parse("/near").unwrap();
    let far = FsPath::parse("/far").unwrap();
    d.fs.mkdir(&mut d.world, &near, d.vols[1]).unwrap();
    d.fs.mkdir(&mut d.world, &far, d.vols[2]).unwrap();
    for (dir, name) in [(&near, "a"), (&far, "b")] {
        d.fs.create_file(&mut d.world, &dir.join(name), b"x", d.vols[3])
            .unwrap();
    }
    // /far's home goes; the volume holding its file stays up.
    d.world.topology_mut().partition(&[d.vols[2]]);
    let mut found =
        d.fs.find(&mut d.world, &FsPath::root(), &Query::All, 8)
            .unwrap();
    assert_eq!(found.skipped(), [far]);
    let (hits, end) = found.drain_available(&mut d.world);
    let names: Vec<&str> = hits.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["a"], "b is not listed: its directory was not read");
    // The root lists /far's entry marker, which lives on the cut home.
    assert_eq!(end, DynLsStep::Partial { unreachable: 1 });
    // A dynls reads one directory and skips none.
    let listing = d.fs.dynls(&mut d.world, &near, 8).unwrap();
    assert!(listing.skipped().is_empty());
}
