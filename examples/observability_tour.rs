//! Observability tour: run a small weak-set workload, then inspect the
//! metrics registry, the structured event sink, the causal span DAG
//! (with its critical-path decomposition and a Perfetto-loadable trace
//! export), and finally a machine-readable `ObsSnapshot` of the run.
//! Everything is read after the fact, from the run's own registry and
//! sink: a seeded run prints the same tour every time.
//!
//! Run with: `cargo run --example observability_tour`

use weak_sets::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(format!("server-{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(7, topo, LatencyModel::Constant(SimDuration::from_millis(5)));
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }

    // The event sink is off by default (metrics are always on). Enable it
    // to get a time-stamped feed of faults and scheduled tasks.
    world.events_mut().set_enabled(true);

    let client = StoreClient::new(laptop, SimDuration::from_millis(100));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref)?;
    let set = WeakSet::new(client, cref);
    for i in 0..12u64 {
        let home = servers[(i % 3) as usize];
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("item-{i}"), format!("payload {i}")),
            home,
        )?;
    }

    // Crash one element server mid-run, then iterate with Snapshot
    // semantics: the losses show up in the per-figure iterator counters,
    // and the fault itself lands in the event sink.
    world.schedule_fault(
        world.now() + SimDuration::from_millis(1),
        FaultAction::Crash(servers[2]),
    );
    let (records, end) = set.collect(&mut world, Semantics::Snapshot);
    println!(
        "snapshot iteration: yielded {} of 12 elements, finished with {end:?}\n",
        records.len()
    );

    // 1. The metrics registry: dotted-path counters, gauges, and latency
    //    histograms, instrumented throughout the stack.
    println!("--- metrics ---\n{}", world.metrics());

    // 2. The event sink: structured events keyed by simulated time.
    //    Point events only here — spans are summarized via the DAG below.
    println!("--- events (points) ---");
    for ev in world.events().events().iter().filter(|e| e.span.is_none()) {
        println!("{:>8}us {} {}", ev.at_us, ev.kind, ev.detail);
    }

    // 3. The causal DAG: every `elements` computation is one cross-node
    //    trace. Walk the roots, decompose each trace's simulated latency
    //    along its critical path, and export the whole run as a Chrome
    //    trace-event file loadable in https://ui.perfetto.dev.
    let at = world.now().as_micros();
    let unclosed = world.events_mut().finish(at);
    assert!(unclosed.is_empty(), "unclosed spans: {unclosed:?}");
    let dag = CausalDag::from_events(world.events().events());
    println!("\n--- causal traces ---");
    let mut trivial = 0usize;
    for &root in dag.roots() {
        let span = dag.span(root).expect("root is in the DAG");
        let n_spans = dag.descendants(root).len();
        if n_spans <= 2 {
            trivial += 1; // single setup RPCs: count, don't list
            continue;
        }
        let cp = critical_path_of(&dag, root);
        println!(
            "{} {} [{} spans]: {}us on the critical path \
             (network {}us, queue {}us, quorum-wait {}us, gossip {}us)",
            span.trace
                .map(|t| t.to_string())
                .unwrap_or_else(|| "(untraced)".into()),
            span.kind,
            n_spans,
            cp.total_us(),
            cp.network_us,
            cp.queue_us,
            cp.quorum_wait_us,
            cp.gossip_us,
        );
    }
    println!("(+ {trivial} single-RPC traces from workload setup)");
    let perfetto = chrome_trace(world.events().events());
    let path = std::env::temp_dir().join("weakset-tour-trace.json");
    std::fs::write(&path, &perfetto)?;
    println!(
        "perfetto trace: {} events, {} bytes -> {} (open in ui.perfetto.dev)",
        world.events().len(),
        perfetto.len(),
        path.display()
    );

    // 4. A snapshot: everything above frozen into a deterministic,
    //    machine-readable document (this is what `weakset-bench --bin
    //    snapshot` writes as BENCH_<scenario>.json).
    let snap = world.metrics().snapshot("tour", 7).with_objective(
        "yields",
        world.metrics().counter("iter.fig4.yielded") as f64,
        Direction::HigherIsBetter,
    );
    println!(
        "\n--- snapshot ({}) ---\n{}",
        snap.file_name(),
        snap.to_json()
    );
    Ok(())
}
