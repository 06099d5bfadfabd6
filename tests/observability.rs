//! Observability integration tests: the instrumented metrics must agree
//! with the enabled `EventSink` (the causal log) of the same run, and
//! snapshots must be deterministic (same seed ⇒ byte-identical JSON) and
//! canonical (their JSON parses back to the same text).

use weak_sets::prelude::*;
use weak_sets::weakset_sim::world::{Service, ServiceCtx};

struct Rig {
    world: StoreWorld,
    set: WeakSet,
}

/// A seeded workload with enough variety to touch most counters: writes
/// across three servers, a crash fault mid-run, and a Snapshot iteration,
/// with the causal sink on.
fn run_workload(seed: u64) -> Rig {
    run_workload_at(seed, 1)
}

/// [`run_workload`] with `window` fetches in flight.
fn run_workload_at(seed: u64, window: usize) -> Rig {
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(format!("server-{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(9),
        },
    );
    world.events_mut().set_enabled(true);
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(laptop, SimDuration::from_millis(100));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    let config = IterConfig {
        window,
        ..IterConfig::default()
    };
    let set = WeakSet::new(client, cref).with_config(config);
    for i in 0..12u64 {
        let home = servers[(i % 3) as usize];
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
            home,
        )
        .unwrap();
    }
    world.schedule_fault(
        world.now() + SimDuration::from_millis(1),
        FaultAction::Crash(servers[2]),
    );
    let _ = set.collect(&mut world, Semantics::Snapshot);
    Rig { world, set }
}

/// The metrics registry and the causal event sink are independent
/// recorders of the same run; their counts of the same phenomena must
/// agree exactly. Every rpc, and every send (one fetch at a time or four
/// in flight), opens one `net.rpc` span, and a failed one records a
/// `net.rpc.failed` event under it.
#[test]
fn counters_agree_with_trace() {
    for window in [1, 4] {
        let rig = run_workload_at(99, window);
        let w = &rig.world;
        let m = w.metrics();
        let sink = w.events();
        assert!(sink.is_enabled(), "workload must keep the sink on");

        let sent = sink.count_kind("net.rpc");
        let failed = sink.count_kind("net.rpc.failed");
        let ok = sent - failed;
        let crashes = sink.count_kind("sim.fault.crash");
        assert!(failed > 0 && crashes == 1, "the crash fails some rpcs");

        assert_eq!(m.counter("rpc.sent"), sent as u64, "window {window}");
        assert_eq!(m.counter("rpc.ok"), ok as u64, "window {window}");
        assert_eq!(m.counter("rpc.failed"), failed as u64, "window {window}");
        assert_eq!(m.counter("sim.fault.crash"), crashes as u64);
        // Every completed RPC contributes one latency sample.
        assert_eq!(m.latency("rpc.latency").map_or(0, |l| l.len()), ok);
        // Delivered requests and their replies are dispatched separately.
        assert_eq!(m.counter("sim.dispatch.deliver"), ok as u64);
        assert_eq!(m.counter("sim.dispatch.reply"), ok as u64);
    }
}

/// Store- and iterator-level counters line up with what the workload did.
#[test]
fn stack_counters_reflect_the_workload() {
    for window in [1, 4] {
        let rig = run_workload_at(99, window);
        let m = rig.world.metrics();
        assert_eq!(m.counter("store.write.ok"), 12);
        assert_eq!(m.counter("store.read.primary.ok"), 1);
        // One Snapshot (Figure 4) run: every yield is a fetched element,
        // and the run ended exactly once (returned, failed, or blocked).
        assert_eq!(
            m.counter("iter.fig4.yielded"),
            m.counter("store.fetch.ok"),
            "window {window}"
        );
        assert_eq!(
            m.counter("iter.fig4.returned")
                + m.counter("iter.fig4.failed")
                + m.counter("iter.fig4.blocked"),
            1
        );
    }
}

/// Same seed ⇒ identical snapshot, different seed ⇒ (at least) different
/// latency distributions.
#[test]
fn snapshots_are_deterministic_in_the_seed() {
    let a = run_workload(7).world.metrics().snapshot("det", 7);
    let b = run_workload(7).world.metrics().snapshot("det", 7);
    assert_eq!(a.to_json(), b.to_json());

    let c = run_workload(8).world.metrics().snapshot("det", 8);
    assert_ne!(a.to_json(), c.to_json());
}

/// A snapshot taken from a real run survives a JSON round-trip intact.
#[test]
fn snapshot_round_trips_through_json() {
    let rig = run_workload(21);
    let snap = rig
        .world
        .metrics()
        .snapshot("roundtrip", 21)
        .with_objective(
            "yields",
            rig.world.metrics().counter("iter.fig4.yielded") as f64,
            Direction::HigherIsBetter,
        );
    let json = snap.to_json();
    let back = Json::parse(&json).unwrap();
    assert_eq!(back.to_pretty(), json);
    assert_eq!(
        back.get("scenario").and_then(Json::as_str),
        Some("roundtrip")
    );
    assert_eq!(back.get("seed").and_then(Json::as_u64), Some(21));
    assert_eq!(
        back.get("objectives")
            .and_then(Json::fields)
            .map(<[_]>::len),
        Some(1)
    );
    drop(rig.set);
}

// ---------------------------------------------------------------------
// Causal span trees: every `elements` computation is one cross-node
// trace — the first invocation roots it, later invocations parent under
// that root, and the network/server work each invocation triggered
// hangs beneath it.
// ---------------------------------------------------------------------

/// A world with the causal sink on: one client, `n` servers, `2n`
/// elements spread round-robin.
fn span_rig(seed: u64, n: usize) -> (StoreWorld, WeakSet, Vec<NodeId>) {
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let servers: Vec<NodeId> = (0..n as u32)
        .map(|i| topo.add_node(format!("server-{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(2)),
    );
    world.events_mut().set_enabled(true);
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(laptop, SimDuration::from_millis(100));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    let set = WeakSet::new(client, cref);
    for i in 0..(2 * n as u64) {
        let home = servers[(i as usize) % n];
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
            home,
        )
        .unwrap();
    }
    (world, set, servers)
}

/// Closes the span ledger (asserting nothing leaked) and builds the DAG.
fn dag_of(world: &mut StoreWorld) -> CausalDag {
    let at = world.now().as_micros();
    let unclosed = world.events_mut().finish(at);
    assert!(unclosed.is_empty(), "unclosed spans: {unclosed:?}");
    CausalDag::from_events(&world.events_mut().take_events())
}

/// The invocation spans of `kind`, asserting they form one trace: one
/// root (the first invocation) and every later invocation a child of it.
fn assert_one_computation_trace(dag: &CausalDag, kind: &str) -> SpanId {
    let invocations: Vec<&SpanNode> = dag.spans().filter(|s| s.kind == kind).collect();
    assert!(!invocations.is_empty(), "no {kind} spans recorded");
    let roots: Vec<&&SpanNode> = invocations.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "{kind}: exactly one trace root expected");
    let root = roots[0];
    for inv in &invocations {
        assert_eq!(
            inv.trace, root.trace,
            "{kind}: invocation {} is in a different trace",
            inv.id
        );
        if inv.id != root.id {
            assert_eq!(
                inv.parent,
                Some(root.id),
                "{kind}: invocation {} does not parent under the root",
                inv.id
            );
        }
    }
    root.id
}

/// Fig 4 (snapshot): a clean run is one trace whose invocations carry
/// the server handling and network legs beneath them.
#[test]
fn fig4_snapshot_run_is_one_cross_node_trace() {
    let (mut world, set, _servers) = span_rig(5, 3);
    let mut it = set.elements(Semantics::Snapshot);
    while !matches!(it.next(&mut world), IterStep::Done) {}
    let dag = dag_of(&mut world);
    let root = assert_one_computation_trace(&dag, "iter.fig4.invocation");
    let kinds: Vec<&str> = dag
        .descendants(root)
        .into_iter()
        .filter_map(|id| dag.span(id))
        .map(|s| s.kind.as_str())
        .collect();
    assert!(kinds.contains(&"net.rpc"), "no network leg under the root");
    assert!(
        kinds.contains(&"svc.handle"),
        "no server leg under the root"
    );
    assert!(
        kinds.contains(&"store.read.primary"),
        "no membership read under the root"
    );
}

/// Fig 3 (fail-stop): a locked run that hits a crashed member home
/// fails, and the failure evidence sits under the failing invocation.
#[test]
fn fig3_failure_evidence_hangs_under_the_failing_invocation() {
    let (mut world, set, servers) = span_rig(6, 3);
    world.topology_mut().crash(servers[2]);
    let mut it = set.elements(Semantics::Locked);
    loop {
        match it.next(&mut world) {
            IterStep::Failed(_) => break,
            IterStep::Done => panic!("run must fail: a member home is down"),
            _ => {}
        }
    }
    let dag = dag_of(&mut world);
    assert_one_computation_trace(&dag, "iter.fig3.invocation");
    let failed_outcome = dag
        .points()
        .iter()
        .find(|e| e.kind == "iter.outcome" && e.detail.starts_with("fig3 failed:"))
        .expect("failed outcome recorded");
    let inv = failed_outcome.parent.expect("outcome attributed to a span");
    assert_eq!(dag.span(inv).unwrap().kind, "iter.fig3.invocation");
    assert!(
        dag.points_under(inv)
            .iter()
            .any(|e| e.kind == "iter.fetch.unreachable"),
        "no unreachable-member evidence under the failing invocation"
    );
}

/// Fig 5 (grow-only): same single-trace shape, pessimistic failure.
#[test]
fn fig5_growonly_run_is_one_trace_and_fails_pessimistically() {
    let (mut world, set, servers) = span_rig(7, 3);
    world.topology_mut().crash(servers[1]);
    let mut it = set.elements(Semantics::GrowOnly);
    loop {
        match it.next(&mut world) {
            IterStep::Failed(_) => break,
            IterStep::Done => panic!("run must fail: a member home is down"),
            _ => {}
        }
    }
    let dag = dag_of(&mut world);
    assert_one_computation_trace(&dag, "iter.fig5.invocation");
    assert!(dag
        .points()
        .iter()
        .any(|e| e.kind == "iter.outcome" && e.detail.starts_with("fig5 failed:")));
}

/// Fig 6 (optimistic): a run suspended by a crash and resumed after the
/// restart is STILL one trace — the blocked invocations and the
/// post-resume invocations all parent under the same root.
#[test]
fn fig6_suspend_resume_stays_one_trace() {
    let (mut world, set, servers) = span_rig(8, 2);
    let mut it = set.elements(Semantics::Optimistic);
    // Yield a prefix, then lose a server: the run suspends (blocks).
    assert!(matches!(it.next(&mut world), IterStep::Yielded(_)));
    world.topology_mut().crash(servers[1]);
    let mut blocked = 0;
    loop {
        match it.next(&mut world) {
            IterStep::Blocked => {
                blocked += 1;
                break;
            }
            IterStep::Yielded(_) => {}
            step => panic!("optimistic run must block, not {step:?}"),
        }
    }
    // Heal and resume to completion.
    world.topology_mut().restart(servers[1]);
    while !matches!(it.next(&mut world), IterStep::Done) {}
    assert!(blocked > 0);
    let dag = dag_of(&mut world);
    let root = assert_one_computation_trace(&dag, "iter.fig6.invocation");
    let under = dag.points_under(root);
    assert!(
        under
            .iter()
            .any(|e| e.kind == "iter.outcome" && e.detail == "fig6 blocked"),
        "suspension not recorded in the trace"
    );
    assert!(
        under
            .iter()
            .any(|e| e.kind == "iter.outcome" && e.detail == "fig6 returned"),
        "resumption to completion not recorded in the trace"
    );
}

/// A sharded run: one computation crossing several shard groups is one
/// trace — the run's own first invocation roots it, every later
/// invocation parents under it, and the server legs under it land on
/// different shard homes.
#[test]
fn sharded_computation_is_one_trace_across_shard_groups() {
    let mut topo = Topology::new();
    let laptop = topo.add_node("laptop", 0);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(format!("server-{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(9, topo, LatencyModel::Constant(SimDuration::from_millis(2)));
    world.events_mut().set_enabled(true);
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(laptop, SimDuration::from_millis(100));
    let groups: Vec<ShardGroup> = servers
        .iter()
        .map(|&home| ShardGroup {
            home,
            replicas: Vec::new(),
        })
        .collect();
    let set = ShardedWeakSet::create(
        &mut world,
        CollectionId(1),
        client,
        &groups,
        IterConfig::default(),
    )
    .unwrap();
    for i in 0..9u64 {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
            servers[(i % 3) as usize],
        )
        .unwrap();
    }
    let mut it = set.elements(Semantics::Snapshot);
    while !matches!(it.next(&mut world), IterStep::Done) {}

    let dag = dag_of(&mut world);
    let root = assert_one_computation_trace(&dag, "iter.fig4.invocation");
    let invocations = dag
        .spans()
        .filter(|s| s.kind == "iter.fig4.invocation")
        .count();
    assert_eq!(invocations, 10, "nine yields and the return, one run");
    // ... and the server legs under the trace touch more than one shard
    // group's home.
    let handled_on: std::collections::BTreeSet<String> = dag
        .descendants(root)
        .into_iter()
        .filter_map(|id| dag.span(id))
        .filter(|s| s.kind == "svc.handle")
        .map(|s| s.detail.to_string())
        .collect();
    assert!(
        handled_on.len() >= 2,
        "one computation should span multiple shard groups, saw {handled_on:?}"
    );
}

// ---------------------------------------------------------------------
// Spans on threads: an rpc opens one `net.rpc` span whichever path it
// takes when the sink records, and leaves no trace when it does not.
// ---------------------------------------------------------------------

/// A `StoreServer` that never serves in place: every request to it
/// crosses its node's mailbox.
struct MailboxOnly(StoreServer);

impl Service<StoreMsg> for MailboxOnly {
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
        self.0.handle(ctx, from, msg)
    }
}

/// Three idle replicas holding four members; the last one takes every
/// request through its mailbox, the others serve in place.
fn mixed_path_fleet() -> (ThreadedRuntime<StoreMsg>, StoreClient, CollectionRef) {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(5);
    let client_node = rt.add_node("client");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    rt.install_service(servers[0], Box::new(StoreServer::new()));
    rt.install_service(servers[1], Box::new(StoreServer::new()));
    rt.install_service(servers[2], Box::new(MailboxOnly(StoreServer::new())));
    let client = StoreClient::new(client_node, SimDuration::from_secs(5));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(&mut rt, &cref).unwrap();
    for i in 1..=4u64 {
        let entry = MemberEntry {
            elem: ObjectId(i),
            home: servers[0],
        };
        client.add_member(&mut rt, &cref, entry).unwrap();
    }
    (rt, client, cref)
}

/// With a recording sink, each of a `Leaderless` read's three rpcs — two
/// served in place, one through a mailbox — opens exactly one `net.rpc`
/// span, a child of the read's own span in the read's trace.
#[test]
fn threaded_rpcs_open_one_span_under_their_read_on_either_path() {
    let (mut rt, client, cref) = mixed_path_fleet();
    rt.events_mut().set_enabled(true);
    let (sent, shared) = ("rpc.sent", "rpc.shared");
    let before = (rt.metrics().counter(sent), rt.metrics().counter(shared));
    let read = client.read_members(&mut rt, &cref, ReadPolicy::Leaderless);
    assert_eq!(read.map(|r| r.entries.len()), Ok(4));
    let paths = (
        rt.metrics().counter(sent) - before.0,
        rt.metrics().counter(shared) - before.1,
    );
    assert_eq!(paths, (3, 2), "three rpcs, two of them in place");
    assert!(rt.finish_spans().is_empty());
    let dag = CausalDag::from_events(&rt.events_mut().take_events());
    let reads: Vec<&SpanNode> = dag
        .spans()
        .filter(|s| s.kind == "store.read.leaderless")
        .collect();
    assert_eq!(reads.len(), 1);
    let rpcs: Vec<&SpanNode> = dag.spans().filter(|s| s.kind == "net.rpc").collect();
    assert_eq!(rpcs.len(), 3, "one net.rpc span per rpc");
    for rpc in rpcs {
        assert_eq!((rpc.parent, rpc.trace), (Some(reads[0].id), reads[0].trace));
    }
    rt.shutdown(std::time::Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// With a sink that records nothing, the same read leaves the view's
/// span stack as it found it and nothing open to finish.
#[test]
fn a_quiet_threaded_sink_keeps_no_rpc_span() {
    let (mut rt, client, cref) = mixed_path_fleet();
    let outer = rt.span_enter("test.outer", &String::new);
    let before = rt.current_ctx();
    let read = client.read_members(&mut rt, &cref, ReadPolicy::Leaderless);
    assert_eq!(read.map(|r| r.entries.len()), Ok(4));
    assert_eq!(rt.current_ctx(), before);
    rt.span_exit(outer);
    assert!(rt.finish_spans().is_empty());
    assert!(rt.events().is_empty());
    rt.shutdown(std::time::Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}
