//! Same program, two clocks: one weak-set routine runs unchanged on the
//! deterministic simulator and on real OS threads.
//!
//! Everything below `demo` takes `&mut StoreRt` — the object-safe
//! runtime boundary — so it never knows which backend is driving it.
//! The simulator gives virtual time and scripted faults; the threaded
//! backend gives wall-clock time, real mailboxes, and a deadline-based
//! shutdown. Both count their rpcs under the same names, so the run ends
//! by printing the threaded view's own `rpc.*` counters. Run with:
//!
//! ```text
//! cargo run --example rt_quickstart
//! ```

use std::time::Duration;
use weak_sets::prelude::*;

/// A backend-agnostic weak-set session: build a replicated collection,
/// add members, iterate optimistically, and report what was yielded.
fn demo(rt: &mut StoreRt, servers: &[NodeId], client_node: NodeId) -> Vec<u64> {
    let client = StoreClient::new(client_node, SimDuration::from_millis(200));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(rt, &cref).unwrap();
    let set = WeakSet::new(client, cref);
    for i in 1..=3u64 {
        set.add(
            rt,
            ObjectRecord::new(ObjectId(i), format!("menu-{i}"), &b"dim sum"[..]),
            servers[(i as usize - 1) % servers.len()],
        )
        .unwrap();
    }
    let mut it = set.elements(Semantics::Optimistic);
    let mut got = Vec::new();
    loop {
        match it.next(rt) {
            IterStep::Yielded(rec) => got.push(rec.id.0),
            IterStep::Done => break,
            IterStep::Blocked => rt.sleep(SimDuration::from_millis(5)),
            IterStep::Failed(e) => panic!("{e:?}"),
        }
    }
    got.sort_unstable();
    got
}

fn main() {
    // Backend 1: the simulator. Virtual clock, scripted topology, fully
    // deterministic — `&mut StoreWorld` coerces to `&mut StoreRt`.
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    let servers: Vec<NodeId> = topo.add_servers("s", 3);
    let mut world = StoreWorld::new(1, topo, LatencyModel::Constant(SimDuration::from_millis(2)));
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let sim_got = demo(&mut world, &servers, cn);
    println!(
        "simulator: yielded {sim_got:?} in {} simulated us",
        world.now().as_micros()
    );

    // Backend 2: real OS threads. Each node is a thread draining a
    // mailbox; time is the wall clock; the same `demo` drives it.
    let mut rt = ThreadedRuntime::<StoreMsg>::new(1);
    let tcn = rt.add_node("client");
    let tservers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &tservers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let rt_got = demo(&mut rt, &tservers, tcn);
    println!(
        "threads:   yielded {rt_got:?} in {} wall-clock us",
        rt.now().as_micros()
    );

    // The view's own registry: every rpc `demo` made, under the names
    // the simulator uses (`rpc.shared`: served in place by an idle node,
    // so untimed: `rpc.latency` times mailbox crossings only).
    println!("threads:   rpc counters of this view:");
    for (name, value) in rt.metrics().counters() {
        if name.starts_with("rpc.") {
            println!("    {name} {value}");
        }
    }

    rt.shutdown(Duration::from_secs(5))
        .expect("all node threads exit by the deadline");

    assert_eq!(sim_got, rt_got, "both backends see the same membership");
    println!("both backends agree.");
}
