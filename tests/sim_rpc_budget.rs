//! What one warmed simulated rpc allocates and costs: an echo
//! `World::rpc` between two nodes, with the event sink off and on.
//!
//! `a_warmed_rpc_allocates_nothing` counts the allocations this thread
//! makes (a counting global allocator, switched on per thread) over a
//! batch of rpcs after a warm-up. A recording sink writes four events
//! per rpc (`net.rpc` and `svc.handle` begins, two `span.end`s), and the
//! batch stays inside the buffer's 512-event reserve, so the count is
//! the rpc's own: a `String` per recorded detail or a context `Vec` per
//! delivered message shows up as one allocation per rpc each.
//! `a_failed_read_on_a_quiet_sink_allocates_nothing` counts the same way
//! over failed store reads with the sink off, and
//! `a_sessionless_read_allocates_only_its_contact_list` over successful
//! reads under each sessionless policy.
//!
//! The ignored test prints ns per warmed rpc with the sink off and on
//! (report-only; DESIGN.md §6 quotes it). Run it with
//!
//! ```text
//! cargo test --release --test sim_rpc_budget -- --ignored --nocapture
//! ```

mod budget;

use budget::ns_per_call;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use weak_sets::prelude::*;

/// Counts the allocation requests of threads that asked for it; every
/// call forwards to `System` unchanged.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading them from
    // inside the allocator can neither allocate nor find a torn-down slot.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation requests this thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

/// Rpcs per measured batch: 400 recorded events, inside the sink's
/// 512-event reserve.
const CALLS: u64 = 100;
const TIMEOUT: SimDuration = SimDuration::from_millis(100);

struct PlusOne;
impl Service<u64> for PlusOne {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: u64) -> u64 {
        msg + 1
    }
}

/// A client and an echo server 5 ms apart, after `CALLS` warm-up rpcs
/// (they size the event queue, the reply table and the context stack),
/// with the sink switched `on` and emptied.
fn warmed(on: bool) -> (World<u64>, NodeId, NodeId) {
    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let server = t.add_node("server", 1);
    let mut w = World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
    w.install_service(server, Box::new(PlusOne));
    w.events_mut().set_enabled(on);
    for i in 0..CALLS {
        w.rpc(client, server, i, TIMEOUT).unwrap();
    }
    // Keeps the buffer's capacity.
    w.events_mut().clear();
    (w, client, server)
}

#[test]
fn a_warmed_rpc_allocates_nothing() {
    let per_rpc = [false, true].map(|on| {
        let (mut w, c, s) = warmed(on);
        let mut ok = 0;
        let allocs = allocs_during(|| {
            for i in 0..CALLS {
                ok += u64::from(w.rpc(c, s, i, TIMEOUT) == Ok(i + 1));
            }
        });
        assert_eq!(ok, CALLS);
        assert_eq!(w.events().len(), if on { 4 * CALLS as usize } else { 0 });
        allocs as f64 / CALLS as f64
    });
    assert_eq!(per_rpc, [0.0, 0.0], "allocations per rpc, sink [off, on]");
}

/// A failed read formats its trace text only for a sink that records
/// it: a `read_members(Primary)` to a crashed home, on a world whose
/// sink is off, after a warm-up that names its counters.
#[test]
fn a_failed_read_on_a_quiet_sink_allocates_nothing() {
    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let home = t.add_node("home", 1);
    let mut w = World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
    w.install_service(home, Box::new(StoreServer::new()));
    let cl = StoreClient::new(client, TIMEOUT);
    let cref = CollectionRef::unreplicated(CollectionId(1), home);
    cl.create_collection(&mut w, &cref).unwrap();
    w.topology_mut().crash(home);
    let mut read = || cl.read_members(&mut w, &cref, ReadPolicy::Primary);
    for _ in 0..CALLS {
        assert_eq!(read(), Err(StoreError::Net(NetError::NodeDown(home))));
    }
    let allocs = allocs_during(|| {
        for _ in 0..CALLS {
            black_box(read().is_err());
        }
    });
    assert!(!w.events().is_enabled());
    assert_eq!(allocs, 0, "allocations over {CALLS} failed reads");
}

/// A read with no session allocates only the list of replicas it ranks:
/// warmed reads of a 64-member collection on three replicas, on a
/// world whose sink is off. `Primary` contacts one node and makes no
/// list; every server hands back a shared membership, so no reply
/// copies one.
#[test]
fn a_sessionless_read_allocates_only_its_contact_list() {
    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let servers: Vec<NodeId> = (1..=3).map(|i| t.add_node(format!("s{i}"), i)).collect();
    let mut w = World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
    for &s in &servers {
        w.install_service(s, Box::new(StoreServer::new()));
    }
    let cl = StoreClient::new(client, TIMEOUT);
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    cl.create_collection(&mut w, &cref).unwrap();
    for id in 1..=64 {
        let entry = MemberEntry {
            elem: ObjectId(id),
            home: servers[id as usize % 3],
        };
        cl.add_member(&mut w, &cref, entry).unwrap();
    }
    let policies = [
        ReadPolicy::Primary,
        ReadPolicy::Any,
        ReadPolicy::Quorum,
        ReadPolicy::Leaderless,
    ];
    let per_read = policies.map(|policy| {
        let mut read = || cl.read_members(&mut w, &cref, policy);
        for _ in 0..CALLS {
            assert_eq!(read().map(|r| (r.version, r.entries.len())), Ok((64, 64)));
        }
        let allocs = allocs_during(|| {
            for _ in 0..CALLS {
                black_box(read().is_ok());
            }
        });
        allocs as f64 / CALLS as f64
    });
    assert!(!w.events().is_enabled());
    assert_eq!(
        per_read,
        [0.0, 1.0, 1.0, 1.0],
        "allocations per read, {policies:?}"
    );
}

#[test]
#[ignore = "report-only timing; run with --release -- --ignored --nocapture"]
fn warmed_rpc_budget() {
    const BATCH: u32 = 2_000;
    let mut worlds = [warmed(false), warmed(true)];
    let [off, on] = ns_per_call::<2>(BATCH, |row, i, undo| {
        let (w, c, s) = &mut worlds[row];
        if undo {
            // Untimed: empty the sink so its buffer stays one size.
            w.events_mut().clear();
        } else {
            black_box(w.rpc(*c, *s, u64::from(i), TIMEOUT).unwrap());
        }
    });
    println!("| simulated echo rpc, warmed | ns per rpc |");
    println!("|---|---:|");
    println!("| sink off | {off:.1} |");
    println!("| sink on | {on:.1} |");
    println!("| recording (on − off) | {:.1} |", on - off);
}
