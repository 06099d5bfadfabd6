//! Where one idle-fleet read's time goes: a per-layer budget of a
//! 64-member `read_members(Leaderless)` on three threaded replicas, the
//! read the ledger's `rt-read-fanout` workload times end to end.
//!
//! Report-only (nothing is asserted about speed); DESIGN.md §6 quotes
//! its table. Run it with
//!
//! ```text
//! cargo test --release --test read_budget -- --ignored --nocapture
//! ```
//!
//! Each row is the fastest, over 21 rounds of 20 000 calls after a
//! warm-up, of one call's mean wall time: on a shared host the fastest
//! round is the one least disturbed by other work. The fleet is idle,
//! so every rpc runs its handler in place on this thread. The rows are
//! differences of nested calls:
//!
//! * handler: `StoreServer::serve_inline(ListMembers)` on one replica,
//!   called directly;
//! * in-place rpc: `Transport::rpc` with that request, minus its handler;
//! * its floor: an uncontended `Mutex::try_lock` and unlock plus a
//!   `catch_unwind` around one `dyn Service::serve_inline` call, minus
//!   the handler — what the guarded call cannot shed;
//! * client read loop: `read_members` minus its three rpcs and two clock
//!   reads;
//! * clock reads: two `Clock::now` calls, which time the read for
//!   `store.read.leaderless.us`;
//! * harness: an op the way the ledger times one — an `Instant` pair
//!   around the read and a length-and-checksum check of its result —
//!   minus the read.
//!
//! Two rows below the table time a whole `read_members(Primary)`, the
//! read a `WeakSet` handle makes (`rt-mixed-rw` makes it four times a
//! cycle), and split off its client read loop, one contact: the whole
//! call minus one in-place rpc and two clock reads. A further row times
//! a whole `read_members(Quorum)`: three contacts and no session, like
//! `Leaderless`, but every reply is heard and the newest kept. The next
//! row times a window-1 drain of the 64 members, pinned (Fig. 4, no
//! membership read), fastest of 21 rounds of 200: each fetch is a `send`
//! through the fetch window, served in place as an rpc is, so it crosses
//! no mailbox (`an_idle_window_1_drain_crosses_no_mailbox` counts that).
//! Two more rows, timed the same way, are the sends that can overlap: a
//! window-4 drain of the same members, and a `read_members_batched`
//! `Leaderless` read of four 16-member shards, one `send_batch` envelope
//! to each replica. Served in place, each runs on this thread one after
//! another; through the mailbox, on the replicas' threads at once.

mod budget;

use budget::ns_per_call;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use weak_sets::prelude::*;

const MEMBERS: u64 = 64;
const REPLICAS: usize = 3;
const COLL: CollectionId = CollectionId(1);
const BATCH: u32 = 20_000;

/// A check like the ledger's: an id/home checksum over the entries.
fn checksum(entries: &[MemberEntry]) -> u64 {
    entries.iter().fold(0u64, |acc, e| {
        acc.wrapping_add(e.elem.0.rotate_left(17) ^ u64::from(e.home.0))
    })
}

/// Three idle threaded replicas holding one collection of `MEMBERS`
/// members, a client of them, and the collection's membership as a
/// `Leaderless` read returns it.
fn idle_fleet() -> (
    ThreadedRuntime<StoreMsg>,
    Vec<NodeId>,
    StoreClient,
    CollectionRef,
    MembershipRead,
) {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(1);
    let servers: Vec<NodeId> = (0..REPLICAS)
        .map(|i| rt.add_node(format!("s{i}")))
        .collect();
    for &s in &servers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let client_node = rt.add_node("client");
    let client = StoreClient::new(client_node, SimDuration::from_millis(5_000));
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    let set = WeakSet::new(client.clone(), cref.clone());
    client.create_collection(&mut rt, &cref).unwrap();
    for id in 1..=MEMBERS {
        let home = servers[id as usize % REPLICAS];
        let rec = ObjectRecord::new(ObjectId(id), format!("m{id:016x}"), &[7u8; 32][..]);
        set.add(&mut rt, rec, home).unwrap();
    }
    let want = client
        .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!(want.entries.len(), MEMBERS as usize);
    (rt, servers, client, cref, want)
}

/// Shards of the batched-read row, each homed on one replica and kept on
/// the other two.
const SHARDS: u64 = 4;

/// `SHARDS` collections of `MEMBERS / SHARDS` members each on the
/// fleet's replicas: a `read_members_batched` of them sends one
/// envelope to each replica.
fn sharded(
    rt: &mut ThreadedRuntime<StoreMsg>,
    servers: &[NodeId],
    client: &StoreClient,
) -> Vec<CollectionRef> {
    let shards: Vec<CollectionRef> = (0..SHARDS as usize)
        .map(|i| {
            let home = servers[i % REPLICAS];
            CollectionRef {
                id: CollectionId(COLL.0 + 1 + i as u64),
                home,
                replicas: servers.iter().copied().filter(|&s| s != home).collect(),
            }
        })
        .collect();
    for (i, shard) in shards.iter().enumerate() {
        client.create_collection(rt, shard).unwrap();
        let set = WeakSet::new(client.clone(), shard.clone());
        for id in (1..=MEMBERS).filter(|id| id % SHARDS == i as u64) {
            let rec = ObjectRecord::new(ObjectId(id), format!("m{id:016x}"), &[7u8; 32][..]);
            set.add(rt, rec, shard.home).unwrap();
        }
    }
    shards
}

#[test]
#[ignore = "report-only timing; run with --release -- --ignored --nocapture"]
fn idle_fleet_leaderless_read_budget() {
    let (mut rt, servers, client, cref, want) = idle_fleet();
    let client_node = client.node();
    let want_sum = checksum(&want.entries);

    // The handler, called directly: replicas outside the fleet holding
    // the same membership, so the fleet's own slots stay idle. The
    // floor's replica sits behind a slot lock and a `dyn` call.
    let mut replica = StoreServer::new();
    let mut floor_replica = StoreServer::new();
    let mut rng = SimRng::for_label(1, "budget");
    let mut ctx = ServiceCtx {
        node: servers[1],
        rng: &mut rng,
    };
    for r in [&mut replica, &mut floor_replica] {
        r.handle(&mut ctx, client_node, StoreMsg::CreateCollection(COLL));
        for &entry in want.entries.iter() {
            r.handle(
                &mut ctx,
                client_node,
                StoreMsg::AddMember { coll: COLL, entry },
            );
        }
    }
    let floor: Mutex<Box<dyn Service<StoreMsg> + Send>> = Mutex::new(Box::new(floor_replica));
    let list = StoreMsg::ListMembers(COLL);
    let timeout = client.timeout();
    let mut lat = Vec::with_capacity(BATCH as usize);
    let step = |row, _, undo| match row {
        _ if undo => {}
        0 => {
            let reply = replica.serve_inline(&mut ctx, client_node, black_box(list.clone()));
            black_box(reply.is_ok());
        }
        1 => {
            let mut slot = floor
                .try_lock()
                .expect("nothing else takes the floor's slot");
            let svc: &mut dyn Service<StoreMsg> = &mut **slot;
            let reply = catch_unwind(AssertUnwindSafe(|| {
                svc.serve_inline(&mut ctx, client_node, black_box(list.clone()))
            }));
            black_box(matches!(reply, Ok(Ok(_))));
        }
        2 => {
            let reply = rt.rpc(client_node, servers[1], black_box(list.clone()), timeout);
            black_box(reply.is_ok());
        }
        3 => {
            black_box(Clock::now(&rt));
        }
        4 => {
            let r = client.read_members(&mut rt, &cref, ReadPolicy::Leaderless);
            black_box(r.is_ok());
        }
        5 => {
            let r = client.read_members(&mut rt, &cref, ReadPolicy::Primary);
            black_box(r.is_ok());
        }
        6 => {
            let r = client.read_members(&mut rt, &cref, ReadPolicy::Quorum);
            black_box(r.is_ok());
        }
        _ => {
            // What the ledger does around each op: time it, check it.
            let t0 = Instant::now();
            let ok = client
                .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
                .is_ok_and(|r| {
                    r.entries.len() == MEMBERS as usize && checksum(&r.entries) == want_sum
                });
            if lat.len() == lat.capacity() {
                lat.clear();
            }
            lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
            black_box(ok);
        }
    };
    let [handler, floor, rpc, clock, read, primary, quorum, op] = ns_per_call(BATCH, step);

    let contacts = REPLICAS as f64;
    let rows = [
        ("handler (ListMembers, per contact)", handler * contacts),
        ("in-place rpc wrapping", (rpc - handler) * contacts),
        (
            "  its floor (try_lock, catch_unwind)",
            (floor - handler) * contacts,
        ),
        ("client read loop", read - contacts * rpc - 2.0 * clock),
        ("clock reads (2)", 2.0 * clock),
        ("harness (timed, checked op)", op - read),
    ];
    println!("one {MEMBERS}-member Leaderless read, {REPLICAS} idle threaded replicas");
    println!("{:<36} {:>9}", "layer", "ns / op");
    for (layer, ns) in rows {
        println!("{layer:<36} {ns:>9.0}");
    }
    println!("{:<36} {:>9.0}", "total (timed, checked op)", op);
    println!(
        "{:<36} {:>9.0}",
        "read_members(Primary), whole call", primary
    );
    println!(
        "{:<36} {:>9.0}",
        "  client read loop, one contact",
        primary - rpc - 2.0 * clock
    );
    println!("{:<36} {:>9.0}", "read_members(Quorum), whole call", quorum);
    println!(
        "per call: handler {handler:.0} ns, floor {floor:.0} ns, in-place rpc {rpc:.0} ns, \
         clock {clock:.0} ns, read_members {read:.0} ns"
    );
    let shards = sharded(&mut rt, &servers, &client);
    let [drain, drain4, batched] = ns_per_call(200, |row, _, undo| match row {
        _ if undo => {}
        0 | 1 => {
            let members = want.entries.clone();
            let mut it = Elements::pinned(client.clone(), members, None, IterConfig::default());
            let window = if row == 0 { 1 } else { 4 };
            let (got, end) = it.drain(&mut rt, window, SimDuration::ZERO);
            black_box((got.len(), end));
        }
        _ => {
            let r = client.read_members_batched(&mut rt, &shards, ReadPolicy::Leaderless);
            black_box(r.iter().all(Result::is_ok));
        }
    });
    println!("{:<36} {:>9.0}", "window-1 drain, whole run", drain);
    println!("{:<36} {:>9.0}", "window-4 drain, whole run", drain4);
    println!(
        "{:<36} {:>9.0}",
        format!("batched read, {SHARDS} shards, whole call"),
        batched
    );
    assert!(rt.shutdown(Duration::from_secs(5)).is_ok());
}

/// A window-1 drain on idle replicas crosses no mailbox: each of its
/// fetches is a `send` served in place, as an rpc would be, so the run's
/// `rpc.shared` equals its `rpc.sent`, one per member.
#[test]
fn an_idle_window_1_drain_crosses_no_mailbox() {
    let (mut rt, _, client, _, want) = idle_fleet();
    let counts = |rt: &ThreadedRuntime<StoreMsg>| {
        let m = Observe::metrics(rt);
        (m.counter("rpc.sent"), m.counter("rpc.shared"))
    };
    let before = counts(&rt);
    let members = want.entries.clone();
    let mut it = Elements::pinned(client, members, None, IterConfig::default());
    let (got, _) = it.drain(&mut rt, 1, SimDuration::ZERO);
    assert_eq!(got.len(), MEMBERS as usize);
    let after = counts(&rt);
    let (sent, shared) = (after.0 - before.0, after.1 - before.1);
    assert_eq!((sent, shared), (MEMBERS, MEMBERS));
    assert!(rt.shutdown(Duration::from_secs(5)).is_ok());
}

/// The values every read moves stay as small as they are: a bigger
/// `Membership` cost `rt-read-fanout` 3–5 % when it last grew (16 → 40
/// bytes, since shrunk to 24), so growing one should be a choice backed
/// by a ledger number.
#[test]
fn the_values_a_read_moves_stay_small() {
    use std::mem::size_of;
    assert!(
        size_of::<StoreMsg>() <= 80,
        "StoreMsg: {}",
        size_of::<StoreMsg>()
    );
    // What an in-place rpc hands back through `dyn Runtime`.
    assert!(
        size_of::<Result<StoreMsg, NetError>>() <= 80,
        "Result<StoreMsg, NetError>: {}",
        size_of::<Result<StoreMsg, NetError>>()
    );
    assert!(
        size_of::<Membership>() <= 24,
        "Membership: {}",
        size_of::<Membership>()
    );
    assert!(
        size_of::<MembershipRead>() <= 48,
        "MembershipRead: {}",
        size_of::<MembershipRead>()
    );
}
