//! Where an idle-fleet write's time goes: a per-layer budget of an
//! `add_member` + `remove_member` pair at 512 members, and of one
//! `add_member` at 4096, on three threaded replicas.
//!
//! Report-only (nothing is asserted about speed); DESIGN.md §6 "What an
//! idle write costs" quotes its table. Run it with
//!
//! ```text
//! cargo test --release --test write_budget -- --ignored --nocapture
//! ```
//!
//! Each row is the fastest, over 21 rounds after a warm-up, of one
//! call's mean wall time. A pair restores the set by itself; the adds
//! at 4096 are removed again after each round, untimed. Victims land at
//! spread-out positions inside the array, so every write shifts part of
//! it. The fleet is idle, so every rpc runs its handler in place on this
//! thread. The rows are differences of nested calls:
//!
//! * array step: `CollectionState::{add, remove}` on a primary's state
//!   and `sync` of the same step on two replicas' states, called
//!   directly;
//! * handler: the same writes as `AddMember` / `RemoveMember` and
//!   `SyncMembers` requests to three `StoreServer`s, minus the array step;
//! * in-place rpc: the same requests through `Transport::rpc`, minus
//!   their handlers;
//! * client: `StoreClient::{add_member, remove_member}` minus their rpcs
//!   and clock reads;
//! * clock reads: two `Clock::now` calls per write, which time it for
//!   `store.write.us`.

mod budget;

use budget::ns_per_call;
use std::hint::black_box;
use std::time::Duration;
use weak_sets::prelude::*;

const REPLICAS: usize = 3;
const TIMEOUT: SimDuration = SimDuration::from_millis(5_000);

/// Member ids are even, victims odd: `2 * slot + 1` sits between two
/// members. An odd multiplier permutes the slots, so the victims of one
/// round are distinct and spread across the array.
fn victim(members: u64, i: u32) -> ObjectId {
    ObjectId(2 * (u64::from(i).wrapping_mul(0x9e37_79b9) % members) + 1)
}

/// The step a replica replays for the write `add` of `entry`, or
/// `remove` of `elem`.
fn step(entry: Option<MemberEntry>, elem: ObjectId) -> SyncStep {
    entry.map_or(SyncStep::Remove(elem), SyncStep::Add)
}

/// One collection held three ways: as bare states, by standalone servers
/// outside the fleet, and by the fleet itself.
struct Rig {
    coll: CollectionId,
    members: u64,
    states: [CollectionState; REPLICAS],
    servers: [StoreServer; REPLICAS],
    cref: CollectionRef,
}

impl Rig {
    fn new(
        rt: &mut StoreRt,
        client: &StoreClient,
        fleet: &[NodeId],
        coll: u64,
        members: u64,
    ) -> Rig {
        let coll = CollectionId(coll);
        let cref = CollectionRef {
            id: coll,
            home: fleet[0],
            replicas: fleet[1..].to_vec(),
        };
        client.create_collection(rt, &cref).unwrap();
        let mut rig = Rig {
            coll,
            members,
            states: Default::default(),
            servers: Default::default(),
            cref,
        };
        for server in &mut rig.servers {
            server.preload_collection(coll);
        }
        for id in 1..=members {
            let entry = MemberEntry {
                elem: ObjectId(2 * id),
                home: fleet[id as usize % REPLICAS],
            };
            client.add_member(rt, &rig.cref, entry).unwrap();
            rig.states_write(Some(entry), entry.elem);
            rig.servers_write(Some(entry), entry.elem);
        }
        rig
    }

    fn entry(&self, i: u32) -> MemberEntry {
        MemberEntry {
            elem: victim(self.members, i),
            home: self.cref.home,
        }
    }

    /// One write on the bare states: `add` of `entry`, or `remove` of
    /// `elem`, on the primary, synced to both replicas.
    fn states_write(&mut self, entry: Option<MemberEntry>, elem: ObjectId) {
        let [primary, replicas @ ..] = &mut self.states;
        black_box(match entry {
            Some(entry) => primary.add(entry),
            None => primary.remove(elem),
        });
        let version = primary.version();
        for replica in replicas {
            black_box(replica.sync(version, step(entry, elem)));
        }
    }

    /// The same write as requests to the standalone servers.
    fn servers_write(&mut self, entry: Option<MemberEntry>, elem: ObjectId) {
        let mut rng = SimRng::for_label(1, "budget");
        let mut ctx = ServiceCtx {
            node: self.cref.home,
            rng: &mut rng,
        };
        let [primary, replicas @ ..] = &mut self.servers;
        let coll = self.coll;
        let request = match entry {
            Some(entry) => StoreMsg::AddMember { coll, entry },
            None => StoreMsg::RemoveMember { coll, elem },
        };
        let from = self.cref.home;
        let StoreMsg::Members { version, .. } = primary.handle(&mut ctx, from, request) else {
            panic!("the primary refused a write");
        };
        for replica in replicas {
            let sync = StoreMsg::SyncMembers {
                coll,
                version,
                step: step(entry, elem),
            };
            black_box(replica.handle(&mut ctx, from, sync));
        }
    }

    /// The same write as rpcs to the fleet, as the client sends them.
    fn rpc_write(
        &self,
        rt: &mut StoreRt,
        from: NodeId,
        entry: Option<MemberEntry>,
        elem: ObjectId,
    ) {
        let coll = self.coll;
        let request = match entry {
            Some(entry) => StoreMsg::AddMember { coll, entry },
            None => StoreMsg::RemoveMember { coll, elem },
        };
        let Ok(StoreMsg::Members { version, .. }) = rt.rpc(from, self.cref.home, request, TIMEOUT)
        else {
            panic!("the primary refused a write");
        };
        for &replica in &self.cref.replicas {
            let sync = StoreMsg::SyncMembers {
                coll,
                version,
                step: step(entry, elem),
            };
            black_box(rt.rpc(from, replica, sync, TIMEOUT).is_ok());
        }
    }

    /// The same write through the client.
    fn client_write(
        &self,
        rt: &mut StoreRt,
        client: &StoreClient,
        entry: Option<MemberEntry>,
        elem: ObjectId,
    ) {
        black_box(match entry {
            Some(entry) => client.add_member(rt, &self.cref, entry),
            None => client.remove_member(rt, &self.cref, elem),
        })
        .unwrap();
    }
}

/// The rows of one budget, per timed operation of `writes` writes.
fn print_rows(title: &str, writes: f64, [array, handler, rpc, client, clock]: [f64; 5]) {
    let rows = [
        ("array step (3 states)", array),
        ("handler (message, reply)", handler - array),
        ("in-place rpc wrapping", rpc - handler),
        ("client write loop", client - rpc - 2.0 * writes * clock),
        ("clock reads (2 per write)", 2.0 * writes * clock),
    ];
    println!("{title}");
    println!("{:<36} {:>9}", "layer", "ns / op");
    for (layer, ns) in rows {
        println!("{layer:<36} {ns:>9.0}");
    }
    println!("{:<36} {:>9.0}", "total (client)", client);
    println!();
}

#[test]
#[ignore = "report-only timing; run with --release -- --ignored --nocapture"]
fn idle_fleet_write_budget() {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(1);
    let fleet: Vec<NodeId> = (0..REPLICAS)
        .map(|i| rt.add_node(format!("s{i}")))
        .collect();
    for &s in &fleet {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let cn = rt.add_node("client");
    let client = StoreClient::new(cn, TIMEOUT);
    let world: &mut StoreRt = &mut rt;
    let write = |rig: &mut Rig, world: &mut StoreRt, row: usize, add: Option<MemberEntry>, elem| {
        match row {
            0 => rig.states_write(add, elem),
            1 => rig.servers_write(add, elem),
            2 => rig.rpc_write(world, cn, add, elem),
            3 => rig.client_write(world, &client, add, elem),
            _ => {
                black_box(world.now());
            }
        }
    };

    // An add and its remove at 512 members: the set comes back by itself.
    let mut small = Rig::new(world, &client, &fleet, 1, 512);
    let rows = ns_per_call(20_000, |row, i, undo| {
        let entry = small.entry(i);
        if !undo {
            write(&mut small, world, row, Some(entry), entry.elem);
            // One clock read per row-4 call, two writes per other call.
            if row < 4 {
                write(&mut small, world, row, None, entry.elem);
            }
        }
    });
    print_rows(
        "an add_member + remove_member pair at 512 members, 3 idle threaded replicas",
        2.0,
        rows,
    );

    // One add at 4096 members; each round's adds are removed untimed.
    let mut large = Rig::new(world, &client, &fleet, 2, 4096);
    let rows = ns_per_call(256, |row, i, undo| {
        let entry = large.entry(i);
        match (row, undo) {
            (4, true) => {}
            (_, false) => write(&mut large, world, row, Some(entry), entry.elem),
            (_, true) => write(&mut large, world, row, None, entry.elem),
        }
    });
    print_rows(
        "an add_member at 4096 members, 3 idle threaded replicas",
        1.0,
        rows,
    );
    assert!(rt.shutdown(Duration::from_secs(5)).is_ok());
}
