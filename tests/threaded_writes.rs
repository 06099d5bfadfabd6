//! Writes on real threads. On an idle fleet a write runs on the calling
//! thread under the target's slot lock instead of crossing its mailbox;
//! these tests hold that hand-off to what the mailbox guaranteed:
//! per-sender order, one serialisation point per node whichever path a
//! request takes, every timeout for services that do not opt in, and no
//! waiting on a busy or poisoned slot.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use weak_sets::prelude::*;
use weak_sets::weakset_sim::world::{Service, ServiceCtx};

const COLL: CollectionId = CollectionId(3);
const SECS5: SimDuration = SimDuration::from_secs(5);

fn entry(id: u64, home: NodeId) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(id),
        home,
    }
}

/// A `StoreServer` that counts the requests it handled by entry point.
struct Counting {
    inner: StoreServer,
    mailbox: Arc<AtomicU64>,
    inline: Arc<AtomicU64>,
}

impl Service<StoreMsg> for Counting {
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
        self.mailbox.fetch_add(1, Ordering::Relaxed);
        self.inner.handle(ctx, from, msg)
    }

    fn serve_inline(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: NodeId,
        msg: StoreMsg,
    ) -> Result<StoreMsg, StoreMsg> {
        self.inline.fetch_add(1, Ordering::Relaxed);
        self.inner.serve_inline(ctx, from, msg)
    }
}

/// A `StoreServer` that hands every add to its mailbox.
struct MailedAdds(StoreServer);

impl Service<StoreMsg> for MailedAdds {
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
        self.0.handle(ctx, from, msg)
    }

    fn serve_inline(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        from: NodeId,
        msg: StoreMsg,
    ) -> Result<StoreMsg, StoreMsg> {
        match msg {
            StoreMsg::AddMember { .. } => Err(msg),
            msg => self.0.serve_inline(ctx, from, msg),
        }
    }
}

/// One view's `send(add)` is always applied before its following
/// `rpc(remove)`, though the add crosses the mailbox and the rpc may run
/// in place: the write-side twin of the runtime's
/// `a_read_never_overtakes_the_views_own_send`.
#[test]
fn a_write_never_overtakes_the_views_own_send() {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(23);
    let c = rt.add_node("client");
    let s = rt.add_node("server");
    rt.install_service(s, Box::new(MailedAdds(StoreServer::new())));
    assert_eq!(
        rt.rpc(c, s, StoreMsg::CreateCollection(COLL), SECS5),
        Ok(StoreMsg::Ack)
    );
    let mut sends = Vec::new();
    for i in 1..=1000u64 {
        let add = StoreMsg::AddMember {
            coll: COLL,
            entry: entry(i, s),
        };
        sends.push(rt.send(c, s, add));
        let remove = StoreMsg::RemoveMember {
            coll: COLL,
            elem: ObjectId(i),
        };
        // The removal found the member: it is version 2i, not a no-op
        // at 2i - 2 with the add landing behind it.
        assert_eq!(
            rt.rpc(c, s, remove, SECS5),
            Ok(StoreMsg::Members {
                version: 2 * i,
                entries: Membership::new(),
                committed: true,
            }),
            "round {i}"
        );
    }
    for (i, token) in (1u64..).zip(sends) {
        let reply = rt.try_take_reply(token).expect("applied before the rpc");
        assert!(
            matches!(reply, Ok(StoreMsg::Members { version, .. }) if version == 2 * i - 1),
            "send {i}: {reply:?}"
        );
    }
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// Four views on four OS threads write to one collection through one
/// replicated fleet, every request taking whichever path the moment
/// offers. The slot lock serialises them all the same: the result is the
/// sequential model's, the primary committed versions 1..=N one entry at
/// a time, and every rpc was handled exactly once, in place or by the
/// node's thread.
#[test]
fn concurrent_writers_are_serialised_whichever_path_they_take() {
    const VIEWS: u64 = 4;
    const CYCLES: u64 = 500;
    let mut rt = ThreadedRuntime::<StoreMsg>::new(24);
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    let (mailbox, inline) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    for &s in &servers {
        let service = Counting {
            inner: StoreServer::new(),
            mailbox: Arc::clone(&mailbox),
            inline: Arc::clone(&inline),
        };
        rt.install_service(s, Box::new(service));
    }
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    let setup_node = rt.add_node("setup");
    StoreClient::new(setup_node, SECS5)
        .create_collection(&mut rt, &cref)
        .unwrap();

    // Each writer adds its own 500 elements and removes the even ones.
    let counters: Vec<(u64, u64, u64, u64)> = thread::scope(|scope| {
        let writers: Vec<_> = (0..VIEWS)
            .map(|w| {
                let node = rt.add_node(format!("w{w}"));
                let mut view = rt.clone();
                let (cref, servers) = (&cref, &servers);
                scope.spawn(move || {
                    let client = StoreClient::new(node, SECS5);
                    for k in 0..CYCLES {
                        let id = w * 10_000 + k;
                        let home = servers[(id % 3) as usize];
                        client.add_member(&mut view, cref, entry(id, home)).unwrap();
                        if k % 2 == 0 {
                            client.remove_member(&mut view, cref, ObjectId(id)).unwrap();
                        }
                    }
                    let m = view.metrics();
                    (
                        m.counter("rpc.sent"),
                        m.counter("rpc.ok"),
                        m.counter("rpc.shared"),
                        m.counter("store.replica_sync.full"),
                    )
                })
            })
            .collect();
        writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .collect()
    });

    let model: BTreeSet<u64> = (0..VIEWS)
        .flat_map(|w| {
            (0..CYCLES)
                .filter(|k| k % 2 == 1)
                .map(move |k| w * 10_000 + k)
        })
        .collect();
    let writes = VIEWS * (CYCLES + CYCLES / 2);
    let states: Vec<CollectionState> = servers
        .iter()
        .map(|&s| {
            rt.with_service(s, |c: &Counting| c.inner.collection(COLL).unwrap().clone())
                .expect("a counting server")
        })
        .collect();
    for state in &states {
        let ids: BTreeSet<u64> = state.members().iter().map(|m| m.elem.0).collect();
        assert_eq!(ids, model);
        assert_eq!(state.version(), writes);
    }
    // The primary never skipped, and never changed two entries at once.
    let primary = &states[0];
    let versions: Vec<u64> = primary.commits().map(|(v, _)| v).collect();
    assert_eq!(versions, (1..=writes).collect::<Vec<u64>>());
    let history: Vec<MembershipVersion> = primary.history().collect();
    for pair in history.windows(2) {
        let (before, after) = (&pair[0].members, &pair[1].members);
        let changed = before.iter().filter(|m| !after.contains(m.elem)).count()
            + after.iter().filter(|m| !before.contains(m.elem)).count();
        assert_eq!(changed, 1, "v{} -> v{}", pair[0].version, pair[1].version);
        assert_eq!(primary.members_at(pair[1].version).as_ref(), Some(after));
    }
    assert_eq!(history.last().unwrap().members, *primary.members());

    // One event per rpc either way: a write and its two steps each, a
    // full sync for each step a replica refused because another
    // writer's later step overtook it, and the three
    // `CreateCollection`s of the set-up.
    let m = rt.metrics();
    let setup = (
        m.counter("rpc.sent"),
        m.counter("rpc.ok"),
        m.counter("rpc.shared"),
        0,
    );
    let (sent, ok, shared, full) = counters.iter().fold(setup, |(a, b, c, d), (w, x, y, z)| {
        (a + w, b + x, c + y, d + z)
    });
    assert_eq!(sent, 3 * writes + 3 + full);
    assert_eq!(ok, sent, "no rpc failed");
    // Every hook call on a `Counting` is taken (the plain server takes
    // everything), so the two entry counters partition the rpcs.
    assert_eq!(shared, inline.load(Ordering::Relaxed));
    assert_eq!(shared + mailbox.load(Ordering::Relaxed), ok);
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// A handler that blocks, as a service that does not implement the hook
/// is allowed to.
struct Wedge;

impl Service<StoreMsg> for Wedge {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: StoreMsg) -> StoreMsg {
        thread::sleep(Duration::from_secs(2));
        msg
    }
}

/// A service that does not opt in is never run on the caller's thread:
/// its rpc honours the timeout and its node is the one `shutdown` names.
#[test]
fn a_blocking_service_keeps_its_timeouts() {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(25);
    let c = rt.add_node("client");
    let wedged = rt.add_node("wedged");
    rt.install_service(wedged, Box::new(Wedge));
    let t0 = Instant::now();
    let write = StoreMsg::AddMember {
        coll: COLL,
        entry: entry(1, wedged),
    };
    assert_eq!(
        rt.rpc(c, wedged, write, SimDuration::from_millis(100)),
        Err(NetError::Timeout)
    );
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "honoured its timeout"
    );
    assert_eq!(rt.metrics().counter("rpc.shared"), 0);
    assert_eq!(rt.shutdown(Duration::from_millis(200)), Err(vec![wedged]));
    // Once the handler returns, the fleet drains normally.
    assert_eq!(rt.shutdown(Duration::from_secs(5)), Ok(()));
}

/// A slot someone else holds, or one a panic poisoned, is not idle: the
/// write goes to the mailbox and the caller waits for its reply no
/// longer than its timeout — never for the slot.
#[test]
fn a_held_or_poisoned_slot_sends_a_write_to_the_mailbox() {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(26);
    let c = rt.add_node("client");
    let s = rt.add_node("server");
    rt.install_service(s, Box::new(StoreServer::new()));
    assert_eq!(
        rt.rpc(c, s, StoreMsg::CreateCollection(COLL), SECS5),
        Ok(StoreMsg::Ack)
    );
    let add = |id| StoreMsg::AddMember {
        coll: COLL,
        entry: entry(id, s),
    };
    let members = |rt: &mut ThreadedRuntime<StoreMsg>| {
        rt.with_service(s, |srv: &StoreServer| srv.collection(COLL).unwrap().len())
    };
    assert_eq!(rt.metrics().counter("rpc.shared"), 1);

    // Held: another view visits the service and stays inside.
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let mut visitor = rt.clone();
    let holder = thread::spawn(move || {
        visitor.with_service_mut(s, |_: &mut StoreServer| {
            entered_tx.send(()).unwrap();
            let _ = release_rx.recv_timeout(Duration::from_secs(5));
        });
    });
    entered.recv().expect("the visitor holds the slot");
    let t0 = Instant::now();
    assert_eq!(
        rt.rpc(c, s, add(1), SimDuration::from_millis(100)),
        Err(NetError::Timeout)
    );
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "honoured its timeout"
    );
    assert_eq!(rt.metrics().counter("rpc.shared"), 1, "not run in place");
    release.send(()).unwrap();
    holder.join().unwrap();
    // The write was in the mailbox all along: the node's thread applies
    // it once the slot is free.
    let deadline = Instant::now() + Duration::from_secs(5);
    while members(&mut rt) != Some(1) {
        assert!(Instant::now() < deadline, "the queued write never landed");
        thread::yield_now();
    }

    // Poisoned: a visitor panics while it holds the slot.
    let mut visitor = rt.clone();
    let poisoner = thread::spawn(move || {
        visitor.with_service_mut(s, |_: &mut StoreServer| {
            panic!("poison the slot (expected by the test)");
        });
    });
    assert!(poisoner.join().is_err());
    let (ok_before, shared_before) = (
        rt.metrics().counter("rpc.ok"),
        rt.metrics().counter("rpc.shared"),
    );
    assert!(matches!(
        rt.rpc(c, s, add(2), SECS5),
        Ok(StoreMsg::Members { version: 2, .. })
    ));
    assert_eq!(rt.metrics().counter("rpc.ok"), ok_before + 1);
    assert_eq!(
        rt.metrics().counter("rpc.shared"),
        shared_before,
        "served by the node's thread, which recovers the guard"
    );
    assert_eq!(members(&mut rt), Some(2));
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}
