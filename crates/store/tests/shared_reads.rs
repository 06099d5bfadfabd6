//! `StoreServer::serve_inline` against `handle`: it takes every request,
//! replies exactly as `handle` and leaves exactly `handle`'s state, and —
//! on a threaded fleet where requests skip the mailbox whenever a replica
//! is idle — concurrent readers still see only states the primary
//! logged.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::SimDuration;
use weakset_sim::world::{Service, ServiceCtx};
use weakset_store::prelude::*;

/// Decides, per variant, whether a request is a membership read — the
/// requests that must change nothing. No wildcard arm: a new `StoreMsg`
/// variant does not compile until someone decides which kind it is.
fn is_membership_read(msg: &StoreMsg) -> bool {
    match msg {
        StoreMsg::ListMembers(_) => true,
        StoreMsg::WithSession { inner, .. } => matches!(**inner, StoreMsg::ListMembers(_)),
        StoreMsg::GetObject(_)
        | StoreMsg::PutObject(_)
        | StoreMsg::DeleteObject(_)
        | StoreMsg::QueryLocal(_)
        | StoreMsg::CreateCollection(_)
        | StoreMsg::AddMember { .. }
        | StoreMsg::RemoveMember { .. }
        | StoreMsg::SyncMembers { .. }
        | StoreMsg::AcquireReadLock { .. }
        | StoreMsg::ReleaseReadLock { .. }
        | StoreMsg::AcquireGrowGuard { .. }
        | StoreMsg::ReleaseGrowGuard { .. }
        | StoreMsg::GossipDeltaReq { .. }
        | StoreMsg::GossipPush { .. }
        | StoreMsg::GossipRangeReq { .. }
        | StoreMsg::GossipDeltaBatch { .. }
        | StoreMsg::Batch(_)
        | StoreMsg::BatchReply(_)
        | StoreMsg::Object(_)
        | StoreMsg::NotFound(_)
        | StoreMsg::Ack
        | StoreMsg::Members { .. }
        | StoreMsg::Matches(_)
        | StoreMsg::Locked
        | StoreMsg::NoSuchCollection(_)
        | StoreMsg::BadRequest
        | StoreMsg::GossipDigest { .. }
        | StoreMsg::GossipDelta { .. }
        | StoreMsg::GossipRangeResp { .. }
        | StoreMsg::SessionBehind { .. }
        | StoreMsg::SessionStamped { .. } => false,
    }
}

fn entry(elem: u64) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(elem as u32 % 3),
    }
}

fn session(coll: CollectionId, floor: u64) -> SessionToken {
    let mut tok = SessionToken::new();
    tok.observe_version(coll, floor);
    tok
}

/// One set-up step, decoded from small numbers so states collide often:
/// collections 0..4 (4 is never created), elements and tokens 0..6.
fn setup_step((kind, coll, x): (u8, u64, u64)) -> StoreMsg {
    let coll = CollectionId(coll);
    match kind {
        0 => StoreMsg::CreateCollection(coll),
        1 | 2 => StoreMsg::AddMember {
            coll,
            entry: entry(x),
        },
        3 => StoreMsg::RemoveMember {
            coll,
            elem: ObjectId(x),
        },
        4 => StoreMsg::SyncMembers {
            coll,
            version: x + 3,
            step: SyncStep::Full((0..x).map(entry).collect()),
        },
        5 => StoreMsg::AcquireReadLock { coll, token: x },
        6 => StoreMsg::ReleaseReadLock { coll, token: x },
        7 => StoreMsg::AcquireGrowGuard { coll, token: x },
        8 => StoreMsg::ReleaseGrowGuard { coll, token: x },
        _ => StoreMsg::PutObject(ObjectRecord::new(ObjectId(x), "o", &b"payload"[..])),
    }
}

/// Every variant of `StoreMsg` as a request about `coll` / element `x`.
fn every_request(coll: CollectionId, x: u64) -> Vec<StoreMsg> {
    let record = ObjectRecord::new(ObjectId(x), "o", &b"payload"[..]);
    let gated = |inner: StoreMsg| StoreMsg::WithSession {
        session: session(coll, x),
        inner: Box::new(inner),
    };
    let add = StoreMsg::AddMember {
        coll,
        entry: entry(x),
    };
    vec![
        StoreMsg::GetObject(ObjectId(x)),
        StoreMsg::PutObject(record.clone()),
        StoreMsg::DeleteObject(ObjectId(x)),
        StoreMsg::QueryLocal(Query::attr("k", "v")),
        StoreMsg::CreateCollection(coll),
        StoreMsg::ListMembers(coll),
        add.clone(),
        StoreMsg::RemoveMember {
            coll,
            elem: ObjectId(x),
        },
        StoreMsg::SyncMembers {
            coll,
            version: x,
            step: SyncStep::Full(Membership::new()),
        },
        StoreMsg::SyncMembers {
            coll,
            version: x,
            step: SyncStep::Add(entry(x)),
        },
        StoreMsg::SyncMembers {
            coll,
            version: x,
            step: SyncStep::Remove(ObjectId(x)),
        },
        StoreMsg::AcquireReadLock { coll, token: x },
        StoreMsg::ReleaseReadLock { coll, token: x },
        StoreMsg::AcquireGrowGuard { coll, token: x },
        StoreMsg::ReleaseGrowGuard { coll, token: x },
        StoreMsg::GossipDeltaReq {
            coll,
            digest: VersionVector::new(),
        },
        StoreMsg::GossipPush {
            coll,
            delta: MembershipDelta::default(),
        },
        StoreMsg::GossipRangeReq {
            coll,
            ranges: Vec::new(),
        },
        StoreMsg::GossipDeltaBatch {
            coll,
            batch: DeltaBatch::default(),
        },
        gated(StoreMsg::ListMembers(coll)),
        gated(add),
        gated(gated(StoreMsg::ListMembers(coll))),
        StoreMsg::Batch(vec![StoreMsg::ListMembers(coll)]),
        StoreMsg::BatchReply(vec![StoreMsg::Ack]),
        StoreMsg::Object(record),
        StoreMsg::NotFound(ObjectId(x)),
        StoreMsg::Ack,
        StoreMsg::Members {
            version: x,
            entries: Membership::new(),
            committed: false,
        },
        StoreMsg::Matches(vec![ObjectId(x)]),
        StoreMsg::Locked,
        StoreMsg::NoSuchCollection(coll),
        StoreMsg::BadRequest,
        StoreMsg::GossipDigest {
            coll,
            digest: VersionVector::new(),
        },
        StoreMsg::GossipDelta {
            coll,
            delta: MembershipDelta::default(),
        },
        StoreMsg::GossipRangeResp {
            coll,
            digest: VersionVector::new(),
            ranges: Vec::new(),
        },
        StoreMsg::SessionBehind {
            coll,
            have: 0,
            need: x,
        },
        StoreMsg::SessionStamped {
            clock: VersionVector::new(),
            inner: Box::new(StoreMsg::Ack),
        },
    ]
}

/// From one state, `msg` through the hook and through `handle`: `Ok(r)`
/// is `handle`'s reply and leaves `handle`'s state; `Err(m)` hands `msg`
/// back and leaves the state alone. Returns the state after `handle`,
/// and whether the hook took the request.
fn hook_is_handle<S>(state: &S, node: NodeId, msg: &StoreMsg) -> Result<(S, bool), TestCaseError>
where
    S: Service<StoreMsg> + Clone + PartialEq + std::fmt::Debug,
{
    let from = NodeId(9);
    let (mut inline, mut mailbox) = (state.clone(), state.clone());
    // Two copies of one stream: a handler that draws, draws the same.
    let mut rngs = [(); 2].map(|()| SimRng::for_label(16, "svc.prop"));
    let [inline_rng, mailbox_rng] = &mut rngs;
    let served = inline.serve_inline(
        &mut ServiceCtx {
            node,
            rng: inline_rng,
        },
        from,
        msg.clone(),
    );
    let reply = mailbox.handle(
        &mut ServiceCtx {
            node,
            rng: mailbox_rng,
        },
        from,
        msg.clone(),
    );
    let took = served.is_ok();
    match served {
        Ok(served) => {
            prop_assert_eq!(&served, &reply, "reply to {:?}", msg);
            prop_assert_eq!(&inline, &mailbox, "state after {:?}", msg);
            prop_assert_eq!(
                inline_rng.range_u64(0, u64::MAX),
                mailbox_rng.range_u64(0, u64::MAX),
                "draws after {:?}",
                msg
            );
        }
        Err(back) => {
            prop_assert_eq!(&back, msg, "handed back changed");
            prop_assert_eq!(&inline, state, "declined {:?} but changed", msg);
        }
    }
    Ok((mailbox, took))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On any server state, for every request: the hook takes it, replies
    /// as `handle` does and leaves the state `handle` leaves — objects,
    /// collections with their logs and deferred removals, locks, guards —
    /// and a membership read changes nothing. Each request runs on the
    /// state the ones before it left.
    #[test]
    fn the_hook_is_handle_on_every_request(
        steps in proptest::collection::vec((0u8..10, 0u64..4, 0u64..6), 0..40),
        x in 0u64..6,
    ) {
        let mut server = StoreServer::new();
        for step in steps {
            server.apply(setup_step(step));
        }
        for coll in (0..5).map(CollectionId) {
            let have = server.collection(coll).map_or(0, CollectionState::version);
            // Floors below, at and above the replica's version, for
            // present (0..4, when created) and absent (4) collections.
            let floors = [0, have.saturating_sub(1), have, have + 1];
            let session_reads = floors.map(|floor| StoreMsg::WithSession {
                session: session(coll, floor),
                inner: Box::new(StoreMsg::ListMembers(coll)),
            });
            for msg in every_request(coll, x).into_iter().chain(session_reads) {
                let (after, took) = hook_is_handle(&server, NodeId(0), &msg)?;
                prop_assert!(took, "a plain server takes every request: {:?}", msg);
                if is_membership_read(&msg) {
                    prop_assert_eq!(&after, &server, "{:?} changed the server", msg);
                }
                server = after;
            }
        }
    }
}

/// A service that does not implement the hook declines everything, and
/// hands each request back as it came.
#[test]
fn a_service_without_the_hook_declines_every_request() {
    #[derive(Clone, Debug, PartialEq)]
    struct Plain(StoreServer);
    impl Service<StoreMsg> for Plain {
        fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
            self.0.handle(ctx, from, msg)
        }
    }
    let mut state = Plain(StoreServer::new());
    for msg in every_request(CollectionId(1), 3) {
        let (after, took) = hook_is_handle(&state, NodeId(0), &msg).unwrap();
        assert!(!took);
        state = after;
    }
}

/// One writer doing add/remove cycles, four readers on their own OS
/// threads and views. Whatever mix of in-place and mailbox requests the
/// scheduler produces, a reader only ever sees states the primary
/// logged: a `Primary` read is the logged membership; a union read
/// holds everything in its version's array and nothing that was never a
/// member at or before that version (replicas may lag, never invent).
#[test]
fn concurrent_readers_on_threads_see_only_logged_states() {
    const ROUNDS: u64 = 300;
    let timeout = SimDuration::from_millis(5_000);
    let mut rt = ThreadedRuntime::<StoreMsg>::new(16);
    let wn = rt.add_node("writer");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &servers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    let writer = StoreClient::new(wn, timeout).with_session();
    writer.create_collection(&mut rt, &cref).unwrap();
    for id in 1..=8 {
        writer.add_member(&mut rt, &cref, entry(id)).unwrap();
    }

    // An idle fleet answers every rpc of a Leaderless read in place.
    let shared_before = rt.metrics().counter("rpc.shared");
    for _ in 0..10 {
        let read = writer
            .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
            .unwrap();
        assert_eq!((read.version, read.entries.len()), (8, 8));
    }
    assert_eq!(rt.metrics().counter("rpc.shared") - shared_before, 3 * 10);

    let policies = [
        ReadPolicy::Leaderless,
        ReadPolicy::Leaderless,
        ReadPolicy::Primary,
        ReadPolicy::CausalSession,
    ];
    let start = Barrier::new(policies.len() + 1);
    let done = AtomicBool::new(false);
    let results = thread::scope(|scope| {
        let readers: Vec<_> = policies
            .iter()
            .enumerate()
            .map(|(i, &policy)| {
                let node = rt.add_node(format!("r{i}"));
                // The session reader shares the writer's token.
                let client = match policy {
                    ReadPolicy::CausalSession => writer.clone(),
                    _ => StoreClient::new(node, timeout),
                };
                let mut view = rt.clone();
                let (cref, start, done) = (&cref, &start, &done);
                scope.spawn(move || {
                    let mut reads = Vec::new();
                    start.wait();
                    loop {
                        // Read `done` first: one more read after the
                        // writer's last write is always checked.
                        let last = done.load(Ordering::SeqCst);
                        let floor = client.session_token().map_or(0, |t| t.floor(cref.id));
                        let read = client.read_members(&mut view, cref, policy).unwrap();
                        reads.push((floor, read));
                        if last {
                            break;
                        }
                    }
                    (policy, reads, view.metrics().counter("rpc.shared"))
                })
            })
            .collect();
        start.wait();
        for round in 0..ROUNDS {
            writer
                .add_member(&mut rt, &cref, entry(100 + round))
                .unwrap();
            writer
                .remove_member(&mut rt, &cref, ObjectId(100 + round))
                .unwrap();
        }
        done.store(true, Ordering::SeqCst);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect::<Vec<_>>()
    });

    let primary = rt
        .with_service(cref.home, |s: &StoreServer| {
            s.collection(cref.id).unwrap().clone()
        })
        .unwrap();
    assert_eq!(primary.version(), 8 + 2 * ROUNDS);
    let mut shared_total = 0;
    for (policy, reads, shared) in results {
        shared_total += shared;
        let mut last_version = 0;
        for (floor, read) in &reads {
            let label = format!("{} read at v{}", policy.label(), read.version);
            assert!(
                read.version >= last_version,
                "{label}: went back from v{last_version}"
            );
            last_version = read.version;
            assert!(read.version >= *floor, "{label}: below its floor {floor}");
            let logged = primary.members_at(read.version).expect("a logged version");
            if policy == ReadPolicy::Primary {
                assert_eq!(read.entries, logged, "{label}");
                continue;
            }
            assert!(
                logged.iter().all(|m| read.entries.contains(m.elem)),
                "{label}: lost a member"
            );
            for extra in read.entries.iter().filter(|m| !logged.contains(m.elem)) {
                // A lagging replica's member: it was one, not long ago.
                let was_member = (0..read.version).rev().any(|v| {
                    primary
                        .members_at(v)
                        .is_some_and(|m| m.contains(extra.elem))
                });
                assert!(was_member, "{label}: invented {extra:?}");
            }
        }
        // The last read of each reader follows the last write.
        let (_, last) = reads.last().expect("at least one read");
        assert_eq!(last.version, primary.version(), "{}", policy.label());
        assert_eq!(last.entries, *primary.members(), "{}", policy.label());
        assert!(
            last.entries.is_serialized(),
            "{}: one replica's version, not a merge of them",
            policy.label()
        );
    }
    assert!(shared_total > 0, "no reader was ever served in place");
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}
