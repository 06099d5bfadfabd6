//! `GossipNode::serve_inline` against `handle`: a gossip replica takes
//! every request in place, with exactly `handle`'s reply and exactly
//! `handle`'s resulting state — wrapped server, CRDT dots, parked
//! removals — whichever semantics its CRDTs enforce, with or without a
//! grow guard, and whether a read lands on a CRDT or falls through to
//! the wrapped plain server. (`StoreServer`'s own half of the contract
//! is `crates/store/tests/shared_reads.rs`.)

use proptest::prelude::*;
use weakset_gossip::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::world::{Service, ServiceCtx};
use weakset_store::prelude::*;

const HERE: NodeId = NodeId(1);
const THERE: NodeId = NodeId(2);

fn is_membership_read(msg: &StoreMsg) -> bool {
    match msg {
        StoreMsg::ListMembers(_) => true,
        StoreMsg::WithSession { inner, .. } => matches!(**inner, StoreMsg::ListMembers(_)),
        _ => false,
    }
}

fn entry(elem: u64) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(elem as u32 % 3),
    }
}

/// One set-up step, decoded from small numbers so states collide often:
/// collections 0..4 (0 and 1 get CRDT replicas, 2 and 3 exist on the
/// wrapped server only, 4 is never created), elements and tokens 0..6.
/// `peer` is a CRDT elsewhere whose deltas and batches reach collection
/// 0, so its digest holds dots this node did not mint.
fn setup_step(g: &mut GossipNode, peer: &mut MembershipCrdt, (kind, coll, x): (u8, u64, u64)) {
    let coll = CollectionId(coll);
    let msg = match kind {
        0 if coll.0 < 2 => StoreMsg::CreateCollection(coll),
        0 => {
            g.inner_mut().preload_collection(coll);
            return;
        }
        1 | 2 => StoreMsg::AddMember {
            coll,
            entry: entry(x),
        },
        3 => StoreMsg::RemoveMember {
            coll,
            elem: ObjectId(x),
        },
        4 => StoreMsg::AcquireGrowGuard { coll, token: x },
        5 => StoreMsg::ReleaseGrowGuard { coll, token: x },
        6 => StoreMsg::AcquireReadLock { coll, token: x },
        7 => StoreMsg::ReleaseReadLock { coll, token: x },
        8 => {
            peer.add(THERE, entry(x + 10));
            peer.remove(THERE, ObjectId(x));
            StoreMsg::GossipPush {
                coll: CollectionId(0),
                delta: peer.delta_since(&VersionVector::new()),
            }
        }
        _ => StoreMsg::GossipDeltaBatch {
            coll: CollectionId(0),
            batch: DeltaBatch {
                vv: peer.digest(),
                novel: peer.dotted_entries(),
                drop: Vec::new(),
            },
        },
    };
    g.apply(msg);
}

/// Every request variant of `StoreMsg` about `coll` / element `x`, and
/// one reply variant arriving as a request.
fn every_request(coll: CollectionId, x: u64, session: &SessionToken) -> Vec<StoreMsg> {
    let record = ObjectRecord::new(ObjectId(x), "o", &b"payload"[..]);
    let gated = |inner: StoreMsg| StoreMsg::WithSession {
        session: session.clone(),
        inner: Box::new(inner),
    };
    let add = StoreMsg::AddMember {
        coll,
        entry: entry(x),
    };
    vec![
        StoreMsg::GetObject(ObjectId(x)),
        StoreMsg::PutObject(record),
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
        StoreMsg::Ack,
    ]
}

/// Sessions on every side of the gate for `coll`: empty, a scalar floor
/// below/at/above the replica's version, and dot-level clocks the
/// replica does and does not dominate (the peer's, and a stranger's).
fn sessions(g: &GossipNode, peer: &MembershipCrdt, coll: CollectionId) -> Vec<SessionToken> {
    let have = match g.crdt(coll) {
        Some(crdt) => crdt.digest().total(),
        None => g
            .inner()
            .collection(coll)
            .map_or(0, CollectionState::version),
    };
    let floor = |v: u64| {
        let mut tok = SessionToken::new();
        tok.observe_version(coll, v);
        tok
    };
    let clocked = |clock: &VersionVector| {
        let mut tok = SessionToken::new();
        tok.observe_clock(coll, clock);
        tok
    };
    let mut stranger = VersionVector::new();
    stranger.advance(NodeId(9));
    let mut out = vec![
        SessionToken::new(),
        floor(have.saturating_sub(1)),
        floor(have),
        floor(have + 1),
        clocked(&peer.digest()),
        clocked(&stranger),
    ];
    out.extend(g.crdt(coll).map(|crdt| clocked(&crdt.digest())));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On any node state, for every request: the hook takes it, replies
    /// as `handle` does and leaves the state `handle` leaves, and a
    /// membership read changes nothing. Each request runs on the state
    /// the ones before it left.
    #[test]
    fn the_hook_is_handle_on_every_request(
        grow_only in any::<bool>(),
        steps in proptest::collection::vec((0u8..10, 0u64..4, 0u64..6), 0..40),
        x in 0u64..6,
    ) {
        let semantics = if grow_only {
            GossipSemantics::GrowOnly
        } else {
            GossipSemantics::GrowShrink
        };
        let mut g = GossipNode::new(HERE).with_default_semantics(semantics);
        let mut peer = MembershipCrdt::new(semantics);
        for step in steps {
            setup_step(&mut g, &mut peer, step);
        }
        let from = NodeId(9);
        for coll in (0..5).map(CollectionId) {
            for session in sessions(&g, &peer, coll) {
                for msg in every_request(coll, x, &session) {
                    let (mut inline, mut mailbox) = (g.clone(), g.clone());
                    // Two copies of one stream: a handler that draws,
                    // draws the same.
                    let mut rngs = [(); 2].map(|()| SimRng::for_label(22, "svc.prop"));
                    let [inline_rng, mailbox_rng] = &mut rngs;
                    let mut ctx = ServiceCtx { node: HERE, rng: inline_rng };
                    let served = inline.serve_inline(&mut ctx, from, msg.clone());
                    let mut ctx = ServiceCtx { node: HERE, rng: mailbox_rng };
                    let reply = mailbox.handle(&mut ctx, from, msg.clone());
                    prop_assert_eq!(served, Ok(reply), "reply to {:?}", msg);
                    prop_assert_eq!(&inline, &mailbox, "state after {:?}", msg);
                    prop_assert_eq!(
                        inline_rng.range_u64(0, u64::MAX),
                        mailbox_rng.range_u64(0, u64::MAX),
                        "draws after {:?}", msg
                    );
                    if is_membership_read(&msg) {
                        prop_assert_eq!(&mailbox, &g, "{:?} changed the node", msg);
                    }
                    g = mailbox;
                }
            }
        }
    }
}

/// Both read paths and both gate outcomes are reachable, or the property
/// above holds nothing: a CRDT-backed read is stamped or refused at dot
/// level; without a CRDT replica the wrapped server's plain reply comes
/// back.
#[test]
fn both_read_paths_and_both_gate_outcomes_are_reached() {
    let mut g = GossipNode::new(HERE);
    let (with_crdt, without) = (CollectionId(0), CollectionId(2));
    g.apply(StoreMsg::CreateCollection(with_crdt));
    g.inner_mut().preload_collection(without);
    for coll in [with_crdt, without] {
        let entry = entry(1);
        g.apply(StoreMsg::AddMember { coll, entry });
    }
    assert!(g.crdt(without).is_none());
    let mut read = |coll, session: SessionToken| {
        let inner = Box::new(StoreMsg::ListMembers(coll));
        let mut rng = SimRng::for_label(22, "svc.prop");
        let mut ctx = ServiceCtx {
            node: HERE,
            rng: &mut rng,
        };
        g.serve_inline(
            &mut ctx,
            NodeId(9),
            StoreMsg::WithSession { session, inner },
        )
        .ok()
    };
    let mut clock = VersionVector::new();
    clock.advance(NodeId(9));
    let mut stranger = SessionToken::new();
    stranger.observe_clock(with_crdt, &clock);
    let fresh = SessionToken::new;
    assert!(matches!(
        read(with_crdt, fresh()),
        Some(StoreMsg::SessionStamped { .. })
    ));
    assert!(matches!(
        read(with_crdt, stranger),
        Some(StoreMsg::SessionBehind { .. })
    ));
    assert!(matches!(
        read(without, fresh()),
        Some(StoreMsg::Members { version: 1, .. })
    ));
}
