//! The gossip replica service: a [`StoreServer`] decorated with CRDT
//! membership replicas and the anti-entropy message handlers.
//!
//! A [`GossipNode`] answers the full store protocol. Object traffic and
//! lock/guard management delegate straight to the wrapped server;
//! membership messages are intercepted so that every successful mutation
//! is mirrored into the node's [`MembershipCrdt`] and every
//! [`StoreMsg::ListMembers`] read is answered *from* the CRDT. The
//! primary-path state (versioned [`CollectionState`] with its mutation
//! log) keeps evolving untouched inside the wrapped server, so the
//! primary/quorum read policies and conformance checking keep working on
//! the same deployment that gossip serves.
//!
//! [`CollectionState`]: weakset_store::collection::CollectionState

use crate::crdt::{GossipSemantics, MembershipCrdt};
use std::collections::BTreeSet;
use weakset_runtime::prelude::*;
use weakset_sim::idmap::IdMap;
use weakset_sim::node::NodeId;
use weakset_sim::world::{Service, ServiceCtx};
use weakset_store::dotted::VersionVector;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::server::StoreServer;

/// A store node that also speaks the anti-entropy protocol.
///
/// Install one per replica node instead of a bare [`StoreServer`]; the
/// anti-entropy rounds themselves are driven by
/// [`crate::engine::install`].
#[derive(Clone, Debug, PartialEq)]
pub struct GossipNode {
    node: NodeId,
    inner: StoreServer,
    replicas: IdMap<CollectionId, MembershipCrdt>,
    /// Removals deferred while the wrapped server holds a grow guard
    /// (§3.3): mirrored here so the CRDT releases its ghosts at the same
    /// moment the primary-path state does.
    pending_removes: IdMap<CollectionId, BTreeSet<ObjectId>>,
    default_semantics: GossipSemantics,
}

impl GossipNode {
    /// A gossip replica on `node`. Collections created through the
    /// protocol get [`GossipSemantics::GrowShrink`] replicas unless
    /// [`GossipNode::with_default_semantics`] says otherwise.
    pub fn new(node: NodeId) -> Self {
        GossipNode {
            node,
            inner: StoreServer::new(),
            replicas: IdMap::default(),
            pending_removes: IdMap::default(),
            default_semantics: GossipSemantics::default(),
        }
    }

    /// Sets the semantics used for protocol-created collections.
    #[must_use]
    pub fn with_default_semantics(mut self, semantics: GossipSemantics) -> Self {
        self.default_semantics = semantics;
        self
    }

    /// The node this replica runs on (the replica id its dots carry).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Creates (or re-types) a CRDT replica for `coll` explicitly —
    /// deployment setup for collections whose semantics differ from the
    /// node default. Also ensures the wrapped server hosts the
    /// collection.
    pub fn create_replica(&mut self, coll: CollectionId, semantics: GossipSemantics) {
        self.inner.preload_collection(coll);
        self.replicas.insert(coll, MembershipCrdt::new(semantics));
    }

    /// Read access to a collection's CRDT replica.
    pub fn crdt(&self, coll: CollectionId) -> Option<&MembershipCrdt> {
        self.replicas.get(&coll)
    }

    /// Mutable access to a collection's CRDT replica (bench/test
    /// preloading of large sets without driving the full protocol).
    pub fn crdt_mut(&mut self, coll: CollectionId) -> Option<&mut MembershipCrdt> {
        self.replicas.get_mut(&coll)
    }

    /// The wrapped plain store server.
    pub fn inner(&self) -> &StoreServer {
        &self.inner
    }

    /// Mutable access to the wrapped server (test/workload preloading).
    pub fn inner_mut(&mut self) -> &mut StoreServer {
        &mut self.inner
    }

    /// Omniscient visitor for the collection's primary-path state (the
    /// version log that conformance checking replays), reaching through
    /// the [`GossipNode`] wrapper on `node`. Pass it straight to
    /// `HistorySource::new` to observe iterator runs over gossip
    /// deployments; `visit` is simply not called when the node hosts no
    /// gossip service or no such collection.
    pub fn visit_collection_history(
        world: &weakset_store::client::StoreRt,
        node: NodeId,
        coll: CollectionId,
        visit: &mut dyn FnMut(&weakset_store::collection::CollectionState),
    ) {
        world.with_service(node, |g: &GossipNode| {
            if let Some(state) = g.inner().collection(coll) {
                visit(state);
            }
        });
    }

    fn member_of_inner(&self, coll: CollectionId, elem: ObjectId) -> bool {
        self.inner
            .collection(coll)
            .is_some_and(|c| c.contains(elem))
    }

    /// Answers an anti-entropy request from the collection's CRDT replica.
    fn gossip(
        &mut self,
        coll: CollectionId,
        answer: impl FnOnce(&mut MembershipCrdt) -> StoreMsg,
    ) -> StoreMsg {
        match self.replicas.get_mut(&coll) {
            Some(crdt) => answer(crdt),
            None => StoreMsg::NoSuchCollection(coll),
        }
    }

    /// The membership reads — `ListMembers`, bare or session-gated —
    /// answered from `&self`; `None` for every other request. This is
    /// the only place a CRDT-backed collection's reads are answered:
    /// [`GossipNode::apply`] calls it first.
    ///
    /// Reads come from the CRDT: its digest total is a monotone version
    /// and converged replicas agree on it. Scalar version totals are NOT
    /// a sound causality floor for gossip replicas (two replicas can
    /// cover disjoint dot sets with equal totals), so the session gate is
    /// dot-level: the replica must dominate the clock the session has
    /// observed. A gated reply carries the replica's digest so the client
    /// learns dot-level dependencies.
    ///
    /// Cost: a reply builds `crdt.elements()` — every live dot walked,
    /// sorted and deduplicated into a fresh `Membership`, O(n log n) and
    /// one allocation — so a read handed off to an idle replica does that
    /// work on the requesting thread; it is not the `Arc` clone a plain
    /// `StoreServer` read is.
    fn read(&self, msg: &StoreMsg) -> Option<StoreMsg> {
        let (coll, session) = match msg {
            StoreMsg::ListMembers(coll) => (*coll, None),
            StoreMsg::WithSession { session, inner } => match **inner {
                StoreMsg::ListMembers(coll) => (coll, Some(session)),
                _ => return None,
            },
            _ => return None,
        };
        // No CRDT replica here: `apply` passes the request, session and
        // all, to the wrapped plain server and its scalar gate (sound
        // for primary-serialized state).
        let crdt = self.replicas.get(&coll)?;
        let digest = crdt.digest();
        let members = || StoreMsg::Members {
            version: digest.total(),
            entries: crdt.elements(),
            committed: false,
        };
        let Some(session) = session else {
            return Some(members());
        };
        let floor_clock = session.clock(coll);
        let clock_ok = floor_clock.is_none_or(|c| digest.dominates(c));
        let total_ok = digest.total() >= session.floor(coll);
        Some(if clock_ok && total_ok {
            StoreMsg::SessionStamped {
                clock: digest.clone(),
                inner: Box::new(members()),
            }
        } else {
            StoreMsg::SessionBehind {
                coll,
                have: digest.total(),
                need: session
                    .floor(coll)
                    .max(floor_clock.map_or(0, VersionVector::total)),
            }
        })
    }

    /// Applies a request locally, exactly as [`StoreServer::apply`] but
    /// through the gossip-aware interception; [`Service::handle`] is this
    /// function.
    pub fn apply(&mut self, msg: StoreMsg) -> StoreMsg {
        if let Some(reply) = self.read(&msg) {
            return reply;
        }
        match msg {
            StoreMsg::GossipDeltaReq { coll, digest } => {
                self.gossip(coll, |crdt| StoreMsg::GossipDelta {
                    coll,
                    delta: crdt.delta_since(&digest),
                })
            }
            StoreMsg::GossipPush { coll, delta } => self.gossip(coll, |crdt| {
                crdt.apply(&delta);
                StoreMsg::GossipDigest {
                    coll,
                    digest: crdt.digest(),
                }
            }),
            // One round of a Merkle-range descent: answer every probed
            // range from the tree of the current live dots, stamping the
            // reply with our digest (the initiator needs it to tell
            // removals from unseen adds).
            StoreMsg::GossipRangeReq { coll, ranges } => {
                self.gossip(coll, |crdt| StoreMsg::GossipRangeResp {
                    coll,
                    digest: crdt.digest(),
                    ranges: crdt.range_tree().respond(&ranges),
                })
            }
            StoreMsg::GossipDeltaBatch { coll, batch } => self.gossip(coll, |crdt| {
                crdt.apply_batch(&batch);
                StoreMsg::GossipDigest {
                    coll,
                    digest: crdt.digest(),
                }
            }),
            StoreMsg::CreateCollection(coll) => {
                let reply = self.inner.apply(StoreMsg::CreateCollection(coll));
                self.replicas
                    .entry(coll)
                    .or_insert_with(|| MembershipCrdt::new(self.default_semantics));
                reply
            }
            StoreMsg::AddMember { coll, entry } => {
                // Mirror only *effective* adds so the CRDT's dot count
                // tracks the wrapped server's version (duplicate adds do
                // not bump either side).
                let already = self.member_of_inner(coll, entry.elem);
                let reply = self.inner.apply(StoreMsg::AddMember { coll, entry });
                if matches!(reply, StoreMsg::Members { .. }) && !already {
                    if let Some(crdt) = self.replicas.get_mut(&coll) {
                        crdt.add(self.node, entry);
                    }
                }
                reply
            }
            StoreMsg::RemoveMember { coll, elem } => {
                let guarded = self.inner.is_grow_guarded(coll);
                let present = self.member_of_inner(coll, elem);
                let reply = self.inner.apply(StoreMsg::RemoveMember { coll, elem });
                if matches!(reply, StoreMsg::Members { .. }) && present {
                    if guarded {
                        self.pending_removes.entry(coll).or_default().insert(elem);
                    } else if let Some(crdt) = self.replicas.get_mut(&coll) {
                        crdt.remove(self.node, elem);
                    }
                }
                reply
            }
            StoreMsg::ReleaseGrowGuard { coll, token } => {
                let reply = self.inner.apply(StoreMsg::ReleaseGrowGuard { coll, token });
                if !self.inner.is_grow_guarded(coll) {
                    if let Some(ghosts) = self.pending_removes.remove(&coll) {
                        let node = self.node;
                        if let Some(crdt) = self.replicas.get_mut(&coll) {
                            for elem in ghosts {
                                crdt.remove(node, elem);
                            }
                        }
                    }
                }
                reply
            }
            // A session-gated membership read was answered by `read`, or
            // has no CRDT replica and falls through whole. Session-gated
            // mutations pass through the gossip-aware interception, then
            // the reply is stamped with the post-mutation digest — the
            // dot this session must later find.
            StoreMsg::WithSession { inner, .. } if !matches!(*inner, StoreMsg::ListMembers(_)) => {
                let target = match &*inner {
                    StoreMsg::AddMember { coll, .. } | StoreMsg::RemoveMember { coll, .. } => {
                        Some(*coll)
                    }
                    _ => None,
                };
                let reply = self.apply(*inner);
                match target.and_then(|c| self.replicas.get(&c)) {
                    Some(crdt) if matches!(reply, StoreMsg::Members { .. }) => {
                        StoreMsg::SessionStamped {
                            clock: crdt.digest(),
                            inner: Box::new(reply),
                        }
                    }
                    _ => reply,
                }
            }
            // Batched parts must re-enter HERE, not the wrapped server,
            // so CRDT-backed reads stay CRDT-backed inside envelopes.
            StoreMsg::Batch(parts) => {
                StoreMsg::BatchReply(parts.into_iter().map(|p| self.apply(p)).collect())
            }
            // Object traffic, queries, locks, and the rival primary-sync
            // path go straight to the wrapped server.
            other => self.inner.apply(other),
        }
    }
}

impl Service<StoreMsg> for GossipNode {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: StoreMsg) -> StoreMsg {
        self.apply(msg)
    }

    /// As [`StoreServer`]'s: every request, gossip exchanges included,
    /// is a bounded step on local state.
    fn serve_inline(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        _from: NodeId,
        msg: StoreMsg,
    ) -> Result<StoreMsg, StoreMsg> {
        Ok(self.apply(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_store::collection::MemberEntry;
    use weakset_store::dotted::MembershipDelta;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn e(id: u64) -> MemberEntry {
        MemberEntry {
            elem: ObjectId(id),
            home: n(0),
        }
    }

    fn node_with_coll(semantics: GossipSemantics) -> (GossipNode, CollectionId) {
        let mut g = GossipNode::new(n(1)).with_default_semantics(semantics);
        let c = CollectionId(1);
        assert_eq!(g.apply(StoreMsg::CreateCollection(c)), StoreMsg::Ack);
        (g, c)
    }

    #[test]
    fn mutations_mirror_into_the_crdt() {
        let (mut g, c) = node_with_coll(GossipSemantics::GrowShrink);
        g.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(1),
        });
        g.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(2),
        });
        assert!(g.crdt(c).unwrap().contains(ObjectId(1)));
        g.apply(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        assert!(!g.crdt(c).unwrap().contains(ObjectId(1)));
        // Reads answer from the CRDT with the digest total as version:
        // two adds plus one removal dot — aligned with the wrapped
        // server's mutation count.
        let reply = g.apply(StoreMsg::ListMembers(c));
        assert_eq!(
            reply,
            StoreMsg::Members {
                version: 3,
                entries: vec![e(2)].into(),
                committed: false,
            }
        );
        // The wrapped server's versioned log evolved in lock-step.
        assert_eq!(g.inner().collection(c).unwrap().version(), 3);
        // A duplicate add bumps neither side.
        g.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(2),
        });
        assert_eq!(g.inner().collection(c).unwrap().version(), 3);
        assert_eq!(g.crdt(c).unwrap().digest().total(), 3);
    }

    #[test]
    fn refused_mutations_do_not_touch_the_crdt() {
        let (mut g, c) = node_with_coll(GossipSemantics::GrowShrink);
        g.apply(StoreMsg::AcquireReadLock { coll: c, token: 9 });
        assert_eq!(
            g.apply(StoreMsg::AddMember {
                coll: c,
                entry: e(1)
            }),
            StoreMsg::Locked
        );
        assert!(g.crdt(c).unwrap().elements().is_empty());
    }

    #[test]
    fn grow_guard_defers_crdt_removal_too() {
        let (mut g, c) = node_with_coll(GossipSemantics::GrowShrink);
        g.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(1),
        });
        g.apply(StoreMsg::AcquireGrowGuard { coll: c, token: 5 });
        g.apply(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        // Ghost: still a member on both the primary path and the CRDT.
        assert!(g.inner().collection(c).unwrap().contains(ObjectId(1)));
        assert!(g.crdt(c).unwrap().contains(ObjectId(1)));
        g.apply(StoreMsg::ReleaseGrowGuard { coll: c, token: 5 });
        assert!(!g.inner().collection(c).unwrap().contains(ObjectId(1)));
        assert!(!g.crdt(c).unwrap().contains(ObjectId(1)));
    }

    #[test]
    fn grow_only_replicas_ignore_removals() {
        let (mut g, c) = node_with_coll(GossipSemantics::GrowOnly);
        g.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(1),
        });
        g.apply(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        // The CRDT keeps Fig. 5 semantics even though the primary-path
        // state removed the member.
        assert!(g.crdt(c).unwrap().contains(ObjectId(1)));
        assert!(!g.inner().collection(c).unwrap().contains(ObjectId(1)));
    }

    #[test]
    fn gossip_handlers_exchange_state() {
        let (mut a, c) = node_with_coll(GossipSemantics::GrowShrink);
        let mut b = GossipNode::new(n(2));
        b.create_replica(c, GossipSemantics::GrowShrink);
        a.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(1),
        });

        // Pull: b asks a for what it is missing.
        let digest = b.crdt(c).unwrap().digest();
        let delta = match a.apply(StoreMsg::GossipDeltaReq { coll: c, digest }) {
            StoreMsg::GossipDelta { delta, .. } => delta,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(delta.novel.len(), 1);
        let reply = b.apply(StoreMsg::GossipPush { coll: c, delta });
        assert!(matches!(reply, StoreMsg::GossipDigest { .. }));
        assert!(b.crdt(c).unwrap().contains(ObjectId(1)));
    }

    #[test]
    fn gossip_requests_for_unknown_collections() {
        let mut g = GossipNode::new(n(1));
        assert_eq!(
            g.apply(StoreMsg::GossipDeltaReq {
                coll: CollectionId(9),
                digest: VersionVector::new()
            }),
            StoreMsg::NoSuchCollection(CollectionId(9))
        );
        assert_eq!(
            g.apply(StoreMsg::GossipPush {
                coll: CollectionId(9),
                delta: MembershipDelta::default()
            }),
            StoreMsg::NoSuchCollection(CollectionId(9))
        );
    }

    #[test]
    fn session_gate_is_dot_level_not_total() {
        use weakset_store::session::SessionToken;
        // Two replicas each with one local add: equal digest totals,
        // disjoint dots. A scalar floor cannot tell them apart; the
        // dot-level gate must.
        let (mut a, c) = node_with_coll(GossipSemantics::GrowShrink);
        let mut b = GossipNode::new(n(2));
        b.create_replica(c, GossipSemantics::GrowShrink);
        a.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(1),
        });
        b.apply(StoreMsg::AddMember {
            coll: c,
            entry: e(2),
        });
        let mut tok = SessionToken::new();
        tok.observe_clock(c, &a.crdt(c).unwrap().digest());
        tok.observe_version(c, 1);
        // b's total equals the session floor, but b never saw a's dot.
        let reply = b.apply(StoreMsg::WithSession {
            session: tok.clone(),
            inner: Box::new(StoreMsg::ListMembers(c)),
        });
        assert_eq!(
            reply,
            StoreMsg::SessionBehind {
                coll: c,
                have: 1,
                need: 1
            }
        );
        // a itself satisfies the session and stamps its digest.
        match a.apply(StoreMsg::WithSession {
            session: tok,
            inner: Box::new(StoreMsg::ListMembers(c)),
        }) {
            StoreMsg::SessionStamped { clock, inner } => {
                assert_eq!(clock, a.crdt(c).unwrap().digest());
                assert!(matches!(*inner, StoreMsg::Members { version: 1, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn session_wrapped_mutations_get_stamped() {
        use weakset_store::session::SessionToken;
        let (mut g, c) = node_with_coll(GossipSemantics::GrowShrink);
        let reply = g.apply(StoreMsg::WithSession {
            session: SessionToken::new(),
            inner: Box::new(StoreMsg::AddMember {
                coll: c,
                entry: e(1),
            }),
        });
        match reply {
            StoreMsg::SessionStamped { clock, inner } => {
                assert_eq!(clock.total(), 1, "post-mutation digest");
                assert!(matches!(*inner, StoreMsg::Members { version: 1, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn object_traffic_delegates() {
        use weakset_store::object::ObjectRecord;
        let mut g = GossipNode::new(n(1));
        let rec = ObjectRecord::new(ObjectId(4), "menu", &b"soup"[..]);
        assert_eq!(g.apply(StoreMsg::PutObject(rec.clone())), StoreMsg::Ack);
        assert_eq!(
            g.apply(StoreMsg::GetObject(ObjectId(4))),
            StoreMsg::Object(rec)
        );
    }
}
