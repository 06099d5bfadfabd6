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

use crate::crdt::{GSet, ORSet};
use crate::reconcile::RangeTree;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::world::{Service, ServiceCtx};
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::dotted::{Dot, MembershipDelta, VersionVector};
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::server::StoreServer;
use weakset_store::wire::DeltaBatch;

/// Which of the paper's two membership specifications a replica enforces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GossipSemantics {
    /// Figure 5: the membership only grows. Backed by a [`GSet`];
    /// removals are ignored at the CRDT layer.
    GrowOnly,
    /// Figure 6: members come and go. Backed by an [`ORSet`] with
    /// observed-remove semantics.
    #[default]
    GrowShrink,
}

/// One collection's CRDT replica: either flavour behind a uniform API.
#[derive(Clone, Debug, PartialEq)]
pub enum MembershipCrdt {
    /// Grow-only membership (Figure 5).
    GrowOnly(GSet),
    /// Grow-and-shrink membership (Figure 6).
    GrowShrink(ORSet),
}

impl MembershipCrdt {
    /// An empty replica with the given semantics.
    pub fn new(semantics: GossipSemantics) -> Self {
        match semantics {
            GossipSemantics::GrowOnly => MembershipCrdt::GrowOnly(GSet::new()),
            GossipSemantics::GrowShrink => MembershipCrdt::GrowShrink(ORSet::new()),
        }
    }

    /// The semantics this replica enforces.
    pub fn semantics(&self) -> GossipSemantics {
        match self {
            MembershipCrdt::GrowOnly(_) => GossipSemantics::GrowOnly,
            MembershipCrdt::GrowShrink(_) => GossipSemantics::GrowShrink,
        }
    }

    /// Adds `entry` as a mutation of `replica`.
    pub fn add(&mut self, replica: NodeId, entry: MemberEntry) -> Dot {
        match self {
            MembershipCrdt::GrowOnly(s) => s.add(replica, entry),
            MembershipCrdt::GrowShrink(s) => s.add(replica, entry),
        }
    }

    /// Removes an element as a mutation of `replica`. Grow-only replicas
    /// ignore the request (the set only grows — Fig. 5 has no removal
    /// transition) and report 0.
    pub fn remove(&mut self, replica: NodeId, elem: ObjectId) -> usize {
        match self {
            MembershipCrdt::GrowOnly(_) => 0,
            MembershipCrdt::GrowShrink(s) => s.remove(replica, elem),
        }
    }

    /// The current membership, sorted.
    pub fn elements(&self) -> Membership {
        match self {
            MembershipCrdt::GrowOnly(s) => s.elements(),
            MembershipCrdt::GrowShrink(s) => s.elements(),
        }
    }

    /// True when some live entry has this element id.
    pub fn contains(&self, elem: ObjectId) -> bool {
        match self {
            MembershipCrdt::GrowOnly(s) => s.contains(elem),
            MembershipCrdt::GrowShrink(s) => s.contains(elem),
        }
    }

    /// The replica's digest (every observed dot): a share of the
    /// replica's vector, not a copy, so reading it this way is cheap.
    pub fn digest(&self) -> VersionVector {
        match self {
            MembershipCrdt::GrowOnly(s) => s.digest(),
            MembershipCrdt::GrowShrink(s) => s.digest(),
        }
    }

    /// The delta a peer with `digest` is missing.
    pub fn delta_since(&self, digest: &VersionVector) -> MembershipDelta {
        match self {
            MembershipCrdt::GrowOnly(s) => s.delta_since(digest),
            MembershipCrdt::GrowShrink(s) => s.delta_since(digest),
        }
    }

    /// Joins a delta into this replica.
    pub fn apply(&mut self, delta: &MembershipDelta) {
        match self {
            MembershipCrdt::GrowOnly(s) => s.apply(delta),
            MembershipCrdt::GrowShrink(s) => s.apply(delta),
        }
    }

    /// Every live entry with its dot — the input to a Merkle-range
    /// reconciliation tree.
    pub fn dotted_entries(&self) -> Vec<weakset_store::dotted::DottedEntry> {
        match self {
            MembershipCrdt::GrowOnly(s) => s.dotted_entries(),
            MembershipCrdt::GrowShrink(s) => s.dotted_entries(),
        }
    }

    /// Joins a Merkle-range delta batch into this replica.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) {
        match self {
            MembershipCrdt::GrowOnly(s) => s.apply_batch(batch),
            MembershipCrdt::GrowShrink(s) => s.apply_batch(batch),
        }
    }

    /// The replica's [`RangeTree`] over its live dots, for answering or
    /// driving a Merkle-range descent. Built once per state of the live
    /// dots and shared by every descent that finds them unchanged.
    pub fn range_tree(&self) -> Arc<RangeTree> {
        match self {
            MembershipCrdt::GrowOnly(s) => s.range_tree(),
            MembershipCrdt::GrowShrink(s) => s.range_tree(),
        }
    }

    /// True when a peer holding `digest` could learn nothing from us:
    /// the digest dominates ours. Sound for both flavours because every
    /// effective mutation — including OR-Set removals, via their removal
    /// dots — advances the version vector.
    pub fn nothing_for(&self, digest: &VersionVector) -> bool {
        digest.dominates(&self.digest())
    }
}

/// A store node that also speaks the anti-entropy protocol.
///
/// Install one per replica node instead of a bare [`StoreServer`]; the
/// anti-entropy rounds themselves are driven by
/// [`crate::engine::install`].
#[derive(Debug)]
pub struct GossipNode {
    node: NodeId,
    inner: StoreServer,
    replicas: HashMap<CollectionId, MembershipCrdt>,
    /// Removals deferred while the wrapped server holds a grow guard
    /// (§3.3): mirrored here so the CRDT releases its ghosts at the same
    /// moment the primary-path state does.
    pending_removes: HashMap<CollectionId, BTreeSet<ObjectId>>,
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
            replicas: HashMap::new(),
            pending_removes: HashMap::new(),
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

    /// Applies a request locally, exactly as [`StoreServer::apply`] but
    /// through the gossip-aware interception.
    pub fn apply(&mut self, msg: StoreMsg) -> StoreMsg {
        self.handle_msg(msg)
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

    fn handle_msg(&mut self, msg: StoreMsg) -> StoreMsg {
        match msg {
            StoreMsg::GossipDigestReq(coll) => match self.replicas.get(&coll) {
                Some(crdt) => StoreMsg::GossipDigest {
                    coll,
                    digest: crdt.digest(),
                },
                None => StoreMsg::NoSuchCollection(coll),
            },
            StoreMsg::GossipDeltaReq { coll, digest } => match self.replicas.get(&coll) {
                Some(crdt) => StoreMsg::GossipDelta {
                    coll,
                    delta: crdt.delta_since(&digest),
                },
                None => StoreMsg::NoSuchCollection(coll),
            },
            StoreMsg::GossipPush { coll, delta } => match self.replicas.get_mut(&coll) {
                Some(crdt) => {
                    crdt.apply(&delta);
                    StoreMsg::GossipDigest {
                        coll,
                        digest: crdt.digest(),
                    }
                }
                None => StoreMsg::NoSuchCollection(coll),
            },
            // One round of a Merkle-range descent: answer every probed
            // range from the tree of the current live dots, stamping the
            // reply with our digest (the initiator needs it to tell
            // removals from unseen adds).
            StoreMsg::GossipRangeReq { coll, ranges } => match self.replicas.get(&coll) {
                Some(crdt) => StoreMsg::GossipRangeResp {
                    coll,
                    digest: crdt.digest(),
                    ranges: crdt.range_tree().respond(&ranges),
                },
                None => StoreMsg::NoSuchCollection(coll),
            },
            StoreMsg::GossipDeltaBatch { coll, batch } => match self.replicas.get_mut(&coll) {
                Some(crdt) => {
                    crdt.apply_batch(&batch);
                    StoreMsg::GossipDigest {
                        coll,
                        digest: crdt.digest(),
                    }
                }
                None => StoreMsg::NoSuchCollection(coll),
            },
            StoreMsg::CreateCollection(coll) => {
                let reply = self.inner.apply(StoreMsg::CreateCollection(coll));
                self.replicas
                    .entry(coll)
                    .or_insert_with(|| MembershipCrdt::new(self.default_semantics));
                reply
            }
            StoreMsg::ListMembers(coll) => match self.replicas.get(&coll) {
                // Reads come from the CRDT: its digest total is a
                // monotone version and converged replicas agree on it.
                Some(crdt) => StoreMsg::Members {
                    version: crdt.digest().total(),
                    entries: crdt.elements(),
                },
                None => self.inner.apply(StoreMsg::ListMembers(coll)),
            },
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
            // Session-gated requests. Scalar version totals are NOT a
            // sound causality floor for gossip replicas (two replicas
            // can cover disjoint dot sets with equal totals), so the
            // gate is dot-level: the replica must dominate the clock
            // the session has observed. Replies carry the replica's
            // digest so the client learns dot-level dependencies.
            StoreMsg::WithSession { session, inner } => match *inner {
                StoreMsg::ListMembers(coll) => match self.replicas.get(&coll) {
                    Some(crdt) => {
                        let digest = crdt.digest();
                        let floor_clock = session.clock(coll);
                        let clock_ok = floor_clock.is_none_or(|c| digest.dominates(c));
                        let total_ok = digest.total() >= session.floor(coll);
                        if clock_ok && total_ok {
                            StoreMsg::SessionStamped {
                                clock: digest.clone(),
                                inner: Box::new(StoreMsg::Members {
                                    version: digest.total(),
                                    entries: crdt.elements(),
                                }),
                            }
                        } else {
                            StoreMsg::SessionBehind {
                                coll,
                                have: digest.total(),
                                need: session
                                    .floor(coll)
                                    .max(floor_clock.map_or(0, VersionVector::total)),
                            }
                        }
                    }
                    // No CRDT replica here: the wrapped plain server's
                    // scalar gate (sound for primary-serialized state)
                    // takes over.
                    None => self.inner.apply(StoreMsg::WithSession {
                        session,
                        inner: Box::new(StoreMsg::ListMembers(coll)),
                    }),
                },
                // Mutations pass through the gossip-aware interception,
                // then the reply is stamped with the post-mutation
                // digest — the dot this session must later find.
                other => {
                    let target = match &other {
                        StoreMsg::AddMember { coll, .. } | StoreMsg::RemoveMember { coll, .. } => {
                            Some(*coll)
                        }
                        _ => None,
                    };
                    let reply = self.handle_msg(other);
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
            },
            // Batched parts must re-enter HERE, not the wrapped server,
            // so CRDT-backed reads stay CRDT-backed inside envelopes.
            StoreMsg::Batch(parts) => {
                StoreMsg::BatchReply(parts.into_iter().map(|p| self.handle_msg(p)).collect())
            }
            // Object traffic, queries, locks, and the rival primary-sync
            // path go straight to the wrapped server.
            other => self.inner.apply(other),
        }
    }
}

impl Service<StoreMsg> for GossipNode {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: StoreMsg) -> StoreMsg {
        self.handle_msg(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                entries: vec![e(2)].into()
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
        let digest = match b.apply(StoreMsg::GossipDigestReq(c)) {
            StoreMsg::GossipDigest { digest, .. } => digest,
            other => panic!("unexpected {other:?}"),
        };
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
            g.apply(StoreMsg::GossipDigestReq(CollectionId(9))),
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
