//! The client/server message protocol.

use crate::collection::{MemberEntry, Membership, SyncStep};
use crate::dotted::{MembershipDelta, VersionVector};
use crate::object::{CollectionId, ObjectId, ObjectRecord};
use crate::query::Query;
use crate::session::SessionToken;
use crate::wire::{self, DeltaBatch, RangeReply, RangeSummary};

/// Requests and replies exchanged with [`crate::server::StoreServer`]s.
///
/// One enum covers both directions: the simulator's service interface is
/// `M -> M`. Servers answer unknown/ill-typed requests with
/// [`StoreMsg::BadRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum StoreMsg {
    // ---- requests ----
    /// Fetch one object by id.
    GetObject(ObjectId),
    /// Store (or overwrite) an object.
    PutObject(ObjectRecord),
    /// Delete an object.
    DeleteObject(ObjectId),
    /// Evaluate a query over this node's local objects.
    QueryLocal(Query),
    /// Create an empty collection replica on this node.
    CreateCollection(CollectionId),
    /// Read a collection replica's membership.
    ListMembers(CollectionId),
    /// Add a member on the primary; the reply carries the new membership.
    AddMember {
        /// Target collection.
        coll: CollectionId,
        /// The member to add.
        entry: MemberEntry,
    },
    /// Remove a member on the primary; the reply carries the new
    /// membership.
    RemoveMember {
        /// Target collection.
        coll: CollectionId,
        /// The member to remove.
        elem: ObjectId,
    },
    /// Bring a secondary replica to a version the primary committed. A
    /// replica that holds `version` (or a later one) afterwards answers
    /// [`StoreMsg::Ack`]; one that missed an earlier step answers
    /// [`StoreMsg::SessionBehind`], and the sender follows up with
    /// [`SyncStep::Full`].
    SyncMembers {
        /// Target collection.
        coll: CollectionId,
        /// The version the step commits.
        version: u64,
        /// The write that committed it, or the whole membership.
        step: SyncStep,
    },
    /// Block collection mutations (strong baseline). `token` identifies
    /// the holder.
    AcquireReadLock {
        /// Target collection.
        coll: CollectionId,
        /// Lock-holder token.
        token: u64,
    },
    /// Release a previously-acquired read lock.
    ReleaseReadLock {
        /// Target collection.
        coll: CollectionId,
        /// Lock-holder token.
        token: u64,
    },
    /// Defer member removals while held (§3.3 grow guard): the set only
    /// grows until every guard is released.
    AcquireGrowGuard {
        /// Target collection.
        coll: CollectionId,
        /// Guard-holder token.
        token: u64,
    },
    /// Release a grow guard; when the last one goes, deferred removals
    /// land ("ghost collection").
    ReleaseGrowGuard {
        /// Target collection.
        coll: CollectionId,
        /// Guard-holder token.
        token: u64,
    },

    // ---- anti-entropy gossip requests (see weakset-gossip) ----
    /// Pull: "here is my digest, send me what I am missing". The reply is
    /// a [`StoreMsg::GossipDelta`] with only the uncovered dots' entries.
    /// Plain [`crate::server::StoreServer`]s answer
    /// [`StoreMsg::BadRequest`].
    GossipDeltaReq {
        /// Target collection.
        coll: CollectionId,
        /// The requester's version vector.
        digest: VersionVector,
    },
    /// Push: deliver a delta for the receiver to join into its state.
    /// The reply is the receiver's post-join digest.
    GossipPush {
        /// Target collection.
        coll: CollectionId,
        /// The sender's delta.
        delta: MembershipDelta,
    },
    /// Merkle-range reconciliation probe: "here are summaries of ranges
    /// of my live-dot key space — tell me, per range, whether yours
    /// matches, or descend/enumerate it" (see `weakset-gossip`'s
    /// `reconcile` module). The reply is a [`StoreMsg::GossipRangeResp`];
    /// plain [`crate::server::StoreServer`]s answer
    /// [`StoreMsg::BadRequest`].
    GossipRangeReq {
        /// Target collection.
        coll: CollectionId,
        /// Summaries of the ranges the requester wants compared.
        ranges: Vec<RangeSummary>,
    },
    /// Deliver the compressed outcome of a Merkle-range descent: the
    /// entries the receiver is missing and the dots it should drop. The
    /// reply is the receiver's post-apply [`StoreMsg::GossipDigest`].
    GossipDeltaBatch {
        /// Target collection.
        coll: CollectionId,
        /// The sender's batch.
        batch: DeltaBatch,
    },

    // ---- causal sessions (see crate::session) ----
    /// A request annotated with the client's session dependency vector
    /// ([`crate::client::ReadPolicy::CausalSession`]). A replica that has
    /// not yet applied the session's dependencies for the target
    /// collection answers [`StoreMsg::SessionBehind`] instead of serving
    /// stale data; otherwise it serves `inner` normally (gossip replicas
    /// wrap the reply in [`StoreMsg::SessionStamped`]).
    WithSession {
        /// The client's observed dependencies.
        session: SessionToken,
        /// The request being gated.
        inner: Box<StoreMsg>,
    },

    // ---- batching (both directions) ----
    /// Several co-located requests coalesced into one wire-level
    /// envelope (`weakset_sim::net::BatchEnvelope`). A server answers
    /// with a [`StoreMsg::BatchReply`] carrying one reply per part, in
    /// request order.
    Batch(Vec<StoreMsg>),
    /// Per-part replies to a [`StoreMsg::Batch`], in request order.
    BatchReply(Vec<StoreMsg>),

    // ---- replies ----
    /// Successful fetch.
    Object(ObjectRecord),
    /// The object does not exist on this node.
    NotFound(ObjectId),
    /// Generic success.
    Ack,
    /// Membership read or post-mutation membership.
    Members {
        /// Replica's version.
        version: u64,
        /// Membership at that version.
        entries: Membership,
        /// True when this is the reply to a mutation that committed
        /// `version`: false for a read, a no-op write, and a removal a
        /// grow guard deferred.
        committed: bool,
    },
    /// Local query results.
    Matches(Vec<ObjectId>),
    /// The collection is read-locked; the mutation was refused.
    Locked,
    /// The collection does not exist on this node.
    NoSuchCollection(CollectionId),
    /// The request was not understood.
    BadRequest,
    /// A gossip replica's post-join digest (reply to
    /// [`StoreMsg::GossipPush`] and [`StoreMsg::GossipDeltaBatch`]).
    GossipDigest {
        /// The collection the digest describes.
        coll: CollectionId,
        /// The replica's version vector.
        digest: VersionVector,
    },
    /// A gossip delta (reply to [`StoreMsg::GossipDeltaReq`]).
    GossipDelta {
        /// The collection the delta describes.
        coll: CollectionId,
        /// The replying replica's delta against the requester's digest.
        delta: MembershipDelta,
    },
    /// Per-range answers to a [`StoreMsg::GossipRangeReq`], in request
    /// order, plus the replier's digest so one round can finish the
    /// version-vector join even when every range matches.
    GossipRangeResp {
        /// The collection compared.
        coll: CollectionId,
        /// The replying replica's version vector.
        digest: VersionVector,
        /// One reply per requested range, in request order.
        ranges: Vec<RangeReply>,
    },
    /// The replica has not applied the session's dependencies for this
    /// collection yet (reply to [`StoreMsg::WithSession`]): the client
    /// redirects to another replica or waits and retries. Also the reply
    /// to a [`StoreMsg::SyncMembers`] step the replica cannot take.
    SessionBehind {
        /// The collection the session read or the sync targeted.
        coll: CollectionId,
        /// The replica's current version (scalar total for gossip).
        have: u64,
        /// The session's required floor (scalar total for gossip), or
        /// the version the sync's step starts from.
        need: u64,
    },
    /// A reply from a gossip replica to a [`StoreMsg::WithSession`]
    /// request, stamped with the replica's post-apply digest so the
    /// client can fold dot-level clocks into its session token.
    SessionStamped {
        /// The replying replica's version vector for the collection.
        clock: VersionVector,
        /// The wrapped ordinary reply.
        inner: Box<StoreMsg>,
    },
}

impl StoreMsg {
    /// Approximate wire size in bytes, for bandwidth-charged simulations
    /// (`weakset_sim::world::World::set_bandwidth`). Control messages are
    /// small and constant; object and membership transfers scale with
    /// their payloads.
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 32;
        match self {
            StoreMsg::Object(rec) | StoreMsg::PutObject(rec) => {
                HEADER
                    + rec.name.len()
                    + rec.size()
                    + rec
                        .attrs
                        .iter()
                        .map(|(k, v)| k.len() + v.len())
                        .sum::<usize>()
            }
            StoreMsg::Members { entries, .. } => HEADER + entries.len() * 12,
            StoreMsg::SyncMembers { step, .. } => {
                HEADER
                    + match step {
                        SyncStep::Add(_) => 12,
                        SyncStep::Remove(_) => 8,
                        SyncStep::Full(members) => members.len() * 12,
                    }
            }
            StoreMsg::Matches(ids) => HEADER + ids.len() * 8,
            StoreMsg::GossipDeltaReq { digest, .. } | StoreMsg::GossipDigest { digest, .. } => {
                HEADER + digest.len() * 16
            }
            StoreMsg::GossipPush { delta, .. } | StoreMsg::GossipDelta { delta, .. } => {
                HEADER + delta.wire_size()
            }
            StoreMsg::GossipRangeReq { ranges, .. } => {
                HEADER + ranges.iter().map(RangeSummary::encoded_size).sum::<usize>()
            }
            StoreMsg::GossipRangeResp { digest, ranges, .. } => {
                HEADER
                    + wire::vv_encoded_size(digest)
                    + ranges.iter().map(RangeReply::encoded_size).sum::<usize>()
            }
            StoreMsg::GossipDeltaBatch { batch, .. } => HEADER + batch.encoded_size(),
            // One shared header for the whole envelope; the parts keep
            // their own sizes. Batching therefore saves (parts - 1)
            // headers of wire bytes on top of the per-message latency.
            StoreMsg::Batch(parts) | StoreMsg::BatchReply(parts) => {
                HEADER + parts.iter().map(StoreMsg::wire_size).sum::<usize>()
            }
            StoreMsg::WithSession { session, inner } => session.wire_size() + inner.wire_size(),
            StoreMsg::SessionStamped { clock, inner } => clock.len() * 16 + inner.wire_size(),
            _ => HEADER,
        }
    }
}

impl weakset_sim::net::BatchEnvelope for StoreMsg {
    fn wrap_batch(parts: Vec<Self>) -> Self {
        StoreMsg::Batch(parts)
    }

    fn unwrap_batch(self) -> Result<Vec<Self>, Self> {
        match self {
            StoreMsg::Batch(parts) | StoreMsg::BatchReply(parts) => Ok(parts),
            other => Err(other),
        }
    }
}
