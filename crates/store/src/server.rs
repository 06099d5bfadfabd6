//! The per-node object store server.

use crate::collection::CollectionState;
use crate::msg::StoreMsg;
use crate::object::{CollectionId, ObjectId, ObjectRecord};
use std::collections::BTreeSet;
use weakset_sim::idmap::IdMap;
use weakset_sim::node::NodeId;
use weakset_sim::world::{Service, ServiceCtx};

/// A node's object store: local objects plus any collection replicas
/// (primary or secondary) hosted here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreServer {
    objects: IdMap<ObjectId, ObjectRecord>,
    collections: IdMap<CollectionId, CollectionState>,
    read_locks: IdMap<CollectionId, BTreeSet<u64>>,
    grow_guards: IdMap<CollectionId, BTreeSet<u64>>,
}

impl StoreServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-loads an object (test/workload setup without RPC traffic).
    pub fn preload_object(&mut self, rec: ObjectRecord) {
        self.objects.insert(rec.id, rec);
    }

    /// Pre-creates a collection replica (setup without RPC traffic).
    pub fn preload_collection(&mut self, id: CollectionId) -> &mut CollectionState {
        self.collections.entry(id).or_default()
    }

    /// Read access to a hosted collection replica.
    pub fn collection(&self, id: CollectionId) -> Option<&CollectionState> {
        self.collections.get(&id)
    }

    /// Number of locally-stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Reads a local object without RPC (omniscient test access).
    pub fn object(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.objects.get(&id)
    }

    /// True when someone holds a read lock on the collection.
    fn is_read_locked(&self, id: CollectionId) -> bool {
        self.read_locks.get(&id).is_some_and(|s| !s.is_empty())
    }

    /// True when someone holds a grow guard on the collection.
    pub fn is_grow_guarded(&self, id: CollectionId) -> bool {
        self.grow_guards.get(&id).is_some_and(|s| !s.is_empty())
    }

    /// Applies a request *locally*, bypassing the network but honouring
    /// all server-side semantics (locks, versioning, the mutation log).
    ///
    /// Scheduled environment actions in experiments use this so that a
    /// long stream of mutator events cannot recurse through the event
    /// loop; it is exactly what a co-located client would observe.
    pub fn apply(&mut self, msg: StoreMsg) -> StoreMsg {
        self.handle_msg(msg)
    }

    /// The membership reads — `ListMembers`, bare or session-gated —
    /// answered from `&self`; `None` for every other request. This is
    /// the only place they are answered: `handle_msg` calls it first.
    ///
    /// A session-gated read is refused until this replica has applied
    /// the session's dependencies. Versions are primary-serialized, and
    /// a replica reaches a version only by replaying every step before it
    /// or by taking the primary's whole membership at it, so `version >=
    /// floor` implies every dependency has been applied here. A bare read
    /// is the same read with floor 0.
    fn read(&self, msg: &StoreMsg) -> Option<StoreMsg> {
        let (id, need) = match msg {
            StoreMsg::ListMembers(id) => (*id, 0),
            StoreMsg::WithSession { session, inner } => match **inner {
                StoreMsg::ListMembers(id) => (id, session.floor(id)),
                _ => return None,
            },
            _ => return None,
        };
        Some(match self.collections.get(&id) {
            Some(c) if c.version() >= need => StoreMsg::Members {
                version: c.version(),
                entries: c.members().clone(),
                committed: false,
            },
            Some(c) => StoreMsg::SessionBehind {
                coll: id,
                have: c.version(),
                need,
            },
            // A replica that never heard of the collection is behind
            // any non-trivial session.
            None if need > 0 => StoreMsg::SessionBehind {
                coll: id,
                have: 0,
                need,
            },
            None => StoreMsg::NoSuchCollection(id),
        })
    }

    fn handle_msg(&mut self, msg: StoreMsg) -> StoreMsg {
        if let Some(reply) = self.read(&msg) {
            return reply;
        }
        match msg {
            StoreMsg::GetObject(id) => match self.objects.get(&id) {
                Some(rec) => StoreMsg::Object(rec.clone()),
                None => StoreMsg::NotFound(id),
            },
            StoreMsg::PutObject(rec) => {
                self.objects.insert(rec.id, rec);
                StoreMsg::Ack
            }
            StoreMsg::DeleteObject(id) => {
                self.objects.remove(&id);
                StoreMsg::Ack
            }
            StoreMsg::QueryLocal(q) => {
                let mut hits: Vec<ObjectId> = self
                    .objects
                    .values()
                    .filter(|rec| q.matches(rec))
                    .map(|rec| rec.id)
                    .collect();
                hits.sort_unstable();
                StoreMsg::Matches(hits)
            }
            StoreMsg::CreateCollection(id) => {
                self.collections.entry(id).or_default();
                StoreMsg::Ack
            }
            StoreMsg::AddMember { coll, entry } => self.mutate(coll, |c| {
                c.add(entry);
            }),
            StoreMsg::RemoveMember { coll, elem } => {
                if self.is_grow_guarded(coll) {
                    // §3.3: the removal is accepted but deferred; the
                    // member lingers as a ghost until the guard releases.
                    self.mutate(coll, |c| {
                        c.defer_remove(elem);
                    })
                } else {
                    self.mutate(coll, |c| {
                        c.remove(elem);
                    })
                }
            }
            StoreMsg::SyncMembers {
                coll,
                version,
                step,
            } => match self.collections.get_mut(&coll) {
                Some(c) => {
                    if c.sync(version, step) {
                        StoreMsg::Ack
                    } else {
                        StoreMsg::SessionBehind {
                            coll,
                            have: c.version(),
                            need: version - 1,
                        }
                    }
                }
                None => StoreMsg::NoSuchCollection(coll),
            },
            StoreMsg::AcquireReadLock { coll, token } => {
                if !self.collections.contains_key(&coll) {
                    return StoreMsg::NoSuchCollection(coll);
                }
                self.read_locks.entry(coll).or_default().insert(token);
                StoreMsg::Ack
            }
            StoreMsg::ReleaseReadLock { coll, token } => {
                if let Some(holders) = self.read_locks.get_mut(&coll) {
                    holders.remove(&token);
                }
                StoreMsg::Ack
            }
            StoreMsg::AcquireGrowGuard { coll, token } => {
                if !self.collections.contains_key(&coll) {
                    return StoreMsg::NoSuchCollection(coll);
                }
                self.grow_guards.entry(coll).or_default().insert(token);
                StoreMsg::Ack
            }
            StoreMsg::ReleaseGrowGuard { coll, token } => {
                if let Some(holders) = self.grow_guards.get_mut(&coll) {
                    holders.remove(&token);
                    if holders.is_empty() {
                        // Last guard gone: collect the ghosts.
                        if let Some(c) = self.collections.get_mut(&coll) {
                            c.apply_deferred();
                        }
                    }
                }
                StoreMsg::Ack
            }
            StoreMsg::ListMembers(_) => unreachable!("read() answers every ListMembers"),
            // A session-wrapped membership read was answered by `read`;
            // mutations and everything else are primary-serialized
            // already, and the session learns the new version from the
            // ordinary reply.
            StoreMsg::WithSession { inner, .. } => self.handle_msg(*inner),
            // A batch envelope: answer each part independently, in
            // request order.
            StoreMsg::Batch(parts) => {
                StoreMsg::BatchReply(parts.into_iter().map(|p| self.handle_msg(p)).collect())
            }
            // Plain store servers do not speak the anti-entropy protocol;
            // gossip requests belong on `weakset-gossip` replica nodes.
            StoreMsg::GossipDeltaReq { .. }
            | StoreMsg::GossipPush { .. }
            | StoreMsg::GossipRangeReq { .. }
            | StoreMsg::GossipDeltaBatch { .. } => StoreMsg::BadRequest,
            // Reply variants arriving as requests are protocol errors.
            StoreMsg::Object(_)
            | StoreMsg::NotFound(_)
            | StoreMsg::Ack
            | StoreMsg::Members { .. }
            | StoreMsg::Matches(_)
            | StoreMsg::Locked
            | StoreMsg::NoSuchCollection(_)
            | StoreMsg::BadRequest
            | StoreMsg::BatchReply(_)
            | StoreMsg::GossipDigest { .. }
            | StoreMsg::GossipDelta { .. }
            | StoreMsg::GossipRangeResp { .. }
            | StoreMsg::SessionBehind { .. }
            | StoreMsg::SessionStamped { .. } => StoreMsg::BadRequest,
        }
    }

    fn mutate(&mut self, coll: CollectionId, f: impl FnOnce(&mut CollectionState)) -> StoreMsg {
        if self.is_read_locked(coll) {
            return StoreMsg::Locked;
        }
        match self.collections.get_mut(&coll) {
            Some(c) => {
                let before = c.version();
                f(c);
                StoreMsg::Members {
                    version: c.version(),
                    entries: c.members().clone(),
                    committed: c.version() != before,
                }
            }
            None => StoreMsg::NoSuchCollection(coll),
        }
    }
}

impl Service<StoreMsg> for StoreServer {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: StoreMsg) -> StoreMsg {
        self.handle_msg(msg)
    }

    /// Every request is a bounded step on local state, so an idle
    /// server takes all of them in place: the hook *is* `handle`.
    fn serve_inline(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        _from: NodeId,
        msg: StoreMsg,
    ) -> Result<StoreMsg, StoreMsg> {
        Ok(self.handle_msg(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::{MemberEntry, Membership, SyncStep};
    use crate::query::Query;

    fn entry(id: u64) -> MemberEntry {
        MemberEntry {
            elem: ObjectId(id),
            home: NodeId(0),
        }
    }

    #[test]
    fn object_lifecycle() {
        let mut s = StoreServer::new();
        let rec = ObjectRecord::new(ObjectId(1), "a", &b"x"[..]);
        assert_eq!(
            s.handle_msg(StoreMsg::PutObject(rec.clone())),
            StoreMsg::Ack
        );
        assert_eq!(
            s.handle_msg(StoreMsg::GetObject(ObjectId(1))),
            StoreMsg::Object(rec)
        );
        assert_eq!(
            s.handle_msg(StoreMsg::DeleteObject(ObjectId(1))),
            StoreMsg::Ack
        );
        assert_eq!(
            s.handle_msg(StoreMsg::GetObject(ObjectId(1))),
            StoreMsg::NotFound(ObjectId(1))
        );
    }

    #[test]
    fn collection_membership_via_messages() {
        let mut s = StoreServer::new();
        let c = CollectionId(7);
        assert_eq!(s.handle_msg(StoreMsg::CreateCollection(c)), StoreMsg::Ack);
        let r = s.handle_msg(StoreMsg::AddMember {
            coll: c,
            entry: entry(1),
        });
        assert_eq!(
            r,
            StoreMsg::Members {
                version: 1,
                entries: vec![entry(1)].into(),
                committed: true,
            }
        );
        let r = s.handle_msg(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        assert_eq!(
            r,
            StoreMsg::Members {
                version: 2,
                entries: Membership::new(),
                committed: true,
            }
        );
        // Removing it again commits nothing.
        let r = s.handle_msg(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        assert!(matches!(
            r,
            StoreMsg::Members {
                version: 2,
                committed: false,
                ..
            }
        ));
    }

    #[test]
    fn missing_collection_reported() {
        let mut s = StoreServer::new();
        assert_eq!(
            s.handle_msg(StoreMsg::ListMembers(CollectionId(9))),
            StoreMsg::NoSuchCollection(CollectionId(9))
        );
    }

    #[test]
    fn read_lock_blocks_mutations() {
        let mut s = StoreServer::new();
        let c = CollectionId(1);
        s.handle_msg(StoreMsg::CreateCollection(c));
        assert_eq!(
            s.handle_msg(StoreMsg::AcquireReadLock { coll: c, token: 5 }),
            StoreMsg::Ack
        );
        assert!(s.is_read_locked(c));
        assert_eq!(
            s.handle_msg(StoreMsg::AddMember {
                coll: c,
                entry: entry(1)
            }),
            StoreMsg::Locked
        );
        s.handle_msg(StoreMsg::ReleaseReadLock { coll: c, token: 5 });
        assert!(!s.is_read_locked(c));
        assert!(matches!(
            s.handle_msg(StoreMsg::AddMember {
                coll: c,
                entry: entry(1)
            }),
            StoreMsg::Members { .. }
        ));
    }

    #[test]
    fn multiple_lock_holders() {
        let mut s = StoreServer::new();
        let c = CollectionId(1);
        s.handle_msg(StoreMsg::CreateCollection(c));
        s.handle_msg(StoreMsg::AcquireReadLock { coll: c, token: 1 });
        s.handle_msg(StoreMsg::AcquireReadLock { coll: c, token: 2 });
        s.handle_msg(StoreMsg::ReleaseReadLock { coll: c, token: 1 });
        assert!(s.is_read_locked(c));
        s.handle_msg(StoreMsg::ReleaseReadLock { coll: c, token: 2 });
        assert!(!s.is_read_locked(c));
    }

    #[test]
    fn local_query_scans_objects() {
        let mut s = StoreServer::new();
        s.preload_object(
            ObjectRecord::new(ObjectId(1), "a.menu", &b""[..]).with_attr("cuisine", "chinese"),
        );
        s.preload_object(
            ObjectRecord::new(ObjectId(2), "b.menu", &b""[..]).with_attr("cuisine", "thai"),
        );
        let r = s.handle_msg(StoreMsg::QueryLocal(Query::attr("cuisine", "chinese")));
        assert_eq!(r, StoreMsg::Matches(vec![ObjectId(1)]));
        assert_eq!(s.object_count(), 2);
    }

    #[test]
    fn sync_members_applies_to_replica() {
        let mut s = StoreServer::new();
        let c = CollectionId(2);
        s.handle_msg(StoreMsg::CreateCollection(c));
        let mut sync = |version, step| {
            let reply = s.handle_msg(StoreMsg::SyncMembers {
                coll: c,
                version,
                step,
            });
            (reply, s.collection(c).unwrap().members().to_vec())
        };
        // A step from a version this replica does not hold is refused, a
        // full membership is not, and the next step then is taken.
        let (need, both) = (4, vec![entry(3), entry(4)]);
        let behind = StoreMsg::SessionBehind {
            coll: c,
            have: 0,
            need,
        };
        assert_eq!(sync(5, SyncStep::Add(entry(4))), (behind, vec![]));
        let full = SyncStep::Full(vec![entry(3)].into());
        assert_eq!(sync(5, full), (StoreMsg::Ack, vec![entry(3)]));
        assert_eq!(
            sync(6, SyncStep::Add(entry(4))),
            (StoreMsg::Ack, both.clone())
        );
        // A version it holds, or an older one, is acknowledged again and
        // changes nothing.
        let stale = SyncStep::Remove(ObjectId(3));
        assert_eq!(sync(6, stale.clone()), (StoreMsg::Ack, both.clone()));
        assert_eq!(sync(1, stale), (StoreMsg::Ack, both));
    }

    #[test]
    fn grow_guard_defers_removals_until_release() {
        let mut s = StoreServer::new();
        let c = CollectionId(1);
        s.handle_msg(StoreMsg::CreateCollection(c));
        s.handle_msg(StoreMsg::AddMember {
            coll: c,
            entry: entry(1),
        });
        s.handle_msg(StoreMsg::AddMember {
            coll: c,
            entry: entry(2),
        });
        assert_eq!(
            s.handle_msg(StoreMsg::AcquireGrowGuard { coll: c, token: 9 }),
            StoreMsg::Ack
        );
        assert!(s.is_grow_guarded(c));
        // Removal is accepted but deferred: still a member, version
        // unchanged (the set only grows).
        let r = s.handle_msg(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        assert!(matches!(r, StoreMsg::Members { version: 2, .. }));
        assert!(s.collection(c).unwrap().contains(ObjectId(1)));
        assert_eq!(s.collection(c).unwrap().deferred().count(), 1);
        // Additions still land normally under the guard.
        s.handle_msg(StoreMsg::AddMember {
            coll: c,
            entry: entry(3),
        });
        assert_eq!(s.collection(c).unwrap().len(), 3);
        // Release: ghosts are collected.
        s.handle_msg(StoreMsg::ReleaseGrowGuard { coll: c, token: 9 });
        assert!(!s.is_grow_guarded(c));
        assert!(!s.collection(c).unwrap().contains(ObjectId(1)));
        assert_eq!(s.collection(c).unwrap().len(), 2);
    }

    #[test]
    fn multiple_grow_guards_defer_until_last_release() {
        let mut s = StoreServer::new();
        let c = CollectionId(1);
        s.handle_msg(StoreMsg::CreateCollection(c));
        s.handle_msg(StoreMsg::AddMember {
            coll: c,
            entry: entry(1),
        });
        s.handle_msg(StoreMsg::AcquireGrowGuard { coll: c, token: 1 });
        s.handle_msg(StoreMsg::AcquireGrowGuard { coll: c, token: 2 });
        s.handle_msg(StoreMsg::RemoveMember {
            coll: c,
            elem: ObjectId(1),
        });
        s.handle_msg(StoreMsg::ReleaseGrowGuard { coll: c, token: 1 });
        assert!(s.collection(c).unwrap().contains(ObjectId(1)));
        s.handle_msg(StoreMsg::ReleaseGrowGuard { coll: c, token: 2 });
        assert!(!s.collection(c).unwrap().contains(ObjectId(1)));
    }

    #[test]
    fn grow_guard_on_missing_collection() {
        let mut s = StoreServer::new();
        assert_eq!(
            s.handle_msg(StoreMsg::AcquireGrowGuard {
                coll: CollectionId(5),
                token: 1
            }),
            StoreMsg::NoSuchCollection(CollectionId(5))
        );
    }

    #[test]
    fn reply_as_request_is_bad() {
        let mut s = StoreServer::new();
        assert_eq!(s.handle_msg(StoreMsg::Ack), StoreMsg::BadRequest);
        assert_eq!(s.handle_msg(StoreMsg::Locked), StoreMsg::BadRequest);
    }

    #[test]
    fn session_gating_on_plain_replica() {
        use crate::session::SessionToken;
        let mut s = StoreServer::new();
        let c = CollectionId(1);
        s.handle_msg(StoreMsg::CreateCollection(c));
        s.handle_msg(StoreMsg::AddMember {
            coll: c,
            entry: entry(1),
        }); // version 1
        let mut tok = SessionToken::new();
        tok.observe_version(c, 3);
        let gated = |tok: &SessionToken| StoreMsg::WithSession {
            session: tok.clone(),
            inner: Box::new(StoreMsg::ListMembers(c)),
        };
        assert_eq!(
            s.handle_msg(gated(&tok)),
            StoreMsg::SessionBehind {
                coll: c,
                have: 1,
                need: 3
            }
        );
        // Once the replica catches up, the same session read succeeds.
        s.handle_msg(StoreMsg::SyncMembers {
            coll: c,
            version: 3,
            step: SyncStep::Full(vec![entry(1), entry(2)].into()),
        });
        assert!(matches!(
            s.handle_msg(gated(&tok)),
            StoreMsg::Members { version: 3, .. }
        ));
        // An empty session is satisfied by anyone; a missing collection
        // under a non-trivial session counts as "behind".
        assert!(matches!(
            s.handle_msg(StoreMsg::WithSession {
                session: SessionToken::new(),
                inner: Box::new(StoreMsg::ListMembers(CollectionId(9))),
            }),
            StoreMsg::NoSuchCollection(_)
        ));
        let mut other = SessionToken::new();
        other.observe_version(CollectionId(9), 1);
        assert_eq!(
            s.handle_msg(StoreMsg::WithSession {
                session: other,
                inner: Box::new(StoreMsg::ListMembers(CollectionId(9))),
            }),
            StoreMsg::SessionBehind {
                coll: CollectionId(9),
                have: 0,
                need: 1
            }
        );
        // Non-read inner requests pass straight through.
        assert!(matches!(
            s.handle_msg(StoreMsg::WithSession {
                session: tok,
                inner: Box::new(StoreMsg::AddMember {
                    coll: c,
                    entry: entry(5)
                }),
            }),
            StoreMsg::Members { .. }
        ));
    }

    #[test]
    fn preload_helpers() {
        let mut s = StoreServer::new();
        s.preload_collection(CollectionId(1)).add(entry(1));
        assert!(s.collection(CollectionId(1)).unwrap().contains(ObjectId(1)));
        s.preload_object(ObjectRecord::new(ObjectId(9), "x", &b""[..]));
        assert!(s.object(ObjectId(9)).is_some());
    }
}
