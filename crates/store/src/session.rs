//! Causal session tokens: the client-side dependency vector behind
//! [`crate::client::ReadPolicy::CausalSession`].
//!
//! A [`SessionToken`] records, per collection, the highest primary
//! *version* and (for gossip deployments) the dot-level *version vector*
//! this session has observed — through its own mutations and through
//! earlier reads. A replica serving a session read compares its state
//! against the token and answers [`crate::msg::StoreMsg::SessionBehind`]
//! instead of serving stale data, which is what turns the token into
//! read-your-writes and monotonic-reads guarantees (Mostéfaoui, Perrin &
//! Raynal: causal consistency for any object with a sequential
//! specification).
//!
//! Plain [`crate::server::StoreServer`] replicas gate on the scalar
//! version: mutations are serialized at the primary and replica sync
//! ships full snapshots, so `replica.version >= floor` implies the
//! replica has applied every mutation the session depends on. Gossip
//! replicas cannot use totals (two replicas can cover *disjoint* dots
//! with equal totals), so they gate on version-vector dominance and
//! stamp their replies with their digest
//! ([`crate::msg::StoreMsg::SessionStamped`]) to teach the client
//! dot-level clocks.

use crate::dotted::VersionVector;
use crate::object::CollectionId;
use std::collections::BTreeMap;

/// A per-client causal dependency vector, carried on session reads and
/// mutations via [`crate::msg::StoreMsg::WithSession`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionToken {
    /// Per-collection scalar version floors (primary-serialized stores).
    floors: BTreeMap<CollectionId, u64>,
    /// Per-collection dot-level clocks (gossip/CRDT stores).
    clocks: BTreeMap<CollectionId, VersionVector>,
}

impl SessionToken {
    /// A fresh session with no dependencies.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scalar version floor for a collection (0 when never observed).
    pub fn floor(&self, coll: CollectionId) -> u64 {
        self.floors.get(&coll).copied().unwrap_or(0)
    }

    /// The dot-level clock for a collection, if any gossip replica has
    /// stamped one into the session.
    pub fn clock(&self, coll: CollectionId) -> Option<&VersionVector> {
        self.clocks.get(&coll)
    }

    /// Raises the scalar floor for a collection (floors never move down).
    pub fn observe_version(&mut self, coll: CollectionId, version: u64) {
        let floor = self.floors.entry(coll).or_insert(0);
        *floor = (*floor).max(version);
    }

    /// Joins a replica's digest into the session clock for a collection.
    pub fn observe_clock(&mut self, coll: CollectionId, clock: &VersionVector) {
        self.clocks.entry(coll).or_default().join(clock);
    }

    /// True when the session has observed nothing yet — every replica
    /// trivially satisfies it.
    pub fn is_empty(&self) -> bool {
        self.floors.is_empty() && self.clocks.is_empty()
    }

    /// Number of collections with recorded dependencies.
    pub fn len(&self) -> usize {
        let mut colls: std::collections::BTreeSet<CollectionId> =
            self.floors.keys().copied().collect();
        colls.extend(self.clocks.keys().copied());
        colls.len()
    }

    /// Approximate wire size of the token in bytes.
    pub fn wire_size(&self) -> usize {
        self.floors.len() * 16
            + self
                .clocks
                .values()
                .map(|c| 8 + c.len() * 16)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::node::NodeId;

    #[test]
    fn floors_are_monotone() {
        let mut t = SessionToken::new();
        let c = CollectionId(1);
        assert_eq!(t.floor(c), 0);
        assert!(t.is_empty());
        t.observe_version(c, 5);
        t.observe_version(c, 3); // must not regress
        assert_eq!(t.floor(c), 5);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clocks_join() {
        let mut t = SessionToken::new();
        let c = CollectionId(2);
        let mut a = VersionVector::new();
        a.advance(NodeId(1));
        let mut b = VersionVector::new();
        b.advance(NodeId(2));
        b.advance(NodeId(2));
        t.observe_clock(c, &a);
        t.observe_clock(c, &b);
        let clock = t.clock(c).unwrap();
        assert!(clock.dominates(&a));
        assert!(clock.dominates(&b));
        assert_eq!(clock.total(), 3);
        assert!(t.wire_size() > 0);
    }
}
