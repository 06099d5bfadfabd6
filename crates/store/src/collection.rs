//! Distributed collection objects.
//!
//! A collection is "logically a single object, but physically different
//! parts of it may be scattered across many nodes" (§3). Here the
//! *membership list* lives on a home node (optionally replicated, see
//! [`crate::client`]) while the member objects themselves live wherever
//! their home nodes are — the containment structure of the paper's
//! Figure 2.
//!
//! A membership rests and travels as one value, [`Membership`]: an
//! immutable, sorted, duplicate-free array behind an `Arc`. A mutation
//! builds the next version with one copy; from there the live state, the
//! version-log entry, every `ListMembers` reply and every replica the
//! version is synced to share that one allocation.
//!
//! Every mutation appends its version to the collection's log (sharing
//! the array, not copying it). The log is the omniscient state history
//! that conformance checking replays; a real deployment would not keep
//! it.

use crate::object::ObjectId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use weakset_sim::node::NodeId;

/// One member of a collection: the element and the node its object lives
/// on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MemberEntry {
    /// The member object's id.
    pub elem: ObjectId,
    /// The node holding the member object.
    pub home: NodeId,
}

/// One version of a collection's membership: immutable, sorted by
/// `(elem, home)`, duplicate-free, and cheap to clone (a reference-count
/// bump). It dereferences to `[MemberEntry]`.
///
/// The invariant holds by construction: the only ways to obtain one are
/// the empty value, the conversions from a `Vec` or an iterator (which
/// sort and dedup whatever is not already so — input is never trusted),
/// and the methods here, which preserve it.
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<MemberEntry>")]
pub struct Membership(
    /// `None` is the empty membership, so it allocates nothing.
    Option<Arc<[MemberEntry]>>,
);

impl Membership {
    /// The empty membership.
    pub fn new() -> Self {
        Membership(None)
    }

    /// Wraps a run that is already strictly ascending.
    fn from_sorted(run: impl Into<Arc<[MemberEntry]>>) -> Self {
        let run = run.into();
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]));
        Membership((!run.is_empty()).then_some(run))
    }

    /// True when `elem` is a member (binary search).
    pub fn contains(&self, elem: ObjectId) -> bool {
        self.binary_search_by_key(&elem, |m| m.elem).is_ok()
    }

    /// This membership plus `entry`: one O(n) copy, or `self` again when
    /// the entry is already listed.
    #[must_use]
    pub fn with(&self, entry: MemberEntry) -> Membership {
        match self.binary_search(&entry) {
            Ok(_) => self.clone(),
            Err(at) => {
                let (before, after) = self.split_at(at);
                // A chain of exact-size parts collects straight into
                // the shared allocation: no intermediate `Vec`.
                let run: Arc<[MemberEntry]> = before
                    .iter()
                    .chain(std::iter::once(&entry))
                    .chain(after)
                    .copied()
                    .collect();
                Membership::from_sorted(run)
            }
        }
    }

    /// This membership minus every entry for `elem`: one O(n) copy, or
    /// `self` again when `elem` is not a member.
    #[must_use]
    pub fn without(&self, elem: ObjectId) -> Membership {
        let start = self.partition_point(|m| m.elem < elem);
        let end = start + self[start..].partition_point(|m| m.elem == elem);
        if start == end {
            return self.clone();
        }
        let run: Arc<[MemberEntry]> = self[..start].iter().chain(&self[end..]).copied().collect();
        Membership::from_sorted(run)
    }

    /// The set union, as a linear merge of the two sorted runs. Runs that
    /// share their allocation, or are equal, are not copied at all.
    #[must_use]
    pub fn union(&self, other: &Membership) -> Membership {
        if self == other || other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let (a, b) = (&**self, &**other);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        Membership::from_sorted(merged)
    }

    /// True when both are the same allocation (or both empty): the
    /// "one array per version" property, for tests and short-cuts.
    pub fn ptr_eq(a: &Membership, b: &Membership) -> bool {
        match (&a.0, &b.0) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            (None, None) => true,
            _ => false,
        }
    }
}

impl Deref for Membership {
    type Target = [MemberEntry];

    fn deref(&self) -> &[MemberEntry] {
        self.0.as_deref().unwrap_or(&[])
    }
}

/// Prints as the slice does, so a message's `Debug` text — which the
/// recorder and the simulator's trace hashes cover — does not depend on
/// how the membership is held.
impl fmt::Debug for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Membership {
    fn eq(&self, other: &Membership) -> bool {
        Membership::ptr_eq(self, other) || **self == **other
    }
}

impl Eq for Membership {}

/// Sorts and dedups the entries unless they already are.
impl From<Vec<MemberEntry>> for Membership {
    fn from(mut entries: Vec<MemberEntry>) -> Self {
        if !entries.windows(2).all(|w| w[0] < w[1]) {
            entries.sort_unstable();
            entries.dedup();
        }
        Membership::from_sorted(entries)
    }
}

impl FromIterator<MemberEntry> for Membership {
    fn from_iter<I: IntoIterator<Item = MemberEntry>>(iter: I) -> Self {
        Membership::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a Membership {
    type Item = &'a MemberEntry;
    type IntoIter = std::slice::Iter<'a, MemberEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A versioned membership snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MembershipVersion {
    /// Monotonic version number (0 = initial empty membership).
    pub version: u64,
    /// The full membership at this version.
    pub members: Membership,
}

/// The state of one collection replica (primary or secondary).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollectionState {
    members: Membership,
    version: u64,
    log: Vec<MembershipVersion>,
    /// Removals deferred while a grow guard is held (§3.3's "ghost"
    /// mechanism): the member stays visible until the guard releases.
    deferred: std::collections::BTreeSet<ObjectId>,
}

impl Default for CollectionState {
    fn default() -> Self {
        CollectionState::new()
    }
}

impl CollectionState {
    /// A new, empty collection at version 0.
    pub fn new() -> Self {
        CollectionState {
            members: Membership::new(),
            version: 0,
            log: vec![MembershipVersion {
                version: 0,
                members: Membership::new(),
            }],
            deferred: std::collections::BTreeSet::new(),
        }
    }

    /// Current version number.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the collection has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True when `elem` is currently a member.
    pub fn contains(&self, elem: ObjectId) -> bool {
        self.members.contains(elem)
    }

    /// The current membership; cloning it shares the array.
    pub fn members(&self) -> &Membership {
        &self.members
    }

    /// Adds a member; returns true (and bumps the version) when it was new.
    pub fn add(&mut self, entry: MemberEntry) -> bool {
        if self.members.contains(entry.elem) {
            return false;
        }
        self.commit(self.version + 1, self.members.with(entry));
        true
    }

    /// Removes a member; returns true (and bumps the version) when it was
    /// present.
    pub fn remove(&mut self, elem: ObjectId) -> bool {
        if !self.members.contains(elem) {
            return false;
        }
        self.commit(self.version + 1, self.members.without(elem));
        true
    }

    /// Replaces the entire membership with a newer version (replica sync),
    /// sharing the sender's array. Older or equal versions are ignored
    /// (idempotent, out-of-order safe). Returns true when applied.
    pub fn sync_to(&mut self, version: u64, members: Membership) -> bool {
        if version <= self.version {
            return false;
        }
        self.commit(version, members);
        true
    }

    /// Makes `members` the current membership and logs it.
    fn commit(&mut self, version: u64, members: Membership) {
        self.version = version;
        self.members = members.clone();
        self.log.push(MembershipVersion { version, members });
    }

    /// The full version log: membership after every change, oldest first.
    pub fn log(&self) -> &[MembershipVersion] {
        &self.log
    }

    /// The logged membership at exactly `version`, if that version was
    /// ever recorded (replica sync can skip versions). This is the lookup
    /// conformance observers use to evaluate a spec pre-state at an
    /// invocation's linearization point.
    pub fn members_at(&self, version: u64) -> Option<&Membership> {
        // Log versions are strictly increasing.
        self.log
            .binary_search_by_key(&version, |mv| mv.version)
            .ok()
            .map(|i| &self.log[i].members)
    }

    /// Defers the removal of a member (grow-guard mode, §3.3): the member
    /// remains visible as a "ghost" until [`CollectionState::apply_deferred`]
    /// runs. Returns true when the element is a member (so there is
    /// something to remove later).
    pub fn defer_remove(&mut self, elem: ObjectId) -> bool {
        if self.members.contains(elem) {
            self.deferred.insert(elem);
            true
        } else {
            false
        }
    }

    /// Elements whose removal is currently deferred.
    pub fn deferred(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.deferred.iter().copied()
    }

    /// Applies every deferred removal (guard released: the ghosts are
    /// collected). Returns how many removals landed.
    pub fn apply_deferred(&mut self) -> usize {
        let pending: Vec<ObjectId> = self.deferred.iter().copied().collect();
        self.deferred.clear();
        pending.into_iter().filter(|&e| self.remove(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64, node: u32) -> MemberEntry {
        MemberEntry {
            elem: ObjectId(id),
            home: NodeId(node),
        }
    }

    #[test]
    fn new_collection_is_empty_at_version_zero() {
        let c = CollectionState::new();
        assert!(c.is_empty());
        assert_eq!(c.version(), 0);
        assert_eq!(c.log().len(), 1);
        assert!(c.log()[0].members.is_empty());
    }

    #[test]
    fn add_bumps_version_and_logs() {
        let mut c = CollectionState::new();
        assert!(c.add(e(1, 0)));
        assert!(!c.add(e(1, 0))); // no duplicates
        assert_eq!(c.version(), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(ObjectId(1)));
        assert_eq!(c.log().len(), 2);
    }

    #[test]
    fn remove_bumps_version() {
        let mut c = CollectionState::new();
        c.add(e(1, 0));
        assert!(c.remove(ObjectId(1)));
        assert!(!c.remove(ObjectId(1)));
        assert_eq!(c.version(), 2);
        assert!(c.is_empty());
        // Log: initial, after add, after remove.
        assert_eq!(c.log().len(), 3);
    }

    #[test]
    fn members_are_sorted_and_shared_with_the_log() {
        let mut c = CollectionState::new();
        c.add(e(5, 0));
        c.add(e(1, 1));
        assert_eq!(c.members()[..], [e(1, 1), e(5, 0)]);
        let logged = &c.log().last().unwrap().members;
        assert!(Membership::ptr_eq(c.members(), logged));
    }

    #[test]
    fn membership_constructors_sort_and_dedup() {
        let m = Membership::from(vec![e(3, 0), e(1, 1), e(3, 0), e(1, 0)]);
        assert_eq!(m[..], [e(1, 0), e(1, 1), e(3, 0)]);
        assert_eq!(format!("{m:?}"), format!("{:?}", &m[..]));
        assert!(m.contains(ObjectId(1)) && !m.contains(ObjectId(2)));
        // Already listed: the same array comes back.
        assert!(Membership::ptr_eq(&m, &m.with(e(3, 0))));
        assert!(Membership::ptr_eq(&m, &m.without(ObjectId(2))));
        assert!(Membership::ptr_eq(&m, &m.union(&m.clone())));
        // `without` drops every home an element is listed under.
        assert_eq!(m.without(ObjectId(1))[..], [e(3, 0)]);
        // The empty membership holds no allocation to share.
        let empty: Membership = Vec::new().into();
        assert!(Membership::ptr_eq(&empty, &Membership::new()));
        assert!(Membership::ptr_eq(
            &empty,
            &m.without(ObjectId(1)).without(ObjectId(3))
        ));
    }

    #[test]
    fn deferred_removals_are_ghosts_until_applied() {
        let mut c = CollectionState::new();
        c.add(e(1, 0));
        c.add(e(2, 0));
        assert!(c.defer_remove(ObjectId(1)));
        assert!(!c.defer_remove(ObjectId(9))); // not a member
        assert!(c.contains(ObjectId(1)));
        assert_eq!(c.deferred().collect::<Vec<_>>(), vec![ObjectId(1)]);
        assert_eq!(c.version(), 2); // no version bump while deferred
        assert_eq!(c.apply_deferred(), 1);
        assert!(!c.contains(ObjectId(1)));
        assert_eq!(c.version(), 3);
        assert_eq!(c.deferred().count(), 0);
        // Idempotent.
        assert_eq!(c.apply_deferred(), 0);
    }

    #[test]
    fn members_at_looks_up_logged_versions() {
        let mut c = CollectionState::new();
        c.add(e(1, 0));
        c.add(e(2, 0));
        let at = |c: &CollectionState, v| c.members_at(v).map(|m| m.to_vec());
        assert_eq!(at(&c, 0), Some(vec![]));
        assert_eq!(at(&c, 1), Some(vec![e(1, 0)]));
        assert_eq!(at(&c, 2), Some(vec![e(1, 0), e(2, 0)]));
        assert_eq!(at(&c, 9), None);
        // Sync can skip versions; the gap stays unknown.
        let mut s = CollectionState::new();
        s.sync_to(3, vec![e(7, 1)].into());
        assert_eq!(at(&s, 2), None);
        assert_eq!(at(&s, 3), Some(vec![e(7, 1)]));
    }

    #[test]
    fn sync_applies_only_newer_versions() {
        let mut c = CollectionState::new();
        // Version 0 is the initial membership, not news.
        assert!(!c.sync_to(0, vec![e(9, 0)].into()));
        assert!(c.is_empty());
        assert!(c.sync_to(3, vec![e(1, 0), e(2, 0)].into()));
        assert_eq!(c.version(), 3);
        assert_eq!(c.len(), 2);
        // Stale sync ignored.
        assert!(!c.sync_to(2, vec![e(9, 0)].into()));
        assert_eq!(c.len(), 2);
        // Same version ignored.
        assert!(!c.sync_to(3, vec![e(9, 0)].into()));
        // Newer applies.
        assert!(c.sync_to(4, vec![e(9, 0)].into()));
        assert!(c.contains(ObjectId(9)));
        assert_eq!(c.log().last().unwrap().version, 4);
    }
}
