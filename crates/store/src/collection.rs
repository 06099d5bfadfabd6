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
//! builds the next version with one allocation and two bulk copies; from
//! there the live state, every `ListMembers` reply and every replica the
//! version is synced to share that one allocation, and it is freed when
//! the last of them moves on.
//!
//! Every mutation appends one [`Change`] to the collection's log: what
//! the new version lists and delists — three words, never a copy of the
//! membership, and never a reference to one, so no replica's log keeps
//! an old array alive. The log is the omniscient state history
//! that conformance checking consumes; its readers (`RunObserver`,
//! tests) replay it — [`CollectionState::members_at`],
//! [`CollectionState::history`] — when they want a past membership back.
//!
//! A replica sync logs the primary's step rather than re-deriving it:
//! every array carries a process-unique id, and one built by `with` or
//! by a single-entry `without` also names the id it was built from and
//! where. When that is the array the replica holds, the change is read
//! off in O(1); any other sync diffs the two runs.

use crate::object::ObjectId;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use weakset_sim::node::NodeId;

/// One member of a collection: the element and the node its object lives
/// on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
///
/// Each array also carries an id, and, when `with` or `without` built it
/// from another by one entry, that step: what lets
/// [`CollectionState::sync_to`] log a sync without comparing the two
/// runs. Neither shows in `Debug` or `PartialEq`.
#[derive(Clone, Default)]
pub struct Membership {
    /// `None` is the empty membership, so it allocates nothing.
    run: Option<Arc<[MemberEntry]>>,
    /// Unique to this array in this process; 0 for the empty membership.
    id: u64,
    /// The step that built this array, if it is one entry from another.
    origin: Option<Origin>,
}

/// One step between two arrays: the array `parent` with one entry
/// inserted at, or removed from, `index`.
#[derive(Clone, Copy)]
struct Origin {
    parent: u64,
    index: u32,
    added: bool,
}

/// Where array ids come from; 0 is never handed out.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

impl Membership {
    /// The empty membership.
    pub fn new() -> Self {
        Membership::default()
    }

    /// Wraps a run that is already strictly ascending.
    fn from_sorted(run: impl Into<Arc<[MemberEntry]>>) -> Self {
        Membership::built(run.into(), None)
    }

    /// Wraps a strictly ascending run under a fresh id, with the step
    /// that built it (the empty run is always [`Membership::new`]).
    fn built(run: Arc<[MemberEntry]>, origin: Option<Origin>) -> Self {
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]));
        if run.is_empty() {
            return Membership::new();
        }
        Membership {
            run: Some(run),
            // The id publishes no data: `fetch_add` alone makes it unique.
            id: NEXT_ID.fetch_add(1, Relaxed),
            origin,
        }
    }

    /// The step from this array that inserts at, or removes, `index`.
    fn step(&self, index: usize, added: bool) -> Option<Origin> {
        Some(Origin {
            parent: self.id,
            index: u32::try_from(index).ok()?,
            added,
        })
    }

    /// What takes `before` to this membership, when this array was built
    /// from `before`'s by one `with` or single-entry `without`: the entry
    /// read off in O(1), exactly what [`Change::between`] would find.
    /// `None` means "not known to be one step", never "not one step".
    fn step_from(&self, before: &Membership) -> Option<Change> {
        let origin = self.origin.filter(|o| o.parent == before.id)?;
        let at = origin.index as usize;
        Some(if origin.added {
            Change::Added(self[at])
        } else {
            Change::Removed(before[at])
        })
    }

    /// True when `elem` is a member (binary search).
    pub fn contains(&self, elem: ObjectId) -> bool {
        self.binary_search_by_key(&elem, |m| m.elem).is_ok()
    }

    /// This membership plus `entry`: one allocation and two bulk copies,
    /// or `self` again when the entry is already listed.
    #[must_use]
    pub fn with(&self, entry: MemberEntry) -> Membership {
        match self.binary_search(&entry) {
            Ok(_) => self.clone(),
            Err(at) => {
                // An exact-size fill collects straight into the shared
                // allocation; every slot but `at` is then overwritten.
                let mut run: Arc<[MemberEntry]> =
                    std::iter::repeat_n(entry, self.len() + 1).collect();
                let slots = Arc::get_mut(&mut run).expect("a fresh array has one holder");
                slots[..at].copy_from_slice(&self[..at]);
                slots[at + 1..].copy_from_slice(&self[at..]);
                Membership::built(run, self.step(at, true))
            }
        }
    }

    /// Where `elem`'s entries sit (one per home it is listed under).
    fn span_of(&self, elem: ObjectId) -> std::ops::Range<usize> {
        let start = self.partition_point(|m| m.elem < elem);
        start..start + self[start..].partition_point(|m| m.elem == elem)
    }

    /// This membership minus every entry for `elem`: one allocation and
    /// two bulk copies, or `self` again when `elem` is not a member.
    #[must_use]
    pub fn without(&self, elem: ObjectId) -> Membership {
        let gone = self.span_of(elem);
        if gone.is_empty() {
            return self.clone();
        }
        // The tail from `gone.len()` on already ends with the entries
        // after `gone`; the slots before them get the entries before it.
        let mut run: Arc<[MemberEntry]> = Arc::from(&self[gone.len()..]);
        let slots = Arc::get_mut(&mut run).expect("a fresh array has one holder");
        slots[..gone.start].copy_from_slice(&self[..gone.start]);
        let origin = self.step(gone.start, false).filter(|_| gone.len() == 1);
        Membership::built(run, origin)
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

    /// How many values share this membership's array (0 for the empty
    /// membership, which has none): what a test asks to learn whether
    /// anything still pins a version.
    pub fn holders(&self) -> usize {
        self.run.as_ref().map_or(0, Arc::strong_count)
    }

    /// True when both are the same allocation (or both empty): the
    /// "one array per version" property, for tests and short-cuts.
    pub fn ptr_eq(a: &Membership, b: &Membership) -> bool {
        match (&a.run, &b.run) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            (None, None) => true,
            _ => false,
        }
    }
}

impl Deref for Membership {
    type Target = [MemberEntry];

    fn deref(&self) -> &[MemberEntry] {
        self.run.as_deref().unwrap_or(&[])
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

/// A versioned membership snapshot, as [`CollectionState::history`]
/// rebuilds it.
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipVersion {
    /// Monotonic version number (0 = initial empty membership).
    pub version: u64,
    /// The full membership at this version.
    pub members: Membership,
}

/// What one committed version changed, relative to the one before it:
/// one entry of a collection's version log. The two one-entry cases —
/// every `add`, every `remove` of an element with one home, and every
/// sync that amounts to either — allocate nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum Change {
    /// The next version lists exactly one more entry.
    Added(MemberEntry),
    /// The next version lists exactly one entry fewer.
    Removed(MemberEntry),
    /// Anything else: a sync across versions this replica never saw, or
    /// the removal of an element listed under several homes.
    Rewritten(Box<Rewrite>),
}

/// The general [`Change`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rewrite {
    /// Versions between the one before and the one committed, which
    /// this replica never held (a sync jumped over them).
    pub skipped: u64,
    /// Entries the version lists that its predecessor here did not,
    /// ascending.
    pub listed: Box<[MemberEntry]>,
    /// Entries its predecessor here listed that the version does not,
    /// ascending.
    pub delisted: Box<[MemberEntry]>,
}

impl Change {
    /// What takes the ascending run `old` to the ascending run `new`,
    /// `skipped + 1` versions later: one pass over the common prefix and
    /// suffix, then a merge of whatever lies between.
    fn between(old: &[MemberEntry], new: &[MemberEntry], skipped: u64) -> Change {
        let head = old.iter().zip(new).take_while(|(a, b)| a == b).count();
        let (old, new) = (&old[head..], &new[head..]);
        let tail = old
            .iter()
            .rev()
            .zip(new.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let (old, new) = (&old[..old.len() - tail], &new[..new.len() - tail]);
        match (old, new, skipped) {
            ([], [one], 0) => Change::Added(*one),
            ([one], [], 0) => Change::Removed(*one),
            _ => Change::Rewritten(Box::new(Rewrite {
                skipped,
                listed: new
                    .iter()
                    .filter(|m| old.binary_search(m).is_err())
                    .copied()
                    .collect(),
                delisted: old
                    .iter()
                    .filter(|m| new.binary_search(m).is_err())
                    .copied()
                    .collect(),
            })),
        }
    }

    /// How many versions the commit advanced: one, unless it is a sync
    /// that jumped over some.
    pub fn span(&self) -> u64 {
        match self {
            Change::Added(_) | Change::Removed(_) => 1,
            Change::Rewritten(rewrite) => 1 + rewrite.skipped,
        }
    }

    /// The entries this change listed.
    pub fn listed(&self) -> &[MemberEntry] {
        match self {
            Change::Added(entry) => std::slice::from_ref(entry),
            Change::Removed(_) => &[],
            Change::Rewritten(rewrite) => &rewrite.listed,
        }
    }

    /// The entries this change delisted.
    pub fn delisted(&self) -> &[MemberEntry] {
        match self {
            Change::Added(_) => &[],
            Change::Removed(entry) => std::slice::from_ref(entry),
            Change::Rewritten(rewrite) => &rewrite.delisted,
        }
    }

    /// Replays the change on `members`, the ascending run of the version
    /// before it, leaving the run of the version it committed.
    pub fn apply(&self, members: &mut Vec<MemberEntry>) {
        for gone in self.delisted() {
            if let Ok(at) = members.binary_search(gone) {
                members.remove(at);
            }
        }
        for entry in self.listed() {
            if let Err(at) = members.binary_search(entry) {
                members.insert(at, *entry);
            }
        }
    }
}

/// The state of one collection replica (primary or secondary).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionState {
    members: Membership,
    version: u64,
    /// One change per version committed here after 0, oldest first.
    log: Vec<Change>,
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
            log: Vec::new(),
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
        let next = self.members.with(entry);
        self.commit(self.version + 1, next, Change::Added(entry));
        true
    }

    /// Removes a member; returns true (and bumps the version) when it was
    /// present.
    pub fn remove(&mut self, elem: ObjectId) -> bool {
        let change = match &self.members[self.members.span_of(elem)] {
            [] => return false,
            [one] => Change::Removed(*one),
            homes => Change::Rewritten(Box::new(Rewrite {
                delisted: homes.into(),
                ..Rewrite::default()
            })),
        };
        let next = self.members.without(elem);
        self.commit(self.version + 1, next, change);
        true
    }

    /// Replaces the entire membership with a newer version (replica sync),
    /// sharing the sender's array while it is current; the log keeps only
    /// how it differs from the membership it replaces — the sender's own
    /// step, in O(1), when the next version was built from the array held
    /// here, otherwise a diff of the two runs. Older or equal versions are
    /// ignored (idempotent, out-of-order safe). Returns true when applied.
    pub fn sync_to(&mut self, version: u64, members: Membership) -> bool {
        if version <= self.version {
            return false;
        }
        let skipped = version - self.version - 1;
        let change = members
            .step_from(&self.members)
            .filter(|_| skipped == 0)
            .unwrap_or_else(|| Change::between(&self.members, &members, skipped));
        debug_assert_eq!(change, Change::between(&self.members, &members, skipped));
        self.commit(version, members, change);
        true
    }

    /// Makes `members` the current membership and logs how it got there.
    fn commit(&mut self, version: u64, members: Membership, change: Change) {
        debug_assert_eq!(version, self.version + change.span());
        self.version = version;
        self.members = members;
        self.log.push(change);
    }

    /// The version log: one [`Change`] per version committed here after
    /// 0, oldest first. Versions are implicit — each entry commits the
    /// version [`Change::span`] past the one before it —
    /// [`CollectionState::commits`] spells them out.
    pub fn log(&self) -> &[Change] {
        &self.log
    }

    /// The log with the version each change committed.
    pub fn commits(&self) -> impl Iterator<Item = (u64, &Change)> + '_ {
        self.log.iter().scan(0, |version, change| {
            *version += change.span();
            Some((*version, change))
        })
    }

    /// The membership at exactly `version`, rebuilt from the log, if that
    /// version was ever committed here (replica sync can skip versions).
    /// This is the lookup conformance observers use to evaluate a spec
    /// pre-state at an invocation's linearization point.
    pub fn members_at(&self, version: u64) -> Option<Membership> {
        if version == self.version {
            return Some(self.members.clone());
        }
        let (mut at, mut members) = (0, Vec::new());
        for change in &self.log {
            if at >= version {
                break;
            }
            at += change.span();
            change.apply(&mut members);
        }
        (at == version).then(|| Membership::from_sorted(members))
    }

    /// Every version committed here with its membership, oldest first,
    /// starting from the empty version 0: the log replayed one change at
    /// a time (each item is a fresh array).
    pub fn history(&self) -> impl Iterator<Item = MembershipVersion> + '_ {
        let mut members = Vec::new();
        let initial = MembershipVersion {
            version: 0,
            members: Membership::new(),
        };
        std::iter::once(initial).chain(self.commits().map(move |(version, change)| {
            change.apply(&mut members);
            MembershipVersion {
                version,
                members: Membership::from_sorted(members.clone()),
            }
        }))
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
        assert!(c.log().is_empty());
        assert_eq!(c.members_at(0), Some(Membership::new()));
    }

    #[test]
    fn add_bumps_version_and_logs() {
        let mut c = CollectionState::new();
        assert!(c.add(e(1, 0)));
        assert!(!c.add(e(1, 0))); // no duplicates
        assert_eq!(c.version(), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(ObjectId(1)));
        assert_eq!(c.log(), [Change::Added(e(1, 0))]);
    }

    #[test]
    fn remove_bumps_version() {
        let mut c = CollectionState::new();
        c.add(e(1, 0));
        assert!(c.remove(ObjectId(1)));
        assert!(!c.remove(ObjectId(1)));
        assert_eq!(c.version(), 2);
        assert!(c.is_empty());
        // History: initial, after add, after remove.
        assert_eq!(c.log().len(), 2);
        assert_eq!(c.log()[1], Change::Removed(e(1, 0)));
        let sizes: Vec<usize> = c.history().map(|mv| mv.members.len()).collect();
        assert_eq!(sizes, [0, 1, 0]);
    }

    #[test]
    fn members_are_sorted_and_the_log_pins_no_array() {
        let mut c = CollectionState::new();
        c.add(e(5, 0));
        let first = c.members().clone();
        assert_eq!(first.holders(), 2, "the state and this test");
        c.add(e(1, 1));
        assert_eq!(c.members()[..], [e(1, 1), e(5, 0)]);
        assert_eq!(first.holders(), 1, "superseded: only this test holds it");
        assert_eq!(c.members().holders(), 1);
        // The current version is served from the live array, older ones
        // are rebuilt.
        assert!(Membership::ptr_eq(&c.members_at(2).unwrap(), c.members()));
        assert_eq!(c.members_at(1), Some(first));
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
    fn one_step_is_known_only_from_the_array_it_was_built_from() {
        let held = Membership::from(vec![e(1, 0), e(3, 0), e(3, 1), e(5, 0)]);
        let step = |next: &Membership| next.step_from(&held);
        assert_eq!(step(&held.with(e(4, 0))), Some(Change::Added(e(4, 0))));
        assert_eq!(step(&held.with(e(0, 0))), Some(Change::Added(e(0, 0))));
        assert_eq!(
            step(&held.without(ObjectId(5))),
            Some(Change::Removed(e(5, 0)))
        );
        // Two entries delisted, two steps, the array itself, a copy, and
        // a child of an equal array that is not this one: unknown.
        assert_eq!(step(&held.without(ObjectId(3))), None);
        assert_eq!(step(&held.with(e(4, 0)).with(e(6, 0))), None);
        assert_eq!(step(&held.with(e(1, 0))), None);
        assert_eq!(step(&held.with(e(4, 0)).to_vec().into()), None);
        assert_eq!(step(&Membership::from(held.to_vec()).with(e(4, 0))), None);
        // The empty membership is one array, wherever it came from.
        let empty = held
            .without(ObjectId(1))
            .without(ObjectId(3))
            .without(ObjectId(5));
        assert_eq!(
            Membership::new().with(e(2, 0)).step_from(&empty),
            Some(Change::Added(e(2, 0)))
        );
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
        // Applied syncs are logged as what they changed.
        let rewrite = |skipped, listed: &[MemberEntry], delisted: &[MemberEntry]| {
            Change::Rewritten(Box::new(Rewrite {
                skipped,
                listed: listed.into(),
                delisted: delisted.into(),
            }))
        };
        assert_eq!(
            c.log(),
            [
                rewrite(2, &[e(1, 0), e(2, 0)], &[]),
                rewrite(0, &[e(9, 0)], &[e(1, 0), e(2, 0)])
            ]
        );
        assert_eq!(c.commits().last().unwrap().0, 4);
        // One step apart, a sync is logged exactly like the write it
        // carries; apart by nothing, as nothing.
        assert!(c.sync_to(5, vec![e(7, 1), e(9, 0)].into()));
        assert!(c.sync_to(6, vec![e(7, 1)].into()));
        assert!(c.sync_to(8, vec![e(7, 1)].into()));
        assert_eq!(
            c.log()[2..],
            [
                Change::Added(e(7, 1)),
                Change::Removed(e(9, 0)),
                rewrite(1, &[], &[])
            ]
        );
        let versions: Vec<u64> = c.commits().map(|(v, _)| v).collect();
        assert_eq!(versions, [3, 4, 5, 6, 8]);
    }

    #[test]
    fn removing_an_element_with_several_homes_is_one_commit() {
        let mut c = CollectionState::new();
        c.sync_to(1, vec![e(1, 0), e(1, 2), e(3, 0)].into());
        assert!(c.remove(ObjectId(1)));
        assert_eq!(c.members()[..], [e(3, 0)]);
        assert_eq!(c.log()[1].delisted(), [e(1, 0), e(1, 2)]);
        assert_eq!((c.log()[1].listed().len(), c.log()[1].span()), (0, 1));
        assert_eq!(c.members_at(1).unwrap()[..], [e(1, 0), e(1, 2), e(3, 0)]);
    }
}
