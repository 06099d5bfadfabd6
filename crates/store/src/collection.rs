//! Distributed collection objects.
//!
//! A collection is "logically a single object, but physically different
//! parts of it may be scattered across many nodes" (§3). Here the
//! *membership list* lives on a home node (optionally replicated, see
//! [`crate::client`]) while the member objects themselves live wherever
//! their home nodes are — the containment structure of the paper's
//! Figure 2.
//!
//! A membership rests and travels as one value, [`Membership`]: a
//! sorted, duplicate-free run in an array behind an `Arc`, with room at
//! both ends, copied on write. A write is one step: when its value holds
//! the array alone, it moves the shorter side of the gap into that
//! side's room — a quarter of the entries at a random position — or,
//! with none there, re-centres the run; otherwise it builds the next
//! array, its room centred, in one allocation. So a write copies only
//! while a reply, a snapshot or an in-flight message still holds the
//! version it replaces, and what any held value lists never changes.
//!
//! Every mutation appends one [`Change`] to the collection's log: what
//! the new version lists and delists — three words, never a copy of the
//! membership, and never a reference to one, so no replica's log keeps
//! an old array alive. The log is the omniscient state history
//! that conformance checking consumes; its readers (`RunObserver`,
//! tests) replay it — [`CollectionState::members_at`],
//! [`CollectionState::history`] — when they want a past membership back.
//!
//! A replica replays the primary's writes rather than receiving its
//! arrays: the client forwards each committed write as one step, which a
//! replica one version behind runs through the same
//! [`CollectionState::add`] / [`CollectionState::remove`] the primary
//! ran, shifting its own array in place. Its log then equals the
//! primary's. Only a replica that missed a step is sent the whole
//! membership, through [`CollectionState::sync_to`], which logs a diff
//! of the two runs.

use crate::object::ObjectId;
use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU32;
use std::ops::{Deref, Range};
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

/// One version of a collection's membership: sorted by `(elem, home)`,
/// duplicate-free, and cheap to clone (a reference-count bump). It
/// dereferences to `[MemberEntry]`.
///
/// The invariant holds by construction: the only ways to obtain one are
/// the empty value, the conversions from a `Vec` or an iterator (which
/// sort and dedup whatever is not already so — input is never trusted),
/// and the writes of [`CollectionState`] and [`Membership::union`], which
/// preserve it.
///
/// A clone shares the array, and a write changes an array in place only
/// through its one holder, so what a value lists changes only through
/// that value. A value held by a [`CollectionState`], and every clone of
/// it, is marked primary-serialized: one collection's versions are then
/// committed by one primary and replayed in its order, so two marked
/// values of one collection at one version list the same entries. The
/// mark shows in neither `Debug` nor `PartialEq`.
#[derive(Clone)]
pub struct Membership {
    /// Room, the entries, then room; `None` until a write needs an
    /// array, so the empty membership allocates nothing.
    run: Option<Arc<[MemberEntry]>>,
    /// One past the slot of the first entry, so never zero: the niche
    /// `Option<Membership>` takes. Its top bit is the [`SERIALIZED`] mark.
    head: NonZeroU32,
    /// How many slots, from the first entry's, hold entries.
    len: u32,
}

/// The primary-serialized mark in `Membership::head`.
const SERIALIZED: u32 = 1 << 31;

/// The spare slots a new array of `len` entries gets, half on each side:
/// an eighth, so a run of inserts reallocates a logarithmic number of
/// times. A set of fewer than eight gets none — its adds copy until a
/// removal makes room — because most simulated collections list a handful
/// of entries and see too few writes for spare slots to pay their bytes.
fn room(len: usize) -> usize {
    len / 8
}

impl Membership {
    /// The empty membership.
    pub fn new() -> Self {
        Membership {
            run: None,
            head: NonZeroU32::MIN,
            len: 0,
        }
    }

    /// Wraps a run that is already strictly ascending and exactly sized
    /// (the empty run is always [`Membership::new`]).
    fn from_sorted(run: impl Into<Arc<[MemberEntry]>>) -> Self {
        let run = run.into();
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]));
        if run.is_empty() {
            return Membership::new();
        }
        let mut members = Membership::new();
        members.place(0, run.len());
        members.run = Some(run);
        members
    }

    /// The slot of the first entry.
    #[inline]
    fn start(&self) -> usize {
        ((self.head.get() & !SERIALIZED) - 1) as usize
    }

    /// Puts the entries at `start..start + len`, keeping the mark.
    fn place(&mut self, start: usize, len: usize) {
        assert!(start < (SERIALIZED - 1) as usize, "fewer than 2^31 slots");
        self.head = NonZeroU32::MIN.saturating_add(start as u32) | (self.head.get() & SERIALIZED);
        self.len = u32::try_from(len).expect("fewer than 2^32 members");
    }

    /// True when this value was a [`CollectionState`]'s membership: two
    /// such values of one collection at one version list the same
    /// entries. A read built any other way (a union, a CRDT's elements)
    /// is not marked.
    pub fn is_serialized(&self) -> bool {
        self.head.get() & SERIALIZED != 0
    }

    /// True when `elem` is a member (binary search).
    pub fn contains(&self, elem: ObjectId) -> bool {
        self.binary_search_by_key(&elem, |m| m.elem).is_ok()
    }

    /// Where `elem`'s entries sit (one per home it is listed under).
    fn span_of(&self, elem: ObjectId) -> Range<usize> {
        let start = self.partition_point(|m| m.elem < elem);
        start..start + self[start..].partition_point(|m| m.elem == elem)
    }

    /// The one array step under every write: `self[gone]` replaced by
    /// `entry`, if any. When this value holds its array alone, it moves
    /// the entries on the shorter side of `gone` into the room on that
    /// side or, with none there, both sides so that the room left splits
    /// evenly. Otherwise it builds the next array with [`room`], centred,
    /// in one allocation.
    fn splice(&mut self, gone: Range<usize>, entry: Option<MemberEntry>) {
        let (start, len, put) = (self.start(), self.len(), usize::from(entry.is_some()));
        let (at, next) = (gone.start, len - gone.len() + put);
        let slots = self.run.as_ref().map_or(0, |run| run.len());
        // Where the entries start if those before `gone` move, or if
        // those after it do; else where the room left is centred.
        let front = (start + gone.len()).checked_sub(put);
        let back = (start + next <= slots).then_some(start);
        let fewer = if at < len - gone.end { front } else { back };
        let first = fewer.or((next <= slots).then(|| (slots - next) / 2));
        match (first, self.run.as_mut().and_then(|run| Arc::get_mut(run))) {
            (Some(first), Some(slots)) => {
                let (tail, to) = (start + gone.end..start + len, first + at + put);
                if first == start {
                    slots.copy_within(tail, to);
                } else if to == tail.start {
                    slots.copy_within(start..start + at, first);
                } else {
                    // Both sides: the whole run, then its tail aside.
                    slots.copy_within(start..start + len, first);
                    slots.copy_within(first + gone.end..first + len, to);
                }
                slots[first + at..first + at + put].copy_from_slice(entry.as_slice());
                self.place(first, next);
            }
            _ if next == 0 => (self.run, self.len) = (None, 0),
            _ => {
                // An exact-size fill collects straight into the new
                // allocation; the entries then overwrite their slots.
                let (fill, first) = (entry.unwrap_or_else(|| self[0]), room(next) / 2);
                let mut run: Arc<[MemberEntry]> =
                    std::iter::repeat_n(fill, next + room(next)).collect();
                let slots = Arc::get_mut(&mut run).expect("a fresh array has one holder");
                let slots = &mut slots[first..first + next];
                slots[..at].copy_from_slice(&self[..at]);
                slots[at..at + put].copy_from_slice(entry.as_slice());
                slots[at + put..].copy_from_slice(&self[gone.end..]);
                self.run = Some(run);
                self.place(first, next);
            }
        }
    }

    /// The set union, as a linear merge of the two sorted runs. Equal
    /// runs are not copied at all.
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

    /// How many values share this membership's array (0 when it has
    /// none): what a test asks to learn whether anything still pins a
    /// version, or whether the next write can shift in place.
    pub fn holders(&self) -> usize {
        self.run.as_ref().map_or(0, Arc::strong_count)
    }

    /// Where this membership's array is (null when it has none).
    pub fn array_ptr(&self) -> *const MemberEntry {
        self.run
            .as_ref()
            .map_or(std::ptr::null(), |run| run.as_ptr())
    }
}

impl Default for Membership {
    fn default() -> Self {
        Membership::new()
    }
}

impl Deref for Membership {
    type Target = [MemberEntry];

    /// Inlined across crates: the length check keeps it from being a
    /// leaf rustc inlines by itself, and every read derefs.
    #[inline]
    fn deref(&self) -> &[MemberEntry] {
        match &self.run {
            Some(run) => &run[self.start()..self.start() + self.len as usize],
            None => &[],
        }
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
        **self == **other
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

/// What a replica sync carries: the write the primary committed, or,
/// for a replica that missed one, the whole membership.
#[derive(Clone, Debug, PartialEq)]
pub enum SyncStep {
    /// [`CollectionState::add`] of this entry.
    Add(MemberEntry),
    /// [`CollectionState::remove`] of this element.
    Remove(ObjectId),
    /// The primary's membership at the synced version.
    Full(Membership),
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
    fn delisted(&self) -> &[MemberEntry] {
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
            members: Membership {
                head: NonZeroU32::MIN | SERIALIZED,
                ..Membership::new()
            },
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

    /// The current membership. Cloning it shares the array, so the next
    /// write here copies it while the clone lives.
    pub fn members(&self) -> &Membership {
        &self.members
    }

    /// Adds a member; returns true (and bumps the version) when it was new.
    pub fn add(&mut self, entry: MemberEntry) -> bool {
        // With no entry for the element, its first slot is the entry's.
        let at = self.members.partition_point(|m| m.elem < entry.elem);
        if self.members.get(at).is_some_and(|m| m.elem == entry.elem) {
            return false;
        }
        self.members.splice(at..at, Some(entry));
        self.commit(self.version + 1, Change::Added(entry));
        true
    }

    /// Removes a member; returns true (and bumps the version) when it was
    /// present.
    pub fn remove(&mut self, elem: ObjectId) -> bool {
        let gone = self.members.span_of(elem);
        let change = match &self.members[gone.clone()] {
            [] => return false,
            [one] => Change::Removed(*one),
            homes => Change::Rewritten(Box::new(Rewrite {
                delisted: homes.into(),
                ..Rewrite::default()
            })),
        };
        self.members.splice(gone, None);
        self.commit(self.version + 1, change);
        true
    }

    /// Takes the step the primary committed as `version` (replica
    /// sync). A replica one version behind replays an add or a removal
    /// through [`CollectionState::add`] / [`CollectionState::remove`], as
    /// the primary ran it, so its log equals the primary's and its own
    /// array shifts in place; a full membership is taken from any older
    /// version ([`CollectionState::sync_to`]). A replica at or past
    /// `version` has nothing to do. Returns whether this replica holds
    /// `version` now: false means it missed a step and needs a
    /// [`SyncStep::Full`].
    pub fn sync(&mut self, version: u64, step: SyncStep) -> bool {
        let next = self.version + 1 == version;
        match step {
            SyncStep::Add(entry) if next => {
                self.add(entry);
            }
            SyncStep::Remove(elem) if next => {
                self.remove(elem);
            }
            SyncStep::Full(members) => {
                self.sync_to(version, members);
            }
            SyncStep::Add(_) | SyncStep::Remove(_) => {}
        }
        self.version >= version
    }

    /// Moves to a newer version of the membership by taking `members`,
    /// the sender's array, whatever this replica held before; the log
    /// records a diff of the two runs. Older or equal versions are
    /// ignored (idempotent, out-of-order safe). Returns true when
    /// applied.
    pub fn sync_to(&mut self, version: u64, members: Membership) -> bool {
        if version <= self.version {
            return false;
        }
        let change = Change::between(&self.members, &members, version - self.version - 1);
        self.members = Membership {
            head: members.head | SERIALIZED,
            ..members
        };
        self.commit(version, change);
        true
    }

    /// Logs how the current membership got to `version`.
    fn commit(&mut self, version: u64, change: Change) {
        debug_assert_eq!(version, self.version + change.span());
        self.version = version;
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
        assert!(same(&c.members_at(2).unwrap(), c.members()));
        assert_eq!(c.members_at(1), Some(first));
    }

    /// Both values hold one array.
    fn same(a: &Membership, b: &Membership) -> bool {
        a.as_ptr() == b.as_ptr()
    }

    #[test]
    fn a_write_shifts_in_place_unless_a_clone_holds_the_array() {
        let mut c = CollectionState::new();
        for id in [1, 3, 5] {
            c.add(e(id, 0));
        }
        let at = c.members().array_ptr();
        assert!(c.remove(ObjectId(3)));
        assert_eq!(c.members().array_ptr(), at, "a removal always fits");
        assert!(c.add(e(4, 0)));
        assert_eq!(c.members().array_ptr(), at, "so does an add after it");
        let held = c.members().clone();
        assert!(c.remove(ObjectId(1)));
        assert_ne!(c.members().array_ptr(), at, "a held array is copied");
        assert_eq!(held[..], [e(1, 0), e(4, 0), e(5, 0)]);
        assert_eq!(c.members()[..], [e(4, 0), e(5, 0)]);
        drop(held);
        let at = c.members().array_ptr();
        assert!(c.remove(ObjectId(4)) && c.add(e(0, 0)));
        assert_eq!(c.members().array_ptr(), at);
        assert_eq!(c.members()[..], [e(0, 0), e(5, 0)]);
    }

    #[test]
    fn membership_constructors_sort_and_dedup() {
        let m = Membership::from(vec![e(3, 0), e(1, 1), e(3, 0), e(1, 0)]);
        assert_eq!(m[..], [e(1, 0), e(1, 1), e(3, 0)]);
        assert_eq!(format!("{m:?}"), format!("{:?}", &m[..]));
        assert!(m.contains(ObjectId(1)) && !m.contains(ObjectId(2)));
        // Equal runs: the same array comes back.
        assert!(same(&m, &m.union(&m.to_vec().into())));
        // The empty membership holds no allocation to share.
        let empty: Membership = Vec::new().into();
        assert_eq!(empty.holders(), 0);
        assert!(same(&m, &m.union(&empty)));
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
