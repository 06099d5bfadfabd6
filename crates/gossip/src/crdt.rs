//! The delta-state CRDT for weak-set membership.
//!
//! One [`MembershipCrdt`] serves both of the paper's membership figures;
//! the [`GossipSemantics`] it is built with says which:
//!
//! * [`GossipSemantics::GrowOnly`] — a grow-only set (Figure 5). The join
//!   is set union, so along any replica's timeline and across any
//!   exchange `s_i ⊆ s_j` for `i ≤ j`: exactly the monotonicity Fig. 5's
//!   `ensures` clause demands.
//! * [`GossipSemantics::GrowShrink`] — an observed-remove set (Figure 6)
//!   in the *optimized* formulation: live entries tagged with dots plus a
//!   version vector of every dot ever observed. A removal deletes the
//!   observed dots of an element; a concurrent re-add mints a fresh dot,
//!   so adds win over concurrent removes and membership still converges.
//!
//! [`MembershipCrdt::delta_since`] produces a [`MembershipDelta`] against
//! a peer's digest so that only entries the peer has not observed cross
//! the wire, and [`MembershipCrdt::apply`] joins a delta into local
//! state. Joins are commutative, associative, and idempotent
//! (property-tested in this crate), which is what makes anti-entropy
//! order-insensitive.

use crate::reconcile::RangeTree;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};
use weakset_sim::node::NodeId;
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::dotted::{Dot, DottedEntry, MembershipDelta, VersionVector};
use weakset_store::object::ObjectId;
use weakset_store::wire::DeltaBatch;

/// A set's [`RangeTree`] over its live dots: built the first time a
/// reconciliation asks for it, then shared until a mutator changes
/// `entries` — every mutator that does calls [`TreeCache::invalidate`].
/// Derived state, not part of the set's value: it never makes two sets
/// unequal and prints only whether it is built.
#[derive(Clone, Default)]
struct TreeCache(OnceLock<Arc<RangeTree>>);

impl TreeCache {
    fn get_or_build(&self, entries: &BTreeMap<Dot, MemberEntry>) -> Arc<RangeTree> {
        let build = || Arc::new(RangeTree::from_entries(dotted(entries)));
        Arc::clone(self.0.get_or_init(build))
    }

    fn invalidate(&mut self) {
        self.0.take();
    }
}

impl PartialEq for TreeCache {
    fn eq(&self, _: &TreeCache) -> bool {
        true
    }
}

impl fmt::Debug for TreeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TreeCache(built: {})", self.0.get().is_some())
    }
}

/// Every live entry with its dot, in dot order.
fn dotted(entries: &BTreeMap<Dot, MemberEntry>) -> Vec<DottedEntry> {
    entries
        .iter()
        .map(|(&dot, &entry)| DottedEntry { dot, entry })
        .collect()
}

/// Which of the paper's two membership specifications a replica enforces.
/// The two figures share one `ensures` shape and differ in one constraint
/// clause, so they share one [`MembershipCrdt`] and differ in one column:
/// whether removals take effect and travel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GossipSemantics {
    /// Figure 5: `s_i ⊆ s_j` — the membership only grows. Removals are
    /// ignored at the CRDT layer and the join is set union.
    GrowOnly,
    /// Figure 6: no constraint — members come and go, with
    /// observed-remove semantics.
    #[default]
    GrowShrink,
}

impl GossipSemantics {
    /// True when removals take effect and travel. Everything that tells a
    /// removed dot from an unseen one — removal dots, a delta's live
    /// list, the drop half of a join, the no-resurrection check — exists
    /// only under this column.
    fn shrinks(self) -> bool {
        self == GossipSemantics::GrowShrink
    }
}

/// One collection's CRDT replica: `entries` holds the *live* dots, `vv`
/// every dot ever observed. Under [`GossipSemantics::GrowShrink`] this is
/// the optimized OR-Set — a dot covered by `vv` but absent from `entries`
/// has been removed, and because the vector remembers it, a late-arriving
/// copy of the add cannot resurrect it. Under
/// [`GossipSemantics::GrowOnly`] nothing is ever removed, the dot tags
/// exist purely so digests can compress exchanges, and the join is a
/// plain G-Set union.
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipCrdt {
    semantics: GossipSemantics,
    entries: BTreeMap<Dot, MemberEntry>,
    vv: VersionVector,
    tree: TreeCache,
}

impl MembershipCrdt {
    /// An empty replica with the given semantics.
    pub fn new(semantics: GossipSemantics) -> Self {
        MembershipCrdt {
            semantics,
            entries: BTreeMap::new(),
            vv: VersionVector::new(),
            tree: TreeCache::default(),
        }
    }

    /// The semantics this replica enforces.
    pub fn semantics(&self) -> GossipSemantics {
        self.semantics
    }

    /// Adds `entry` as a mutation of `replica`, returning the new dot.
    /// Re-adding a removed element mints a fresh dot, which is how adds
    /// win over concurrent removes.
    pub fn add(&mut self, replica: NodeId, entry: MemberEntry) -> Dot {
        let dot = self.vv.advance(replica);
        self.entries.insert(dot, entry);
        self.tree.invalidate();
        dot
    }

    /// Removes every *observed* dot carrying `elem`, returning how many
    /// were removed. Dots this replica has not yet seen are unaffected
    /// (observed-remove semantics). The removed dots stay covered by the
    /// version vector, which is precisely what prevents resurrection.
    /// Grow-only replicas ignore the request (Fig. 5 has no removal
    /// transition) and report 0.
    ///
    /// An effective removal additionally mints one *removal dot* for
    /// `replica`: a vector advance with no live entry. It records the
    /// remove event in the digest, so (a) digest dominance implies state
    /// dominance — a peer whose digest covers ours needs nothing from us
    /// even after removals — and (b) the digest total counts every
    /// effective mutation, aligning it with the primary's versioned log.
    pub fn remove(&mut self, replica: NodeId, elem: ObjectId) -> usize {
        if !self.semantics.shrinks() {
            return 0;
        }
        let before = self.entries.len();
        self.entries.retain(|_, e| e.elem != elem);
        let killed = before - self.entries.len();
        if killed > 0 {
            self.vv.advance(replica);
            self.tree.invalidate();
        }
        killed
    }

    /// The current membership (live dots deduplicated to values), sorted.
    pub fn elements(&self) -> Membership {
        self.entries.values().copied().collect()
    }

    /// True when some live entry has this element id.
    pub fn contains(&self, elem: ObjectId) -> bool {
        self.entries.values().any(|e| e.elem == elem)
    }

    /// The digest — every dot this replica has observed, live or removed:
    /// a share of the replica's vector, not a copy, so reading it is
    /// cheap.
    pub fn digest(&self) -> VersionVector {
        self.vv.clone()
    }

    /// True when a peer holding `digest` could learn nothing from us:
    /// the digest dominates ours. Sound under both semantics because
    /// every effective mutation — removals included, via their removal
    /// dots — advances the version vector.
    pub fn nothing_for(&self, digest: &VersionVector) -> bool {
        digest.dominates(&self.vv)
    }

    /// The delta a peer with `digest` is missing: entry payloads only for
    /// dots the digest does not cover, plus this replica's full vector
    /// and — when the set shrinks — its live-dot list, so the peer can
    /// detect removals (a dot it holds that `vv` covers but `live` omits
    /// was removed here). A set that never removes leaves `live` empty:
    /// it carries nothing the entries themselves do not.
    pub fn delta_since(&self, digest: &VersionVector) -> MembershipDelta {
        MembershipDelta {
            vv: self.vv.clone(),
            novel: self
                .entries
                .iter()
                .filter(|(&dot, _)| !digest.contains(dot))
                .map(|(&dot, &entry)| DottedEntry { dot, entry })
                .collect(),
            live: if self.semantics.shrinks() {
                self.entries.keys().copied().collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Joins a delta into this set:
    ///
    /// * a novel entry is adopted (see `adopt`);
    /// * when the set shrinks, a local live dot is dropped if the sender
    ///   has observed it but no longer lists it live (the sender removed
    ///   it);
    /// * vectors join pointwise.
    pub fn apply(&mut self, delta: &MembershipDelta) {
        let mut changed = self.adopt(&delta.novel);
        if self.semantics.shrinks() {
            let before = self.entries.len();
            let sender_live: BTreeSet<Dot> = delta.live.iter().copied().collect();
            self.entries
                .retain(|&dot, _| !delta.vv.contains(dot) || sender_live.contains(&dot));
            changed |= self.entries.len() != before;
        }
        self.finish_join(changed, &delta.vv);
    }

    /// Joins a Merkle-range [`DeltaBatch`] into this set. The same rules
    /// as [`MembershipCrdt::apply`], but against an explicit drop list
    /// instead of a full live list: a dropped dot is deleted only when
    /// the sender's vector covers it (the sender *observed* the add and
    /// still says it is gone). A set that never removes ignores `drop`.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) {
        let mut changed = self.adopt(&batch.novel);
        if self.semantics.shrinks() {
            for &dot in &batch.drop {
                if batch.vv.contains(dot) {
                    changed |= self.entries.remove(&dot).is_some();
                }
            }
        }
        self.finish_join(changed, &batch.vv);
    }

    /// Inserts the novel entries; true when the live dots changed. A set
    /// that shrinks skips the dots its vector already covers (covered and
    /// absent locally means removed here: no resurrection); a set that
    /// never removes has nothing to resurrect and takes them all.
    fn adopt(&mut self, novel: &[DottedEntry]) -> bool {
        let mut changed = false;
        for de in novel {
            if self.semantics.shrinks() && self.vv.contains(de.dot) {
                continue;
            }
            changed |= self.entries.insert(de.dot, de.entry) != Some(de.entry);
        }
        changed
    }

    /// The tail of both joins — the one place a join invalidates the
    /// tree: forget it if the live dots `changed`, then join the vectors.
    fn finish_join(&mut self, changed: bool, sender_vv: &VersionVector) {
        if changed {
            self.tree.invalidate();
        }
        self.vv.join(sender_vv);
    }

    /// Full-state join with another replica's set.
    pub fn merge(&mut self, other: &MembershipCrdt) {
        self.apply(&other.delta_since(&VersionVector::new()));
    }

    /// Every live entry with its dot, in dot order — the input to a
    /// Merkle-range reconciliation tree.
    pub fn dotted_entries(&self) -> Vec<DottedEntry> {
        dotted(&self.entries)
    }

    /// The replica's [`RangeTree`] over its live dots, for answering or
    /// driving a Merkle-range descent. Built at most once per state of
    /// the live dots and shared by every descent that finds them
    /// unchanged.
    pub fn range_tree(&self) -> Arc<RangeTree> {
        self.tree.get_or_build(&self.entries)
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

    fn grow_only() -> MembershipCrdt {
        MembershipCrdt::new(GossipSemantics::GrowOnly)
    }

    fn grow_shrink() -> MembershipCrdt {
        MembershipCrdt::new(GossipSemantics::GrowShrink)
    }

    #[test]
    fn grow_only_grows_and_merges_by_union() {
        let mut a = grow_only();
        let mut b = grow_only();
        a.add(n(1), e(1));
        b.add(n(2), e(2));
        let snapshot = a.elements();
        a.merge(&b);
        b.merge(&a);
        assert_eq!(a.elements(), b.elements());
        assert_eq!(a.elements().len(), 2);
        assert_eq!(
            snapshot.union(&a.elements()),
            a.elements(),
            "Fig. 5: the set only grows"
        );
        assert!(a.contains(ObjectId(2)));
        assert_eq!(a.dotted_entries().len(), 2);
    }

    #[test]
    fn grow_only_delta_ships_only_uncovered_dots() {
        let mut a = grow_only();
        a.add(n(1), e(1));
        a.add(n(1), e(2));
        let mut b = grow_only();
        b.apply(&a.delta_since(&b.digest()));
        assert_eq!(b.elements(), a.elements());
        // Nothing new: the next delta is empty.
        let d = a.delta_since(&b.digest());
        assert!(d.novel.is_empty());
        // Applying an old delta again changes nothing (idempotent).
        let again = a.delta_since(&VersionVector::new());
        b.apply(&again);
        assert_eq!(b.elements(), a.elements());
    }

    #[test]
    fn grow_shrink_remove_deletes_observed_dots_only() {
        let mut a = grow_shrink();
        let mut b = grow_shrink();
        a.add(n(1), e(7));
        // b adds the same element concurrently under its own dot.
        b.add(n(2), e(7));
        // a removes what it observed: its own dot only.
        assert_eq!(a.remove(n(1), ObjectId(7)), 1);
        assert!(!a.contains(ObjectId(7)));
        // After exchanging, b's concurrent add survives: add wins.
        a.merge(&b);
        b.merge(&a);
        assert!(a.contains(ObjectId(7)));
        assert_eq!(a.elements(), b.elements());
        // Removing a non-member mints no removal dot.
        let digest = a.digest();
        assert_eq!(a.remove(n(1), ObjectId(99)), 0);
        assert_eq!(a.digest(), digest);
    }

    #[test]
    fn grow_shrink_removal_propagates_without_resurrection() {
        let mut a = grow_shrink();
        let mut b = grow_shrink();
        a.add(n(1), e(3));
        b.merge(&a);
        assert!(b.contains(ObjectId(3)));
        // b removes after observing; the removal reaches a via the
        // (vv, live) half of the delta even though no entries ship.
        b.remove(n(2), ObjectId(3));
        let d = b.delta_since(&a.digest());
        assert!(d.novel.is_empty());
        a.apply(&d);
        assert!(!a.contains(ObjectId(3)));
        // A stale full-state delta from before the removal cannot
        // resurrect the element: the dot is already observed.
        let mut stale = grow_shrink();
        stale.add(n(1), e(3)); // same replica id/counter as a's original dot
        a.apply(&stale.delta_since(&VersionVector::new()));
        assert!(!a.contains(ObjectId(3)));
    }

    #[test]
    fn grow_shrink_readd_after_remove_is_a_fresh_dot() {
        let mut a = grow_shrink();
        a.add(n(1), e(5));
        a.remove(n(1), ObjectId(5)); // counter 2: the removal dot
        let dot = a.add(n(1), e(5));
        assert_eq!(dot.counter, 3);
        assert!(a.contains(ObjectId(5)));
        let mut b = grow_shrink();
        b.merge(&a);
        assert!(b.contains(ObjectId(5)));
        assert_eq!(b.dotted_entries().len(), 1);
    }

    #[test]
    fn merge_is_commutative_on_a_small_divergence() {
        let mut a = grow_shrink();
        let mut b = grow_shrink();
        a.add(n(1), e(1));
        a.add(n(1), e(2));
        a.remove(n(1), ObjectId(1));
        b.add(n(2), e(1));
        b.add(n(2), e(9));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.elements(), ba.elements());
        assert_eq!(ab.digest(), ba.digest());
    }
}
