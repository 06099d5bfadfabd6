//! Merkle-range reconciliation over a replica's live-dot space.
//!
//! The classic digest-then-delta exchange ships the sender's **full
//! live-dot list** with every delta (that is how removals propagate),
//! which is `O(n)` bytes per round — fine for toy sets, fatal at 10^6
//! elements. This module locates the *symmetric difference* between two
//! replicas' live-dot sets instead, by descending an implicit Merkle
//! tree over a hashed 64-bit key space:
//!
//! 1. each live dot is mapped to a key by `dot_key` (a splitmix64-style
//!    mix, so keys spread uniformly no matter how dots cluster);
//! 2. a [`RangeTree`] summarizes any aligned key range as `(count, XOR
//!    of per-dot hashes)` — an order-independent fingerprint computable
//!    in `O(log n)` from a sorted array plus prefix-XOR table, no actual
//!    tree allocation;
//! 3. the initiator sends summaries of its frontier ranges; the peer
//!    [`RangeTree::respond`]s per range — `Match` (identical, prune),
//!    `Split` (mismatch on a populous range: here are my child
//!    summaries, descend), or `Leaf` (mismatch on a small range: here
//!    are my entries, reconcile directly);
//! 4. after a few rounds every mismatch has bottomed out in leaves, and
//!    the two replicas exchange [`weakset_store::wire::DeltaBatch`]es
//!    containing only the differing entries plus drop lists.
//!
//! With branching factor `2^SPLIT_BITS = 16` and `LEAF_LIMIT = 16`, a
//! `k`-dot divergence of an `n`-dot set costs `O(k · log n)` summary
//! bytes over `O(log n / log 16)` round trips — the whole exchange is
//! proportional to the difference, not the set.
//!
//! Removals need care: a dot present in my tree but absent from the
//! peer's leaves is *either* removed at the peer *or* never seen there.
//! The peer's version vector disambiguates exactly as in the optimized
//! OR-Set join — covered means removed, uncovered means novel — which is
//! why every range response carries the replier's digest.

use weakset_store::dotted::{Dot, DottedEntry, VersionVector};
use weakset_store::wire::{RangeKey, RangeReply, RangeSummary};

/// Dots per mismatched range below which the range is enumerated
/// outright (a [`RangeReply::Leaf`]) instead of split further.
pub const LEAF_LIMIT: usize = 16;

/// Bits added per descent level: each split fans a range into
/// `2^SPLIT_BITS` children.
pub const SPLIT_BITS: u8 = 4;

/// 64-bit finalizer (splitmix64): bijective, avalanching. Used both to
/// key dots into the range space and to fingerprint them.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Where `dot` lives in the 64-bit reconciliation key space. Mixing the
/// replica id before folding in the counter keeps consecutive counters
/// from the same replica uniformly spread.
fn dot_key(dot: Dot) -> u64 {
    mix64(mix64(dot.replica.0 as u64) ^ dot.counter)
}

/// The per-dot fingerprint XORed into range summaries. Derived from the
/// key by a second mix so a summary cannot be forged by key arithmetic.
fn dot_hash(dot: Dot) -> u64 {
    mix64(dot_key(dot) ^ 0xa076_1d64_78bd_642f)
}

/// A queryable snapshot of one replica's live-dot set: entries sorted by
/// `dot_key`, with a prefix-XOR table so any contiguous span's
/// fingerprint costs two lookups. Both sides of an exchange use the same
/// structure (the initiator to pick frontiers and diff leaves, the
/// responder inside [`RangeTree::respond`]).
///
/// Building one sorts the whole set, so a replica builds one tree per
/// *state of its live dots*, not per reconciliation and never per probe:
/// `MembershipCrdt::range_tree` hands out shares of a tree the set keeps
/// beside its entries, and the set's own mutators (`add`, `remove`,
/// `apply`, `apply_batch`) drop it when — and only when — they change a
/// live dot. A tree in hand is an immutable value; it goes stale, it
/// never changes.
#[derive(Clone, Debug)]
pub struct RangeTree {
    /// `(key, entry)` sorted by key, ties broken by dot.
    keyed: Vec<(u64, DottedEntry)>,
    /// `xor[i]` = XOR of the first `i` entries' hashes.
    xor: Vec<u64>,
}

impl Default for RangeTree {
    fn default() -> Self {
        RangeTree::from_entries(Vec::new())
    }
}

impl RangeTree {
    /// Builds the tree from a replica's live entries (any order).
    pub fn from_entries(entries: Vec<DottedEntry>) -> Self {
        let mut keyed: Vec<(u64, DottedEntry)> =
            entries.into_iter().map(|e| (dot_key(e.dot), e)).collect();
        keyed.sort_unstable_by_key(|&(k, e)| (k, e.dot));
        let mut xor = Vec::with_capacity(keyed.len() + 1);
        let mut acc = 0u64;
        xor.push(acc);
        for &(_, e) in &keyed {
            acc ^= dot_hash(e.dot);
            xor.push(acc);
        }
        RangeTree { keyed, xor }
    }

    /// Total live dots in the tree.
    pub fn len(&self) -> usize {
        self.keyed.len()
    }

    /// True when the tree holds no dots.
    pub fn is_empty(&self) -> bool {
        self.keyed.is_empty()
    }

    /// Index range `[lo, hi)` of entries whose keys fall in `key`.
    fn span(&self, key: RangeKey) -> (usize, usize) {
        let lo = self.keyed.partition_point(|&(k, _)| k < key.lo());
        let hi = self.keyed.partition_point(|&(k, _)| k <= key.hi());
        (lo, hi)
    }

    /// The `(count, hash)` summary of one range.
    pub fn summary(&self, key: RangeKey) -> RangeSummary {
        let (lo, hi) = self.span(key);
        RangeSummary {
            key,
            count: (hi - lo) as u64,
            hash: self.xor[hi] ^ self.xor[lo],
        }
    }

    /// The live entries whose keys fall in `key`.
    fn entries_in(&self, key: RangeKey) -> Vec<DottedEntry> {
        let (lo, hi) = self.span(key);
        self.keyed[lo..hi].iter().map(|&(_, e)| e).collect()
    }

    /// Summaries of `key`'s `2^SPLIT_BITS` children (only the occupied
    /// and queried structure matters; empty children summarize to
    /// `(0, 0)` and cost a few bytes each).
    pub fn children(&self, key: RangeKey) -> Vec<RangeSummary> {
        key.split(SPLIT_BITS)
            .into_iter()
            .map(|child| self.summary(child))
            .collect()
    }

    /// True when a mismatched `summary`-sized range should be enumerated
    /// rather than descended: small on either side, or unsplittable.
    fn should_enumerate(&self, key: RangeKey, peer_count: u64) -> bool {
        let (lo, hi) = self.span(key);
        let mine = hi - lo;
        mine <= LEAF_LIMIT || peer_count <= LEAF_LIMIT as u64 || key.depth > 64 - SPLIT_BITS
    }

    /// Answers one round of a peer's range probe: for each summary the
    /// peer sent, `Match` when our fingerprint agrees, `Leaf` with our
    /// entries when the mismatched range is small (on either side — the
    /// peer's count rides in its summary), `Split` with child summaries
    /// otherwise.
    pub fn respond(&self, probes: &[RangeSummary]) -> Vec<RangeReply> {
        probes
            .iter()
            .map(|probe| {
                let mine = self.summary(probe.key);
                if mine.count == probe.count && mine.hash == probe.hash {
                    RangeReply::Match(probe.key)
                } else if self.should_enumerate(probe.key, probe.count) {
                    RangeReply::Leaf {
                        key: probe.key,
                        entries: self.entries_in(probe.key),
                    }
                } else {
                    RangeReply::Split(self.children(probe.key))
                }
            })
            .collect()
    }
}

/// What one side of a reconciliation learned from a finished descent:
/// the leaf-level view of every mismatched range, split into the peer's
/// entries we lack and our entries the peer lacks. Interpretation
/// (novel add vs removal) belongs to the caller, which has the digests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RangeDiff {
    /// Entries the peer holds live in mismatched leaves that we do not.
    pub peer_only: Vec<DottedEntry>,
    /// Entries we hold live in mismatched leaves that the peer does not.
    pub mine_only: Vec<DottedEntry>,
}

/// Folds one leaf reply into a [`RangeDiff`], comparing the peer's
/// enumerated entries against `ours` for the same range.
pub fn diff_leaf(
    ours: &RangeTree,
    key: RangeKey,
    peer_entries: &[DottedEntry],
    out: &mut RangeDiff,
) {
    let mine = ours.entries_in(key);
    let mine_dots: std::collections::BTreeSet<Dot> = mine.iter().map(|e| e.dot).collect();
    let peer_dots: std::collections::BTreeSet<Dot> = peer_entries.iter().map(|e| e.dot).collect();
    out.peer_only
        .extend(peer_entries.iter().filter(|e| !mine_dots.contains(&e.dot)));
    out.mine_only
        .extend(mine.iter().filter(|e| !peer_dots.contains(&e.dot)));
}

/// Classifies a one-sided entry after the descent: `true` means the dot
/// was *removed* at the side whose digest is given (it observed the dot
/// yet no longer lists it live); `false` means that side simply has not
/// seen the add yet.
pub fn removed_at(digest: &VersionVector, dot: Dot) -> bool {
    digest.contains(dot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::node::NodeId;
    use weakset_store::collection::MemberEntry;
    use weakset_store::object::ObjectId;

    fn entry(r: u32, c: u64) -> DottedEntry {
        DottedEntry {
            dot: Dot {
                replica: NodeId(r),
                counter: c,
            },
            entry: MemberEntry {
                elem: ObjectId(c),
                home: NodeId(r),
            },
        }
    }

    fn tree(n: u64) -> RangeTree {
        RangeTree::from_entries((1..=n).map(|c| entry(1, c)).collect())
    }

    #[test]
    fn keys_spread_uniformly() {
        // 4096 consecutive dots from one replica land in all 16 top-level
        // buckets with no bucket grossly over-full.
        let t = tree(4096);
        let kids = t.children(RangeKey::ROOT);
        assert_eq!(kids.len(), 16);
        for k in &kids {
            assert!(k.count > 128 && k.count < 384, "bucket count {}", k.count);
        }
        assert_eq!(kids.iter().map(|k| k.count).sum::<u64>(), 4096);
        // XOR of child hashes is the root hash.
        let root = t.summary(RangeKey::ROOT);
        assert_eq!(root.hash, kids.iter().fold(0, |a, k| a ^ k.hash));
    }

    #[test]
    fn identical_trees_match_at_the_root() {
        let a = tree(1000);
        let b = tree(1000);
        let replies = b.respond(&[a.summary(RangeKey::ROOT)]);
        assert_eq!(replies, vec![RangeReply::Match(RangeKey::ROOT)]);
    }

    #[test]
    fn descent_finds_exactly_the_symmetric_difference() {
        let n = 2000u64;
        let a_entries: Vec<DottedEntry> = (1..=n).map(|c| entry(1, c)).collect();
        // b lacks 3 of a's entries and has 2 of its own.
        let b_entries: Vec<DottedEntry> = a_entries
            .iter()
            .filter(|e| ![17, 900, 1999].contains(&e.dot.counter))
            .copied()
            .chain([entry(2, 1), entry(2, 2)])
            .collect();
        let a = RangeTree::from_entries(a_entries);
        let b = RangeTree::from_entries(b_entries);

        // Drive the descent from a's side.
        let mut diff = RangeDiff::default();
        let mut frontier = vec![a.summary(RangeKey::ROOT)];
        let mut rounds = 0;
        while !frontier.is_empty() {
            rounds += 1;
            assert!(rounds < 20, "descent must terminate");
            let mut next = Vec::new();
            for reply in b.respond(&frontier) {
                match reply {
                    RangeReply::Match(_) => {}
                    RangeReply::Leaf { key, entries } => diff_leaf(&a, key, &entries, &mut diff),
                    RangeReply::Split(children) => {
                        for child in children {
                            let mine = a.summary(child.key);
                            if mine.count != child.count || mine.hash != child.hash {
                                next.push(mine);
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
        let mut missing_at_b: Vec<u64> = diff.mine_only.iter().map(|e| e.dot.counter).collect();
        missing_at_b.sort_unstable();
        let missing_at_a: Vec<Dot> = diff.peer_only.iter().map(|e| e.dot).collect();
        assert_eq!(missing_at_b, vec![17, 900, 1999]);
        assert_eq!(missing_at_a.len(), 2);
        assert!(missing_at_a.iter().all(|d| d.replica == NodeId(2)));
    }

    #[test]
    fn tiny_mismatches_leaf_immediately() {
        let a = RangeTree::from_entries(vec![entry(1, 1)]);
        let b = RangeTree::from_entries(vec![entry(1, 1), entry(1, 2)]);
        let replies = b.respond(&[a.summary(RangeKey::ROOT)]);
        match &replies[0] {
            RangeReply::Leaf { entries, .. } => assert_eq!(entries.len(), 2),
            other => panic!("expected Leaf, got {other:?}"),
        }
    }

    #[test]
    fn empty_trees_are_cheap() {
        let a = RangeTree::default();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        let s = a.summary(RangeKey::ROOT);
        assert_eq!((s.count, s.hash), (0, 0));
        let b = tree(5);
        match &b.respond(&[s])[0] {
            RangeReply::Leaf { entries, .. } => assert_eq!(entries.len(), 5),
            other => panic!("expected Leaf, got {other:?}"),
        }
    }

    #[test]
    fn removed_at_reads_the_digest() {
        let mut vv = VersionVector::new();
        let seen = vv.advance(NodeId(1));
        assert!(removed_at(&vv, seen));
        assert!(!removed_at(
            &vv,
            Dot {
                replica: NodeId(1),
                counter: 2
            }
        ));
    }
}
