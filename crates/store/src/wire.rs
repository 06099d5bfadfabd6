//! Compact wire encoding for anti-entropy metadata: varints, dot lists
//! with per-replica dedup, and the Merkle-range reconciliation messages.
//!
//! The simulator never serializes messages to real bytes — they travel
//! as Rust values — but the *accounting* must still be honest: gossip
//! charges `gossip.digest_bytes` / `gossip.delta_bytes` with the size
//! each payload would occupy in the canonical encoding defined here.
//!
//! The encoding:
//!
//! * integers are LEB128 varints ([`varint_len`]);
//! * a dot list is grouped by replica — the `NodeId` is written once per
//!   group, followed by the group's counters delta-encoded in ascending
//!   order (`dots_encoded_size`) — so a million dots minted by a
//!   handful of replicas cost about one varint each, not 16 bytes;
//! * a version vector is its `(replica, counter)` pairs as varints
//!   ([`vv_encoded_size`]);
//! * a member entry payload is its element id and home node as varints.
//!
//! The same rules size both the classic [`MembershipDelta`] exchange and
//! the [`DeltaBatch`] / range-digest messages used by
//! `weakset-gossip`'s `DigestMode::MerkleRange` reconciliation.

use crate::dotted::{Dot, DottedEntry, MembershipDelta, VersionVector};
use std::collections::BTreeMap;
use weakset_sim::node::NodeId;

/// Bytes a LEB128 varint of `v` occupies (1–10).
pub fn varint_len(v: u64) -> usize {
    ((64 - v.max(1).leading_zeros()) as usize).div_ceil(7)
}

/// Encoded size of a version vector: a length varint plus one
/// `(replica, counter)` varint pair per slot.
pub fn vv_encoded_size(vv: &VersionVector) -> usize {
    varint_len(vv.len() as u64)
        + vv.iter()
            .map(|(r, n)| varint_len(r.0 as u64) + varint_len(n))
            .sum::<usize>()
}

/// Encoded size of a dot list, grouped by replica and delta-encoded:
/// per group one replica varint, one count varint, then each counter as
/// a varint of its distance from the previous counter in the group.
///
/// Dot lists nearly always arrive in dot order (they are read off ordered
/// maps), where the groups are runs and one pass sizes them; a list that
/// turns out not to be ascending is grouped first.
fn dots_encoded_size<I>(dots: I) -> usize
where
    I: IntoIterator<Item = Dot>,
    I::IntoIter: Clone,
{
    let dots = dots.into_iter();
    let (mut groups, mut size) = (0u64, 0usize);
    // The open run: its last dot and how many it holds.
    let mut run: Option<(Dot, u64)> = None;
    for d in dots.clone() {
        match run {
            Some((prev, n)) if prev.replica == d.replica && prev.counter <= d.counter => {
                size += varint_len(d.counter - prev.counter);
                run = Some((d, n + 1));
            }
            Some((prev, _)) if prev > d => return dots_grouped_size(dots),
            _ => {
                size += run.map_or(0, |(_, n)| varint_len(n));
                size += varint_len(d.replica.0 as u64) + varint_len(d.counter);
                groups += 1;
                run = Some((d, 1));
            }
        }
    }
    varint_len(groups) + size + run.map_or(0, |(_, n)| varint_len(n))
}

/// `dots_encoded_size` for a list in any order: the encoding's
/// definition, group by group.
fn dots_grouped_size(dots: impl Iterator<Item = Dot>) -> usize {
    let mut groups: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
    for d in dots {
        groups.entry(d.replica).or_default().push(d.counter);
    }
    let mut size = varint_len(groups.len() as u64);
    for (replica, mut counters) in groups {
        counters.sort_unstable();
        size += varint_len(replica.0 as u64) + varint_len(counters.len() as u64);
        let mut prev = 0u64;
        for c in counters {
            size += varint_len(c - prev);
            prev = c;
        }
    }
    size
}

/// Encoded size of a dotted-entry list: the dots as a deduped list plus
/// each entry's element id and home node.
fn entries_encoded_size(entries: &[DottedEntry]) -> usize {
    dots_encoded_size(entries.iter().map(|e| e.dot))
        + entries
            .iter()
            .map(|e| varint_len(e.entry.elem.0) + varint_len(e.entry.home.0 as u64))
            .sum::<usize>()
}

/// Encoded size of a full digest-then-delta payload: the sender's
/// vector, the novel entries, and the live-dot list.
pub fn delta_encoded_size(delta: &MembershipDelta) -> usize {
    vv_encoded_size(&delta.vv)
        + entries_encoded_size(&delta.novel)
        + dots_encoded_size(delta.live.iter().copied())
}

/// One aligned range of the 64-bit dot-key space: the keys whose top
/// `depth` bits equal `prefix`'s. Depth 0 is the whole space; each
/// level of the reconciliation tree extends the prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RangeKey {
    /// The shared key prefix, left-aligned (low bits are zero).
    pub prefix: u64,
    /// How many leading bits of `prefix` are significant (0–64).
    pub depth: u8,
}

impl RangeKey {
    /// The whole key space.
    pub const ROOT: RangeKey = RangeKey {
        prefix: 0,
        depth: 0,
    };

    /// First key in the range.
    pub fn lo(&self) -> u64 {
        self.prefix
    }

    /// Last key in the range (inclusive — the range `[lo, hi]` cannot
    /// overflow the way a half-open bound at `u64::MAX` would).
    pub fn hi(&self) -> u64 {
        if self.depth >= 64 {
            self.prefix
        } else {
            self.prefix | (u64::MAX >> self.depth)
        }
    }

    /// True when `key` falls inside the range.
    pub fn contains(&self, key: u64) -> bool {
        self.lo() <= key && key <= self.hi()
    }

    /// The `2^bits` aligned subranges at `depth + bits`. Empty when the
    /// split would exceed 64 bits of depth.
    pub fn split(&self, bits: u8) -> Vec<RangeKey> {
        let depth = self.depth.saturating_add(bits);
        if depth > 64 {
            return Vec::new();
        }
        let step = if depth == 64 { 1 } else { 1u64 << (64 - depth) };
        (0..(1u64 << bits))
            .map(|i| RangeKey {
                prefix: self.prefix + i * step,
                depth,
            })
            .collect()
    }

    /// Encoded size: prefix plus depth varints.
    pub fn encoded_size(&self) -> usize {
        varint_len(self.prefix) + varint_len(self.depth as u64)
    }
}

/// A fingerprint of one range of a replica's live-dot set: the dot
/// count plus an order-independent XOR hash. Two replicas whose
/// summaries agree hold identical live dots in the range (up to hash
/// collision); a mismatch is descended, not shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeSummary {
    /// The range summarized.
    pub key: RangeKey,
    /// Live dots in the range.
    pub count: u64,
    /// XOR of the per-dot hashes in the range.
    pub hash: u64,
}

impl RangeSummary {
    /// Encoded size: the range key, count, and hash.
    pub fn encoded_size(&self) -> usize {
        self.key.encoded_size() + varint_len(self.count) + 8
    }
}

/// A replica's answer for one queried range of a
/// [`crate::msg::StoreMsg::GossipRangeReq`].
#[derive(Clone, Debug, PartialEq)]
pub enum RangeReply {
    /// The replica's summary matches the requester's: identical
    /// subtrees, nothing to do.
    Match(RangeKey),
    /// Mismatch on a populous range: the replica's summaries for the
    /// range's subranges, for the requester to descend.
    Split(Vec<RangeSummary>),
    /// Mismatch on a small range: the replica's live entries in it,
    /// dots and member payloads both (so the requester can adopt
    /// missing adds without another round trip).
    Leaf {
        /// The range enumerated.
        key: RangeKey,
        /// Every live entry the replica holds in the range.
        entries: Vec<DottedEntry>,
    },
}

impl RangeReply {
    /// Encoded size of the reply (a one-byte tag plus the payload).
    pub fn encoded_size(&self) -> usize {
        1 + match self {
            RangeReply::Match(key) => key.encoded_size(),
            RangeReply::Split(children) => {
                varint_len(children.len() as u64)
                    + children
                        .iter()
                        .map(RangeSummary::encoded_size)
                        .sum::<usize>()
            }
            RangeReply::Leaf { key, entries } => key.encoded_size() + entries_encoded_size(entries),
        }
    }
}

/// The final leg of a Merkle-range reconciliation: everything one side
/// learned the other is missing, compressed. Unlike a
/// [`MembershipDelta`] it never carries the full live-dot list — only
/// the entries to adopt and the dots to drop, each proportional to the
/// symmetric difference the descent located.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaBatch {
    /// The sender's full version vector (the receiver joins it; it also
    /// certifies every dot in `drop` as observed by the sender).
    pub vv: VersionVector,
    /// Entries live at the sender that the receiver was missing.
    pub novel: Vec<DottedEntry>,
    /// Dots live at the receiver that the sender observed and removed.
    pub drop: Vec<Dot>,
}

impl DeltaBatch {
    /// True when applying the batch would change nothing.
    pub fn is_empty(&self) -> bool {
        self.novel.is_empty() && self.drop.is_empty() && self.vv.is_empty()
    }

    /// Encoded size: vector, novel entries, and the drop-dot list.
    pub fn encoded_size(&self) -> usize {
        vv_encoded_size(&self.vv)
            + entries_encoded_size(&self.novel)
            + dots_encoded_size(self.drop.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::MemberEntry;
    use crate::object::ObjectId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn dot(r: u32, c: u64) -> Dot {
        Dot {
            replica: n(r),
            counter: c,
        }
    }

    #[test]
    fn varint_lengths_match_leb128() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn dot_lists_dedup_replicas_and_delta_encode_counters() {
        // 1000 consecutive dots from one replica: one group header plus
        // ~one byte per dot, nowhere near 16 bytes per dot.
        let dots: Vec<Dot> = (1..=1000).map(|c| dot(3, c)).collect();
        let size = dots_encoded_size(dots.iter().copied());
        assert!(size < 1010, "dense run encodes near 1 byte/dot: {size}");
        // The same 1000 counters spread over 1000 replicas repeat the
        // replica id every time and cost strictly more.
        let spread: Vec<Dot> = (1..=1000u64).map(|c| dot(c as u32, c)).collect();
        assert!(dots_encoded_size(spread.iter().copied()) > size);
        // Order does not matter.
        let mut rev = dots.clone();
        rev.reverse();
        assert_eq!(dots_encoded_size(rev), size);
        // One replica, one count, three one-byte distances; no dots, one
        // zero group count.
        assert_eq!(
            dots_encoded_size([dot(3, 1), dot(3, 2), dot(3, 9)]),
            1 + 2 + 3
        );
        assert_eq!(dots_encoded_size([]), 1);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass sizing is the grouped definition: on lists in dot
        /// order (with and without repeats), in any other order, and on
        /// the empty list.
        #[test]
        fn one_pass_dot_sizing_is_the_grouped_definition(
            raw in proptest::collection::vec((0u32..4, 0u64..300), 0..24),
            sorted in any::<bool>(),
        ) {
            // Counters cross the one-byte varint boundary (128), and the
            // small pools repeat dots often.
            let mut dots: Vec<Dot> = raw.into_iter().map(|(r, c)| dot(r, c)).collect();
            if sorted {
                dots.sort_unstable();
            }
            let grouped = dots_grouped_size(dots.iter().copied());
            prop_assert_eq!(dots_encoded_size(dots.iter().copied()), grouped);
            dots.dedup();
            prop_assert_eq!(
                dots_encoded_size(dots.iter().copied()),
                dots_grouped_size(dots.iter().copied())
            );
        }
    }

    #[test]
    fn encoded_delta_counts_removal_metadata() {
        let mut vv = VersionVector::new();
        let d1 = vv.advance(n(1));
        vv.advance(n(1)); // removal dot: no live entry
        let delta = MembershipDelta {
            vv,
            novel: vec![DottedEntry {
                dot: d1,
                entry: MemberEntry {
                    elem: ObjectId(9),
                    home: n(1),
                },
            }],
            live: vec![d1],
        };
        let full = delta_encoded_size(&delta);
        let no_live = delta_encoded_size(&MembershipDelta {
            live: Vec::new(),
            ..delta.clone()
        });
        assert!(full > no_live, "the live list costs bytes");
        assert!(full >= vv_encoded_size(&delta.vv));
    }

    #[test]
    fn range_keys_split_and_cover() {
        let root = RangeKey::ROOT;
        assert_eq!(root.lo(), 0);
        assert_eq!(root.hi(), u64::MAX);
        let kids = root.split(2);
        assert_eq!(kids.len(), 4);
        // Children tile the parent exactly.
        assert_eq!(kids[0].lo(), 0);
        for pair in kids.windows(2) {
            assert_eq!(pair[0].hi().wrapping_add(1), pair[1].lo());
        }
        assert_eq!(kids[3].hi(), u64::MAX);
        for k in &kids {
            assert!(root.contains(k.lo()) && root.contains(k.hi()));
        }
        // Max depth: singleton ranges, deeper splits refuse.
        let deep = RangeKey {
            prefix: 5,
            depth: 64,
        };
        assert_eq!(deep.lo(), deep.hi());
        assert!(deep.split(1).is_empty());
    }

    #[test]
    fn batch_encoding_scales_with_contents() {
        assert_eq!(DeltaBatch::default().encoded_size(), 3);
        assert!(DeltaBatch::default().is_empty());
        let mut vv = VersionVector::new();
        let d = vv.advance(n(2));
        let batch = DeltaBatch {
            vv,
            novel: vec![DottedEntry {
                dot: d,
                entry: MemberEntry {
                    elem: ObjectId(1),
                    home: n(2),
                },
            }],
            drop: vec![dot(3, 7)],
        };
        assert!(!batch.is_empty());
        assert!(batch.encoded_size() > DeltaBatch::default().encoded_size());
        let summary = RangeSummary {
            key: RangeKey::ROOT,
            count: 1,
            hash: 0xdead_beef,
        };
        assert!(summary.encoded_size() >= 10);
        let reply = RangeReply::Split(vec![summary]);
        assert!(reply.encoded_size() > summary.encoded_size());
    }
}
