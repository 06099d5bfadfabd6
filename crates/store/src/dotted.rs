//! Dotted version vectors: the causal metadata that anti-entropy gossip
//! ships over the wire.
//!
//! A *dot* names one mutation event at one replica; a *version vector*
//! summarises, per replica, how many of its dots have been observed. The
//! CRDT semantics built on top (grow-only and observed-remove sets) live
//! in the `weakset-gossip` crate; this module only defines the plain wire
//! data so the [`crate::msg::StoreMsg`] protocol can carry digests and
//! deltas without depending on the gossip crate.

use crate::collection::MemberEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use weakset_sim::node::NodeId;

/// One mutation event: the `counter`-th membership change issued by
/// `replica`. Dots totally order events *per replica* and are globally
/// unique, which lets replicas exchange exactly the events a peer has
/// not yet observed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dot {
    /// The replica that issued the mutation.
    pub replica: NodeId,
    /// 1-based sequence number of the mutation at that replica.
    pub counter: u64,
}

impl fmt::Debug for Dot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.replica.0, self.counter)
    }
}

/// A per-replica summary of observed dots: `vv[r] = n` means every dot
/// `r:1 ..= r:n` has been observed. Joining two vectors takes the
/// pointwise maximum, so version vectors form a lattice — the digest half
/// of the digest-then-delta exchange.
///
/// A vector is a value that is handed out far more often than it changes
/// (every exchange ships a digest; most find nothing new), so clones
/// share one map and a mutator copies it only when it is shared *and* the
/// mutation changes something. No clone ever sees another's mutation.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VersionVector {
    /// `None` is the empty vector, which allocates nothing; a map, once
    /// there, holds at least one slot.
    counters: Option<Arc<BTreeMap<NodeId, u64>>>,
}

/// Prints as the plain map-holding struct it stands for.
impl fmt::Debug for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let empty = BTreeMap::new();
        f.debug_struct("VersionVector")
            .field("counters", self.counters.as_deref().unwrap_or(&empty))
            .finish()
    }
}

impl VersionVector {
    /// The empty vector (no dots observed).
    pub fn new() -> Self {
        VersionVector::default()
    }

    fn slot(&self, replica: NodeId) -> Option<u64> {
        self.counters.as_ref()?.get(&replica).copied()
    }

    /// Sets `replica`'s slot, unsharing the map first if clones hold it.
    fn set(&mut self, replica: NodeId, counter: u64) {
        Arc::make_mut(self.counters.get_or_insert_with(Arc::default)).insert(replica, counter);
    }

    /// The highest observed counter for `replica` (0 when unseen).
    pub fn get(&self, replica: NodeId) -> u64 {
        self.slot(replica).unwrap_or(0)
    }

    /// True when `dot` has been observed.
    pub fn contains(&self, dot: Dot) -> bool {
        self.get(dot.replica) >= dot.counter
    }

    /// Mints the next dot for `replica` and records it as observed.
    pub fn advance(&mut self, replica: NodeId) -> Dot {
        let counter = self.get(replica) + 1;
        self.set(replica, counter);
        Dot { replica, counter }
    }

    /// Records `dot` as observed (pointwise max with a single dot).
    ///
    /// Gossip only ever delivers deltas alongside the sender's full
    /// vector, so "observing" a dot may safely imply observing all its
    /// per-replica predecessors.
    pub fn observe(&mut self, dot: Dot) {
        // An unseen replica gains its slot even for counter 0.
        if self.slot(dot.replica).is_none_or(|c| c < dot.counter) {
            self.set(dot.replica, dot.counter);
        }
    }

    /// Joins with `other`: pointwise maximum (the lattice join). Joining
    /// into the empty vector shares `other`'s map; joining what is
    /// already covered touches nothing.
    pub fn join(&mut self, other: &VersionVector) {
        if self.counters.is_none() {
            self.counters.clone_from(&other.counters);
            return;
        }
        for (replica, counter) in other.iter() {
            self.observe(Dot { replica, counter });
        }
    }

    /// True when every dot covered by `other` is covered by `self`.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        other.iter().all(|(r, n)| self.get(r) >= n)
    }

    /// Total number of dots covered — a scalar, monotone summary used as
    /// the `version` field of leaderless membership reads (replicas with
    /// identical vectors report identical totals).
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, n)| n).sum()
    }

    /// Number of replicas with at least one observed dot.
    pub fn len(&self) -> usize {
        self.counters.as_ref().map_or(0, |c| c.len())
    }

    /// True when no dots have been observed.
    pub fn is_empty(&self) -> bool {
        self.counters.is_none()
    }

    /// Iterates `(replica, highest counter)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.counters
            .iter()
            .flat_map(|c| c.iter().map(|(&r, &n)| (r, n)))
    }
}

/// A membership entry tagged with the dot of the add that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DottedEntry {
    /// The add event's dot.
    pub dot: Dot,
    /// The member that was added.
    pub entry: MemberEntry,
}

/// The delta half of a digest-then-delta exchange: everything a receiver
/// needs to join a peer's state into its own.
///
/// `novel` carries only the dotted entries whose dots the requester's
/// digest did not cover — the member payloads that actually cross the
/// wire. `vv` is the sender's full version vector and `live` its full
/// live-dot list; together they let the receiver detect removals (a dot
/// it holds that `vv` covers but `live` omits was removed at the sender).
/// Dots are 16 bytes on the simulated wire, so the live list stays cheap
/// even when no entries need shipping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MembershipDelta {
    /// The sender's full version vector.
    pub vv: VersionVector,
    /// Dotted entries the requester had not observed.
    pub novel: Vec<DottedEntry>,
    /// Every dot still live (not removed) at the sender.
    pub live: Vec<Dot>,
}

impl MembershipDelta {
    /// Approximate wire size in bytes: 16 per version-vector slot and
    /// live dot, 28 per novel dotted entry.
    pub fn wire_size(&self) -> usize {
        self.vv.len() * 16 + self.novel.len() * 28 + self.live.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn advance_mints_sequential_dots() {
        let mut vv = VersionVector::new();
        assert_eq!(
            vv.advance(n(1)),
            Dot {
                replica: n(1),
                counter: 1
            }
        );
        assert_eq!(
            vv.advance(n(1)),
            Dot {
                replica: n(1),
                counter: 2
            }
        );
        assert_eq!(
            vv.advance(n(2)),
            Dot {
                replica: n(2),
                counter: 1
            }
        );
        assert_eq!(vv.get(n(1)), 2);
        assert_eq!(vv.total(), 3);
        assert_eq!(vv.len(), 2);
        assert!(!vv.is_empty());
    }

    #[test]
    fn contains_and_observe() {
        let mut vv = VersionVector::new();
        let d3 = Dot {
            replica: n(1),
            counter: 3,
        };
        assert!(!vv.contains(d3));
        vv.observe(d3);
        assert!(vv.contains(Dot {
            replica: n(1),
            counter: 2
        }));
        assert!(vv.contains(d3));
        assert!(!vv.contains(Dot {
            replica: n(1),
            counter: 4
        }));
        // Observing an older dot never regresses.
        vv.observe(Dot {
            replica: n(1),
            counter: 1,
        });
        assert_eq!(vv.get(n(1)), 3);
    }

    #[test]
    fn join_is_pointwise_max_and_dominates_agrees() {
        let mut a = VersionVector::new();
        a.observe(Dot {
            replica: n(1),
            counter: 5,
        });
        a.observe(Dot {
            replica: n(2),
            counter: 1,
        });
        let mut b = VersionVector::new();
        b.observe(Dot {
            replica: n(1),
            counter: 2,
        });
        b.observe(Dot {
            replica: n(3),
            counter: 4,
        });
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        a.join(&b);
        assert_eq!(a.get(n(1)), 5);
        assert_eq!(a.get(n(2)), 1);
        assert_eq!(a.get(n(3)), 4);
        assert!(a.dominates(&b));
        assert_eq!(a.iter().count(), 3);
    }

    fn shares_map(a: &VersionVector, b: &VersionVector) -> bool {
        match (&a.counters, &b.counters) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn clones_share_until_one_of_them_changes() {
        let mut vv = VersionVector::new();
        vv.advance(n(1));
        vv.advance(n(2));
        let digest = vv.clone();
        assert!(shares_map(&vv, &digest), "a digest is a share, not a copy");
        // Mutations that change nothing leave the map shared.
        vv.observe(Dot {
            replica: n(1),
            counter: 1,
        });
        vv.join(&digest);
        let mut older = VersionVector::new();
        older.observe(Dot {
            replica: n(2),
            counter: 1,
        });
        vv.join(&older);
        assert!(shares_map(&vv, &digest));
        // The first real change unshares; the digest handed out keeps
        // reading what it read when it was taken.
        vv.advance(n(1));
        assert!(!shares_map(&vv, &digest));
        assert_eq!(digest.iter().collect::<Vec<_>>(), [(n(1), 1), (n(2), 1)]);
        assert_eq!(vv.iter().collect::<Vec<_>>(), [(n(1), 2), (n(2), 1)]);
        // Joining into the empty vector adopts the operand's map.
        let mut fresh = VersionVector::new();
        fresh.join(&vv);
        assert!(shares_map(&fresh, &vv) && fresh == vv);
        fresh.join(&VersionVector::new());
        assert!(shares_map(&fresh, &vv));
        let mut empty = VersionVector::new();
        empty.join(&VersionVector::new());
        assert!(empty.is_empty() && empty == VersionVector::new());
    }

    #[test]
    fn debug_prints_the_map_it_stands_for() {
        let mut vv = VersionVector::new();
        assert_eq!(format!("{vv:?}"), "VersionVector { counters: {} }");
        vv.advance(n(3));
        assert_eq!(format!("{vv:?}"), "VersionVector { counters: {n3: 1} }");
    }

    /// The vector as it was: one owned map, mutated in place by the
    /// pointwise loops.
    #[derive(Clone, Default)]
    struct Pointwise(BTreeMap<NodeId, u64>);

    impl Pointwise {
        fn advance(&mut self, replica: NodeId) -> Dot {
            let c = self.0.entry(replica).or_insert(0);
            *c += 1;
            Dot {
                replica,
                counter: *c,
            }
        }

        fn observe(&mut self, dot: Dot) {
            let c = self.0.entry(dot.replica).or_insert(0);
            *c = (*c).max(dot.counter);
        }

        fn join(&mut self, other: &Pointwise) {
            for (&r, &n) in &other.0 {
                let c = self.0.entry(r).or_insert(0);
                *c = (*c).max(n);
            }
        }

        fn dominates(&self, other: &Pointwise) -> bool {
            let get = |r| self.0.get(r).copied().unwrap_or(0);
            other.0.iter().all(|(r, &n)| get(r) >= n)
        }

        fn encoded_size(&self) -> usize {
            use crate::wire::varint_len;
            varint_len(self.0.len() as u64)
                + self
                    .0
                    .iter()
                    .map(|(r, &n)| varint_len(r.0 as u64) + varint_len(n))
                    .sum::<usize>()
        }
    }

    fn assert_reads_as(vv: &VersionVector, model: &Pointwise) {
        let slots: Vec<(NodeId, u64)> = model.0.iter().map(|(&r, &n)| (r, n)).collect();
        assert_eq!(vv.iter().collect::<Vec<_>>(), slots);
        assert_eq!(vv.len(), model.0.len());
        assert_eq!(vv.is_empty(), model.0.is_empty());
        assert_eq!(vv.total(), model.0.values().sum::<u64>());
        assert_eq!(crate::wire::vv_encoded_size(vv), model.encoded_size());
        for r in 0..5 {
            assert_eq!(vv.get(n(r)), model.0.get(&n(r)).copied().unwrap_or(0));
        }
        // `==` sees slots (zero-valued ones included), not how the
        // vector came to hold them.
        let mut rebuilt = VersionVector::new();
        for (&replica, &counter) in model.0.iter().rev() {
            rebuilt.observe(Dot { replica, counter });
        }
        assert!(*vv == rebuilt, "{vv:?} != {rebuilt:?}");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of mutations, over operands that are shared,
        /// identical, dominated, empty or carry zero-valued slots, reads
        /// exactly as the pointwise loops leave an owned map — and no
        /// vector handed out along the way ever changes.
        #[test]
        fn shared_vectors_read_as_the_pointwise_loops(
            steps in proptest::collection::vec((0u8..8, 0u32..4, 0u64..5), 1..40)
        ) {
            let mut vv = VersionVector::new();
            let mut model = Pointwise::default();
            // Every value handed out so far, with what it read then.
            let mut handed_out: Vec<(VersionVector, Pointwise)> = Vec::new();
            for (what, r, c) in steps {
                let dot = Dot { replica: n(r), counter: c };
                match what {
                    0 | 1 => prop_assert_eq!(vv.advance(n(r)), model.advance(n(r))),
                    // Counter 0 on an unseen replica still makes a slot.
                    2 | 3 => {
                        vv.observe(dot);
                        model.observe(dot);
                    }
                    // Itself: identical and shared.
                    4 => {
                        let same = vv.clone();
                        vv.join(&same);
                    }
                    // An earlier value: dominated or concurrent.
                    5 if !handed_out.is_empty() => {
                        let (old, old_model) = &handed_out[c as usize % handed_out.len()];
                        vv.join(old);
                        model.join(old_model);
                        prop_assert!(vv.dominates(old));
                    }
                    // A one-slot stranger (zero-valued when `c` is 0),
                    // or the empty vector.
                    6 => {
                        let mut other = VersionVector::new();
                        let mut other_model = Pointwise::default();
                        other.observe(dot);
                        other_model.observe(dot);
                        prop_assert_eq!(vv.dominates(&other), model.dominates(&other_model));
                        vv.join(&other);
                        model.join(&other_model);
                    }
                    _ => vv.join(&VersionVector::new()),
                }
                assert_reads_as(&vv, &model);
                handed_out.push((vv.clone(), model.clone()));
                for (held, then) in &handed_out {
                    assert_reads_as(held, then);
                }
            }
        }
    }

    #[test]
    fn delta_wire_size_scales_with_contents() {
        let mut vv = VersionVector::new();
        let dot = vv.advance(n(1));
        let delta = MembershipDelta {
            vv,
            novel: vec![DottedEntry {
                dot,
                entry: MemberEntry {
                    elem: ObjectId(1),
                    home: n(9),
                },
            }],
            live: vec![dot],
        };
        assert_eq!(delta.wire_size(), 16 + 28 + 16);
        assert_eq!(MembershipDelta::default().wire_size(), 0);
    }

    #[test]
    fn dot_debug_is_compact() {
        assert_eq!(
            format!(
                "{:?}",
                Dot {
                    replica: n(3),
                    counter: 7
                }
            ),
            "3:7"
        );
    }
}
