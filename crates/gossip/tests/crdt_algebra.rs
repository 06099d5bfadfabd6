//! Property tests for the membership CRDT algebra.
//!
//! Anti-entropy is only correct if the join is a semilattice merge:
//! commutative, associative, and idempotent — and if shipping deltas is
//! indistinguishable from shipping full states. These properties are what
//! let `weakset-gossip` deliver deltas in any order, any number of times,
//! over any topology, and still converge every replica to one membership.

use proptest::prelude::*;
use weakset_gossip::prelude::{GossipSemantics, MembershipCrdt};
use weakset_sim::node::NodeId;
use weakset_store::collection::MemberEntry;
use weakset_store::dotted::VersionVector;
use weakset_store::object::ObjectId;

/// One local mutation at a replica: `kind == 0` is a remove, anything
/// else an add. Element ids are drawn from a small pool so adds, removes
/// and re-adds of the same element collide often.
type Op = (u8, u64);

fn entry(elem: u64) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(0),
    }
}

/// Replays `ops` as local mutations of replica `id` on an OR-Set.
fn orset_of(id: u32, ops: &[Op]) -> MembershipCrdt {
    let mut s = MembershipCrdt::new(GossipSemantics::GrowShrink);
    for &(kind, elem) in ops {
        if kind == 0 {
            s.remove(NodeId(id), ObjectId(elem));
        } else {
            s.add(NodeId(id), entry(elem));
        }
    }
    s
}

/// Replays `ops` on a G-Set (removes are skipped: grow-only).
fn gset_of(id: u32, ops: &[Op]) -> MembershipCrdt {
    let mut s = MembershipCrdt::new(GossipSemantics::GrowOnly);
    for &(kind, elem) in ops {
        if kind != 0 {
            s.add(NodeId(id), entry(elem));
        }
    }
    s
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 1u64..9), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// a ⊔ b = b ⊔ a, as full states (entries, dots, and vector).
    #[test]
    fn orset_merge_is_commutative(oa in ops(), ob in ops()) {
        let a = orset_of(1, &oa);
        let b = orset_of(2, &ob);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c).
    #[test]
    fn orset_merge_is_associative(oa in ops(), ob in ops(), oc in ops()) {
        let a = orset_of(1, &oa);
        let b = orset_of(2, &ob);
        let c = orset_of(3, &oc);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// a ⊔ a = a, and re-applying an already-joined state is a no-op.
    #[test]
    fn orset_merge_is_idempotent(oa in ops(), ob in ops()) {
        let a = orset_of(1, &oa);
        let b = orset_of(2, &ob);
        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(&aa, &a);
        let mut ab = a.clone();
        ab.merge(&b);
        let once = ab.clone();
        ab.merge(&b);
        prop_assert_eq!(ab, once);
    }

    /// Applying the delta against the receiver's digest produces exactly
    /// the full-state merge: digest-then-delta loses nothing.
    #[test]
    fn orset_delta_application_equals_full_merge(oa in ops(), ob in ops()) {
        let a = orset_of(1, &oa);
        let b = orset_of(2, &ob);
        let mut via_delta = b.clone();
        via_delta.apply(&a.delta_since(&b.digest()));
        let mut via_merge = b.clone();
        via_merge.merge(&a);
        prop_assert_eq!(via_delta, via_merge);
    }

    /// Digest dominance implies state dominance: when a peer's digest
    /// covers ours, the delta we would send is pure overhead (no novel
    /// entries, and applying it changes nothing). This is the property
    /// that makes the engine's push-skip sound — removal dots exist
    /// precisely so it also holds after removals.
    #[test]
    fn dominated_digest_means_nothing_to_send(oa in ops(), ob in ops()) {
        let a = orset_of(1, &oa);
        let mut b = orset_of(2, &ob);
        b.merge(&a);
        prop_assert!(b.digest().dominates(&a.digest()));
        let d = a.delta_since(&b.digest());
        prop_assert!(d.novel.is_empty());
        let before = b.clone();
        b.apply(&d);
        prop_assert_eq!(b, before);
    }

    /// G-Set joins obey the same algebra, and Fig. 5's `ensures` holds
    /// across merges: a replica's membership only ever grows.
    #[test]
    fn gset_merge_algebra_and_monotonicity(oa in ops(), ob in ops(), oc in ops()) {
        let a = gset_of(1, &oa);
        let b = gset_of(2, &ob);
        let c = gset_of(3, &oc);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab.elements(), &ba.elements());
        // The join is exactly the union, so neither side lost a member.
        prop_assert_eq!(ab.elements(), a.elements().union(&b.elements()));
        let mut twice = ab.clone();
        twice.merge(&b);
        prop_assert_eq!(twice, ab);
    }

    /// Multi-replica convergence: scatter operations over three replicas,
    /// deliver pairwise deltas in an arbitrary order, then run one
    /// complete anti-entropy round. All replicas end with identical
    /// membership and identical digests, no matter the delivery order.
    #[test]
    fn orset_replicas_converge_after_final_round(
        per_replica in proptest::collection::vec(ops(), 3),
        deliveries in proptest::collection::vec((0usize..3, 0usize..3), 0..20),
    ) {
        let mut rs: Vec<MembershipCrdt> = per_replica
            .iter()
            .enumerate()
            .map(|(i, ops)| orset_of(i as u32 + 1, ops))
            .collect();
        // Arbitrary partial gossip: replica `to` pulls a delta from `from`.
        for &(from, to) in &deliveries {
            if from != to {
                let d = rs[from].delta_since(&rs[to].digest());
                rs[to].apply(&d);
            }
        }
        // One complete round: gather everything into replica 0, then
        // scatter its state back out.
        for i in 1..rs.len() {
            let d = rs[i].delta_since(&rs[0].digest());
            rs[0].apply(&d);
        }
        for i in 1..rs.len() {
            let d = rs[0].delta_since(&rs[i].digest());
            rs[i].apply(&d);
        }
        for i in 1..rs.len() {
            prop_assert_eq!(rs[i].elements(), rs[0].elements());
            prop_assert_eq!(rs[i].digest(), rs[0].digest());
        }
    }

    /// The same convergence for grow-only replicas, plus monotonicity
    /// along every delivery: no G-Set ever shrinks during gossip.
    #[test]
    fn gset_replicas_converge_after_final_round(
        per_replica in proptest::collection::vec(ops(), 3),
        deliveries in proptest::collection::vec((0usize..3, 0usize..3), 0..20),
    ) {
        let mut rs: Vec<MembershipCrdt> = per_replica
            .iter()
            .enumerate()
            .map(|(i, ops)| gset_of(i as u32 + 1, ops))
            .collect();
        for &(from, to) in &deliveries {
            if from != to {
                let before = rs[to].elements();
                let d = rs[from].delta_since(&rs[to].digest());
                rs[to].apply(&d);
                let after = rs[to].elements();
                prop_assert_eq!(before.union(&after), after, "the set only grows");
            }
        }
        for i in 1..rs.len() {
            let d = rs[i].delta_since(&rs[0].digest());
            rs[0].apply(&d);
        }
        for i in 1..rs.len() {
            let d = rs[0].delta_since(&rs[i].digest());
            rs[i].apply(&d);
        }
        for i in 1..rs.len() {
            prop_assert_eq!(rs[i].elements(), rs[0].elements());
            prop_assert_eq!(rs[i].digest(), rs[0].digest());
        }
    }

    /// A full-state delta (against the empty vector) is the state: any
    /// receiver that applies it becomes a superset, and a fresh receiver
    /// becomes an exact copy.
    #[test]
    fn full_state_delta_reconstructs_the_set(oa in ops()) {
        let a = orset_of(1, &oa);
        let mut fresh = MembershipCrdt::new(GossipSemantics::GrowShrink);
        fresh.apply(&a.delta_since(&VersionVector::new()));
        prop_assert_eq!(fresh, a);
    }
}
