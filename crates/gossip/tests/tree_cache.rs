//! A replica keeps one [`RangeTree`] per state of its live dots and hands
//! every descent a share of it. That is only sound if no mutator can
//! change the live dots and leave the old tree behind — the "re-read a
//! live vector mid-descent" bug from the other side: there a descent saw
//! state that was too new, here it would see state that is too old.
//!
//! The property drives a [`GossipNode`] through every way its CRDT's live
//! dots change — protocol adds and removes, removals parked behind a grow
//! guard and released with it, deltas and Merkle batches from a peer —
//! with the cache warm before each step, and after each step holds the
//! cached tree to one built from scratch.

use proptest::prelude::*;
use weakset_gossip::prelude::*;
use weakset_sim::node::NodeId;
use weakset_store::collection::MemberEntry;
use weakset_store::dotted::Dot;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::wire::{DeltaBatch, RangeKey, RangeSummary};

const COLL: CollectionId = CollectionId(1);
const HERE: NodeId = NodeId(1);
const THERE: NodeId = NodeId(2);
const GUARD: u64 = 7;

fn entry(elem: u64) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(0),
    }
}

/// Probes no tree matches, so `respond` has to enumerate or split every
/// one of them: the whole space, and the sixteen ranges below it.
fn mismatching_probes(tree: &RangeTree) -> Vec<RangeSummary> {
    std::iter::once(tree.summary(RangeKey::ROOT))
        .chain(tree.children(RangeKey::ROOT))
        .map(|s| RangeSummary {
            hash: !s.hash,
            count: s.count + 1,
            ..s
        })
        .collect()
}

fn assert_tree_is_current(g: &GossipNode) -> Result<(), TestCaseError> {
    let crdt = g.crdt(COLL).expect("replica exists");
    let cached = crdt.range_tree();
    let fresh = RangeTree::from_entries(crdt.dotted_entries());
    prop_assert_eq!(cached.len(), fresh.len());
    prop_assert_eq!(
        cached.summary(RangeKey::ROOT),
        fresh.summary(RangeKey::ROOT)
    );
    let probes = mismatching_probes(&fresh);
    prop_assert_eq!(cached.respond(&probes), fresh.respond(&probes));
    Ok(())
}

/// What `there` would ship `here` after a Merkle descent: the entries
/// `here` has not seen, and `here`'s live dots that `there` saw and
/// removed.
fn batch_for(here: &MembershipCrdt, there: &MembershipCrdt) -> DeltaBatch {
    let theirs = there.dotted_entries();
    let their_vv = there.digest();
    let live_there: Vec<Dot> = theirs.iter().map(|e| e.dot).collect();
    DeltaBatch {
        novel: theirs
            .into_iter()
            .filter(|e| !here.digest().contains(e.dot))
            .collect(),
        drop: here
            .dotted_entries()
            .iter()
            .map(|e| e.dot)
            .filter(|d| their_vv.contains(*d) && !live_there.contains(d))
            .collect(),
        vv: their_vv,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cached_tree_follows_every_mutator(
        grow_only in any::<bool>(),
        steps in proptest::collection::vec((0u8..9, 1u64..8), 1..40),
    ) {
        let semantics = if grow_only {
            GossipSemantics::GrowOnly
        } else {
            GossipSemantics::GrowShrink
        };
        let mut g = GossipNode::new(HERE).with_default_semantics(semantics);
        prop_assert_eq!(g.apply(StoreMsg::CreateCollection(COLL)), StoreMsg::Ack);
        let mut peer = MembershipCrdt::new(semantics);

        for (what, elem) in steps {
            // Warm: whatever the step does, it does to a replica whose
            // tree is already built and shared out.
            g.crdt(COLL).unwrap().range_tree();
            match what {
                0 | 1 => {
                    g.apply(StoreMsg::AddMember { coll: COLL, entry: entry(elem) });
                }
                2 => {
                    g.apply(StoreMsg::RemoveMember { coll: COLL, elem: ObjectId(elem) });
                }
                // Removals under the guard are parked; the release applies
                // them to the CRDT all at once.
                3 => {
                    g.apply(StoreMsg::AcquireGrowGuard { coll: COLL, token: GUARD });
                }
                4 => {
                    g.apply(StoreMsg::ReleaseGrowGuard { coll: COLL, token: GUARD });
                }
                // The peer moves on its own, learning of ours first half
                // the time (so it can remove what we added).
                5 => {
                    if elem % 2 == 0 {
                        let ours = g.crdt(COLL).unwrap();
                        peer.apply(&ours.delta_since(&peer.digest()));
                    }
                    peer.add(THERE, entry(elem + 100));
                    peer.remove(THERE, ObjectId(elem));
                }
                6 => {
                    let crdt = g.crdt_mut(COLL).unwrap();
                    let delta = peer.delta_since(&crdt.digest());
                    crdt.apply(&delta);
                }
                7 => {
                    let batch = batch_for(g.crdt(COLL).unwrap(), &peer);
                    g.apply(StoreMsg::GossipDeltaBatch { coll: COLL, batch });
                }
                _ => {
                    let crdt = g.crdt_mut(COLL).unwrap();
                    crdt.add(HERE, entry(elem + 200));
                    crdt.remove(HERE, ObjectId(elem + 200));
                }
            }
            assert_tree_is_current(&g)?;
        }
    }
}

/// The steady state the cache exists for: an exchange that changes no
/// live dot hands every probe the same tree.
#[test]
fn an_unchanged_replica_shares_one_tree() {
    let mut g = GossipNode::new(HERE);
    g.apply(StoreMsg::CreateCollection(COLL));
    for elem in 1..=5 {
        g.apply(StoreMsg::AddMember {
            coll: COLL,
            entry: entry(elem),
        });
    }
    let first = g.crdt(COLL).unwrap().range_tree();
    // A descent's probes, a batch and a delta that carry nothing new.
    let probes = mismatching_probes(&first);
    g.apply(StoreMsg::GossipRangeReq {
        coll: COLL,
        ranges: probes,
    });
    let own = g.crdt(COLL).unwrap().clone();
    g.apply(StoreMsg::GossipDeltaBatch {
        coll: COLL,
        batch: batch_for(&own, &own),
    });
    g.apply(StoreMsg::GossipPush {
        coll: COLL,
        delta: own.delta_since(&own.digest()),
    });
    let again = g.crdt(COLL).unwrap().range_tree();
    assert!(std::sync::Arc::ptr_eq(&first, &again), "nothing changed");
    // A clone starts with the tree its source had; they part on the
    // first change and stay equal as sets until then.
    let mut copy = own.clone();
    assert_eq!(copy, own);
    copy.add(HERE, entry(9));
    assert_eq!(copy.range_tree().len(), 6);
    assert_eq!(own.range_tree().len(), 5);
    assert_ne!(copy, own);
}
