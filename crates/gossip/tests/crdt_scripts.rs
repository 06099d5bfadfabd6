//! Scripted CRDT transcripts, pinned *across commits*.
//!
//! `crdt_algebra.rs` checks the join's laws on random inputs; this file
//! holds the bytes. Both semantics run one script — local adds, removes
//! and re-adds on three replicas; deltas delivered fresh, twice and stale;
//! a delta computed against a third replica's digest; Merkle batches
//! whose drops the sender's vector does and does not cover; a vector that
//! arrives ahead of its entries; three-way merges in three orders — and
//! fold what the replicas show after each step (membership, digest, live
//! dots, the range tree's root summary) and every `MembershipDelta` /
//! `DeltaBatch` produced, with its encoded size, into one FNV constant
//! per semantics.
//!
//! Written against the API every commit shares
//! (`MembershipCrdt::new(semantics)` and its methods; never the CRDT's
//! own `Debug`) and self-contained, so it drops into an older checkout
//! as is. Constants measured at 8e7dc80, the last commit that shipped
//! `GSet` and `ORSet` as two types.

use std::fmt::Write as _;
use weakset_gossip::prelude::{GossipSemantics, MembershipCrdt};
use weakset_sim::node::NodeId;
use weakset_store::collection::MemberEntry;
use weakset_store::dotted::{Dot, MembershipDelta, VersionVector};
use weakset_store::object::ObjectId;
use weakset_store::wire::{self, DeltaBatch, RangeKey};

const A: NodeId = NodeId(1);
const B: NodeId = NodeId(2);
const C: NodeId = NodeId(3);

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn entry(elem: u64) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(elem as u32 % 3),
    }
}

/// Everything a replica shows from outside.
fn note(out: &mut String, label: &str, crdt: &MembershipCrdt) {
    let dots = crdt.dotted_entries();
    writeln!(
        out,
        "{label}: {:?} vv={:?} dots={} {:?} root={:?}",
        crdt.elements(),
        crdt.digest(),
        dots.len(),
        dots,
        crdt.range_tree().summary(RangeKey::ROOT),
    )
    .unwrap();
}

fn note_delta(out: &mut String, label: &str, delta: &MembershipDelta) {
    let bytes = wire::delta_encoded_size(delta);
    writeln!(out, "{label}: {delta:?} bytes={bytes}").unwrap();
}

/// `to` pulls from `from`: the delta against `to`'s own digest.
fn ship(out: &mut String, label: &str, from: &MembershipCrdt, to: &mut MembershipCrdt) {
    let delta = from.delta_since(&to.digest());
    note_delta(out, label, &delta);
    to.apply(&delta);
    note(out, label, to);
}

fn batch(out: &mut String, label: &str, batch: &DeltaBatch, to: &mut MembershipCrdt) {
    let bytes = batch.encoded_size();
    writeln!(out, "{label}: {batch:?} bytes={bytes}").unwrap();
    to.apply_batch(batch);
    note(out, label, to);
}

/// What a Merkle descent between the two would have `there` ship `here`.
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

fn full_state(crdt: &MembershipCrdt) -> MembershipDelta {
    crdt.delta_since(&VersionVector::new())
}

fn transcript(semantics: GossipSemantics) -> String {
    let mut out = String::new();
    let fresh = || MembershipCrdt::new(semantics);
    let (mut a, mut b, mut c) = (fresh(), fresh(), fresh());
    writeln!(out, "== {:?}", a.semantics()).unwrap();
    note(&mut out, "empty", &a);

    // Local histories: adds, a remove, a re-add, a remove of a stranger.
    for elem in 1..=5 {
        let dot = a.add(A, entry(elem));
        writeln!(out, "a add {elem} -> {dot:?}").unwrap();
    }
    let early_a = full_state(&a);
    note_delta(&mut out, "a early full state", &early_a);
    writeln!(out, "a remove 2 -> {}", a.remove(A, ObjectId(2))).unwrap();
    writeln!(out, "a re-add 2 -> {:?}", a.add(A, entry(2))).unwrap();
    writeln!(out, "a remove 9 -> {}", a.remove(A, ObjectId(9))).unwrap();
    note(&mut out, "a", &a);
    for elem in [2, 6, 7] {
        b.add(B, entry(elem));
    }
    writeln!(out, "b remove 6 -> {}", b.remove(B, ObjectId(6))).unwrap();
    note(&mut out, "b", &b);
    c.add(C, entry(1));
    c.add(C, entry(8));
    note(&mut out, "c", &c);

    // Fresh, duplicate and stale deliveries.
    let a_for_b = a.delta_since(&b.digest());
    ship(&mut out, "b <- a", &a, &mut b);
    b.apply(&a_for_b);
    note(&mut out, "b <- a again", &b);
    b.apply(&early_a);
    note(&mut out, "b <- a stale", &b);
    ship(&mut out, "b <- a nothing new", &a, &mut b);
    writeln!(
        out,
        "nothing_for: a/b {} b/a {} a/empty {}",
        a.nothing_for(&b.digest()),
        b.nothing_for(&a.digest()),
        a.nothing_for(&VersionVector::new()),
    )
    .unwrap();

    // A removal of what another replica added travels back (Fig. 6) or
    // does not happen (Fig. 5); then a concurrent re-add.
    writeln!(out, "b remove 1 -> {}", b.remove(B, ObjectId(1))).unwrap();
    writeln!(out, "b remove 2 -> {}", b.remove(B, ObjectId(2))).unwrap();
    a.add(A, entry(1));
    ship(&mut out, "a <- b", &b, &mut a);
    writeln!(
        out,
        "a contains 1 {} 2 {} 6 {}",
        a.contains(ObjectId(1)),
        a.contains(ObjectId(2)),
        a.contains(ObjectId(6)),
    )
    .unwrap();

    // A delta computed against somebody else's digest.
    let b_for_c = b.delta_since(&c.digest());
    note_delta(&mut out, "b delta for c", &b_for_c);
    let mut a2 = a.clone();
    a2.apply(&b_for_c);
    note(&mut out, "a <- b's delta for c", &a2);
    ship(&mut out, "c <- b", &b, &mut c);

    // Merkle batches: the computed one, then drops the sender's vector
    // covers (c's first live dot, minted at a) and does not (c's newest
    // and a stranger's), with the stranger's entry to adopt beside them.
    c.add(C, entry(10));
    writeln!(out, "c remove 3 -> {}", c.remove(C, ObjectId(3))).unwrap();
    let computed = batch_for(&a, &c);
    batch(&mut out, "a <= c computed", &computed, &mut a);
    batch(&mut out, "a <= c computed again", &computed, &mut a);
    let c_live: Vec<Dot> = c.dotted_entries().iter().map(|e| e.dot).collect();
    let stranger = Dot {
        replica: NodeId(9),
        counter: 1,
    };
    let mut donor = fresh();
    donor.add(NodeId(9), entry(11));
    let forged = DeltaBatch {
        vv: b.digest(),
        novel: donor.dotted_entries(),
        drop: vec![c_live[0], *c_live.last().unwrap(), stranger],
    };
    batch(&mut out, "c <= forged drops", &forged, &mut c);

    // A vector that arrives ahead of its entries: the replica then holds
    // dots as observed whose entries it never saw.
    let mut d = fresh();
    let vector_only = DeltaBatch {
        vv: a.digest(),
        ..DeltaBatch::default()
    };
    batch(&mut out, "d <= vector only", &vector_only, &mut d);
    ship(&mut out, "d <- a", &a, &mut d);
    d.apply(&full_state(&a));
    note(&mut out, "d <- a full state", &d);
    let late = DeltaBatch {
        vv: VersionVector::new(),
        novel: a.dotted_entries(),
        drop: Vec::new(),
    };
    batch(&mut out, "d <= a's entries late", &late, &mut d);

    // Three-way merges, three orders.
    let join = |out: &mut String, label: &str, parts: [&MembershipCrdt; 3]| {
        let mut acc = fresh();
        for part in parts {
            acc.apply(&full_state(part));
        }
        note(out, label, &acc);
        acc
    };
    let abc = join(&mut out, "a+b+c", [&a, &b, &c]);
    let cab = join(&mut out, "c+a+b", [&c, &a, &b]);
    let mut bc = b.clone();
    bc.apply(&full_state(&c));
    let mut a_bc = a.clone();
    a_bc.apply(&full_state(&bc));
    note(&mut out, "a+(b+c)", &a_bc);
    writeln!(
        out,
        "orders agree: {} {}",
        abc.elements() == cab.elements() && abc.digest() == cab.digest(),
        abc.elements() == a_bc.elements() && abc.digest() == a_bc.digest(),
    )
    .unwrap();
    out
}

#[test]
fn crdt_transcripts_are_pinned() {
    let pins: [(GossipSemantics, u64); 2] = [
        (GossipSemantics::GrowOnly, 0xf1a5_b901_8bfb_e398),
        (GossipSemantics::GrowShrink, 0xf7aa_f9c0_c727_d5f1),
    ];
    let mut all = String::new();
    for (semantics, pinned) in pins {
        let text = transcript(semantics);
        let folded = fnv(&text);
        assert_eq!(
            folded, pinned,
            "{semantics:?}: transcript fold is now {folded:#018x}"
        );
        all.push_str(&text);
    }
    // The script must reach the five places the figures differ, or the
    // pins hold nothing.
    for needle in [
        "a remove 2 -> 0",
        "a remove 2 -> 1",
        "b remove 1 -> 1",
        "live: []",
        "orders agree: true true",
    ] {
        assert!(all.contains(needle), "no transcript contains {needle:?}");
    }
}
