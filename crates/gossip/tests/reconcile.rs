//! Merkle-range reconciliation: mode equivalence, byte proportionality,
//! and the accounting regressions this work exposed.
//!
//! * `MerkleRange` and `Full` digest modes must converge to **identical**
//!   membership and digests from arbitrary divergent OR-Set states —
//!   they are two transports for the same join (property-tested).
//! * Bytes shipped under `MerkleRange` must scale with the symmetric
//!   difference at fixed set size, where `Full` scales with the set.
//! * A peer that answers an anti-entropy request with the wrong message
//!   type must count as a failure (it used to vanish silently).
//! * A replica that crashes holding unreplicated dots must surface in
//!   the convergence-lag metrics (it used to read as converged).

use proptest::prelude::*;
use weakset_gossip::prelude::*;
use weakset_obs::gossip as names;
use weakset_runtime::prelude::*;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreServer, StoreWorld};

const COLL: CollectionId = CollectionId(1);
const TIMEOUT: SimDuration = SimDuration::from_millis(50);

fn entry(id: u64, home: NodeId) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(id),
        home,
    }
}

/// A client node plus `n` gossip replica nodes.
fn setup(n: usize, seed: u64) -> (StoreWorld, StoreClient, CollectionRef) {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", n);
    let mut w = StoreWorld::new(seed, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(s, Box::new(GossipNode::new(s)));
    }
    let client = StoreClient::new(cn, TIMEOUT);
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(&mut w, &cref).unwrap();
    (w, client, cref)
}

/// Installs a prebuilt OR-Set as `node`'s replica of [`COLL`].
fn preload(w: &mut StoreWorld, node: NodeId, set: &MembershipCrdt) {
    w.with_service_mut(node, |g: &mut GossipNode| {
        g.create_replica(COLL, GossipSemantics::GrowShrink);
        *g.crdt_mut(COLL).unwrap() = set.clone();
    });
}

/// A replica's observable state: sorted membership plus its digest.
type ReplicaState = (Membership, weakset_store::dotted::VersionVector);

/// Reads `node`'s replica state: (sorted membership, digest).
fn state_at(w: &StoreWorld, node: NodeId) -> ReplicaState {
    w.with_service(node, |g: &GossipNode| {
        let c = g.crdt(COLL).unwrap();
        (c.elements(), c.digest())
    })
    .unwrap()
}

/// One step of the divergence-building interpreter (see
/// [`divergent_pair`]).
#[derive(Clone, Debug)]
enum Step {
    /// Add element `elem` at replica 0 or 1.
    Add { at: u8, elem: u64 },
    /// Remove element `elem` at replica 0 or 1 (no-op when absent).
    Remove { at: u8, elem: u64 },
    /// One-way merge: the other replica's state joins into `at`.
    MergeInto { at: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Adds listed twice: bias toward growth so runs build real state.
    prop_oneof![
        (0u8..2, 1u64..20).prop_map(|(at, elem)| Step::Add { at, elem }),
        (0u8..2, 21u64..40).prop_map(|(at, elem)| Step::Add { at, elem }),
        (0u8..2, 1u64..40).prop_map(|(at, elem)| Step::Remove { at, elem }),
        (0u8..2).prop_map(|at| Step::MergeInto { at }),
    ]
}

/// Interprets a step list into two divergent OR-Sets. Interleaved
/// partial merges make the divergence genuinely two-sided: each side
/// can hold novel adds *and* removals of dots the other still lists.
fn divergent_pair(steps: &[Step], r0: NodeId, r1: NodeId) -> (MembershipCrdt, MembershipCrdt) {
    let mut sets = [
        MembershipCrdt::new(GossipSemantics::GrowShrink),
        MembershipCrdt::new(GossipSemantics::GrowShrink),
    ];
    let replicas = [r0, r1];
    for step in steps {
        match *step {
            Step::Add { at, elem } => {
                let at = at as usize;
                sets[at].add(replicas[at], entry(elem, replicas[at]));
            }
            Step::Remove { at, elem } => {
                let at = at as usize;
                sets[at].remove(replicas[at], ObjectId(elem));
            }
            Step::MergeInto { at } => {
                let at = at as usize;
                let other = sets[1 - at].clone();
                sets[at].merge(&other);
            }
        }
    }
    let [a, b] = sets;
    (a, b)
}

/// Runs one push-pull sync between two replicas preloaded with `a` and
/// `b`, in the given digest mode; returns the post-sync states of both
/// plus total (digest, delta) bytes charged.
fn sync_divergent(
    a: &MembershipCrdt,
    b: &MembershipCrdt,
    digest_mode: DigestMode,
    seed: u64,
) -> (ReplicaState, ReplicaState, u64, u64) {
    let (mut w, _client, cref) = setup(2, seed);
    preload(&mut w, cref.home, a);
    preload(&mut w, cref.replicas[0], b);
    engine::sync_pair(
        &mut w,
        COLL,
        cref.home,
        cref.replicas[0],
        digest_mode,
        TIMEOUT,
    );
    let digest_bytes = w.metrics().counter(names::DIGEST_BYTES);
    let delta_bytes = w.metrics().counter(names::DELTA_BYTES);
    (
        state_at(&w, cref.home),
        state_at(&w, cref.replicas[0]),
        digest_bytes,
        delta_bytes,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// From ANY divergent pair of OR-Set states, one push-pull exchange
    /// converges both replicas — and `MerkleRange` lands on exactly the
    /// membership and digest that `Full` does. The two digest modes are
    /// transports for the same join.
    #[test]
    fn merkle_and_full_converge_identically(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let r0 = NodeId(1);
        let r1 = NodeId(2);
        let (a, b) = divergent_pair(&steps, r0, r1);
        let (full_a, full_b, _, _) = sync_divergent(&a, &b, DigestMode::Full, 7);
        let (mk_a, mk_b, _, _) = sync_divergent(&a, &b, DigestMode::MerkleRange, 7);
        // Each mode converges its pair...
        prop_assert_eq!(&full_a, &full_b);
        prop_assert_eq!(&mk_a, &mk_b);
        // ...and both modes agree with each other.
        prop_assert_eq!(&full_a, &mk_a);
    }

}

/// At fixed set size, Merkle-range bytes track the symmetric difference
/// (`O(k log n)`): reconciling `16k` differing dots costs well under
/// `16k/k` times proportionally more bytes only by the `log(n/k)`
/// factor, and a small diff costs a fraction of what `Full` ships
/// (whose delta carries the entire live-dot list both ways).
#[test]
fn merkle_bytes_scale_with_difference() {
    let n = 8192u64;
    let r0 = NodeId(1);
    let mut base = MembershipCrdt::new(GossipSemantics::GrowShrink);
    for i in 1..=n {
        base.add(r0, entry(i, r0));
    }
    let run = |k: u64, mode: DigestMode| {
        let mut a = base.clone();
        let mut b = base.clone();
        // a gains k/2 fresh elements, b gains k/2 of its own.
        for i in 0..k / 2 {
            a.add(NodeId(3), entry(n + 1 + i, r0));
            b.add(NodeId(4), entry(2 * n + 1 + i, r0));
        }
        let (sa, sb, digest, delta) = sync_divergent(&a, &b, mode, 13);
        assert_eq!(sa, sb, "k={k} {mode:?} must converge");
        digest + delta
    };
    let small = run(8, DigestMode::MerkleRange);
    let large = run(128, DigestMode::MerkleRange);
    let full = run(8, DigestMode::Full);
    // 16x the difference must cost clearly less than 16x the bytes
    // (theory: ~(128·log(n/128)) / (8·log(n/8)) ≈ 10x here).
    assert!(
        large < small * 12,
        "bytes must be sublinear in the diff ratio: {small} -> {large}"
    );
    // And the whole point: a small diff of a big set beats Full.
    assert!(
        small * 2 < full,
        "merkle ({small}) must undercut full ({full}) at n={n}, k=8"
    );
}

/// Scheduled rounds converge under `MerkleRange`, end to end through
/// the scheduled engine (not just pairwise syncs).
#[test]
fn merkle_mode_converges_under_schedule() {
    let (mut w, client, cref) = setup(4, 19);
    for i in 1..=6 {
        client
            .add_member(&mut w, &cref, entry(i, cref.home))
            .unwrap();
    }
    client.remove_member(&mut w, &cref, ObjectId(3)).unwrap();
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            digest_mode: DigestMode::MerkleRange,
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(500);
    w.run_until(deadline);
    assert!(
        engine::converged(&w, COLL, &cref.all_nodes()),
        "failed to converge under MerkleRange"
    );
    assert_eq!(
        engine::elements_at(&w, cref.replicas[0], COLL)
            .unwrap()
            .len(),
        5
    );
    assert!(
        w.metrics().counter(names::RANGE_RPCS) > 0,
        "MerkleRange must actually descend"
    );
    handle.stop();
    w.run_to_quiescence();
}

/// Regression (silent drop): a peer that does not speak the anti-entropy
/// protocol — here a plain [`StoreServer`] — answers `BadRequest`, which
/// used to be matched as `Ok(_) => None` and dropped without a trace.
/// Every such exchange must now count as a failure, in both digest
/// modes.
#[test]
fn unexpected_replies_count_as_failures() {
    for digest_mode in [DigestMode::Full, DigestMode::MerkleRange] {
        let mut t = Topology::new();
        let _client = t.add_node("client", 0);
        let gossip_node = t.add_node("g", 1);
        let plain_node = t.add_node("p", 2);
        let mut w = StoreWorld::new(5, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(gossip_node, Box::new(GossipNode::new(gossip_node)));
        // The peer is a bare store server: no gossip vocabulary.
        w.install_service(plain_node, Box::new(StoreServer::new()));
        w.with_service_mut(gossip_node, |g: &mut GossipNode| {
            g.create_replica(COLL, GossipSemantics::GrowShrink);
            g.crdt_mut(COLL)
                .unwrap()
                .add(gossip_node, entry(1, gossip_node));
        });
        assert_eq!(w.metrics().counter(names::FAILURES), 0);
        engine::sync_pair(&mut w, COLL, gossip_node, plain_node, digest_mode, TIMEOUT);
        assert!(
            w.metrics().counter(names::FAILURES) > 0,
            "{digest_mode:?}: a BadRequest reply must be counted, not swallowed"
        );
    }
}

/// Regression (crashed-replica blindness): a replica that crashes while
/// holding dots nobody else has observed used to vanish from the
/// convergence-lag join — the survivors agreed with each other, so the
/// round read as fully converged while state sat unreplicated on the
/// dead node. The join now includes down-replica digests and the
/// exposure surfaces as `gossip.unreplicated_dots`.
#[test]
fn crashed_replica_with_unreplicated_dots_is_not_converged() {
    let (mut w, client, cref) = setup(3, 31);
    // Seed and fully converge one member.
    client
        .add_member(&mut w, &cref, entry(1, cref.home))
        .unwrap();
    let handle = engine::install(
        &mut w,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(10),
            ..GossipConfig::default()
        },
    );
    let deadline = w.now() + SimDuration::from_millis(300);
    w.run_until(deadline);
    assert!(engine::converged(&w, COLL, &cref.all_nodes()));
    assert_eq!(w.metrics().gauge(names::UNREPLICATED_DOTS), 0);
    let stale_before = w.metrics().counter(names::REPLICA_STALE_ROUNDS);
    // A second member lands on the primary, which crashes before any
    // round can replicate the new dot: in the same instant, through the
    // primary's own handler. (A client's add takes round trips, and a
    // round running beside them may replicate the dot first.)
    w.with_service_mut(cref.home, |g: &mut GossipNode| {
        g.apply(StoreMsg::AddMember {
            coll: COLL,
            entry: entry(2, cref.home),
        })
    });
    w.topology_mut().crash(cref.home);
    let deadline = w.now() + SimDuration::from_millis(300);
    w.run_until(deadline);
    // The two survivors agree with each other — the old code called
    // this converged. The new dot exists only on the dead primary.
    assert!(
        w.metrics().gauge(names::UNREPLICATED_DOTS) > 0,
        "the crashed primary's unreplicated dot must be visible"
    );
    assert!(
        w.metrics().counter(names::REPLICA_STALE_ROUNDS) > stale_before,
        "live replicas trailing a dead replica's digest are stale"
    );
    handle.stop();
    w.run_to_quiescence();
}
