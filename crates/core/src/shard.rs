//! Sharded weak sets: one logical set partitioned across shard groups
//! by a deterministic consistent-hash ring.
//!
//! A [`ShardedWeakSet`] splits a collection into `n` sub-collections
//! (shards), each with its own primary/replica group, and routes every
//! element to exactly one shard through a [`ShardRouter`]. Because the
//! routing is a function of the element id alone, shards partition the
//! element space: no element can appear in two shards.
//!
//! The set is still one logical object (PAPER.md: "logically one
//! object, physically scattered"), and its `elements` run is one
//! [`Elements`] run over the union of the shards: each membership read
//! reads every shard in turn, a Snapshot pins the union, a Locked or
//! guarded run holds every shard from its first invocation, and one
//! observer records one computation of the logical set.
//!
//! A whole-set `size` rides the batched path
//! (`StoreClient::read_members_batched`): one envelope per replica node
//! carries the reads for every shard co-located there, so it costs one
//! round-trip per *node* instead of one per shard per replica.

use crate::conformance::HistorySource;
use crate::error::Failure;
use crate::handle::WeakSet;
use crate::iter::{Elements, IterConfig};
use crate::semantics::Semantics;
use std::sync::{Arc, OnceLock};
use weakset_sim::node::NodeId;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreRt};

/// Domain-separation salts so ring points and key hashes never share an
/// input space.
const POINT_SALT: u64 = 0x5bd1_e995_9d1b_54d1;
const KEY_SALT: u64 = 0x94d0_49bb_1331_11eb;

/// SplitMix64: a tiny, stable, dependency-free 64-bit mixer (Steele et
/// al., "Fast splittable pseudorandom number generators"). Used for the
/// ring so routing is identical across platforms and runs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic consistent-hash ring mapping element ids to shard
/// ids.
///
/// Each shard owns 64 points on a `u64` ring; an element routes to the
/// shard owning the first point at or after its own hash (wrapping). A
/// ring over one more shard only moves keys *to* the new shard: every
/// other point stays where it was.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    ring: Ring,
}

/// Sorted `(point, shard)` pairs; ties break toward the smaller shard id
/// (sort order), deterministically.
type Ring = Arc<[(u64, u32)]>;

impl ShardRouter {
    /// Ring points per shard. Enough that a four-shard ring splits keys
    /// within a few percent of evenly.
    const VNODES: u64 = 64;

    /// A ring over shard ids `0..shards`. A ring is a function of the
    /// shard count alone, so rings over up to 8 shards are built once per
    /// process: a sharded scenario builds one, and sorting its points
    /// cost about as much as a membership read.
    pub fn new(shards: usize) -> Self {
        static BUILT: [OnceLock<Ring>; 8] = [const { OnceLock::new() }; 8];
        let build = || {
            let mut ring = Vec::with_capacity(shards * Self::VNODES as usize);
            for shard in 0..shards as u32 {
                let point = |v| (splitmix64(POINT_SALT ^ (u64::from(shard) << 32) ^ v), shard);
                ring.extend((0..Self::VNODES).map(point));
            }
            ring.sort_unstable();
            Arc::from(ring)
        };
        let ring = BUILT
            .get(shards)
            .map_or_else(build, |c| c.get_or_init(build).clone());
        ShardRouter { ring }
    }

    /// Routes an element to its shard: the owner of the first ring
    /// point at or after the element's hash, wrapping past the top.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn shard_for(&self, elem: ObjectId) -> u32 {
        assert!(!self.ring.is_empty(), "routing over an empty ring");
        let h = splitmix64(KEY_SALT ^ elem.0);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[i % self.ring.len()].1
    }
}

/// The sub-collection id for shard `shard` of the logical collection
/// `base`. Shard ids get their own block of the collection-id space so
/// they never collide with `base` itself or with other logical sets'
/// shards (for bases below 2^53 / 1024).
fn shard_collection_id(base: CollectionId, shard: u32) -> CollectionId {
    CollectionId(base.0 * 1024 + u64::from(shard) + 1)
}

/// The metric name for `name` scoped to one shard:
/// `shard.<index>.<name>` (see [`ShardedWeakSet::read_all_batched`]).
pub fn shard_key(shard: usize, name: &str) -> String {
    format!("shard.{shard}.{name}")
}

/// One shard's replica group: where its sub-collection lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardGroup {
    /// The shard's primary node.
    pub home: NodeId,
    /// Secondary replicas of the shard's membership list.
    pub replicas: Vec<NodeId>,
}

impl ShardGroup {
    /// A group with no secondary replicas.
    pub fn unreplicated(home: NodeId) -> Self {
        ShardGroup {
            home,
            replicas: Vec::new(),
        }
    }
}

/// A weak set partitioned across shard groups.
///
/// Mutations route to the owning shard's primary; `size` is batched
/// (one envelope per replica node); `elements` is one run over the
/// union of the shards.
#[derive(Clone, Debug)]
pub struct ShardedWeakSet {
    client: StoreClient,
    router: ShardRouter,
    shards: Vec<WeakSet>,
    config: IterConfig,
}

impl ShardedWeakSet {
    /// Creates the shard sub-collections (one per group, each id in its
    /// own block of the collection-id space) and binds the routed set.
    ///
    /// # Errors
    ///
    /// [`Failure::Store`] when any shard's collection cannot be
    /// created.
    pub fn create(
        world: &mut StoreRt,
        base: CollectionId,
        client: StoreClient,
        groups: &[ShardGroup],
        config: IterConfig,
    ) -> Result<Self, Failure> {
        let router = ShardRouter::new(groups.len());
        let mut shards = Vec::with_capacity(groups.len());
        for (i, g) in groups.iter().enumerate() {
            let cref = CollectionRef {
                id: shard_collection_id(base, i as u32),
                home: g.home,
                replicas: g.replicas.clone(),
            };
            client.create_collection(world, &cref)?;
            shards.push(WeakSet::new(client.clone(), cref).with_config(config.clone()));
        }
        Ok(ShardedWeakSet {
            client,
            router,
            shards,
            config,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's underlying weak set.
    pub fn shard(&self, index: usize) -> &WeakSet {
        &self.shards[index]
    }

    /// The shard index an element routes to.
    pub fn shard_for(&self, elem: ObjectId) -> usize {
        self.router.shard_for(elem) as usize
    }

    /// Stores `rec` on `home` and adds it to its shard.
    ///
    /// # Errors
    ///
    /// [`Failure::Store`] as for [`WeakSet::add`].
    pub fn add(&self, world: &mut StoreRt, rec: ObjectRecord, home: NodeId) -> Result<(), Failure> {
        let shard = self.shard_for(rec.id);
        self.shards[shard].add(world, rec, home)
    }

    /// Removes an element from its shard.
    ///
    /// # Errors
    ///
    /// [`Failure::Store`] as for [`WeakSet::remove`].
    pub fn remove(&self, world: &mut StoreRt, elem: ObjectId) -> Result<(), Failure> {
        let shard = self.shard_for(elem);
        self.shards[shard].remove(world, elem)
    }

    /// Membership test: a single-shard read (no fan-out needed, the
    /// ring says exactly where the element would live).
    ///
    /// # Errors
    ///
    /// [`Failure::MembershipUnavailable`] when that shard cannot be
    /// read.
    pub fn contains(&self, world: &mut StoreRt, elem: ObjectId) -> Result<bool, Failure> {
        let shard = self.shard_for(elem);
        self.shards[shard].contains(world, elem)
    }

    /// `size`: the whole set's membership count in one batched read
    /// round across all shards.
    ///
    /// # Errors
    ///
    /// [`Failure::MembershipUnavailable`] when any shard cannot be
    /// read under the configured policy.
    pub fn size(&self, world: &mut StoreRt) -> Result<usize, Failure> {
        let mut total = 0;
        let mut first_err = None;
        for r in self.read_all_batched(world) {
            match r {
                Ok(read) => total += read.entries.len(),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(total),
            Some(e) => Err(Failure::MembershipUnavailable(e)),
        }
    }

    /// One batched membership read covering every shard, with
    /// per-shard observability: each shard records its read latency
    /// (`shard.<i>.read.us`), outcome (`shard.<i>.read.ok`/`.err`),
    /// and how many of its requests shared envelopes this round
    /// (`shard.<i>.queue.depth.max`).
    pub fn read_all_batched(
        &self,
        world: &mut StoreRt,
    ) -> Vec<Result<weakset_store::client::MembershipRead, weakset_store::client::StoreError>> {
        let policy = self.config.read_policy;
        let crefs: Vec<CollectionRef> = self.shards.iter().map(|s| s.cref().clone()).collect();
        let started = world.now();
        let results = self.client.read_members_batched(world, &crefs, policy);
        let elapsed = world.now().saturating_since(started).as_micros();
        let m = world.metrics_mut();
        for (i, (r, cref)) in results.iter().zip(&crefs).enumerate() {
            m.observe(&shard_key(i, "read.us"), elapsed);
            m.incr(&shard_key(
                i,
                if r.is_ok() { "read.ok" } else { "read.err" },
            ));
            m.gauge_max(
                &shard_key(i, "queue.depth.max"),
                policy.contacts(cref) as u64,
            );
        }
        results
    }

    /// Opens an `elements` iterator of the chosen semantics over the
    /// union of the shards.
    pub fn elements(&self, semantics: Semantics) -> Elements {
        let crefs = self.shards.iter().map(|s| s.cref().clone()).collect();
        Elements::union(semantics, self.client.clone(), crefs, self.config.clone())
    }

    /// Opens an iterator with a conformance observer of every shard
    /// attached (see [`Elements::observed`] for another history source).
    pub fn elements_observed(&self, semantics: Semantics) -> Elements {
        self.elements(semantics).observed(HistorySource::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IterStep;
    use crate::iter::COLLECT_MAX_BLOCKS;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_sim::traits::{Observe, ServiceHost};
    use weakset_spec::checker::check_computation;
    use weakset_store::prelude::StoreWorld;
    use weakset_store::prelude::{ReadPolicy, StoreServer};

    /// `n_shards` groups of `group_size` servers each, plus a client.
    fn sharded_setup(
        seed: u64,
        n_shards: usize,
        group_size: usize,
        policy: ReadPolicy,
    ) -> (StoreWorld, ShardedWeakSet, Vec<ShardGroup>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let groups: Vec<ShardGroup> = (0..n_shards)
            .map(|g| {
                let nodes = t.add_servers(&format!("g{g}-"), group_size);
                ShardGroup {
                    home: nodes[0],
                    replicas: nodes[1..].to_vec(),
                }
            })
            .collect();
        let mut w = StoreWorld::new(seed, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        for id in w.topology().node_ids().collect::<Vec<_>>() {
            if id != cn {
                w.install_service(id, Box::new(StoreServer::new()));
            }
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(50));
        let config = IterConfig {
            read_policy: policy,
            ..IterConfig::default()
        };
        let set = ShardedWeakSet::create(&mut w, CollectionId(1), client, &groups, config)
            .expect("create shards");
        (w, set, groups)
    }

    fn populate(world: &mut StoreWorld, set: &ShardedWeakSet, groups: &[ShardGroup], n: u64) {
        for i in 0..n {
            let id = ObjectId(i + 1);
            let home = groups[set.shard_for(id)].home;
            set.add(
                world,
                ObjectRecord::new(id, format!("o{i}"), &b"x"[..]),
                home,
            )
            .unwrap();
        }
    }

    #[test]
    fn router_spreads_keys_and_is_deterministic() {
        let r = ShardRouter::new(4);
        let mut seen = BTreeSet::new();
        for k in 0..512u64 {
            seen.insert(r.shard_for(ObjectId(k)));
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "512 keys cover all four shards"
        );
        let r2 = ShardRouter::new(4);
        for k in 0..512u64 {
            assert_eq!(r.shard_for(ObjectId(k)), r2.shard_for(ObjectId(k)));
        }
    }

    /// Every element's shard on rings of 1..=4 shards, and every shard's
    /// sub-collection id, folded into one FNV-1a digest of their bytes.
    #[test]
    fn routing_is_pinned() {
        let mut bytes = Vec::new();
        for shards in 1..=4usize {
            let r = ShardRouter::new(shards);
            for elem in 1..=4_096u64 {
                bytes.extend_from_slice(&(shards as u64).to_le_bytes());
                bytes.extend_from_slice(&elem.to_le_bytes());
                bytes.extend_from_slice(&r.shard_for(ObjectId(elem)).to_le_bytes());
            }
            for shard in 0..shards as u32 {
                bytes.extend_from_slice(
                    &shard_collection_id(CollectionId(1), shard).0.to_le_bytes(),
                );
            }
        }
        assert_eq!(weakset_sim::trace::fnv1a(&bytes), 0x16e3_ef9a_2010_51f2);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn routing_on_empty_ring_panics() {
        let _ = ShardRouter::new(0).shard_for(ObjectId(1));
    }

    #[test]
    fn sharded_set_interface_round_trip() {
        let (mut w, set, groups) = sharded_setup(11, 3, 2, ReadPolicy::Quorum);
        assert_eq!(set.shard_count(), 3);
        assert_eq!(set.size(&mut w).unwrap(), 0);
        populate(&mut w, &set, &groups, 12);
        assert_eq!(set.size(&mut w).unwrap(), 12);
        assert!(set.contains(&mut w, ObjectId(5)).unwrap());
        set.remove(&mut w, ObjectId(5)).unwrap();
        assert!(!set.contains(&mut w, ObjectId(5)).unwrap());
        assert_eq!(set.size(&mut w).unwrap(), 11);
        // Members landed on more than one shard (the router spreads).
        let mut nonempty = 0;
        for i in 0..set.shard_count() {
            if set.shard(i).size(&mut w).unwrap() > 0 {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 2, "12 members should span several shards");
    }

    #[test]
    fn per_shard_metrics_are_recorded() {
        let (mut w, set, groups) = sharded_setup(13, 2, 3, ReadPolicy::Quorum);
        populate(&mut w, &set, &groups, 6);
        set.size(&mut w).unwrap();
        let m = w.metrics();
        for i in 0..2 {
            assert!(
                m.counter(&shard_key(i, "read.ok")) >= 1,
                "shard {i} read ok"
            );
            assert_eq!(m.counter(&shard_key(i, "read.err")), 0);
            assert!(m
                .latency(&shard_key(i, "read.us"))
                .is_some_and(|r| r.p50().is_some()));
            assert_eq!(
                m.gauge(&shard_key(i, "queue.depth.max")),
                3,
                "home + 2 replicas per envelope"
            );
        }
        assert_eq!(m.counter(&shard_key(2, "read.ok")), 0, "two shards only");
    }

    #[test]
    fn a_union_run_is_one_conforming_computation_for_every_semantics() {
        let (mut w, set, groups) = sharded_setup(17, 3, 1, ReadPolicy::Primary);
        populate(&mut w, &set, &groups, 9);
        for sem in Semantics::ALL {
            let mut it = set.elements_observed(sem);
            assert_eq!(it.semantics(), sem);
            let mut got = BTreeSet::new();
            loop {
                match it.next(&mut w) {
                    IterStep::Yielded(rec) => {
                        assert!(got.insert(rec.id), "{sem}: duplicate yield {:?}", rec.id);
                    }
                    IterStep::Done => break,
                    other => panic!("{sem}: {other:?}"),
                }
            }
            assert_eq!(got.len(), 9, "{sem}");
            let observer = it.take_observer().expect("observed");
            assert_eq!(observer.unexplained(), &[] as &[String], "{sem}");
            let comp = observer.finish(&w);
            assert_eq!(comp.runs.len(), 1, "{sem}: one run of the logical set");
            check_computation(sem.figure(), &comp).assert_ok();
        }
    }

    #[test]
    fn a_shard_that_cannot_be_read_fails_the_union_read() {
        let (mut w, set, groups) = sharded_setup(19, 2, 1, ReadPolicy::Primary);
        populate(&mut w, &set, &groups, 8);
        // Crash the SECOND shard's home: the first read reads shard 0,
        // then fails at shard 1, and the pessimistic run fails before it
        // yields anything.
        w.topology_mut().crash(groups[1].home);
        let mut it = set.elements_observed(Semantics::GrowOnly);
        let (got, end) = it.drain(&mut w, COLLECT_MAX_BLOCKS, SimDuration::from_millis(20));
        assert!(matches!(
            end,
            IterStep::Failed(Failure::MembershipUnavailable(_))
        ));
        assert!(got.is_empty(), "nothing is yielded from half a read");
        check_computation(
            Semantics::GrowOnly.figure(),
            &it.take_computation(&w).unwrap(),
        )
        .assert_ok();
    }

    proptest! {
        /// Consistent-hash stability: a ring over one more shard only
        /// moves keys to the new shard.
        #[test]
        fn routing_is_stable_when_a_shard_is_added(
            keys in proptest::collection::vec(any::<u64>(), 1..200),
            shards in 1usize..8,
        ) {
            let before = ShardRouter::new(shards);
            let grown = ShardRouter::new(shards + 1);
            for &k in &keys {
                let old = before.shard_for(ObjectId(k));
                let new = grown.shard_for(ObjectId(k));
                prop_assert!(
                    new == old || new == shards as u32,
                    "key {k} moved {old} -> {new}, not to the new shard"
                );
            }
        }

        /// Fig 5 (grow-only) across shards under partitions: with at
        /// most a minority of each shard group's replicas cut off,
        /// quorum reads still see every member and the union run yields
        /// EXACTLY the union of the shards' members — every member
        /// once, no duplicates, no phantoms.
        #[test]
        fn multi_shard_grow_only_yields_exactly_the_union_under_partition(
            seed in 0u64..500,
            n_members in 0u64..24,
            cut_mask in 0usize..8,
            n_shards in 1usize..4,
        ) {
            let (mut w, set, groups) =
                sharded_setup(seed, n_shards, 3, ReadPolicy::Quorum);
            populate(&mut w, &set, &groups, n_members);
            // Cut at most ONE replica per shard group (a minority of
            // its 3 nodes); homes and the client stay connected, so
            // every member object remains reachable.
            let cut: Vec<_> = groups
                .iter()
                .enumerate()
                .filter(|(g, _)| cut_mask & (1 << g) != 0)
                .map(|(_, grp)| grp.replicas[0])
                .collect();
            if !cut.is_empty() {
                w.topology_mut().partition(&cut);
            }
            let mut it = set.elements_observed(Semantics::GrowOnly);
            let mut got = Vec::new();
            loop {
                match it.next(&mut w) {
                    IterStep::Yielded(rec) => got.push(rec.id),
                    IterStep::Done => break,
                    other => prop_assert!(false, "unexpected step: {other:?}"),
                }
            }
            let expect: BTreeSet<ObjectId> = (1..=n_members).map(ObjectId).collect();
            let got_set: BTreeSet<ObjectId> = got.iter().copied().collect();
            prop_assert_eq!(got.len(), got_set.len(), "duplicate yields");
            prop_assert_eq!(&got_set, &expect, "yields != union of shard members");
            let comp = it.take_computation(&w).expect("observed");
            check_computation(Semantics::GrowOnly.figure(), &comp).assert_ok();
        }
    }
}
