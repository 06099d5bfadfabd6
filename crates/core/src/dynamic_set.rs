//! Dynamic sets: the Unix-API abstraction the paper's authors were
//! building (Steere's thesis system), with Figure 6 semantics plus
//! parallel prefetching.
//!
//! A dynamic set is opened either over an existing collection or by
//! *query* — "finding all files that satisfy a given predicate" — in which
//! case every reachable node is asked to evaluate the predicate locally
//! and the union forms the membership (nodes that cannot be reached are
//! simply skipped: partial results are the point).

use crate::error::IterStep;
use crate::prefetch::{PrefetchConfig, PrefetchEngine, PrefetchStep};
use std::collections::BTreeSet;
use weakset_sim::node::NodeId;
use weakset_store::collection::MemberEntry;
use weakset_store::object::ObjectId;
use weakset_store::prelude::{CollectionRef, Query, ReadPolicy, StoreClient, StoreError, StoreRt};

/// A dynamic set: optimistic iteration with parallel prefetch and partial
/// results.
#[derive(Debug)]
pub struct DynamicSet {
    engine: PrefetchEngine,
    yielded: BTreeSet<ObjectId>,
    pending: Vec<MemberEntry>,
    members_found: usize,
    nodes_skipped: usize,
}

impl DynamicSet {
    /// Opens a dynamic set over a query: every node in `nodes` is asked to
    /// evaluate `query` locally; unreachable nodes are skipped and their
    /// objects are simply absent (partial results).
    pub fn open_query(
        world: &mut StoreRt,
        client: &StoreClient,
        nodes: &[NodeId],
        query: &Query,
        cfg: PrefetchConfig,
    ) -> Self {
        let mut members = Vec::new();
        let mut skipped = 0;
        for &node in nodes {
            match client.query_node(world, node, query) {
                Ok(ids) => {
                    members.extend(ids.into_iter().map(|elem| MemberEntry { elem, home: node }))
                }
                Err(_) => skipped += 1,
            }
        }
        let found = members.len();
        DynamicSet {
            engine: PrefetchEngine::new(world, client.node(), members, cfg),
            yielded: BTreeSet::new(),
            pending: Vec::new(),
            members_found: found,
            nodes_skipped: skipped,
        }
    }

    /// Opens a dynamic set over an explicit member list (e.g. the union
    /// of several directories' memberships gathered by a recursive
    /// traversal).
    pub fn over_members(
        world: &StoreRt,
        client: &StoreClient,
        members: Vec<MemberEntry>,
        cfg: PrefetchConfig,
    ) -> Self {
        let found = members.len();
        DynamicSet {
            engine: PrefetchEngine::new(world, client.node(), members, cfg),
            yielded: BTreeSet::new(),
            pending: Vec::new(),
            members_found: found,
            nodes_skipped: 0,
        }
    }

    /// Opens a dynamic set over an existing collection's current
    /// membership.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the membership cannot be read under `policy`.
    pub fn open_collection(
        world: &mut StoreRt,
        client: &StoreClient,
        cref: &CollectionRef,
        policy: ReadPolicy,
        cfg: PrefetchConfig,
    ) -> Result<Self, StoreError> {
        let read = client.read_members(world, cref, policy)?;
        let found = read.entries.len();
        Ok(DynamicSet {
            engine: PrefetchEngine::new(world, client.node(), read.entries.to_vec(), cfg),
            yielded: BTreeSet::new(),
            pending: Vec::new(),
            members_found: found,
            nodes_skipped: 0,
        })
    }

    /// How many members the open discovered.
    pub fn members_found(&self) -> usize {
        self.members_found
    }

    /// How many nodes the query skipped as unreachable.
    pub fn nodes_skipped(&self) -> usize {
        self.nodes_skipped
    }

    /// Members that could not be fetched yet (retry with
    /// [`DynamicSet::retry_pending`]).
    pub fn pending(&self) -> &[MemberEntry] {
        &self.pending
    }

    /// Elements yielded so far.
    pub fn yielded(&self) -> &BTreeSet<ObjectId> {
        &self.yielded
    }

    /// Re-queues every pending member (e.g. after a partition heals).
    pub fn retry_pending(&mut self) {
        for e in self.pending.drain(..) {
            self.engine.push(e);
        }
    }

    /// The next available object, unordered, as soon as it arrives.
    ///
    /// Returns [`IterStep::Blocked`] when only unreachable members remain
    /// (call [`DynamicSet::retry_pending`] later), and [`IterStep::Done`]
    /// when every discovered member has been yielded.
    pub fn next(&mut self, world: &mut StoreRt) -> IterStep {
        loop {
            match self.engine.next_ready(world) {
                PrefetchStep::Ready(rec) => {
                    if self.yielded.insert(rec.id) {
                        return IterStep::Yielded(rec);
                    }
                    // Duplicate discovery (same object matched twice):
                    // sets have no duplicates; skip.
                }
                PrefetchStep::Unavailable(entry) => {
                    self.pending.push(entry);
                }
                PrefetchStep::Drained => {
                    return if self.pending.is_empty() {
                        IterStep::Done
                    } else {
                        IterStep::Blocked
                    };
                }
            }
        }
    }

    /// Drives the set until it blocks or finishes, collecting what
    /// arrives. Returns the records plus the final step.
    pub fn drain_available(
        &mut self,
        world: &mut StoreRt,
    ) -> (Vec<weakset_store::object::ObjectRecord>, IterStep) {
        let mut out = Vec::new();
        loop {
            match self.next(world) {
                IterStep::Yielded(rec) => out.push(rec),
                step => return (out, step),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::{SimDuration, SimTime};
    use weakset_sim::topology::Topology;
    use weakset_store::object::ObjectRecord;
    use weakset_store::prelude::StoreServer;
    use weakset_store::prelude::StoreWorld;

    fn setup(n: usize) -> (StoreWorld, StoreClient, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n);
        let mut w = StoreWorld::new(37, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(100));
        (w, client, servers)
    }

    fn load_menus(w: &mut StoreWorld, client: &StoreClient, servers: &[NodeId], n_per: usize) {
        let mut id = 1u64;
        for &s in servers {
            for k in 0..n_per {
                let cuisine = if k % 2 == 0 { "chinese" } else { "thai" };
                client
                    .put_object(
                        w,
                        s,
                        ObjectRecord::new(ObjectId(id), format!("menu-{id}"), &b"menu"[..])
                            .with_attr("cuisine", cuisine),
                    )
                    .unwrap();
                id += 1;
            }
        }
    }

    #[test]
    fn query_open_unions_all_nodes() {
        let (mut w, client, servers) = setup(3);
        load_menus(&mut w, &client, &servers, 4);
        let mut ds = DynamicSet::open_query(
            &mut w,
            &client,
            &servers,
            &Query::attr("cuisine", "chinese"),
            PrefetchConfig::default(),
        );
        assert_eq!(ds.members_found(), 6); // 2 per node × 3 nodes
        assert_eq!(ds.nodes_skipped(), 0);
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!(end, IterStep::Done);
        assert_eq!(got.len(), 6);
        assert!(got.iter().all(|r| r.attr("cuisine") == Some("chinese")));
    }

    #[test]
    fn query_open_skips_unreachable_nodes() {
        let (mut w, client, servers) = setup(3);
        load_menus(&mut w, &client, &servers, 2);
        w.topology_mut().partition(&[servers[2]]);
        let mut ds = DynamicSet::open_query(
            &mut w,
            &client,
            &servers,
            &Query::All,
            PrefetchConfig::default(),
        );
        assert_eq!(ds.nodes_skipped(), 1);
        assert_eq!(ds.members_found(), 4);
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!(end, IterStep::Done);
        assert_eq!(got.len(), 4); // partial result, no failure
    }

    #[test]
    fn time_to_first_is_one_rtt_despite_many_members() {
        let (mut w, client, servers) = setup(4);
        load_menus(&mut w, &client, &servers, 8); // 32 objects
        let mut ds = DynamicSet::open_query(
            &mut w,
            &client,
            &servers,
            &Query::All,
            PrefetchConfig {
                window: 32,
                ..Default::default()
            },
        );
        let opened_at = w.now();
        let first = ds.next(&mut w);
        assert!(matches!(first, IterStep::Yielded(_)));
        // One round trip (2 × 5ms) after the open completed, even though
        // 32 objects are being fetched.
        assert_eq!(w.now(), opened_at + SimDuration::from_millis(10));
    }

    #[test]
    fn blocked_then_retry_after_heal() {
        let (mut w, client, servers) = setup(2);
        load_menus(&mut w, &client, &servers, 1);
        let mut ds = DynamicSet::open_query(
            &mut w,
            &client,
            &servers,
            &Query::All,
            PrefetchConfig::default(),
        );
        w.topology_mut().partition(&[servers[1]]);
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!(end, IterStep::Blocked);
        assert_eq!(got.len(), 1);
        assert_eq!(ds.pending().len(), 1);
        w.topology_mut().heal_partition();
        ds.retry_pending();
        let (got2, end2) = ds.drain_available(&mut w);
        assert_eq!(end2, IterStep::Done);
        assert_eq!(got2.len(), 1);
        assert_eq!(ds.yielded().len(), 2);
    }

    #[test]
    fn open_collection_uses_membership() {
        let (mut w, client, servers) = setup(2);
        let cref = CollectionRef::unreplicated(weakset_store::object::CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        for i in 0..3u64 {
            let home = servers[(i % 2) as usize];
            client
                .put_object(
                    &mut w,
                    home,
                    ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b""[..]),
                )
                .unwrap();
            client
                .add_member(
                    &mut w,
                    &cref,
                    MemberEntry {
                        elem: ObjectId(i + 1),
                        home,
                    },
                )
                .unwrap();
        }
        let mut ds = DynamicSet::open_collection(
            &mut w,
            &client,
            &cref,
            ReadPolicy::Primary,
            PrefetchConfig::default(),
        )
        .unwrap();
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!(end, IterStep::Done);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn open_collection_fails_when_membership_unreachable() {
        let (mut w, client, servers) = setup(1);
        let cref = CollectionRef::unreplicated(weakset_store::object::CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        w.topology_mut().crash(servers[0]);
        let r = DynamicSet::open_collection(
            &mut w,
            &client,
            &cref,
            ReadPolicy::Primary,
            PrefetchConfig::default(),
        );
        assert!(r.is_err());
        let _ = SimTime::ZERO; // keep import used
    }
}
