//! Dynamic sets: the Unix-API abstraction the paper's authors were
//! building (Steere's thesis system), with parallel prefetch,
//! closest-first fetching and partial results.
//!
//! A dynamic set lists the membership it read at open, and never fails:
//! where members cannot be fetched it blocks, and
//! [`DynamicSet::retry_pending`] tries them again. That is Figure 4's
//! first-state membership with Figure 6's failure handling, not the
//! Figure 6 iterator: a member added after open is never listed, one
//! removed after open still is, and the run still ends `Done`.
//!
//! A dynamic set is opened over an existing collection, over an explicit
//! member list, or by *query* — "finding all files that satisfy a given
//! predicate" — in which case every reachable node is asked to evaluate
//! the predicate locally and the union forms the membership (nodes that
//! cannot be reached are simply skipped: partial results are the point).
//!
//! "We can implement such file system commands more efficiently by
//! fetching files in parallel, fetching 'closer' files first, and
//! fetching all accessible files despite network failures" (§1.1): a
//! window of fetches stays in flight, so total latency is roughly
//! `ceil(n / window)` round trips instead of `n`, and time-to-first-object
//! is one round trip.

use crate::error::IterStep;
use crate::iter::{drive, order_candidates, FetchOrder};
use std::collections::{BTreeSet, VecDeque};
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::ReplyToken;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, Query, ReadPolicy, StoreClient, StoreError, StoreRt};

/// Prefetch tunables.
#[derive(Clone, Debug, PartialEq)]
pub struct PrefetchConfig {
    /// Maximum fetches in flight at once.
    pub window: usize,
    /// Per-fetch deadline.
    pub fetch_timeout: SimDuration,
    /// Candidate ordering.
    pub order: FetchOrder,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            window: 8,
            fetch_timeout: SimDuration::from_millis(100),
            order: FetchOrder::ClosestFirst,
        }
    }
}

#[derive(Debug)]
struct Inflight {
    token: ReplyToken,
    entry: MemberEntry,
    deadline: SimTime,
}

/// A dynamic set: unordered listing of the membership read at open, with
/// a window of object fetches in flight and partial results.
#[derive(Debug)]
pub struct DynamicSet {
    client_node: NodeId,
    cfg: PrefetchConfig,
    /// Members not yet fetched or in flight, in fetch order.
    queue: VecDeque<MemberEntry>,
    inflight: Vec<Inflight>,
    /// Tokens abandoned at their deadline; drained opportunistically so a
    /// late reply does not accumulate in the world's completion map.
    zombies: Vec<ReplyToken>,
    yielded: BTreeSet<ObjectId>,
    pending: Vec<MemberEntry>,
    members_found: usize,
    nodes_skipped: usize,
}

impl DynamicSet {
    /// Orders `members` per `cfg` and queues them all for fetching.
    fn build(
        world: &StoreRt,
        client: &StoreClient,
        mut members: Vec<MemberEntry>,
        nodes_skipped: usize,
        cfg: PrefetchConfig,
    ) -> Self {
        assert!(cfg.window >= 1, "prefetch window must be at least 1");
        order_candidates(world, client.node(), &mut members, cfg.order);
        DynamicSet {
            client_node: client.node(),
            cfg,
            members_found: members.len(),
            queue: members.into(),
            inflight: Vec::new(),
            zombies: Vec::new(),
            yielded: BTreeSet::new(),
            pending: Vec::new(),
            nodes_skipped,
        }
    }

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
        Self::build(world, client, members, skipped, cfg)
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
        Self::build(world, client, members, 0, cfg)
    }

    /// Opens a dynamic set over an existing collection's membership, read
    /// from its primary.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the primary's membership cannot be read.
    pub fn open_collection(
        world: &mut StoreRt,
        client: &StoreClient,
        cref: &CollectionRef,
        cfg: PrefetchConfig,
    ) -> Result<Self, StoreError> {
        let read = client.read_members(world, cref, ReadPolicy::Primary)?;
        Ok(Self::build(world, client, read.entries.to_vec(), 0, cfg))
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

    /// Re-queues every pending member (e.g. after a partition heals).
    pub fn retry_pending(&mut self) {
        self.queue.extend(self.pending.drain(..));
    }

    /// The next available object, unordered, as soon as it arrives.
    ///
    /// A member whose fetch fails (unreachable, missing, or past its
    /// deadline) goes onto [`DynamicSet::pending`]. Returns
    /// [`IterStep::Blocked`] when only pending members remain (call
    /// [`DynamicSet::retry_pending`] later), and [`IterStep::Done`] when
    /// every discovered member has been yielded.
    pub fn next(&mut self, world: &mut StoreRt) -> IterStep {
        loop {
            self.zombies.retain(|&t| world.try_take_reply(t).is_none());
            while self.inflight.len() < self.cfg.window {
                let Some(entry) = self.queue.pop_front() else {
                    break;
                };
                let token = world.send(
                    self.client_node,
                    entry.home,
                    StoreMsg::GetObject(entry.elem),
                );
                self.inflight.push(Inflight {
                    token,
                    entry,
                    deadline: world.now() + self.cfg.fetch_timeout,
                });
            }
            let Some(deadline) = self.inflight.iter().map(|f| f.deadline).min() else {
                return if self.pending.is_empty() {
                    IterStep::Done
                } else {
                    IterStep::Blocked
                };
            };
            let tokens: Vec<ReplyToken> = self.inflight.iter().map(|f| f.token).collect();
            match world.wait_any(&tokens, deadline) {
                Some(done) => {
                    let idx = self
                        .inflight
                        .iter()
                        .position(|f| f.token == done)
                        .expect("completed token is in flight");
                    let f = self.inflight.swap_remove(idx);
                    match world.try_take_reply(done) {
                        Some(Ok(StoreMsg::Object(rec))) => {
                            // A member discovered twice (same object
                            // matched on two nodes) is listed once.
                            if self.yielded.insert(rec.id) {
                                return IterStep::Yielded(rec);
                            }
                        }
                        Some(_) => self.pending.push(f.entry),
                        None => unreachable!("wait_any returned an incomplete token"),
                    }
                }
                None => {
                    // Deadline hit: expire an overdue fetch.
                    let now = world.now();
                    if let Some(idx) = self.inflight.iter().position(|f| f.deadline <= now) {
                        let f = self.inflight.swap_remove(idx);
                        self.zombies.push(f.token);
                        self.pending.push(f.entry);
                    }
                }
            }
        }
    }

    /// Drives the set until it blocks or finishes, collecting what
    /// arrives. Returns the records plus the final step.
    pub fn drain_available(&mut self, world: &mut StoreRt) -> (Vec<ObjectRecord>, IterStep) {
        drive(world, 1, SimDuration::ZERO, |w| self.next(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::link::LinkState;
    use weakset_sim::topology::Topology;
    use weakset_store::object::CollectionId;
    use weakset_store::prelude::{StoreServer, StoreWorld};

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

    /// Puts `n_per` menus on each server, ids counting up from 1, and
    /// returns their member entries.
    fn load_menus(
        w: &mut StoreWorld,
        client: &StoreClient,
        servers: &[NodeId],
        n_per: usize,
    ) -> Vec<MemberEntry> {
        let mut members = Vec::new();
        for &home in servers {
            for k in 0..n_per {
                let elem = ObjectId(members.len() as u64 + 1);
                let cuisine = if k % 2 == 0 { "chinese" } else { "thai" };
                client
                    .put_object(
                        w,
                        home,
                        ObjectRecord::new(elem, format!("menu-{}", elem.0), &b"menu"[..])
                            .with_attr("cuisine", cuisine),
                    )
                    .unwrap();
                members.push(MemberEntry { elem, home });
            }
        }
        members
    }

    /// A collection homed on `servers[0]` whose members are one menu per
    /// server.
    fn menu_collection(
        w: &mut StoreWorld,
        client: &StoreClient,
        servers: &[NodeId],
    ) -> CollectionRef {
        let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
        client.create_collection(w, &cref).unwrap();
        for entry in load_menus(w, client, servers, 1) {
            client.add_member(w, &cref, entry).unwrap();
        }
        cref
    }

    fn ids(records: &[ObjectRecord]) -> Vec<u64> {
        let mut ids: Vec<u64> = records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids
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
        assert_eq!(ids(&got), [1, 3, 5, 7, 9, 11]);
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
    fn a_wider_window_compresses_wall_time() {
        // 8 objects at 5ms one-way: window 8 fetches them all in one
        // round trip, window 1 strictly serially in eight.
        let (mut w, client, servers) = setup(8);
        let members = load_menus(&mut w, &client, &servers, 1);
        for (window, took) in [(8, 10), (1, 80)] {
            let cfg = PrefetchConfig {
                window,
                ..Default::default()
            };
            let mut ds = DynamicSet::over_members(&w, &client, members.clone(), cfg);
            let start = w.now();
            let (got, end) = ds.drain_available(&mut w);
            assert_eq!((got.len(), end), (8, IterStep::Done));
            assert_eq!(
                w.now(),
                start + SimDuration::from_millis(took),
                "window {window}"
            );
        }
    }

    #[test]
    fn a_missing_object_is_pending() {
        let (mut w, client, servers) = setup(1);
        let mut members = load_menus(&mut w, &client, &servers, 1);
        members.push(MemberEntry {
            elem: ObjectId(99),
            home: servers[0],
        });
        let mut ds = DynamicSet::over_members(&w, &client, members, PrefetchConfig::default());
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!((ids(&got), end), (vec![1], IterStep::Blocked));
        assert_eq!(
            ds.pending()[..],
            [MemberEntry {
                elem: ObjectId(99),
                home: servers[0]
            }]
        );
    }

    #[test]
    fn a_timeout_expires_a_slow_fetch() {
        // A fully lossy link to a live server: no reply ever comes and
        // routing does not fail fast, so the fetch deadline decides.
        let (mut w, client, servers) = setup(1);
        let members = load_menus(&mut w, &client, &servers, 1);
        w.topology_mut()
            .set_link(client.node(), servers[0], LinkState::lossy(1.0));
        let cfg = PrefetchConfig {
            fetch_timeout: SimDuration::from_millis(30),
            ..Default::default()
        };
        let mut ds = DynamicSet::over_members(&w, &client, members, cfg);
        let start = w.now();
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!((got.len(), end), (0, IterStep::Blocked));
        assert_eq!(w.now(), start + SimDuration::from_millis(30));
        assert_eq!(ds.pending().len(), 1);
    }

    #[test]
    fn closest_first_fetches_near_objects_first() {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let near = t.add_node("near", 1);
        let far = t.add_node("far", 8);
        let mut w = StoreWorld::new(
            3,
            t,
            LatencyModel::SiteDistance {
                base: SimDuration::from_millis(1),
                per_hop: SimDuration::from_millis(4),
            },
        );
        for (node, id, name) in [(near, 2, "near-obj"), (far, 1, "far-obj")] {
            let mut srv = StoreServer::new();
            srv.preload_object(ObjectRecord::new(ObjectId(id), name, &b""[..]));
            w.install_service(node, Box::new(srv));
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(100));
        let members = vec![
            MemberEntry {
                elem: ObjectId(1),
                home: far,
            },
            MemberEntry {
                elem: ObjectId(2),
                home: near,
            },
        ];
        // Window 1 makes the order observable.
        for (order, first) in [
            (FetchOrder::ClosestFirst, "near-obj"),
            (FetchOrder::IdOrder, "far-obj"),
        ] {
            let cfg = PrefetchConfig {
                window: 1,
                order,
                ..Default::default()
            };
            let mut ds = DynamicSet::over_members(&w, &client, members.clone(), cfg);
            match ds.next(&mut w) {
                IterStep::Yielded(rec) => assert_eq!(rec.name, first, "{order:?}"),
                other => panic!("{other:?}"),
            }
        }
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
        assert_eq!(ids(&got), [1]);
        assert_eq!(ds.pending().len(), 1);
        w.topology_mut().heal_partition();
        ds.retry_pending();
        let (got2, end2) = ds.drain_available(&mut w);
        assert_eq!(end2, IterStep::Done);
        assert_eq!(ids(&got2), [2]);
    }

    #[test]
    fn open_collection_uses_membership() {
        let (mut w, client, servers) = setup(3);
        let cref = menu_collection(&mut w, &client, &servers);
        let mut ds =
            DynamicSet::open_collection(&mut w, &client, &cref, PrefetchConfig::default()).unwrap();
        let (got, end) = ds.drain_available(&mut w);
        assert_eq!(end, IterStep::Done);
        assert_eq!(ids(&got), [1, 2, 3]);
    }

    #[test]
    fn a_dynamic_set_lists_the_membership_it_opened_with() {
        let (mut w, client, servers) = setup(3);
        let cref = menu_collection(&mut w, &client, &servers);
        let mut ds =
            DynamicSet::open_collection(&mut w, &client, &cref, PrefetchConfig::default()).unwrap();
        // After open, member 1 leaves the set (its object stays) and a
        // new member 4 joins it.
        client.remove_member(&mut w, &cref, ObjectId(1)).unwrap();
        let late = ObjectRecord::new(ObjectId(4), "menu-4", &b"menu"[..]);
        client.put_object(&mut w, servers[1], late).unwrap();
        let entry = MemberEntry {
            elem: ObjectId(4),
            home: servers[1],
        };
        client.add_member(&mut w, &cref, entry).unwrap();
        let (got, end) = ds.drain_available(&mut w);
        // Not Figure 6: that run may not yield 1 and must not return
        // while 4 is an unyielded member.
        assert_eq!(ids(&got), [1, 2, 3]);
        assert_eq!(end, IterStep::Done);
    }

    #[test]
    fn open_collection_fails_when_membership_unreachable() {
        let (mut w, client, servers) = setup(1);
        let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        w.topology_mut().crash(servers[0]);
        let r = DynamicSet::open_collection(&mut w, &client, &cref, PrefetchConfig::default());
        assert!(r.is_err());
    }
}
