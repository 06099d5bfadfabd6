//! The fetch window: up to [`IterConfig::window`](super::IterConfig::window)
//! object fetches in flight across invocations — the paper's "fetching
//! files in parallel" (§1.1). A listing then takes about `ceil(n / window)`
//! round trips instead of `n`, and its first object one. At window 1 it
//! fetches one member at a time.

use weakset_sim::net::NetError;
use weakset_sim::time::SimTime;
use weakset_sim::world::ReplyToken;
use weakset_store::cache::ObjectCache;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{StoreClient, StoreError, StoreRt};

#[derive(Debug)]
struct Inflight {
    token: ReplyToken,
    entry: MemberEntry,
    deadline: SimTime,
    /// When the fetch was first launched, retries included.
    started: SimTime,
    /// Relaunches left before a network failure counts
    /// ([`StoreClient::with_retries`]).
    retries: usize,
    /// Launched by the current invocation. Only such a fetch's failure is
    /// the invocation's evidence; an earlier one's is stale.
    own: bool,
}

/// The fetches a run keeps in flight across its invocations, and the
/// members it failed to reach.
#[derive(Debug, Default)]
pub(crate) struct Window {
    inflight: Vec<Inflight>,
    /// Tokens abandoned at their deadline, or whose member the run no
    /// longer acts on; drained opportunistically so a late reply does
    /// not accumulate in the runtime's completion map.
    zombies: Vec<ReplyToken>,
    /// Members a fetch of this run failed to reach. An invocation
    /// launches one only when no other candidate is left, launched or
    /// not.
    failed: Vec<ObjectId>,
    /// The in-flight tokens, rebuilt for each wait on more than one.
    tokens: Vec<ReplyToken>,
}

impl Window {
    /// The first record to arrive for a candidate, or a cache hit, with
    /// up to `size` fetches in flight, launched in `candidates`' order;
    /// and the members whose fetches *this call* launched and saw fail.
    ///
    /// A member the run failed to reach is launched only once every
    /// other candidate has failed too, and then by this call itself: so a
    /// listing fetches a listed member once and a pending one at most
    /// twice. A fetch from an earlier invocation may be yielded if its
    /// member is a candidate; one whose member is not (yielded, or gone
    /// from the membership acted on) is abandoned.
    pub(crate) fn first_arrival(
        &mut self,
        world: &mut StoreRt,
        client: &StoreClient,
        size: usize,
        candidates: &[MemberEntry],
        cache: &mut Option<ObjectCache>,
    ) -> (Option<ObjectRecord>, Vec<ObjectId>) {
        for f in std::mem::take(&mut self.inflight) {
            if candidates.contains(&f.entry) {
                self.inflight.push(Inflight { own: false, ..f });
            } else {
                self.zombies.push(f.token);
            }
        }
        let mut unreachable = Vec::new();
        loop {
            self.zombies.retain(|&t| world.try_take_reply(t).is_none());
            let fresh_left = candidates.iter().any(|m| !self.failed.contains(&m.elem));
            for m in candidates {
                if self.inflight.len() >= size {
                    break;
                }
                if (fresh_left && self.failed.contains(&m.elem))
                    || unreachable.contains(&m.elem)
                    || self.inflight.iter().any(|f| f.entry == *m)
                {
                    continue;
                }
                // A cached copy counts as reached: the client holds it.
                if let Some(c) = cache.as_mut() {
                    if let Some(rec) = c.get(world.now(), m.elem).cloned() {
                        world.metrics_mut().incr("store.cache.hit");
                        return (Some(rec), unreachable);
                    }
                    world.metrics_mut().incr("store.cache.miss");
                }
                self.inflight.push(Inflight {
                    token: get(world, client, m),
                    entry: *m,
                    deadline: world.now() + client.timeout(),
                    started: world.now(),
                    retries: client.retries(),
                    own: true,
                });
            }
            let Some(deadline) = self.inflight.iter().map(|f| f.deadline).min() else {
                return (None, unreachable);
            };
            let tokens = match self.inflight.as_slice() {
                [one] => std::slice::from_ref(&one.token),
                all => {
                    self.tokens.clear();
                    self.tokens.extend(all.iter().map(|f| f.token));
                    &self.tokens
                }
            };
            let (f, reply) = match world.wait_any(tokens, deadline) {
                Some(done) => {
                    let idx = self
                        .inflight
                        .iter()
                        .position(|f| f.token == done)
                        .expect("completed token is in flight");
                    let reply = world
                        .try_take_reply(done)
                        .expect("a completed token has its reply");
                    (self.inflight.swap_remove(idx), reply)
                }
                None => {
                    // Deadline hit: expire an overdue fetch.
                    let now = world.now();
                    let Some(idx) = self.inflight.iter().position(|f| f.deadline <= now) else {
                        continue;
                    };
                    let f = self.inflight.swap_remove(idx);
                    self.zombies.push(f.token);
                    (f, Err(NetError::Timeout))
                }
            };
            if reply.is_err() && f.retries > 0 {
                self.inflight.push(Inflight {
                    token: get(world, client, &f.entry),
                    deadline: world.now() + client.timeout(),
                    retries: f.retries - 1,
                    ..f
                });
                continue;
            }
            let reply = reply.map_err(StoreError::Net);
            let (home, elem) = (f.entry.home, f.entry.elem);
            if let Ok(rec) = StoreClient::fetched(world, home, elem, f.started, reply) {
                if let Some(c) = cache.as_mut() {
                    c.put(world.now(), rec.clone());
                }
                return (Some(rec), unreachable);
            }
            if !self.failed.contains(&elem) {
                self.failed.push(elem);
            }
            if f.own {
                // Under the invocation's span, for failure explanations.
                let detail = || format!("elem={elem} home={home}");
                world.trace_event("iter.fetch.unreachable", &detail);
                unreachable.push(elem);
            }
        }
    }
}

/// Sends the request that fetches `m` from its home.
fn get(world: &mut StoreRt, client: &StoreClient, m: &MemberEntry) -> ReplyToken {
    world.send(client.node(), m.home, StoreMsg::GetObject(m.elem))
}

#[cfg(test)]
mod tests {
    use crate::conformance::RunObserver;
    use crate::error::{Failure, IterStep};
    use crate::iter::{Elements, FetchOrder, IterConfig};
    use crate::semantics::Semantics;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::link::LinkState;
    use weakset_sim::node::NodeId;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_spec::checker::{check_computation, Figure};
    use weakset_store::collection::{MemberEntry, Membership};
    use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
    use weakset_store::prelude::{CollectionRef, Query, StoreClient, StoreServer, StoreWorld};

    fn setup(n: usize, timeout_ms: u64) -> (StoreWorld, StoreClient, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n);
        let mut w = StoreWorld::new(37, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(timeout_ms));
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
                let rec = ObjectRecord::new(elem, format!("menu-{}", elem.0), &b"menu"[..])
                    .with_attr("cuisine", cuisine);
                client.put_object(w, home, rec).unwrap();
                members.push(MemberEntry { elem, home });
            }
        }
        members
    }

    fn windowed(window: usize) -> IterConfig {
        IterConfig {
            window,
            ..IterConfig::default()
        }
    }

    fn ids(records: &[ObjectRecord]) -> Vec<u64> {
        let mut ids: Vec<u64> = records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn a_wider_window_compresses_wall_time() {
        // 8 objects at 5ms one-way: window 8 fetches them all in one
        // round trip, window 1 strictly serially in eight.
        let (mut w, client, servers) = setup(8, 100);
        let members = Membership::from(load_menus(&mut w, &client, &servers, 1));
        for (window, took) in [(8, 10), (1, 80)] {
            let mut it = Elements::pinned(client.clone(), members.clone(), None, windowed(window));
            let start = w.now();
            let (got, end) = it.drain(&mut w, 1, SimDuration::ZERO);
            assert_eq!((got.len(), end), (8, IterStep::Done));
            assert_eq!(
                w.now(),
                start + SimDuration::from_millis(took),
                "window {window}"
            );
        }
    }

    #[test]
    fn time_to_first_is_one_rtt_despite_many_members() {
        let (mut w, client, servers) = setup(4, 100);
        let members = load_menus(&mut w, &client, &servers, 8); // 32 objects
        let mut it = Elements::pinned(client, members.into(), None, windowed(32));
        let start = w.now();
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        // One round trip (2 × 5ms), although 32 fetches are in flight.
        assert_eq!(w.now(), start + SimDuration::from_millis(10));
        let (rest, end) = it.drain(&mut w, 1, SimDuration::ZERO);
        assert_eq!((rest.len(), end), (31, IterStep::Done));
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
        let members = Membership::from(vec![
            MemberEntry {
                elem: ObjectId(1),
                home: far,
            },
            MemberEntry {
                elem: ObjectId(2),
                home: near,
            },
        ]);
        // Window 1 makes the order observable.
        for (fetch_order, first) in [
            (FetchOrder::ClosestFirst, "near-obj"),
            (FetchOrder::IdOrder, "far-obj"),
        ] {
            let config = IterConfig {
                fetch_order,
                ..IterConfig::default()
            };
            let mut it = Elements::pinned(client.clone(), members.clone(), None, config);
            match it.next(&mut w) {
                IterStep::Yielded(rec) => assert_eq!(rec.name, first, "{fetch_order:?}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_fetch_past_the_client_timeout_is_unreachable() {
        // A fully lossy link to a live server: no reply ever comes and
        // routing does not fail fast, so the client's timeout decides.
        let (mut w, client, servers) = setup(1, 30);
        let members = load_menus(&mut w, &client, &servers, 1);
        w.topology_mut()
            .set_link(client.node(), servers[0], LinkState::lossy(1.0));
        let mut it = Elements::pinned(client, members.into(), None, windowed(2));
        let start = w.now();
        assert_eq!(
            it.next(&mut w),
            IterStep::Failed(Failure::MembersUnreachable { remaining: 1 })
        );
        assert_eq!(w.now(), start + SimDuration::from_millis(30));
    }

    #[test]
    fn a_member_that_failed_is_refetched_only_after_the_rest() {
        // Member 0, first in id order, is on the cut server; menus 1..=4
        // are reachable. After its first failure, member 0 is fetched
        // again only when no other member is left, launched or not: by
        // the fifth invocation, which must see its own fetch fail before
        // it fails. Two fetches in five invocations, not one per
        // invocation, and not one per spare slot.
        let (mut w, client, servers) = setup(2, 100);
        let mut members = load_menus(&mut w, &client, &servers[1..], 4);
        members.push(MemberEntry {
            elem: ObjectId(0),
            home: servers[0],
        });
        w.topology_mut().partition(&[servers[0]]);
        let config = IterConfig {
            fetch_order: FetchOrder::IdOrder,
            ..windowed(2)
        };
        let mut it = Elements::pinned(client, members.into(), None, config);
        let sent = w.metrics().counter("rpc.sent");
        let (got, end) = it.drain(&mut w, 1, SimDuration::ZERO);
        assert_eq!(ids(&got), [1, 2, 3, 4]);
        assert_eq!(
            end,
            IterStep::Failed(Failure::MembersUnreachable { remaining: 1 })
        );
        assert_eq!(w.metrics().counter("rpc.sent") - sent, 4 + 2);
    }

    #[test]
    fn a_query_union_skips_an_unreachable_node() {
        let (mut w, client, servers) = setup(3, 100);
        load_menus(&mut w, &client, &servers, 2);
        w.topology_mut().partition(&[servers[2]]);
        let mut union = Vec::new();
        let mut skipped = 0;
        for &node in &servers {
            match client.query_node(&mut w, node, &Query::attr("cuisine", "chinese")) {
                Ok(found) => union.extend(
                    found
                        .into_iter()
                        .map(|elem| MemberEntry { elem, home: node }),
                ),
                Err(_) => skipped += 1,
            }
        }
        assert_eq!((union.len(), skipped), (2, 1));
        let mut it = Elements::pinned(client, union.into(), None, windowed(8));
        let (got, end) = it.drain(&mut w, 1, SimDuration::ZERO);
        // A partial result, and no failure: the cut node's menus are not
        // in the membership at all.
        assert_eq!((ids(&got), end), (vec![1, 3], IterStep::Done));
    }

    #[test]
    fn an_observed_fig6_window_never_yields_a_member_removed_mid_run() {
        let (mut w, client, servers) = setup(4, 100);
        let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        for entry in load_menus(&mut w, &client, &servers, 1) {
            client.add_member(&mut w, &cref, entry).unwrap();
        }
        let config = IterConfig {
            fetch_order: FetchOrder::IdOrder,
            ..windowed(8)
        };
        let mut it = Elements::new(Semantics::Optimistic, client.clone(), cref.clone(), config);
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        // The first invocation launches all four fetches and yields the
        // first arrival; the other three stay in flight.
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));
        // Two of the three fetches in flight are for members that leave
        // the set before their replies are collected.
        client.remove_member(&mut w, &cref, ObjectId(2)).unwrap();
        client.remove_member(&mut w, &cref, ObjectId(4)).unwrap();
        let (got, end) = it.drain(&mut w, 3, SimDuration::from_millis(10));
        assert_eq!((ids(&got), end), (vec![3], IterStep::Done));
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig6, &comp).assert_ok();
    }
}
