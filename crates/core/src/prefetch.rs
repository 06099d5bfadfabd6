//! Parallel prefetching of member objects.
//!
//! The dynamic-sets motivation (§1.1): "we can implement such file system
//! commands more efficiently by fetching files in parallel, fetching
//! 'closer' files first, and fetching all accessible files despite network
//! failures". The [`PrefetchEngine`] keeps a window of fetches in flight
//! and hands back objects as they arrive, so total latency is roughly
//! `ceil(n / window)` round trips instead of `n`, and time-to-first-object
//! is one round trip.

use crate::iter::FetchOrder;
use std::collections::VecDeque;
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::ReplyToken;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::ObjectRecord;
use weakset_store::prelude::StoreRt;

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

/// What the engine produced.
#[derive(Clone, Debug, PartialEq)]
pub enum PrefetchStep {
    /// An object arrived.
    Ready(ObjectRecord),
    /// A member could not be fetched (unreachable, deleted, or timed out).
    Unavailable(MemberEntry),
    /// Everything queued has been resolved one way or the other.
    Drained,
}

#[derive(Debug)]
struct Inflight {
    token: ReplyToken,
    entry: MemberEntry,
    deadline: SimTime,
}

/// A window of in-flight object fetches over the async message layer.
#[derive(Debug)]
pub struct PrefetchEngine {
    client_node: NodeId,
    cfg: PrefetchConfig,
    queue: VecDeque<MemberEntry>,
    inflight: Vec<Inflight>,
    /// Tokens abandoned at their deadline; drained opportunistically so a
    /// late reply does not accumulate in the world's completion map.
    zombies: Vec<ReplyToken>,
}

impl PrefetchEngine {
    /// Creates an engine over the given members, ordered per the config.
    pub fn new(
        world: &StoreRt,
        client_node: NodeId,
        mut members: Vec<MemberEntry>,
        cfg: PrefetchConfig,
    ) -> Self {
        assert!(cfg.window >= 1, "prefetch window must be at least 1");
        match cfg.order {
            FetchOrder::IdOrder => members.sort_by_key(|m| m.elem),
            FetchOrder::ClosestFirst => {
                members.sort_by_key(|m| (world.estimate_latency(client_node, m.home), m.elem));
            }
        }
        PrefetchEngine {
            client_node,
            cfg,
            queue: members.into(),
            inflight: Vec::new(),
            zombies: Vec::new(),
        }
    }

    /// Re-queues a member (e.g. to retry one reported unavailable).
    pub fn push(&mut self, entry: MemberEntry) {
        self.queue.push_back(entry);
    }

    /// Members not yet fetched or in flight.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Fetches currently in flight.
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    fn top_up(&mut self, world: &mut StoreRt) {
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
    }

    fn drain_zombies(&mut self, world: &mut StoreRt) {
        self.zombies.retain(|&t| world.try_take_reply(t).is_none());
    }

    /// Blocks (in simulated time) until the next object arrives, a fetch
    /// resolves as unavailable, or everything drains.
    pub fn next_ready(&mut self, world: &mut StoreRt) -> PrefetchStep {
        loop {
            self.drain_zombies(world);
            self.top_up(world);
            if self.inflight.is_empty() {
                return PrefetchStep::Drained;
            }
            let deadline = self
                .inflight
                .iter()
                .map(|f| f.deadline)
                .min()
                .expect("inflight nonempty");
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
                        Some(Ok(StoreMsg::Object(rec))) => return PrefetchStep::Ready(rec),
                        Some(_) => return PrefetchStep::Unavailable(f.entry),
                        None => unreachable!("wait_any returned an incomplete token"),
                    }
                }
                None => {
                    // Deadline hit: expire every overdue fetch.
                    let now = world.now();
                    if let Some(idx) = self.inflight.iter().position(|f| f.deadline <= now) {
                        let f = self.inflight.swap_remove(idx);
                        self.zombies.push(f.token);
                        return PrefetchStep::Unavailable(f.entry);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::topology::Topology;
    use weakset_store::object::ObjectId;
    use weakset_store::prelude::{StoreServer, StoreWorld};

    fn setup(n_servers: usize, latency_ms: u64) -> (StoreWorld, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n_servers);
        let mut w = StoreWorld::new(
            31,
            t,
            LatencyModel::Constant(SimDuration::from_millis(latency_ms)),
        );
        for (i, &s) in servers.iter().enumerate() {
            let mut srv = StoreServer::new();
            srv.preload_object(ObjectRecord::new(
                ObjectId(i as u64 + 1),
                format!("o{i}"),
                &b"data"[..],
            ));
            w.install_service(s, Box::new(srv));
        }
        (w, cn, servers)
    }

    fn members(servers: &[NodeId]) -> Vec<MemberEntry> {
        servers
            .iter()
            .enumerate()
            .map(|(i, &s)| MemberEntry {
                elem: ObjectId(i as u64 + 1),
                home: s,
            })
            .collect()
    }

    #[test]
    fn fetches_everything() {
        let (mut w, cn, servers) = setup(6, 5);
        let mut eng = PrefetchEngine::new(&w, cn, members(&servers), PrefetchConfig::default());
        let mut got = Vec::new();
        loop {
            match eng.next_ready(&mut w) {
                PrefetchStep::Ready(rec) => got.push(rec.id.0),
                PrefetchStep::Unavailable(e) => panic!("unexpected unavailable {e:?}"),
                PrefetchStep::Drained => break,
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn window_parallelism_compresses_wall_time() {
        // 8 objects at 5ms one-way. Window 8: all fetched in ~1 RTT (10ms).
        let (mut w, cn, servers) = setup(8, 5);
        let mut eng = PrefetchEngine::new(
            &w,
            cn,
            members(&servers),
            PrefetchConfig {
                window: 8,
                ..Default::default()
            },
        );
        let mut n = 0;
        while let PrefetchStep::Ready(_) = eng.next_ready(&mut w) {
            n += 1;
        }
        assert_eq!(n, 8);
        assert_eq!(w.now(), SimTime::from_millis(10));

        // Window 1: strictly serial, 8 RTTs.
        let (mut w1, cn1, servers1) = setup(8, 5);
        let mut eng1 = PrefetchEngine::new(
            &w1,
            cn1,
            members(&servers1),
            PrefetchConfig {
                window: 1,
                ..Default::default()
            },
        );
        let mut n1 = 0;
        while let PrefetchStep::Ready(_) = eng1.next_ready(&mut w1) {
            n1 += 1;
        }
        assert_eq!(n1, 8);
        assert_eq!(w1.now(), SimTime::from_millis(80));
    }

    #[test]
    fn unreachable_members_resolve_as_unavailable() {
        let (mut w, cn, servers) = setup(3, 2);
        w.topology_mut().partition(&[servers[1]]);
        let mut eng = PrefetchEngine::new(&w, cn, members(&servers), PrefetchConfig::default());
        let mut ready = 0;
        let mut unavailable = Vec::new();
        loop {
            match eng.next_ready(&mut w) {
                PrefetchStep::Ready(_) => ready += 1,
                PrefetchStep::Unavailable(e) => unavailable.push(e.elem),
                PrefetchStep::Drained => break,
            }
        }
        assert_eq!(ready, 2);
        assert_eq!(unavailable, vec![ObjectId(2)]);
    }

    #[test]
    fn push_retries_after_heal() {
        let (mut w, cn, servers) = setup(2, 2);
        w.topology_mut().partition(&[servers[1]]);
        let mut eng = PrefetchEngine::new(&w, cn, members(&servers), PrefetchConfig::default());
        let mut pending = Vec::new();
        loop {
            match eng.next_ready(&mut w) {
                PrefetchStep::Ready(_) => {}
                PrefetchStep::Unavailable(e) => pending.push(e),
                PrefetchStep::Drained => break,
            }
        }
        assert_eq!(pending.len(), 1);
        w.topology_mut().heal_partition();
        for e in pending.drain(..) {
            eng.push(e);
        }
        assert!(matches!(eng.next_ready(&mut w), PrefetchStep::Ready(_)));
        assert_eq!(eng.next_ready(&mut w), PrefetchStep::Drained);
    }

    #[test]
    fn missing_object_is_unavailable() {
        let (mut w, cn, servers) = setup(1, 1);
        let mut eng = PrefetchEngine::new(
            &w,
            cn,
            vec![MemberEntry {
                elem: ObjectId(99),
                home: servers[0],
            }],
            PrefetchConfig::default(),
        );
        assert!(matches!(
            eng.next_ready(&mut w),
            PrefetchStep::Unavailable(_)
        ));
        assert_eq!(eng.next_ready(&mut w), PrefetchStep::Drained);
    }

    #[test]
    fn timeout_expires_slow_fetches() {
        // Server exists but a 100% lossy link means no reply ever comes;
        // fast-fail doesn't trigger (node reachable), so the deadline does.
        let (mut w, cn, servers) = setup(1, 1);
        w.topology_mut()
            .set_link(cn, servers[0], weakset_sim::link::LinkState::lossy(1.0));
        let mut eng = PrefetchEngine::new(
            &w,
            cn,
            members(&servers[..1]),
            PrefetchConfig {
                fetch_timeout: SimDuration::from_millis(30),
                ..Default::default()
            },
        );
        let start = w.now();
        assert!(matches!(
            eng.next_ready(&mut w),
            PrefetchStep::Unavailable(_)
        ));
        assert_eq!(w.now(), start + SimDuration::from_millis(30));
        assert_eq!(eng.next_ready(&mut w), PrefetchStep::Drained);
    }

    #[test]
    fn closest_first_yields_near_objects_first() {
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
        let mut near_srv = StoreServer::new();
        near_srv.preload_object(ObjectRecord::new(ObjectId(2), "near-obj", &b""[..]));
        w.install_service(near, Box::new(near_srv));
        let mut far_srv = StoreServer::new();
        far_srv.preload_object(ObjectRecord::new(ObjectId(1), "far-obj", &b""[..]));
        w.install_service(far, Box::new(far_srv));
        let ms = vec![
            MemberEntry {
                elem: ObjectId(1),
                home: far,
            },
            MemberEntry {
                elem: ObjectId(2),
                home: near,
            },
        ];
        // Window 1 makes ordering observable.
        let mut eng = PrefetchEngine::new(
            &w,
            cn,
            ms,
            PrefetchConfig {
                window: 1,
                ..Default::default()
            },
        );
        let first = eng.next_ready(&mut w);
        match first {
            PrefetchStep::Ready(rec) => assert_eq!(rec.name, "near-obj"),
            other => panic!("{other:?}"),
        }
    }
}
