//! The anti-entropy engine: periodic pairwise gossip rounds scheduled on
//! the runtime's timer queue.
//!
//! [`install`] spawns one [`weakset_runtime::RtTask`], the round. Each
//! round, every replica in turn picks [`GossipConfig::fanout`] random
//! peers (deterministically, from the runtime's seeded RNG) and runs one
//! exchange with each: a pull, then a push of whatever the peer turns out
//! to be missing. An exchange is a chain of requests on the store
//! protocol, each step taking the reply to the last: the round `send`s
//! each one and is woken when its reply lands or its timeout passes
//! ([`Wake::Reply`]), so it never waits and holds no foreground wait, and
//! [`sync_pair`] drives the same steps with plain rpcs. Faults bite gossip
//! as they bite any client: a crashed origin's first request fails at the
//! transport, and a failed exchange is counted and retried next round.
//!
//! The exchanges of a round run one after another, in replica order, and
//! the next round starts [`GossipConfig::interval`] after the last one
//! ends. They stay serial to keep the traffic's shape: side by side, a
//! round would last one exchange instead of their sum, rounds would come
//! more often, and sim-dst's `msgs_per_op` would grow with them.
//!
//! [`GossipConfig::digest_mode`] selects how an exchange locates missing
//! dots: [`DigestMode::Full`] is the classic digest-then-delta pair of
//! RPCs, [`DigestMode::MerkleRange`] descends the [`crate::reconcile`]
//! range tree so bytes scale with the symmetric difference instead of
//! the set. Both backends drive the same rounds, metrics
//! ([`weakset_obs::gossip`]) and spans.

use crate::crdt::MembershipCrdt;
use crate::reconcile::{diff_leaf, removed_at, RangeDiff, RangeTree};
use crate::replica::GossipNode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use weakset_obs::gossip as names;
use weakset_runtime::prelude::*;
use weakset_sim::net::NetError;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::SimDuration;
use weakset_sim::world::ReplyToken;
use weakset_store::client::StoreRt;
use weakset_store::collection::Membership;
use weakset_store::dotted::{Dot, DottedEntry, MembershipDelta, VersionVector};
use weakset_store::msg::StoreMsg;
use weakset_store::object::CollectionId;
use weakset_store::wire::{self, DeltaBatch, RangeKey, RangeReply, RangeSummary};

/// How an exchange locates the dots a peer is missing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DigestMode {
    /// Classic digest-then-delta: ship the whole version vector, answer
    /// with a delta carrying the sender's **full live-dot list** (that
    /// is how removals propagate). `O(set)` bytes per exchange — optimal
    /// for small sets, where one round trip beats any descent.
    #[default]
    Full,
    /// Merkle-range reconciliation (see [`crate::reconcile`]): descend
    /// mismatched hash ranges of the live-dot space, then exchange
    /// [`DeltaBatch`]es containing only the located differences.
    /// `O(diff · log set)` bytes over a few round trips — the only
    /// affordable mode at 10^6 elements.
    MerkleRange,
}

/// Tunables for the anti-entropy schedule.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// Peers each replica contacts per round.
    pub fanout: usize,
    /// Time from a round's last exchange to the next round's start; its
    /// exchanges run one after another, which keeps sim-dst's `msgs_per_op`.
    pub interval: SimDuration,
    /// How exchanges locate missing dots.
    pub digest_mode: DigestMode,
    /// Per-request timeout inside an exchange.
    pub rpc_timeout: SimDuration,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            fanout: 1,
            interval: SimDuration::from_millis(25),
            digest_mode: DigestMode::default(),
            rpc_timeout: SimDuration::from_millis(20),
        }
    }
}

/// Cancels an installed anti-entropy schedule. `Send + Sync`: the
/// threaded backend's driver thread can stop a schedule installed from
/// another view.
#[derive(Clone, Debug)]
pub struct GossipHandle {
    stop: Arc<AtomicBool>,
}

impl GossipHandle {
    /// Stops the schedule: the next round exits at its start, without
    /// running or rescheduling.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Installs periodic anti-entropy for one collection over `replicas`
/// (every node must run a [`GossipNode`] hosting the collection), the
/// first round one interval from now. It runs until [`GossipHandle::stop`],
/// which `World::run_to_quiescence` needs to terminate.
pub fn install(
    world: &mut StoreRt,
    coll: CollectionId,
    replicas: Vec<NodeId>,
    config: GossipConfig,
) -> GossipHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let round = Round {
        coll,
        replicas,
        pairs: Vec::new(),
        exchange: None,
        waiting: None,
        reached: Vec::new(),
        config,
        rng: world.rng_for("gossip.engine"),
        stop: Arc::clone(&stop),
    };
    world.spawn_in(config.interval, Box::new(round));
    GossipHandle { stop }
}

/// Omniscient convergence check: true when every replica's CRDT exists
/// and reports the same membership and digest. (Test/experiment helper —
/// a real deployment cannot observe this.)
pub fn converged(world: &StoreRt, coll: CollectionId, replicas: &[NodeId]) -> bool {
    let mut states =
        (replicas.iter()).map(|&r| crdt_at(world, r, coll, |c| (c.elements(), c.digest())));
    match states.next() {
        Some(first) => first.is_some() && states.all(|s| s == first),
        None => true,
    }
}

/// A replica's current CRDT membership, read omnisciently.
pub fn elements_at(world: &StoreRt, node: NodeId, coll: CollectionId) -> Option<Membership> {
    crdt_at(world, node, coll, MembershipCrdt::elements)
}

/// `f` of `node`'s replica of `coll`, read omnisciently.
fn crdt_at<R>(
    world: &StoreRt,
    node: NodeId,
    coll: CollectionId,
    f: impl FnOnce(&MembershipCrdt) -> R,
) -> Option<R> {
    world
        .with_service(node, |g: &GossipNode| g.crdt(coll).map(f))
        .flatten()
}

/// The round task: one round's exchanges, one after another, each
/// request sent and its reply awaited by a wake, never by a wait.
struct Round {
    coll: CollectionId,
    replicas: Vec<NodeId>,
    /// The round's (origin, peer) pairs left, last first.
    pairs: Vec<(NodeId, NodeId)>,
    exchange: Option<Exchange>,
    /// The token the exchange's reply comes under, while one is due.
    waiting: Option<ReplyToken>,
    /// Both ends of every request answered this round: the live replicas.
    reached: Vec<NodeId>,
    config: GossipConfig,
    rng: SimRng,
    stop: Arc<AtomicBool>,
}

impl Round {
    /// Starts a round: every replica in turn is an origin, whose peers
    /// are `fanout` of the others, shuffled.
    fn start(&mut self, world: &mut StoreRt) {
        world.metrics_mut().incr(names::ROUNDS);
        self.pairs.clear();
        for &origin in &self.replicas {
            let from = self.pairs.len();
            let peers = self.replicas.iter().filter(|&&p| p != origin);
            self.pairs.extend(peers.map(|&p| (origin, p)));
            self.rng.shuffle(&mut self.pairs[from..]);
            self.pairs.truncate(from + self.config.fanout);
        }
        self.pairs.reverse();
        self.reached.clear();
    }

    /// After each round, counts the replicas it reached whose digest
    /// trails the join of **every** replica's digest. Dots held only by
    /// replicas no exchange reached (crashed or cut off) surface as the
    /// `gossip.unreplicated_dots` gauge. Live is what the round reached,
    /// not a fault table: a round that reached none records nothing.
    fn record_convergence_lag(&self, world: &mut StoreRt) {
        // Digests are shares of the replicas' vectors, so they are read
        // twice instead of being collected.
        let digest = |r| crdt_at(world, r, self.coll, MembershipCrdt::digest);
        let mut all_join = VersionVector::default();
        let mut live_join = VersionVector::default();
        for &r in &self.replicas {
            if let Some(d) = digest(r) {
                all_join.join(&d);
                if self.reached.contains(&r) {
                    live_join.join(&d);
                }
            }
        }
        if self.reached.is_empty() {
            return;
        }
        let stale = (self.replicas.iter())
            .filter(|r| self.reached.contains(r))
            .filter_map(|&r| digest(r))
            .filter(|d| !d.dominates(&all_join))
            .count() as u64;
        let m = world.metrics_mut();
        m.add(names::REPLICA_STALE_ROUNDS, stale);
        m.gauge_max(names::STALE_REPLICAS_MAX, stale);
        let unreplicated = all_join.total() - live_join.total();
        m.gauge_max(names::UNREPLICATED_DOTS, unreplicated);
    }
}

impl RtTask<StoreMsg> for Round {
    fn label(&self) -> &str {
        "gossip.round"
    }

    fn run(&mut self, world: &mut StoreRt) -> Wake {
        let timed_out = || Err(NetError::Timeout);
        let mut reply =
            (self.waiting.take()).map(|t| world.try_take_reply(t).unwrap_or_else(timed_out));
        if reply.is_none() {
            if self.stop.load(Ordering::Relaxed) {
                return Wake::Never;
            }
            self.start(world);
        }
        loop {
            if let Some(ex) = &mut self.exchange {
                let (origin, peer) = (ex.origin, ex.peer);
                if let Some(Ok(_)) = reply {
                    self.reached.extend([origin, peer]);
                }
                // The task dispatch cleared the causal stack, so each
                // step's span roots a fresh trace that its request joins.
                let span = world.span_enter("gossip.exchange", &|| {
                    origin.link_label(peer).as_str().into()
                });
                let token = ex
                    .step(world, reply.take())
                    .map(|req| world.send(origin, peer, req));
                world.span_exit(span);
                if let Some(token) = token {
                    self.waiting = Some(token);
                    return Wake::Reply(token, world.now() + self.config.rpc_timeout);
                }
            }
            let Some((origin, peer)) = self.pairs.pop() else {
                self.exchange = None;
                self.record_convergence_lag(world);
                return Wake::At(world.now() + self.config.interval);
            };
            let mode = self.config.digest_mode;
            self.exchange = Some(Exchange::new(self.coll, origin, peer, mode));
        }
    }
}

/// Runs one exchange from `origin` to `peer` by plain rpcs, as a round
/// does per chosen peer; both directions move. An immediate pairwise sync
/// for tests, experiments and targeted repair.
pub fn sync_pair(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    digest_mode: DigestMode,
    timeout: SimDuration,
) {
    let span = world.span_enter("gossip.exchange", &|| {
        origin.link_label(peer).as_str().into()
    });
    let mut ex = Exchange::new(coll, origin, peer, digest_mode);
    let mut reply = None;
    while let Some(req) = ex.step(world, reply) {
        reply = Some(world.rpc(origin, peer, req, timeout));
    }
    world.span_exit(span);
}

/// One exchange from `origin` to `peer`, as a chain of requests:
/// [`Exchange::step`] takes the reply to the last one and gives the next.
struct Exchange {
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    leg: Leg,
}

/// A request's outcome, as a step takes it.
type Reply = Result<StoreMsg, NetError>;

/// What the exchange's next reply answers.
enum Leg {
    /// Nothing yet: the exchange starts in this mode.
    Start(DigestMode),
    /// The pull, whose reply carries the peer's delta and vector.
    Pull,
    /// A Merkle probe of the descent's frontier.
    Probe(Descent),
    /// The push: its reply ends the exchange.
    Last,
}

/// A Merkle descent between two probes.
struct Descent {
    tree: Arc<RangeTree>,
    my_vv: VersionVector,
    diff: RangeDiff,
    /// The peer's vector, pinned from the first response.
    peer_vv: Option<VersionVector>,
}

impl Exchange {
    fn new(coll: CollectionId, origin: NodeId, peer: NodeId, mode: DigestMode) -> Self {
        let leg = Leg::Start(mode);
        Exchange {
            coll,
            origin,
            peer,
            leg,
        }
    }

    /// Takes the reply to the last request (`None` at the start) and
    /// gives the next request, or `None` when the exchange is over. A
    /// failed request ends it, counted.
    fn step(&mut self, world: &mut StoreRt, reply: Option<Reply>) -> Option<StoreMsg> {
        match (std::mem::replace(&mut self.leg, Leg::Last), reply) {
            (Leg::Start(mode), _) => self.start(world, mode),
            (_, Some(Err(_))) => {
                world.metrics_mut().incr(names::FAILURES);
                None
            }
            (Leg::Pull, Some(Ok(StoreMsg::GossipDelta { delta, .. }))) => self.pulled(world, delta),
            (Leg::Probe(d), Some(Ok(StoreMsg::GossipRangeResp { digest, ranges, .. }))) => {
                self.probed(world, d, digest, &ranges)
            }
            (Leg::Pull, Some(Ok(other))) => self.unexpected(world, "pull", &other),
            (Leg::Probe(_), Some(Ok(other))) => self.unexpected(world, "merkle_probe", &other),
            (Leg::Last, _) | (_, None) => None,
        }
    }

    /// The first request: the pull that ships our digest, or the Merkle
    /// descent's probe of the root. None when `origin` holds no replica.
    fn start(&mut self, world: &mut StoreRt, mode: DigestMode) -> Option<StoreMsg> {
        world.metrics_mut().incr(names::EXCHANGES);
        let coll = self.coll;
        match mode {
            DigestMode::Full => {
                let digest = crdt_at(world, self.origin, coll, MembershipCrdt::digest)?;
                record_digest(world, &digest);
                self.leg = Leg::Pull;
                Some(StoreMsg::GossipDeltaReq { coll, digest })
            }
            DigestMode::MerkleRange => {
                let pair = crdt_at(world, self.origin, coll, |c| (c.range_tree(), c.digest()));
                let (tree, my_vv) = pair?;
                let root = vec![tree.summary(RangeKey::ROOT)];
                self.leg = Leg::Probe(Descent {
                    tree,
                    my_vv,
                    diff: RangeDiff::default(),
                    peer_vv: None,
                });
                self.probe(world, root)
            }
        }
    }

    /// Pull leg done: joins the peer's delta into local state, then
    /// pushes the peer whatever its vector (the pull reply's) does not
    /// cover — two requests in all.
    fn pulled(&mut self, world: &mut StoreRt, delta: MembershipDelta) -> Option<StoreMsg> {
        let (coll, origin) = (self.coll, self.origin);
        let peer_vv = delta.vv.clone();
        record_shipped(world, &delta);
        // Through the service's own handler, so local joins and remote
        // pushes share one code path.
        world.with_service_mut(origin, |g: &mut GossipNode| {
            g.apply(StoreMsg::GossipPush { coll, delta });
        });
        // Nothing to ship when the CRDT can prove the peer needs nothing.
        let delta = crdt_at(world, origin, coll, |c| {
            (!c.nothing_for(&peer_vv)).then(|| c.delta_since(&peer_vv))
        });
        let Some(delta) = delta.flatten() else {
            world.metrics_mut().incr(names::PUSH_SKIPPED);
            return None;
        };
        record_shipped(world, &delta);
        self.leg = Leg::Last;
        Some(StoreMsg::GossipPush { coll, delta })
    }

    /// Probes `ranges`, the descent's still-mismatching frontier.
    fn probe(&self, world: &mut StoreRt, ranges: Vec<RangeSummary>) -> Option<StoreMsg> {
        let bytes: usize = ranges.iter().map(RangeSummary::encoded_size).sum();
        let m = world.metrics_mut();
        m.incr(names::RANGE_RPCS);
        m.add(names::DIGEST_BYTES, bytes as u64);
        let coll = self.coll;
        Some(StoreMsg::GossipRangeReq { coll, ranges })
    }

    /// A Merkle probe answered: folds its leaves into the diff and probes
    /// the mismatching children (depth grows by SPLIT_BITS per probe), then
    /// applies the peer's half of the diff and ships ours. Summaries and
    /// digests count as `gossip.digest_bytes`, leaves and batches as
    /// `gossip.delta_bytes`, as on the `Full` path.
    fn probed(
        &mut self,
        world: &mut StoreRt,
        mut d: Descent,
        digest: VersionVector,
        ranges: &[RangeReply],
    ) -> Option<StoreMsg> {
        record_digest(world, &digest);
        // Pin the peer vector from the FIRST response: a later one may have
        // advanced past entries the descent never revisits, and would
        // certify their dots as seen-and-removed — a permanent divergence,
        // since `apply_batch` refuses novel entries of covered dots.
        d.peer_vv.get_or_insert(digest);
        let mut next = Vec::new();
        let mut reply_meta = 0usize;
        let mut leaf_bytes = 0usize;
        for r in ranges {
            match r {
                RangeReply::Match(_) => reply_meta += r.encoded_size(),
                RangeReply::Leaf { key, entries } => {
                    leaf_bytes += r.encoded_size();
                    diff_leaf(&d.tree, *key, entries, &mut d.diff);
                }
                RangeReply::Split(children) => {
                    reply_meta += r.encoded_size();
                    for child in children {
                        let mine = d.tree.summary(child.key);
                        if mine.count != child.count || mine.hash != child.hash {
                            next.push(mine);
                        }
                    }
                }
            }
        }
        let m = world.metrics_mut();
        m.add(names::DIGEST_BYTES, reply_meta as u64);
        m.add(names::DELTA_BYTES, leaf_bytes as u64);
        if !next.is_empty() {
            self.leg = Leg::Probe(d);
            return self.probe(world, next);
        }
        let (coll, my_vv, diff) = (self.coll, d.my_vv, d.diff);
        let peer_vv = d.peer_vv.expect("pinned by the first response");

        // A one-sided dot the other side's digest covers was removed there:
        // propagate the removal. Uncovered, its add has not arrived yet:
        // ship the entry.
        let mut novel_for_me: Vec<DottedEntry> = Vec::new();
        let mut drop_for_peer: Vec<Dot> = Vec::new();
        for e in &diff.peer_only {
            if removed_at(&my_vv, e.dot) {
                drop_for_peer.push(e.dot);
            } else if peer_vv.contains(e.dot) {
                // Dots the peer gained mid-descent wait for the next round,
                // or the pinned vector would not cover every entry.
                novel_for_me.push(*e);
            }
        }
        let mut novel_for_peer: Vec<DottedEntry> = Vec::new();
        let mut drop_for_me: Vec<Dot> = Vec::new();
        for e in &diff.mine_only {
            if removed_at(&peer_vv, e.dot) {
                drop_for_me.push(e.dot);
            } else {
                novel_for_peer.push(*e);
            }
        }

        // The peer's vector with its half certifies the drops and joins
        // the vectors, as a Full-mode pull does.
        let batch = DeltaBatch {
            vv: peer_vv.clone(),
            novel: novel_for_me,
            drop: drop_for_me,
        };
        world.with_service_mut(self.origin, |g: &mut GossipNode| {
            g.apply(StoreMsg::GossipDeltaBatch { coll, batch });
        });

        // Ship the join of the vectors *the diff was computed against*: a
        // live re-read could cover concurrent dots in neither half, which
        // the peer would then refuse forever as already-seen.
        let mut vv_join = my_vv;
        vv_join.join(&peer_vv);
        if novel_for_peer.is_empty() && drop_for_peer.is_empty() && peer_vv.dominates(&vv_join) {
            world.metrics_mut().incr(names::PUSH_SKIPPED);
            return None;
        }
        let batch = DeltaBatch {
            vv: vv_join,
            novel: novel_for_peer,
            drop: drop_for_peer,
        };
        let m = world.metrics_mut();
        m.add(names::NOVEL_SHIPPED, batch.novel.len() as u64);
        m.add(names::DELTA_BYTES, batch.encoded_size() as u64);
        self.leg = Leg::Last;
        Some(StoreMsg::GossipDeltaBatch { coll, batch })
    }

    /// A reply of the wrong type — usually from a node that runs no
    /// [`GossipNode`] — ends the exchange as a failure, with a breadcrumb
    /// naming the leg and the reply: misconfigured is not healthy.
    fn unexpected(&self, world: &mut StoreRt, leg: &str, reply: &StoreMsg) -> Option<StoreMsg> {
        world.metrics_mut().incr(names::FAILURES);
        let peer = self.peer;
        world.trace_event("gossip.unexpected_reply", &|| {
            format!("{leg} from {peer}: {reply:?}")
        });
        None
    }
}

fn record_shipped(world: &mut StoreRt, delta: &MembershipDelta) {
    let m = world.metrics_mut();
    m.add(names::NOVEL_SHIPPED, delta.novel.len() as u64);
    m.add(names::DELTA_BYTES, wire::delta_encoded_size(delta) as u64);
}

/// Charges a version vector at its `weakset_store::wire` encoded size,
/// which both digest modes are billed by, so their bytes compare.
fn record_digest(world: &mut StoreRt, vv: &VersionVector) {
    world
        .metrics_mut()
        .add(names::DIGEST_BYTES, wire::vv_encoded_size(vv) as u64);
}
