//! The anti-entropy engine: periodic pairwise gossip rounds scheduled on
//! the runtime's timer queue.
//!
//! [`install`] spawns a self-rescheduling [`weakset_runtime::RtTask`]
//! that fires every [`GossipConfig::interval`]. Each round, every live
//! replica picks [`GossipConfig::fanout`] random peers (deterministically,
//! from the runtime's seeded RNG) and runs one exchange ([`sync_pair`]):
//! a pull, then a push of whatever the peer turns out to be missing.
//! Exchanges are plain RPCs on the store protocol, so partitions,
//! crashes, and lossy links bite gossip exactly as they bite every other
//! client: a failed exchange is counted and retried implicitly by the
//! next round.
//!
//! Everything here runs against `&mut StoreRt` — the simulator and the
//! threaded backend drive the same rounds, the same metrics, the same
//! spans.
//!
//! [`GossipConfig::digest_mode`] selects how an exchange locates missing
//! dots: [`DigestMode::Full`] is the classic digest-then-delta pair of
//! RPCs, [`DigestMode::MerkleRange`] descends the [`crate::reconcile`]
//! range tree so bytes scale with the symmetric difference instead of
//! the set.
//!
//! Metrics recorded on the runtime (names in [`weakset_obs::gossip`]):
//! `gossip.rounds`, `gossip.exchanges`, `gossip.failures`,
//! `gossip.novel_shipped`, `gossip.push_skipped`, `gossip.range_rpcs`,
//! `gossip.digest_bytes`, `gossip.delta_bytes` (encoded wire cost of
//! digests vs deltas, comparable across both digest modes), and
//! convergence lag (`gossip.replica_stale_rounds` — one per live replica
//! per round whose digest trails the join of *all* replicas' digests,
//! crashed included — plus the `gossip.stale_replicas.max` and
//! `gossip.unreplicated_dots` high-water gauges).

use crate::reconcile::{diff_leaf, removed_at, RangeDiff};
use crate::replica::GossipNode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use weakset_obs::gossip as names;
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
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
    /// Time between rounds.
    pub interval: SimDuration,
    /// How exchanges locate missing dots.
    pub digest_mode: DigestMode,
    /// Per-RPC timeout inside an exchange.
    pub rpc_timeout: SimDuration,
    /// Stop scheduling rounds after this simulated time (`None`: run
    /// until [`GossipHandle::stop`]).
    pub until: Option<SimTime>,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            fanout: 1,
            interval: SimDuration::from_millis(25),
            digest_mode: DigestMode::default(),
            rpc_timeout: SimDuration::from_millis(20),
            until: None,
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
    /// Stops the schedule: the next pending round exits without running
    /// or rescheduling.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Installs periodic anti-entropy for one collection over `replicas`
/// (every node must run a [`GossipNode`] hosting the collection). The
/// first round fires one interval from now. Returns a handle that
/// cancels the schedule; with `config.until` unset the schedule runs
/// until stopped, so call [`GossipHandle::stop`] before expecting
/// [`weakset_sim::world::World::run_to_quiescence`] to terminate.
pub fn install(
    world: &mut StoreRt,
    coll: CollectionId,
    replicas: Vec<NodeId>,
    config: GossipConfig,
) -> GossipHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let round = Round {
        coll,
        replicas: Arc::new(replicas),
        peers: Vec::new(),
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
    let mut first: Option<(Membership, VersionVector)> = None;
    for &r in replicas {
        let Some(state) = world
            .with_service(r, |g: &GossipNode| {
                g.crdt(coll).map(|c| (c.elements(), c.digest()))
            })
            .flatten()
        else {
            return false;
        };
        match &first {
            None => first = Some(state),
            Some(f) => {
                if *f != state {
                    return false;
                }
            }
        }
    }
    true
}

/// A replica's current CRDT membership, read omnisciently.
pub fn elements_at(world: &StoreRt, node: NodeId, coll: CollectionId) -> Option<Membership> {
    world
        .with_service(node, |g: &GossipNode| g.crdt(coll).map(|c| c.elements()))
        .flatten()
}

/// The self-rescheduling round task.
struct Round {
    coll: CollectionId,
    replicas: Arc<Vec<NodeId>>,
    /// Scratch for one origin's shuffled peer list, kept across rounds.
    peers: Vec<NodeId>,
    config: GossipConfig,
    rng: SimRng,
    stop: Arc<AtomicBool>,
}

impl RtTask<StoreMsg> for Round {
    fn label(&self) -> &str {
        "gossip.round"
    }

    fn run(mut self: Box<Self>, world: &mut StoreRt) {
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        if let Some(until) = self.config.until {
            if world.now() >= until {
                return;
            }
        }
        world.metrics_mut().incr(names::ROUNDS);
        // Each round is background work: the task dispatch cleared the
        // causal stack, so this span roots a fresh per-round trace that
        // every exchange (and its RPCs) nests under.
        let coll = self.coll;
        let round_span = world.span_enter("gossip.round", &|| coll.label());
        let nodes = Arc::clone(&self.replicas);
        for &origin in nodes.iter() {
            if !world.is_up(origin) {
                continue;
            }
            self.peers.clear();
            self.peers
                .extend(nodes.iter().copied().filter(|&p| p != origin));
            self.rng.shuffle(&mut self.peers);
            self.peers.truncate(self.config.fanout);
            for &peer in &self.peers {
                sync_pair(
                    world,
                    self.coll,
                    origin,
                    peer,
                    self.config.digest_mode,
                    self.config.rpc_timeout,
                );
            }
        }
        record_convergence_lag(world, self.coll, &nodes);
        world.span_exit(round_span);
        let interval = self.config.interval;
        world.spawn_in(interval, self);
    }
}

/// After each round, counts live replicas whose digest still trails the
/// join of **every** replica's digest — crashed ones included, so dots
/// held only by a dead node keep the live replicas counted stale and
/// surface as the `gossip.unreplicated_dots` gauge (what would be lost if
/// the crashed holders never recovered).
fn record_convergence_lag(world: &mut StoreRt, coll: CollectionId, replicas: &[NodeId]) {
    // Digests are shares of the replicas' vectors, so they are read
    // twice instead of being collected; in the steady state every
    // replica holds the same vector and both joins share the first map.
    let mut holders = 0usize;
    let mut all_join = VersionVector::default();
    let mut live_join = VersionVector::default();
    for &r in replicas {
        if let Some(d) = local_digest(world, r, coll) {
            holders += 1;
            all_join.join(&d);
            if world.is_up(r) {
                live_join.join(&d);
            }
        }
    }
    if holders < 2 {
        return;
    }
    let stale = replicas
        .iter()
        .filter(|&&r| world.is_up(r))
        .filter_map(|&r| local_digest(world, r, coll))
        .filter(|d| !d.dominates(&all_join))
        .count() as u64;
    let m = world.metrics_mut();
    m.add(names::REPLICA_STALE_ROUNDS, stale);
    m.gauge_max(names::STALE_REPLICAS_MAX, stale);
    m.gauge_max(
        names::UNREPLICATED_DOTS,
        all_join.total() - live_join.total(),
    );
}

/// Runs one exchange initiated by `origin` towards `peer`; both
/// directions always move. Every round runs this once per chosen peer;
/// called directly it is an immediate, deterministic pairwise sync (no
/// schedule) for tests, experiments and targeted repair.
pub fn sync_pair(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    digest_mode: DigestMode,
    timeout: SimDuration,
) {
    world.metrics_mut().incr(names::EXCHANGES);
    let span = world.span_enter("gossip.exchange", &|| {
        origin.link_label(peer).as_str().into()
    });
    match digest_mode {
        // The pull reply carries the peer's full vector, which is
        // exactly the digest the return push needs: two RPCs total.
        DigestMode::Full => {
            if let Some(peer_vv) = pull(world, coll, origin, peer, timeout) {
                push(world, coll, origin, peer, &peer_vv, timeout);
            }
        }
        DigestMode::MerkleRange => {
            merkle_exchange(world, coll, origin, peer, timeout);
        }
    }
    world.span_exit(span);
}

/// Pull leg: ship our digest, join the peer's delta into local state.
/// Returns the peer's version vector on success.
fn pull(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    timeout: SimDuration,
) -> Option<VersionVector> {
    let digest = local_digest(world, origin, coll)?;
    record_digest(world, &digest);
    match world.rpc(
        origin,
        peer,
        StoreMsg::GossipDeltaReq { coll, digest },
        timeout,
    ) {
        Ok(StoreMsg::GossipDelta { delta, .. }) => {
            let peer_vv = delta.vv.clone();
            record_shipped(world, &delta);
            // Through the service's own handler, so local joins and
            // remote pushes share one code path.
            world.with_service_mut(origin, |g: &mut GossipNode| {
                g.apply(StoreMsg::GossipPush { coll, delta });
            });
            Some(peer_vv)
        }
        Ok(other) => {
            unexpected_reply(world, "pull", peer, &other);
            None
        }
        Err(_) => {
            world.metrics_mut().incr(names::FAILURES);
            None
        }
    }
}

/// Push leg: ship the peer whatever its digest does not cover.
fn push(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    peer_digest: &VersionVector,
    timeout: SimDuration,
) {
    // Nothing to ship when the CRDT can prove the peer needs nothing.
    let delta = world
        .with_service(origin, |g: &GossipNode| {
            let crdt = g.crdt(coll)?;
            if crdt.nothing_for(peer_digest) {
                return None;
            }
            Some(crdt.delta_since(peer_digest))
        })
        .flatten();
    let Some(delta) = delta else {
        world.metrics_mut().incr(names::PUSH_SKIPPED);
        return;
    };
    record_shipped(world, &delta);
    let push = StoreMsg::GossipPush { coll, delta };
    if world.rpc(origin, peer, push, timeout).is_err() {
        world.metrics_mut().incr(names::FAILURES);
    }
}

/// One Merkle-range exchange: descend mismatched ranges of the two
/// replicas' live-dot trees, classify every one-sided dot as a missing
/// add or a propagating removal using the digests, then apply the
/// peer's half locally and ship ours. Bytes are charged to the
/// same counters as the `Full` path: summaries, match/split replies, and
/// digests to `gossip.digest_bytes`; leaf enumerations and the final
/// [`DeltaBatch`] to `gossip.delta_bytes`.
fn merkle_exchange(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    timeout: SimDuration,
) -> Option<()> {
    let (tree, my_vv) = world
        .with_service(origin, |g: &GossipNode| {
            g.crdt(coll).map(|c| (c.range_tree(), c.digest()))
        })
        .flatten()?;

    // Descent: probe the frontier, fold leaves into the diff, keep only
    // still-mismatching children. Depth grows by SPLIT_BITS per round,
    // so the loop is bounded by 64 / SPLIT_BITS rounds.
    let mut diff = RangeDiff::default();
    let mut frontier = vec![tree.summary(RangeKey::ROOT)];
    let mut peer_vv: Option<VersionVector> = None;
    while !frontier.is_empty() {
        let probe_bytes: usize = frontier.iter().map(RangeSummary::encoded_size).sum();
        let m = world.metrics_mut();
        m.incr(names::RANGE_RPCS);
        m.add(names::DIGEST_BYTES, probe_bytes as u64);
        let reply = world.rpc(
            origin,
            peer,
            StoreMsg::GossipRangeReq {
                coll,
                ranges: frontier,
            },
            timeout,
        );
        let (digest, ranges) = match reply {
            Ok(StoreMsg::GossipRangeResp { digest, ranges, .. }) => (digest, ranges),
            Ok(other) => {
                unexpected_reply(world, "merkle_probe", peer, &other);
                return None;
            }
            Err(_) => {
                world.metrics_mut().incr(names::FAILURES);
                return None;
            }
        };
        record_digest(world, &digest);
        // Pin the peer vector from the FIRST response. Later responses
        // read the peer's *live* replica, whose vector may have advanced
        // past entries the descent will never revisit; shipping or
        // joining such a vector would certify dots as seen-and-removed
        // when their adds were simply never transferred — a permanent
        // divergence, since `apply_batch` refuses novel entries whose
        // dots the local vector already covers.
        if peer_vv.is_none() {
            peer_vv = Some(digest);
        }
        let mut next = Vec::new();
        let mut reply_meta = 0usize;
        let mut leaf_bytes = 0usize;
        for r in &ranges {
            match r {
                RangeReply::Match(_) => reply_meta += r.encoded_size(),
                RangeReply::Leaf { key, entries } => {
                    leaf_bytes += r.encoded_size();
                    diff_leaf(&tree, *key, entries, &mut diff);
                }
                RangeReply::Split(children) => {
                    reply_meta += r.encoded_size();
                    for child in children {
                        let mine = tree.summary(child.key);
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
        frontier = next;
    }
    let peer_vv = peer_vv?;

    // Classify each one-sided dot: a digest that covers the dot has
    // *observed* the add, so its absence from that side's live set means
    // it was removed there — propagate the removal. Uncovered means the
    // add simply has not arrived yet — ship the entry.
    let mut novel_for_me: Vec<DottedEntry> = Vec::new();
    let mut drop_for_peer: Vec<Dot> = Vec::new();
    for e in &diff.peer_only {
        if removed_at(&my_vv, e.dot) {
            drop_for_peer.push(e.dot);
        } else if peer_vv.contains(e.dot) {
            // Entries the peer gained mid-descent (dots past its pinned
            // vector) wait for the next round: applying them under the
            // pinned vector would break the covers-all-entries
            // invariant.
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

    // Applying the peer's vector alongside its half also certifies the
    // drops (apply_batch only honours covered dots) and joins the
    // vectors, mirroring what a Full-mode pull learns.
    let batch = DeltaBatch {
        vv: peer_vv.clone(),
        novel: novel_for_me,
        drop: drop_for_me,
    };
    world.with_service_mut(origin, |g: &mut GossipNode| {
        g.apply(StoreMsg::GossipDeltaBatch { coll, batch });
    });

    // Ship the join of the two vectors *the diff was computed against* —
    // never a live re-read, which could cover dots added concurrently
    // whose entries are in neither half of the diff (the peer would then
    // refuse them forever as already-seen). The snapshot join still
    // certifies our drops and hands the peer everything a Full-mode
    // exchange would.
    let mut vv_join = my_vv.clone();
    vv_join.join(&peer_vv);
    if novel_for_peer.is_empty() && drop_for_peer.is_empty() && peer_vv.dominates(&vv_join) {
        world.metrics_mut().incr(names::PUSH_SKIPPED);
        return Some(());
    }
    let batch = DeltaBatch {
        vv: vv_join,
        novel: novel_for_peer,
        drop: drop_for_peer,
    };
    let m = world.metrics_mut();
    m.add(names::NOVEL_SHIPPED, batch.novel.len() as u64);
    m.add(names::DELTA_BYTES, batch.encoded_size() as u64);
    let push = StoreMsg::GossipDeltaBatch { coll, batch };
    if world.rpc(origin, peer, push, timeout).is_err() {
        world.metrics_mut().incr(names::FAILURES);
    }
    Some(())
}

/// A peer answered an anti-entropy request with the wrong message type —
/// usually a node that does not run a [`GossipNode`], or a collection it
/// does not replicate. Counted as a failure, with a trace breadcrumb
/// naming the leg and the reply, so a misconfigured deployment does not
/// look healthy.
fn unexpected_reply(world: &mut StoreRt, leg: &str, peer: NodeId, reply: &StoreMsg) {
    world.metrics_mut().incr(names::FAILURES);
    world.trace_event("gossip.unexpected_reply", &|| {
        format!("{leg} from {peer}: {reply:?}")
    });
}

fn local_digest(world: &StoreRt, node: NodeId, coll: CollectionId) -> Option<VersionVector> {
    world
        .with_service(node, |g: &GossipNode| g.crdt(coll).map(|c| c.digest()))
        .flatten()
}

fn record_shipped(world: &mut StoreRt, delta: &MembershipDelta) {
    let m = world.metrics_mut();
    m.add(names::NOVEL_SHIPPED, delta.novel.len() as u64);
    m.add(names::DELTA_BYTES, wire::delta_encoded_size(delta) as u64);
}

/// Charges a version vector crossing the wire at its compact
/// `weakset_store::wire` encoded size — the encoding both digest modes
/// are billed by, which is what makes their byte counts comparable.
fn record_digest(world: &mut StoreRt, vv: &VersionVector) {
    world
        .metrics_mut()
        .add(names::DIGEST_BYTES, wire::vv_encoded_size(vv) as u64);
}
