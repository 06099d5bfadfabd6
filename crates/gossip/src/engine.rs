//! The anti-entropy engine: periodic pairwise gossip rounds scheduled on
//! the runtime's timer queue.
//!
//! [`install`] spawns a self-rescheduling [`weakset_runtime::RtTask`]
//! that fires every [`GossipConfig::interval`]. Each round, every live
//! replica picks [`GossipConfig::fanout`] random peers (deterministically,
//! from the runtime's seeded RNG) and runs a digest-then-delta exchange in
//! the configured [`GossipMode`]. Exchanges are plain RPCs on the store
//! protocol, so partitions, crashes, and lossy links bite gossip exactly
//! as they bite every other client: a failed exchange is counted and
//! retried implicitly by the next round.
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

/// Epidemic exchange style for one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GossipMode {
    /// The initiator ships its missing dots to the peer (digest request,
    /// then delta push: two RPCs).
    Push,
    /// The initiator asks the peer for its own missing dots (one RPC).
    Pull,
    /// Both directions in two RPCs: a pull whose reply reveals the
    /// peer's digest, then a push of whatever the peer is missing.
    #[default]
    PushPull,
}

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
    /// Exchange style.
    pub mode: GossipMode,
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
            mode: GossipMode::default(),
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

    /// True once [`GossipHandle::stop`] has been called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
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

/// Installs one independent anti-entropy schedule per shard: each
/// shard's sub-collection gossips strictly within its own replica
/// group, never across groups, so a partition (or a hot spot) in one
/// shard cannot slow convergence of the others. Handles come back in
/// shard order; stop them individually or all together.
///
/// Shard sub-collection ids are the caller's business (sharded weak
/// sets derive them with `weakset::shard::shard_collection_id`).
pub fn install_sharded(
    world: &mut StoreRt,
    shards: &[(CollectionId, Vec<NodeId>)],
    config: GossipConfig,
) -> Vec<GossipHandle> {
    shards
        .iter()
        .map(|(coll, replicas)| install(world, *coll, replicas.clone(), config))
        .collect()
}

/// True when every shard's replica group has converged on its own
/// sub-collection (see [`converged`]).
pub fn converged_sharded(world: &StoreRt, shards: &[(CollectionId, Vec<NodeId>)]) -> bool {
    shards
        .iter()
        .all(|(coll, replicas)| converged(world, *coll, replicas))
}

/// One immediate push-pull exchange between two replicas (no schedule) —
/// deterministic pairwise sync for tests and targeted repair. Uses the
/// classic [`DigestMode::Full`] exchange.
pub fn sync_pair(
    world: &mut StoreRt,
    coll: CollectionId,
    a: NodeId,
    b: NodeId,
    rpc_timeout: SimDuration,
) {
    exchange(
        world,
        coll,
        a,
        b,
        GossipMode::PushPull,
        DigestMode::Full,
        rpc_timeout,
    );
}

/// [`sync_pair`] with an explicit digest mode: one immediate push-pull
/// exchange, reconciling by Merkle-range descent when asked.
pub fn sync_pair_with(
    world: &mut StoreRt,
    coll: CollectionId,
    a: NodeId,
    b: NodeId,
    digest_mode: DigestMode,
    rpc_timeout: SimDuration,
) {
    exchange(
        world,
        coll,
        a,
        b,
        GossipMode::PushPull,
        digest_mode,
        rpc_timeout,
    );
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
                exchange(
                    world,
                    self.coll,
                    origin,
                    peer,
                    self.config.mode,
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
/// join of **every** replica's digest — crashed ones included. A crashed
/// replica holding dots no live replica has observed used to vanish from
/// the join entirely, so the round read as fully converged while state
/// sat unreplicated on a dead node; now those dots keep the live
/// replicas counted stale and additionally surface as the
/// `gossip.unreplicated_dots` gauge (dots that would be lost if the
/// crashed holders never recovered).
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

/// Runs one exchange initiated by `origin` towards `peer`.
fn exchange(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    mode: GossipMode,
    digest_mode: DigestMode,
    timeout: SimDuration,
) {
    world.metrics_mut().incr(names::EXCHANGES);
    let span = world.span_enter("gossip.exchange", &|| origin.link_label(peer));
    match digest_mode {
        DigestMode::Full => match mode {
            GossipMode::Pull => {
                pull(world, coll, origin, peer, timeout);
            }
            GossipMode::Push => {
                if let Some(peer_digest) = fetch_digest(world, coll, origin, peer, timeout) {
                    push(world, coll, origin, peer, &peer_digest, timeout);
                }
            }
            GossipMode::PushPull => {
                // The pull reply carries the peer's full vector, which is
                // exactly the digest the return push needs: two RPCs total.
                if let Some(peer_vv) = pull(world, coll, origin, peer, timeout) {
                    push(world, coll, origin, peer, &peer_vv, timeout);
                }
            }
        },
        // The descent itself is direction-agnostic (both sides' trees are
        // compared range by range); GossipMode only selects which halves
        // of the located difference move.
        DigestMode::MerkleRange => {
            merkle_exchange(world, coll, origin, peer, mode, timeout);
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
            apply_local(world, origin, coll, delta);
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
    let Some(delta) = local_delta(world, origin, coll, peer_digest) else {
        world.metrics_mut().incr(names::PUSH_SKIPPED);
        return;
    };
    record_shipped(world, &delta);
    match world.rpc(origin, peer, StoreMsg::GossipPush { coll, delta }, timeout) {
        Ok(_) => {}
        Err(_) => world.metrics_mut().incr(names::FAILURES),
    }
}

/// One Merkle-range exchange: descend mismatched ranges of the two
/// replicas' live-dot trees, classify every one-sided dot as a missing
/// add or a propagating removal using the digests, then move the halves
/// [`GossipMode`] asks for — `Pull` applies the peer's half locally,
/// `Push` ships ours, `PushPull` does both. Bytes are charged to the
/// same counters as the `Full` path: summaries, match/split replies, and
/// digests to `gossip.digest_bytes`; leaf enumerations and the final
/// [`DeltaBatch`] to `gossip.delta_bytes`.
fn merkle_exchange(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    mode: GossipMode,
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

    if matches!(mode, GossipMode::Pull | GossipMode::PushPull) {
        // Applying the peer's vector alongside its half also certifies
        // the drops (apply_batch only honours covered dots) and joins
        // the vectors, mirroring what a Full-mode pull learns.
        let batch = DeltaBatch {
            vv: peer_vv.clone(),
            novel: novel_for_me,
            drop: drop_for_me,
        };
        world.with_service_mut(origin, |g: &mut GossipNode| {
            g.apply(StoreMsg::GossipDeltaBatch { coll, batch });
        });
    }

    if matches!(mode, GossipMode::Push | GossipMode::PushPull) {
        // Ship the join of the two vectors *the diff was computed
        // against* — never a live re-read, which could cover dots added
        // concurrently whose entries are in neither half of the diff
        // (the peer would then refuse them forever as already-seen).
        // The snapshot join still certifies our drops and hands the
        // peer everything a Full-mode exchange would.
        let mut vv_join = my_vv.clone();
        vv_join.join(&peer_vv);
        if novel_for_peer.is_empty() && drop_for_peer.is_empty() && peer_vv.dominates(&vv_join) {
            world.metrics_mut().incr(names::PUSH_SKIPPED);
        } else {
            let batch = DeltaBatch {
                vv: vv_join,
                novel: novel_for_peer,
                drop: drop_for_peer,
            };
            let m = world.metrics_mut();
            m.add(names::NOVEL_SHIPPED, batch.novel.len() as u64);
            m.add(names::DELTA_BYTES, batch.encoded_size() as u64);
            match world.rpc(
                origin,
                peer,
                StoreMsg::GossipDeltaBatch { coll, batch },
                timeout,
            ) {
                Ok(_) => {}
                Err(_) => world.metrics_mut().incr(names::FAILURES),
            }
        }
    }
    Some(())
}

fn fetch_digest(
    world: &mut StoreRt,
    coll: CollectionId,
    origin: NodeId,
    peer: NodeId,
    timeout: SimDuration,
) -> Option<VersionVector> {
    match world.rpc(origin, peer, StoreMsg::GossipDigestReq(coll), timeout) {
        Ok(StoreMsg::GossipDigest { digest, .. }) => {
            record_digest(world, &digest);
            Some(digest)
        }
        Ok(other) => {
            unexpected_reply(world, "fetch_digest", peer, &other);
            None
        }
        Err(_) => {
            world.metrics_mut().incr(names::FAILURES);
            None
        }
    }
}

/// A peer answered an anti-entropy request with the wrong message type —
/// usually a node that does not run a [`GossipNode`], or a collection it
/// does not replicate. Dropping these silently made misconfigured
/// deployments look healthy (the exchange just vanished, every round,
/// forever); count them as failures and leave a trace breadcrumb naming
/// the leg and the reply.
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

/// The delta `node` would send a peer holding `digest`; `None` when the
/// CRDT can prove the peer needs nothing.
fn local_delta(
    world: &StoreRt,
    node: NodeId,
    coll: CollectionId,
    digest: &VersionVector,
) -> Option<MembershipDelta> {
    world
        .with_service(node, |g: &GossipNode| {
            let crdt = g.crdt(coll)?;
            if crdt.nothing_for(digest) {
                return None;
            }
            Some(crdt.delta_since(digest))
        })
        .flatten()
}

fn apply_local(world: &mut StoreRt, node: NodeId, coll: CollectionId, delta: MembershipDelta) {
    world.with_service_mut(node, |g: &mut GossipNode| {
        // Route through the service's own handler so local joins and
        // remote pushes share one code path.
        g.apply(StoreMsg::GossipPush { coll, delta });
    });
}

fn record_shipped(world: &mut StoreRt, delta: &MembershipDelta) {
    let m = world.metrics_mut();
    m.add(names::NOVEL_SHIPPED, delta.novel.len() as u64);
    m.add(names::DELTA_BYTES, wire::delta_encoded_size(delta) as u64);
}

/// Charges a version vector crossing the wire at its compact encoded
/// size. The old flat `16 * len` both overcharged small vectors (varints
/// are 1–3 bytes here, not 16) and ignored that OR-Set removal dots keep
/// widening the vector — the two modes are only comparable when both are
/// billed by the same `weakset_store::wire` encoding.
fn record_digest(world: &mut StoreRt, vv: &VersionVector) {
    world
        .metrics_mut()
        .add(names::DIGEST_BYTES, wire::vv_encoded_size(vv) as u64);
}
