//! The one scenario driver.
//!
//! [`drive`] puts a [`Scenario`] in front of the conformance oracle:
//! it builds the fleet the scenario's [`Deployment`] names, runs one
//! observed iterator through the workload, and judges the recorded
//! computations. Three [`Stage`]s run it — the simulator
//! ([`crate::run::execute`]), OS threads under a recorder, and a
//! recording re-driven inside the simulator (both in [`crate::replay`]).
//!
//! A stage decides only what a backend can decide: how nodes come to
//! exist, what a [`Mark`] does (nothing, a region marker in the log, a
//! re-alignment on one), how the schedule advances (which, on replay, is
//! whatever the log holds next — including whether there is a next
//! invocation at all), and how the run is settled and closed. A stage
//! never decides what fleet is built, when the driver waits, gives up or
//! stops, or what the verdict is: those exist once, here.
//!
//! Workload ops are applied at *invocation boundaries* through ordinary
//! client RPCs (never by poking server state directly), so every
//! linearization the conformance observer reconstructs is one the client
//! could really have seen; op errors are deliberately ignored — a locked
//! or guarded collection rejecting a mutation is the semantics working,
//! and a crashed primary timing one out is the fault schedule working.

use crate::oracle;
use crate::run::{RunReport, COLL};
use crate::scenario::{Chaos, Deployment, Op, Scenario};
use std::fmt;
use weakset::prelude::{
    Elements, Failure, HistorySource, IterConfig, IterStep, Semantics, ShardGroup, ShardedElements,
    ShardedWeakSet, WeakSet,
};
use weakset_gossip::prelude::{
    engine, DigestMode, GossipConfig, GossipHandle, GossipNode, GossipSemantics,
};
use weakset_runtime::traits::{Clock, Runtime, RuntimeExt};
use weakset_sim::metrics::{Metrics, ObsEvent};
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_spec::prelude::{Computation, ElemId, Invocation, Outcome, SetValue};
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{
    CollectionRef, CollectionState, ReadPolicy, StoreClient, StoreMsg, StoreRt, StoreServer,
};

/// Bound on driver patience: how many 5 ms waits the driver tolerates
/// while blocked before declaring the run wedged. All generated faults
/// self-heal well inside this window.
const MAX_WAITS: usize = 400;

pub(crate) fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn sleep_until(rt: &mut (impl Clock + ?Sized), t: SimTime) {
    let now = rt.now();
    if now < t {
        rt.sleep(t.saturating_since(now));
    }
}

/// A driver activity a stage may bracket. The `Display` form is the
/// region-label grammar of recordings (fault edges, which only the
/// log-bound stages bracket, spell theirs as
/// [`FaultEdge`](crate::scenario::FaultEdge)): labels are intrinsic
/// to the scenario item, never positional, so the recording shrinker can
/// drop an item from the workload and excise exactly its regions from
/// the log.
pub(crate) enum Mark<'a> {
    /// One setup add: `setup.<elem>.<home>`.
    Setup(u64, usize),
    /// One workload op: `op.<at>.add.<elem>.<home>` / `op.<at>.rm.<elem>`.
    Op(&'a Op),
    /// Iteration begins.
    Start,
    /// The n-th iterator invocation: `inv.<n>`.
    Inv(usize),
    /// The final membership read.
    Members,
    /// The run is over.
    End,
}

impl fmt::Display for Mark<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Mark::Setup(elem, home) => write!(f, "setup.{elem}.{home}"),
            Mark::Op(&Op::Add { at_ms, elem, home }) => {
                write!(f, "op.{at_ms}.add.{elem}.{home}")
            }
            Mark::Op(&Op::Remove { at_ms, elem }) => write!(f, "op.{at_ms}.rm.{elem}"),
            Mark::Start => f.write_str("start"),
            Mark::Inv(n) => write!(f, "inv.{n}"),
            Mark::Members => f.write_str("members"),
            Mark::End => f.write_str("end"),
        }
    }
}

/// What a stage hands back when the run is over: the backend's half of
/// the [`RunReport`].
pub(crate) struct Closed {
    pub trace_hash: u64,
    pub sim_time_us: u64,
    /// The backend's registry itself, taken, not copied.
    pub metrics: Metrics,
    pub events: Vec<ObsEvent>,
}

/// One way of running a scenario: a backend plus the few decisions that
/// belong to it (see the module docs for what does not).
pub(crate) trait Stage {
    /// The backend every client-side call goes through.
    fn rt(&mut self) -> &mut StoreRt;

    /// The client node and the servers, created in that order.
    fn nodes(&self) -> (NodeId, Vec<NodeId>);

    /// Brackets the driver activity `mark` names; false when the activity
    /// must not run (only a log can say so).
    fn mark(&mut self, mark: Mark<'_>) -> bool;

    /// The run origin is now: fault schedule and workload are offsets
    /// from here.
    fn origin(&mut self);

    /// Advances the schedule. `Some(ms)`: everything due by that offset
    /// is applied at its due instant and the clock reads at least the
    /// offset afterwards. `None`: whatever is already due, clock
    /// untouched.
    fn advance(&mut self, fleet: &Fleet, to_ms: Option<u64>);

    /// The schedule is drained: let the backend come to rest before the
    /// computations are read off it.
    fn settle(&mut self, fleet: &Fleet);

    /// Shuts the backend down — anything that goes wrong doing so is a
    /// violation — and hands over what it recorded.
    fn close(&mut self, violations: &mut Vec<String>) -> Closed;
}

/// The set under test: one plain collection, or a routed sharded set.
/// Every workload mutation and iterator invocation goes through this, so
/// the driver is deployment-agnostic past construction.
pub(crate) enum TestSet {
    One(WeakSet),
    Sharded(ShardedWeakSet),
}

impl TestSet {
    fn add(&self, rt: &mut StoreRt, rec: ObjectRecord, home: NodeId) -> Result<(), Failure> {
        match self {
            TestSet::One(s) => s.add(rt, rec, home),
            TestSet::Sharded(s) => s.add(rt, rec, home),
        }
    }

    fn remove(&self, rt: &mut StoreRt, elem: ObjectId) -> Result<(), Failure> {
        match self {
            TestSet::One(s) => s.remove(rt, elem),
            TestSet::Sharded(s) => s.remove(rt, elem),
        }
    }

    /// Every collection the set spans, in shard order.
    fn crefs(&self) -> impl Iterator<Item = &CollectionRef> {
        let shards = match self {
            TestSet::One(_) => 1,
            TestSet::Sharded(s) => s.shard_count(),
        };
        (0..shards).map(move |i| match self {
            TestSet::One(s) => s.cref(),
            TestSet::Sharded(s) => s.shard(i).cref(),
        })
    }
}

/// The observed iterator under test: a single run, or a fan-out across
/// shards (one observed run per shard).
enum TestElements {
    One(Box<Elements>),
    Sharded(ShardedElements),
}

impl TestElements {
    fn next(&mut self, rt: &mut StoreRt) -> IterStep {
        match self {
            TestElements::One(it) => it.next(rt),
            TestElements::Sharded(it) => it.next(rt),
        }
    }

    fn take_computations(&mut self, rt: &StoreRt) -> Vec<Computation> {
        match self {
            TestElements::One(it) => it.take_computation(rt).into_iter().collect(),
            TestElements::Sharded(it) => it.take_computations(rt),
        }
    }
}

/// Everything a scenario deploys, whichever stage runs it.
pub(crate) struct Fleet {
    client: StoreClient,
    servers: Vec<NodeId>,
    set: TestSet,
    read_policy: ReadPolicy,
    gossip: Option<GossipHandle>,
    file_size: Option<u64>,
}

impl Fleet {
    /// Deploys `s` on the stage's nodes: services, client (with a session
    /// for causal reads), the set, its setup members — each under its
    /// [`Mark::Setup`] — and the gossip engine.
    fn build(s: &Scenario, stage: &mut impl Stage) -> Result<Fleet, String> {
        let (client_node, servers) = stage.nodes();
        let rt = stage.rt();
        for &sv in &servers {
            rt.install_service(
                sv,
                match s.deployment {
                    Deployment::Plain | Deployment::Sharded { .. } => Box::new(StoreServer::new()),
                    Deployment::Gossip { grow_only, .. } => {
                        Box::new(GossipNode::new(sv).with_default_semantics(if grow_only {
                            GossipSemantics::GrowOnly
                        } else {
                            GossipSemantics::GrowShrink
                        }))
                    }
                },
            );
        }
        let mut client = StoreClient::new(client_node, ms(s.timeout_ms()));
        if s.read_policy == ReadPolicy::CausalSession {
            // One shared session token across the client, every shard
            // clone, and the iterator: its writes become the floors the
            // oracle enforces.
            client = client.with_session();
        }
        let config = IterConfig {
            read_policy: s.read_policy,
            fetch_order: s.fetch_order,
            guard_growth: s.guard_growth,
            window: s.window,
            ..IterConfig::default()
        };
        let set = match s.deployment {
            Deployment::Sharded { shards } => {
                // Servers split round-robin into shard groups, so fault and
                // op server indices keep their meaning: group g is servers
                // g, g+n, g+2n, ... with the first as the shard primary.
                let n = shards.clamp(1, servers.len());
                let groups: Vec<ShardGroup> = (0..n)
                    .map(|g| {
                        let members: Vec<NodeId> =
                            (g..servers.len()).step_by(n).map(|i| servers[i]).collect();
                        ShardGroup {
                            home: members[0],
                            replicas: members[1..].to_vec(),
                        }
                    })
                    .collect();
                TestSet::Sharded(
                    ShardedWeakSet::create(rt, COLL, client.clone(), &groups, config)
                        .map_err(|e| format!("shard creation failed: {e:?}"))?,
                )
            }
            Deployment::Plain | Deployment::Gossip { .. } => {
                let cref = CollectionRef {
                    id: COLL,
                    home: servers[0],
                    replicas: servers[1..].to_vec(),
                };
                client
                    .create_collection(rt, &cref)
                    .map_err(|e| format!("create_collection failed: {e:?}"))?;
                TestSet::One(WeakSet::new(client.clone(), cref).with_config(config))
            }
        };
        let mut fleet = Fleet {
            client,
            servers,
            set,
            read_policy: s.read_policy,
            gossip: None,
            file_size: s.file_size,
        };

        // Initial membership, before the run origin.
        for &(elem, home) in &s.setup {
            if stage.mark(Mark::Setup(elem, home)) {
                let home = fleet.servers[home % fleet.servers.len()];
                fleet
                    .set
                    .add(stage.rt(), fleet.object(elem), home)
                    .map_err(|e| format!("setup add failed: {e:?}"))?;
            }
        }

        // Gossip deployments anti-entropy for the whole run, over every
        // server: the one collection is replicated on all of them.
        if let Deployment::Gossip { merkle, .. } = s.deployment {
            fleet.gossip = Some(engine::install(
                stage.rt(),
                COLL,
                fleet.servers.clone(),
                GossipConfig {
                    interval: ms(5),
                    fanout: 2,
                    digest_mode: if merkle {
                        DigestMode::MerkleRange
                    } else {
                        DigestMode::Full
                    },
                    ..GossipConfig::default()
                },
            ));
        }
        Ok(fleet)
    }

    /// Element `elem`'s object, carrying the scenario's file size.
    fn object(&self, elem: u64) -> ObjectRecord {
        let name = format!("e{elem}");
        match self.file_size {
            None => ObjectRecord::new(ObjectId(elem), name, &b"dst"[..]),
            Some(bytes) => ObjectRecord::new(ObjectId(elem), name, vec![b'x'; bytes as usize]),
        }
    }

    /// Applies one workload op through the client, ignoring its outcome
    /// (see the module docs).
    pub(crate) fn apply_op(&self, rt: &mut StoreRt, op: Op) {
        match op {
            Op::Add { elem, home, .. } => {
                let home = self.servers[home % self.servers.len()];
                let _ = self.set.add(rt, self.object(elem), home);
            }
            Op::Remove { elem, .. } => {
                let _ = self.set.remove(rt, ObjectId(elem));
            }
        }
    }

    /// The membership the client reads under the scenario's policy,
    /// sorted; a collection that cannot be read contributes nothing.
    pub(crate) fn read_members(&self, rt: &mut StoreRt) -> Vec<u64> {
        let mut out = Vec::new();
        for cref in self.set.crefs() {
            if let Ok(read) = self.client.read_members(rt, cref, self.read_policy) {
                out.extend(read.entries.iter().map(|e| e.elem.0));
            }
        }
        out.sort_unstable();
        out
    }

    /// The causal-session floors the oracle will demand of each recorded
    /// run, one per collection: the elements the session had committed
    /// at run start, minus anything the workload ever tries to remove (a
    /// concurrent removal legitimately hides the element). The iterator
    /// must yield everything else before claiming the set drained — that
    /// is read-your-writes, machine-checked.
    ///
    /// The committed writes are each primary's membership, read
    /// omnisciently off the server (driver-side ground truth, never
    /// visible to the iterator under test); ROADMAP item 4 replaces this
    /// read with the session's recorded history.
    fn session_floors(&self, rt: &StoreRt, s: &Scenario) -> Vec<SetValue> {
        let removed = |e| {
            s.ops
                .iter()
                .any(|op| matches!(*op, Op::Remove { elem, .. } if elem == e))
        };
        let floor = |c: &CollectionState| -> SetValue {
            let members = c.members().iter().map(|m| m.elem.0);
            members.filter(|&e| !removed(e)).map(ElemId).collect()
        };
        self.set
            .crefs()
            .map(|cref| {
                if self.gossip.is_none() {
                    let read = |sv: &StoreServer| sv.collection(cref.id).map(floor);
                    return rt
                        .with_service(cref.home, read)
                        .flatten()
                        .unwrap_or_default();
                }
                let mut out = SetValue::default();
                GossipNode::visit_collection_history(rt, cref.home, cref.id, &mut |c| {
                    out = floor(c)
                });
                out
            })
            .collect()
    }
}

/// A forward stage's schedule: items keyed by their offset from the run
/// origin, applied in order as the clock reaches them.
pub(crate) struct Schedule<T> {
    items: Vec<(u64, T)>,
    next: usize,
    t0: SimTime,
}

impl<T> Schedule<T> {
    /// `items` must be sorted by offset.
    pub(crate) fn new(items: Vec<(u64, T)>) -> Self {
        Schedule {
            items,
            next: 0,
            t0: SimTime::ZERO,
        }
    }

    /// Sets the run origin, returning it.
    pub(crate) fn start(&mut self, t0: SimTime) -> SimTime {
        self.t0 = t0;
        t0
    }

    /// [`Stage::advance`] for a stage that runs forward in time.
    pub(crate) fn advance<R: Runtime<StoreMsg>>(
        &mut self,
        rt: &mut R,
        to_ms: Option<u64>,
        mut apply: impl FnMut(&mut R, &T),
    ) {
        let limit = to_ms.unwrap_or_else(|| rt.now().saturating_since(self.t0).as_millis());
        while let Some((due, item)) = self.items.get(self.next).filter(|(due, _)| *due <= limit) {
            if to_ms.is_some() {
                sleep_until(rt, self.t0 + ms(*due));
            }
            apply(rt, item);
            self.next += 1;
        }
        if let Some(to) = to_ms {
            sleep_until(rt, self.t0 + ms(to));
        }
    }
}

/// Runs `s` on `stage` end to end and checks every oracle.
///
/// # Errors
///
/// A failure in the faultless prelude (collection creation, setup adds).
pub(crate) fn drive(s: &Scenario, stage: &mut impl Stage) -> Result<RunReport, String> {
    let mut violations: Vec<String> = Vec::new();
    let fleet = Fleet::build(s, stage)?;

    stage.origin();
    stage.advance(&fleet, Some(s.start_ms));
    let started = stage.mark(Mark::Start);
    // Snapshot the session's committed writes at run start; the oracle
    // demands them back from every terminated run.
    let floors = if s.read_policy == ReadPolicy::CausalSession {
        fleet.session_floors(stage.rt(), s)
    } else {
        Vec::new()
    };

    let mut it = match &fleet.set {
        TestSet::One(set) if fleet.gossip.is_some() => {
            TestElements::One(Box::new(set.elements_observed_via(
                s.semantics,
                HistorySource::new(GossipNode::visit_collection_history),
            )))
        }
        TestSet::One(set) => TestElements::One(Box::new(set.elements_observed(s.semantics))),
        TestSet::Sharded(set) => TestElements::Sharded(set.elements_observed(s.semantics)),
    };

    let sent_before = stage.rt().metrics().counter("rpc.sent");
    let (yielded, steps) = if started {
        invoke(s, stage, &fleet, &mut it, &mut violations)
    } else {
        (Vec::new(), 0)
    };
    let iter_sent = stage.rt().metrics().counter("rpc.sent") - sent_before;

    // Drain the schedule: leftover ops, fault heals, gossip convergence.
    stage.advance(&fleet, Some(s.horizon_ms() + 60));
    if let Some(handle) = &fleet.gossip {
        let rt = stage.rt();
        let replicas = &fleet.servers;
        let mut ok = engine::converged(rt, COLL, replicas);
        for _ in 0..40 {
            if ok {
                break;
            }
            rt.sleep(ms(20));
            ok = engine::converged(rt, COLL, replicas);
        }
        if !ok {
            violations.push("gossip replicas failed to converge after all faults healed".into());
        }
        handle.stop();
    }
    stage.settle(&fleet);

    let mut computations = it.take_computations(stage.rt());
    judge(s, &mut computations, &floors, &mut violations);
    let closed = stage.close(&mut violations);
    Ok(RunReport {
        seed: s.seed,
        trace_hash: closed.trace_hash,
        yielded,
        steps,
        iter_sent,
        violations,
        computations,
        sim_time_us: closed.sim_time_us,
        metrics: closed.metrics,
        events: closed.events,
    })
}

/// The invocation loop: drives `it` until it returns, fails, exhausts
/// the yield budget, the stage has no further invocation, or the driver
/// gives up waiting. Returns the ids yielded, in order, and the number of
/// invocations issued (blocked ones included). Only blocked invocations
/// count towards the wedge bound: yields are capped by
/// [`Scenario::budget`].
fn invoke(
    s: &Scenario,
    stage: &mut impl Stage,
    fleet: &Fleet,
    it: &mut TestElements,
    violations: &mut Vec<String>,
) -> (Vec<u64>, usize) {
    let mut yielded: Vec<u64> = Vec::new();
    let mut steps = 0usize;
    // Blocked invocations in all, and since the last yield.
    let mut idle = 0usize;
    let mut waits = 0usize;
    let budget = s.budget.max(1);
    loop {
        stage.advance(fleet, None);

        if !stage.mark(Mark::Inv(steps + 1)) {
            break;
        }
        steps += 1;
        match it.next(stage.rt()) {
            IterStep::Yielded(rec) => {
                waits = 0;
                yielded.push(rec.id.0);
                if yielded.len() >= budget {
                    break;
                }
                stage.rt().sleep(ms(s.think_ms));
            }
            IterStep::Done => break,
            IterStep::Failed(f) => {
                if s.semantics == Semantics::Optimistic {
                    violations.push(format!("optimistic iterator signalled failure: {f}"));
                }
                break;
            }
            IterStep::Blocked => {
                waits += 1;
                idle += 1;
                if waits > MAX_WAITS {
                    violations.push("driver wedged: iterator blocked past every heal".into());
                    break;
                }
                if idle > 4 * MAX_WAITS {
                    violations.push("driver wedged: invocation budget exhausted".into());
                    break;
                }
                stage.rt().sleep(ms(5));
            }
        }
    }
    (yielded, steps)
}

/// The verdict: every recorded computation against the scenario's figure
/// and its session floor, after any [`Chaos`] the scenario asks for.
fn judge(
    s: &Scenario,
    computations: &mut [Computation],
    floors: &[SetValue],
    violations: &mut Vec<String>,
) {
    if s.chaos == Chaos::PhantomYield {
        inject_phantom_yield(computations.last_mut(), violations);
    }
    if computations.is_empty() {
        violations.push("observer produced no computation".into());
    }
    let sharded = computations.len() > 1;
    let empty_floor = SetValue::empty();
    for (i, comp) in computations.iter().enumerate() {
        let floor = floors.get(i).unwrap_or(&empty_floor);
        for v in oracle::check_with_session(s, comp, floor) {
            violations.push(if sharded {
                format!("shard {i}: {v}")
            } else {
                v
            });
        }
    }
}

/// [`Chaos::PhantomYield`]: forge a yield of an element that was never a
/// member into the last recorded run. Every figure rejects it, so the
/// violation pipeline (shrink, artifact, replay) always has work.
fn inject_phantom_yield(computation: Option<&mut Computation>, violations: &mut Vec<String>) {
    let forged = computation.and_then(|comp| {
        let idx = comp.states.len().checked_sub(1)?;
        let run = comp.runs.last_mut()?;
        run.invocations.push(Invocation {
            pre: idx,
            post: idx,
            outcome: Outcome::Yielded(ElemId(999_999)),
        });
        Some(())
    });
    if forged.is_none() {
        violations.push("chaos: no recorded run to sabotage".into());
    }
}
