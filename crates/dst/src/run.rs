//! The deterministic executor: build a world from a [`Scenario`], drive
//! one observed iterator run through the scheduled workload and fault
//! schedule, and machine-check the recorded history.
//!
//! Everything is a pure function of the scenario — the simulator clock,
//! RNG streams, fault schedule and workload are all seeded from it — so
//! two executions of the same scenario produce byte-identical traces
//! ([`RunReport::trace_hash`]). That determinism is what makes shrinking
//! (`shrink`) and repro artifacts (`repro`) possible.
//!
//! Workload ops are applied at *invocation boundaries* through ordinary
//! client RPCs (never by poking server state directly), so every
//! linearization the conformance observer reconstructs is one the client
//! could really have seen; op errors are deliberately ignored — a locked
//! or guarded collection rejecting a mutation is the semantics working,
//! and a crashed primary timing one out is the fault schedule working.

use crate::oracle;
use crate::scenario::{Chaos, Deployment, FaultSpec, Op, Scenario};
use std::collections::BTreeSet;
use weakset::prelude::{
    Elements, Failure, HistorySource, IterConfig, IterStep, Semantics, ShardGroup, ShardedElements,
    ShardedWeakSet, WeakSet,
};
use weakset_gossip::prelude::{engine, DigestMode, GossipConfig, GossipNode, GossipSemantics};
use weakset_runtime::traits::RuntimeExt;
use weakset_sim::fault::FaultPlan;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::topology::Topology;
use weakset_sim::world::WorldConfig;
use weakset_spec::prelude::{Computation, ElemId, Invocation, Outcome, SetValue};
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{
    CollectionRef, ReadPolicy, StoreClient, StoreRt, StoreServer, StoreWorld,
};

/// The collection every scenario iterates over.
pub const COLL: CollectionId = CollectionId(1);

/// Bound on driver patience: how many 5 ms waits the driver tolerates
/// while blocked or stalled before declaring the run wedged. All
/// generated faults self-heal well inside this window.
pub(crate) const MAX_WAITS: usize = 400;

/// What one execution produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The scenario seed.
    pub seed: u64,
    /// FNV-1a hash of the full simulator trace — byte-identical traces
    /// hash equal, so equal hashes across two executions certify
    /// determinism.
    pub trace_hash: u64,
    /// Element ids yielded, in yield order.
    pub yielded: Vec<u64>,
    /// Iterator invocations issued (including blocked ones).
    pub steps: usize,
    /// Every oracle violation, human-readable. Empty means the run
    /// conformed to its figure.
    pub violations: Vec<String>,
    /// The recorded computations, for post-mortems: one per shard under
    /// a sharded deployment, at most one otherwise.
    pub computations: Vec<Computation>,
    /// Simulated time consumed by the run, in microseconds.
    pub sim_time_us: u64,
    /// The world's full metrics registry at end of run — every counter,
    /// gauge, and latency the instrumented stack recorded.
    pub metrics: weakset_sim::metrics::Metrics,
    /// The full causal event stream (spans + attributed point events)
    /// the run produced. Feed it to [`weakset_sim::metrics::CausalDag`]
    /// for critical-path analysis, [`crate::explain::explain`] for a
    /// conformance-failure post-mortem, or
    /// [`weakset_sim::metrics::chrome_trace`] for a Perfetto export.
    pub events: Vec<weakset_sim::metrics::ObsEvent>,
}

pub(crate) fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// The set under test: one plain collection, or a routed sharded set.
/// Every workload mutation and iterator invocation goes through this, so
/// the drivers — this one and the record/replay pair — are deployment-
/// and backend-agnostic past construction.
pub(crate) enum TestSet {
    One(WeakSet),
    Sharded(ShardedWeakSet),
}

impl TestSet {
    pub(crate) fn add(
        &self,
        w: &mut StoreRt,
        rec: ObjectRecord,
        home: NodeId,
    ) -> Result<(), Failure> {
        match self {
            TestSet::One(s) => s.add(w, rec, home),
            TestSet::Sharded(s) => s.add(w, rec, home),
        }
    }

    fn remove(&self, w: &mut StoreRt, elem: ObjectId) -> Result<(), Failure> {
        match self {
            TestSet::One(s) => s.remove(w, elem),
            TestSet::Sharded(s) => s.remove(w, elem),
        }
    }

    /// The single underlying set (gossip deployments are never sharded).
    pub(crate) fn single(&self) -> &WeakSet {
        match self {
            TestSet::One(s) => s,
            TestSet::Sharded(_) => unreachable!("sharded deployments have no single collection"),
        }
    }

    fn elements_observed(&self, semantics: Semantics) -> TestElements {
        match self {
            TestSet::One(s) => TestElements::One(Box::new(s.elements_observed(semantics))),
            TestSet::Sharded(s) => TestElements::Sharded(s.elements_observed(semantics)),
        }
    }
}

/// The observed iterator under test: a single run, or a fan-out across
/// shards (one observed run per shard).
enum TestElements {
    One(Box<Elements>),
    Sharded(ShardedElements),
}

impl TestElements {
    fn next(&mut self, w: &mut StoreWorld) -> IterStep {
        match self {
            TestElements::One(it) => it.next(w),
            TestElements::Sharded(it) => it.next(w),
        }
    }

    fn take_computations(&mut self, w: &StoreWorld) -> Vec<Computation> {
        match self {
            TestElements::One(it) => it.take_computation(w).into_iter().collect(),
            TestElements::Sharded(it) => it.take_computations(w),
        }
    }
}

/// Applies every op scheduled at or before `limit_ms`, advancing the
/// clock to each op's due time first. Used before the run starts and to
/// drain leftovers after it ends.
fn advance_and_apply(
    w: &mut StoreWorld,
    set: &TestSet,
    servers: &[NodeId],
    ops: &[Op],
    next: &mut usize,
    t0: SimTime,
    limit_ms: u64,
) {
    while *next < ops.len() && ops[*next].at_ms() <= limit_ms {
        let due = t0 + ms(ops[*next].at_ms());
        if w.now() < due {
            w.run_until(due);
        }
        apply_op(w, set, servers, ops[*next]);
        *next += 1;
    }
}

/// Applies every op whose due time has already passed, without advancing
/// the clock. Used between iterator invocations.
fn apply_due(
    w: &mut StoreWorld,
    set: &TestSet,
    servers: &[NodeId],
    ops: &[Op],
    next: &mut usize,
    t0: SimTime,
) {
    let elapsed_ms = w.now().saturating_since(t0).as_millis();
    while *next < ops.len() && ops[*next].at_ms() <= elapsed_ms {
        apply_op(w, set, servers, ops[*next]);
        *next += 1;
    }
}

pub(crate) fn apply_op(w: &mut StoreRt, set: &TestSet, servers: &[NodeId], op: Op) {
    match op {
        Op::Add { elem, home, .. } => {
            let rec = ObjectRecord::new(ObjectId(elem), format!("e{elem}"), &b"dst"[..]);
            let _ = set.add(w, rec, servers[home % servers.len()]);
        }
        Op::Remove { elem, .. } => {
            let _ = set.remove(w, ObjectId(elem));
        }
    }
}

/// The current membership as the shard primaries hold it, read
/// omnisciently (driver-side ground truth, never visible to the iterator
/// under test). For a sharded set: the union over the shard homes.
pub(crate) fn ground_truth_members(w: &StoreRt, s: &Scenario, set: &TestSet) -> Vec<u64> {
    let read_home = |home: NodeId, coll: CollectionId| -> Vec<u64> {
        let mut out = Vec::new();
        match s.deployment {
            Deployment::Plain | Deployment::Sharded { .. } => {
                w.with_service(home, |sv: &StoreServer| {
                    if let Some(c) = sv.collection(coll) {
                        out = c.members().iter().map(|m| m.elem.0).collect();
                    }
                });
            }
            Deployment::Gossip { .. } => {
                GossipNode::visit_collection_history(w, home, coll, &mut |c| {
                    out = c.members().iter().map(|m| m.elem.0).collect();
                });
            }
        }
        out
    };
    match set {
        TestSet::One(ws) => read_home(ws.cref().home, ws.cref().id),
        TestSet::Sharded(ss) => (0..ss.shard_count())
            .flat_map(|i| {
                let cref = ss.shard(i).cref();
                read_home(cref.home, cref.id)
            })
            .collect(),
    }
}

/// Whether a membership read under `policy` can currently succeed, judged
/// omnisciently from the backend's fault tables.
fn membership_readable(
    w: &StoreRt,
    policy: ReadPolicy,
    client: NodeId,
    cref: &CollectionRef,
) -> bool {
    let live = |n: NodeId| w.is_up(n) && w.reachable(client, n);
    match policy {
        ReadPolicy::Primary => live(cref.home),
        ReadPolicy::Quorum => {
            let all = cref.all_nodes();
            all.iter().filter(|&&n| live(n)).count() * 2 > all.len()
        }
        ReadPolicy::Any | ReadPolicy::Leaderless => cref.all_nodes().iter().any(|&n| live(n)),
        // Conservative: the generator serializes every mutation at the
        // home node, so a live home always dominates the session floor.
        // A laggard-only view may or may not satisfy it — wait it out.
        ReadPolicy::CausalSession => live(cref.home),
    }
}

/// The causal-session floors the oracle will demand of each recorded
/// run, one per shard computation (a single entry otherwise): the
/// elements the session had committed at run start, read omnisciently
/// from the shard primaries, minus anything the workload ever tries to
/// remove (a concurrent removal legitimately hides the element). The
/// iterator must yield everything else before claiming the set drained —
/// that is read-your-writes, machine-checked.
fn session_floors(w: &StoreWorld, s: &Scenario, set: &TestSet) -> Vec<SetValue> {
    let removed: BTreeSet<u64> = s
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Remove { elem, .. } => Some(*elem),
            _ => None,
        })
        .collect();
    let floor_of = |members: Vec<u64>| -> SetValue {
        members
            .into_iter()
            .filter(|e| !removed.contains(e))
            .map(ElemId)
            .collect()
    };
    match set {
        TestSet::One(_) => vec![floor_of(ground_truth_members(w, s, set))],
        TestSet::Sharded(ss) => (0..ss.shard_count())
            .map(|i| {
                let cref = ss.shard(i).cref();
                let members = w
                    .service::<StoreServer>(cref.home)
                    .and_then(|sv| sv.collection(cref.id))
                    .map(|c| c.members().iter().map(|m| m.elem.0).collect())
                    .unwrap_or_default();
                floor_of(members)
            })
            .collect(),
    }
}

/// [`membership_readable`] over every collection the set spans (a
/// sharded read needs every shard readable).
pub(crate) fn all_membership_readable(
    w: &StoreRt,
    policy: ReadPolicy,
    client: NodeId,
    set: &TestSet,
) -> bool {
    match set {
        TestSet::One(ws) => membership_readable(w, policy, client, ws.cref()),
        TestSet::Sharded(ss) => (0..ss.shard_count())
            .all(|i| membership_readable(w, policy, client, ss.shard(i).cref())),
    }
}

fn build_plan(s: &Scenario, servers: &[NodeId], t0: SimTime) -> FaultPlan {
    let node = |i: usize| servers[i % servers.len()];
    let mut plan = FaultPlan::none();
    for f in &s.faults {
        plan = match f {
            FaultSpec::Outage {
                at_ms,
                node: n,
                for_ms,
            } => plan.outage(t0 + ms(*at_ms), node(*n), ms(*for_ms)),
            FaultSpec::Partition {
                at_ms,
                side,
                for_ms,
            } => {
                let side: Vec<NodeId> = side.iter().map(|&i| node(i)).collect();
                plan.partition_window(t0 + ms(*at_ms), &side, ms(*for_ms))
            }
            FaultSpec::Flap {
                at_ms,
                a,
                b,
                down_ms,
                up_ms,
                cycles,
            } => plan.flap_link(
                t0 + ms(*at_ms),
                node(*a),
                node(*b),
                ms(*down_ms),
                ms(*up_ms),
                *cycles,
            ),
        };
    }
    plan
}

/// Executes a scenario end to end and checks every oracle. Deterministic:
/// same scenario in, same [`RunReport`] (including `trace_hash`) out.
pub fn execute(s: &Scenario) -> RunReport {
    let mut violations: Vec<String> = Vec::new();

    // World and deployment.
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", s.servers.max(1));
    let mut w = StoreWorld::new(
        WorldConfig::seeded(s.seed),
        t,
        LatencyModel::Constant(ms(1)),
    );
    // Record the causal event stream: explain mode and the Perfetto
    // exporter both read it off the report. Pure observation — enabling
    // it never touches the RNG or the event queue, so trace hashes are
    // unchanged.
    w.events_mut().set_enabled(true);
    match s.deployment {
        Deployment::Plain | Deployment::Sharded { .. } => {
            for &sv in &servers {
                w.install_service(sv, Box::new(StoreServer::new()));
            }
        }
        Deployment::Gossip { grow_only, .. } => {
            let gsem = if grow_only {
                GossipSemantics::GrowOnly
            } else {
                GossipSemantics::GrowShrink
            };
            for &sv in &servers {
                w.install_service(
                    sv,
                    Box::new(GossipNode::new(sv).with_default_semantics(gsem)),
                );
            }
        }
    }
    let mut client = StoreClient::new(cn, ms(50));
    if s.read_policy == ReadPolicy::CausalSession {
        // One shared session token across the client, every shard clone,
        // and the iterator: its writes become the floors the oracle
        // enforces below.
        client = client.with_session();
    }
    let config = IterConfig {
        read_policy: s.read_policy,
        fetch_order: s.fetch_order,
        guard_growth: s.guard_growth,
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
                ShardedWeakSet::create(&mut w, COLL, client.clone(), &groups, config)
                    .expect("shard creation precedes all faults"),
            )
        }
        Deployment::Plain | Deployment::Gossip { .. } => {
            let cref = CollectionRef {
                id: COLL,
                home: servers[0],
                replicas: servers[1..].to_vec(),
            };
            client
                .create_collection(&mut w, &cref)
                .expect("collection creation precedes all faults");
            TestSet::One(WeakSet::new(client.clone(), cref).with_config(config))
        }
    };

    // Initial membership, before the run origin.
    for &(elem, home) in &s.setup {
        let rec = ObjectRecord::new(ObjectId(elem), format!("e{elem}"), &b"dst"[..]);
        set.add(&mut w, rec, servers[home % servers.len()])
            .expect("setup add precedes all faults");
    }

    // Gossip deployments anti-entropy for the whole run.
    let handle = match s.deployment {
        Deployment::Plain | Deployment::Sharded { .. } => None,
        Deployment::Gossip { merkle, .. } => Some(engine::install(
            &mut w,
            COLL,
            set.single().cref().all_nodes(),
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
        )),
    };

    // Run origin: fault schedule and workload are offsets from here.
    let t0 = w.now();
    w.install_plan(&build_plan(s, &servers, t0));

    let mut ops = s.ops.clone();
    ops.sort_by_key(Op::at_ms);
    let mut next_op = 0usize;
    advance_and_apply(&mut w, &set, &servers, &ops, &mut next_op, t0, s.start_ms);
    let at_start = t0 + ms(s.start_ms);
    if w.now() < at_start {
        w.run_until(at_start);
    }
    // Snapshot the session's committed writes at run start; the oracle
    // demands them back from every terminated run.
    let floors: Vec<SetValue> = if s.read_policy == ReadPolicy::CausalSession {
        session_floors(&w, s, &set)
    } else {
        Vec::new()
    };

    // The observed iterator under test.
    let mut it: TestElements = match s.deployment {
        Deployment::Plain | Deployment::Sharded { .. } => set.elements_observed(s.semantics),
        Deployment::Gossip { .. } => {
            TestElements::One(Box::new(set.single().elements_observed_via(
                s.semantics,
                HistorySource::new(GossipNode::visit_collection_history),
            )))
        }
    };

    let mut yielded: Vec<u64> = Vec::new();
    // The same ids as a set: the tail guard below asks "has every member
    // been yielded?" on every loop turn.
    let mut yielded_ids: BTreeSet<u64> = BTreeSet::new();
    let mut steps = 0usize;
    let mut waits = 0usize;
    let budget = s.budget.max(1);
    loop {
        apply_due(&mut w, &set, &servers, &ops, &mut next_op, t0);

        // Tail guard for the semantics that read membership on every
        // invocation: when everything the set currently holds has been
        // yielded and membership is unreadable, the only legal step is
        // `Return` — which requires a successful read. Wait for the
        // (self-healing) fault to clear instead of forcing an illegal
        // terminal step. Omniscient, driver-only knowledge.
        if matches!(s.semantics, Semantics::Optimistic | Semantics::GrowOnly) {
            let members = ground_truth_members(&w, s, &set);
            let all_yielded = members.iter().all(|m| yielded_ids.contains(m));
            if all_yielded && !all_membership_readable(&w, s.read_policy, cn, &set) {
                waits += 1;
                if waits > MAX_WAITS {
                    violations.push("driver wedged: membership never became readable".into());
                    break;
                }
                w.sleep(ms(5));
                continue;
            }
        }

        steps += 1;
        match it.next(&mut w) {
            IterStep::Yielded(rec) => {
                waits = 0;
                yielded.push(rec.id.0);
                yielded_ids.insert(rec.id.0);
                if yielded.len() >= budget {
                    break;
                }
                w.sleep(ms(s.think_ms));
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
                if waits > MAX_WAITS {
                    violations.push("driver wedged: iterator blocked past every heal".into());
                    break;
                }
                w.sleep(ms(5));
            }
        }
        if steps > 4 * MAX_WAITS {
            violations.push("driver wedged: invocation budget exhausted".into());
            break;
        }
    }

    // Drain the schedule: leftover ops, fault heals, gossip convergence.
    advance_and_apply(&mut w, &set, &servers, &ops, &mut next_op, t0, u64::MAX);
    let drained = t0 + ms(s.horizon_ms() + 60);
    if w.now() < drained {
        w.run_until(drained);
    }
    if let Some(handle) = handle {
        let replicas = set.single().cref().all_nodes();
        let mut ok = engine::converged(&w, COLL, &replicas);
        for _ in 0..40 {
            if ok {
                break;
            }
            w.sleep(ms(20));
            ok = engine::converged(&w, COLL, &replicas);
        }
        if !ok {
            violations.push("gossip replicas failed to converge after all faults healed".into());
        }
        handle.stop();
    }
    w.run_to_quiescence();

    let mut computations = it.take_computations(&w);
    if s.chaos == Chaos::PhantomYield {
        inject_phantom_yield(computations.last_mut(), &mut violations);
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

    // Close the span ledger: anything still open is an instrumentation
    // bug, surfaced both here and as `span.unclosed` events in the
    // stream.
    let at = w.now().as_micros();
    let unclosed = w.events_mut().finish(at);
    debug_assert!(
        unclosed.is_empty(),
        "unclosed spans at end of run: {unclosed:?}"
    );
    let events = w.events_mut().take_events();
    let trace_hash = w.trace_hash();
    let sim_time_us = w.now().as_micros();

    RunReport {
        seed: s.seed,
        trace_hash,
        yielded,
        steps,
        violations,
        computations,
        sim_time_us,
        // The world is dropped on return: take its registry, don't copy it.
        metrics: std::mem::take(w.metrics_mut()),
        events,
    }
}

/// [`Chaos::PhantomYield`]: forge a yield of an element that was never a
/// member into the last recorded run. Every figure rejects it, so the
/// violation pipeline (shrink, artifact, replay) always has work.
pub(crate) fn inject_phantom_yield(
    computation: Option<&mut Computation>,
    violations: &mut Vec<String>,
) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, mix};

    /// A small, fault-free plain scenario for targeted tests.
    fn quiet(semantics: Semantics) -> Scenario {
        Scenario {
            seed: 7,
            servers: 2,
            deployment: Deployment::Plain,
            semantics,
            read_policy: ReadPolicy::Primary,
            guard_growth: false,
            fetch_order: weakset::prelude::FetchOrder::IdOrder,
            think_ms: 1,
            budget: 16,
            start_ms: 10,
            setup: vec![(1, 0), (2, 1), (3, 0)],
            ops: Vec::new(),
            faults: Vec::new(),
            chaos: Chaos::None,
        }
    }

    #[test]
    fn quiet_runs_conform_for_every_semantics() {
        for sem in Semantics::ALL {
            let report = execute(&quiet(sem));
            assert!(
                report.violations.is_empty(),
                "{sem}: {:?}",
                report.violations
            );
            let mut got = report.yielded.clone();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2, 3], "{sem}");
        }
    }

    #[test]
    fn phantom_yield_chaos_is_always_caught() {
        for sem in Semantics::ALL {
            let sabotaged = Scenario {
                chaos: Chaos::PhantomYield,
                ..quiet(sem)
            };
            let report = execute(&sabotaged);
            assert!(
                !report.violations.is_empty(),
                "{sem}: sabotage went undetected"
            );
        }
    }

    #[test]
    fn generated_scenarios_replay_to_the_same_hash() {
        for i in 0..3 {
            let s = generate(mix(11, i));
            let a = execute(&s);
            let b = execute(&s);
            assert_eq!(a.trace_hash, b.trace_hash, "seed {}", s.seed);
            assert_eq!(a.yielded, b.yielded);
            assert_eq!(a.violations, b.violations);
            // The causal stream — and its Perfetto export — is part of
            // the determinism contract: same seed, same bytes.
            assert_eq!(a.events, b.events, "seed {}", s.seed);
            assert_eq!(
                weakset_sim::metrics::chrome_trace(&a.events),
                weakset_sim::metrics::chrome_trace(&b.events),
                "seed {}",
                s.seed
            );
        }
    }

    /// A fault-free sharded scenario: 6 servers in 3 groups of 2,
    /// quorum reads, enough setup to populate several shards.
    fn quiet_sharded(semantics: Semantics) -> Scenario {
        Scenario {
            seed: 23,
            servers: 6,
            deployment: Deployment::Sharded { shards: 3 },
            semantics,
            read_policy: ReadPolicy::Quorum,
            guard_growth: false,
            fetch_order: weakset::prelude::FetchOrder::IdOrder,
            think_ms: 1,
            budget: 16,
            start_ms: 10,
            setup: vec![(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)],
            ops: Vec::new(),
            faults: Vec::new(),
            chaos: Chaos::None,
        }
    }

    #[test]
    fn quiet_sharded_runs_conform_for_every_semantics() {
        for sem in Semantics::ALL {
            let report = execute(&quiet_sharded(sem));
            assert!(
                report.violations.is_empty(),
                "{sem}: {:?}",
                report.violations
            );
            let mut got = report.yielded.clone();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2, 3, 4, 5, 6], "{sem}");
            assert_eq!(
                report.computations.len(),
                3,
                "{sem}: one computation per shard"
            );
        }
    }

    #[test]
    fn sharded_phantom_yield_chaos_is_always_caught() {
        for sem in Semantics::ALL {
            let sabotaged = Scenario {
                chaos: Chaos::PhantomYield,
                ..quiet_sharded(sem)
            };
            let report = execute(&sabotaged);
            assert!(
                !report.violations.is_empty(),
                "{sem}: sabotage went undetected"
            );
            assert!(
                report.violations.iter().any(|v| v.starts_with("shard ")),
                "{sem}: violation not attributed to a shard: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn sharded_optimistic_rides_out_a_shard_primary_outage() {
        // Crash server 0 (shard 0's primary) mid-run: the optimistic
        // fan-out blocks while its shard is dark, resumes on restart,
        // and still drains every member of every shard.
        let s = Scenario {
            semantics: Semantics::Optimistic,
            read_policy: ReadPolicy::Primary,
            faults: vec![FaultSpec::Outage {
                at_ms: 12,
                node: 0,
                for_ms: 20,
            }],
            ..quiet_sharded(Semantics::Optimistic)
        };
        let report = execute(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let mut got = report.yielded.clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn quiet_causal_runs_conform_for_every_semantics() {
        for sem in Semantics::ALL {
            let s = Scenario {
                read_policy: ReadPolicy::CausalSession,
                ..quiet(sem)
            };
            let report = execute(&s);
            assert!(
                report.violations.is_empty(),
                "{sem}: {:?}",
                report.violations
            );
            let mut got = report.yielded.clone();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2, 3], "{sem}");
        }
    }

    #[test]
    fn causal_phantom_yield_chaos_is_always_caught() {
        for sem in Semantics::ALL {
            let sabotaged = Scenario {
                read_policy: ReadPolicy::CausalSession,
                chaos: Chaos::PhantomYield,
                ..quiet(sem)
            };
            let report = execute(&sabotaged);
            assert!(
                !report.violations.is_empty(),
                "{sem}: sabotage went undetected"
            );
        }
    }

    #[test]
    fn generated_causal_scenarios_conform_and_replay() {
        // The acceptance property in miniature: across generated causal
        // scenarios — including gossip deployments iterating mid-lag —
        // the session client never misses one of its own committed
        // inserts, and the runs replay to the same hash.
        for i in 0..8 {
            let s = crate::gen::generate_causal(mix(31, i));
            let a = execute(&s);
            assert!(
                a.violations.is_empty(),
                "seed {}: {:?}",
                s.seed,
                a.violations
            );
            let b = execute(&s);
            assert_eq!(a.trace_hash, b.trace_hash, "seed {}", s.seed);
            assert_eq!(a.yielded, b.yielded);
        }
    }

    #[test]
    fn generated_sharded_scenarios_conform_and_replay() {
        for i in 0..6 {
            let s = crate::gen::generate_sharded(mix(29, i));
            let a = execute(&s);
            assert!(
                a.violations.is_empty(),
                "seed {}: {:?}",
                s.seed,
                a.violations
            );
            let b = execute(&s);
            assert_eq!(a.trace_hash, b.trace_hash, "seed {}", s.seed);
            assert_eq!(a.yielded, b.yielded);
        }
    }
}
