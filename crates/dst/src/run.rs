//! The deterministic executor — the simulator stage of the crate's one
//! driver (`drive.rs`): build a world from a [`Scenario`], drive one
//! observed iterator run through the scheduled workload and fault
//! schedule, and machine-check the recorded history.
//!
//! Everything is a pure function of the scenario — the simulator clock,
//! RNG streams, fault schedule and workload are all seeded from it — so
//! two executions of the same scenario produce byte-identical traces
//! ([`RunReport::trace_hash`]). That determinism is what makes shrinking
//! (`shrink`) and repro artifacts (`repro`) possible.

use crate::drive::{drive, ms, Closed, Fleet, Mark, Schedule, Stage};
use crate::gen::{mix, Leg};
use crate::scenario::{Op, Scenario};
use weakset_sim::fault::FaultPlan;
use weakset_sim::node::NodeId;
use weakset_sim::topology::Topology;
use weakset_sim::traits::{Clock, Observe};
use weakset_spec::prelude::Computation;
use weakset_store::object::CollectionId;
use weakset_store::prelude::{StoreMsg, StoreRt, StoreWorld};

/// The collection every scenario iterates over.
pub const COLL: CollectionId = CollectionId(1);

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
    /// Requests the backend counted as sent (`rpc.sent`) from the first
    /// invocation to the last: the run's membership reads and fetches,
    /// and any op the schedule landed between them.
    pub iter_sent: u64,
    /// Every oracle violation, human-readable. Empty means the run
    /// conformed to its figure.
    pub violations: Vec<String>,
    /// The recorded computations, for post-mortems: the run's one, over
    /// every collection of the set (none when nothing was recorded).
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

/// The simulator stage: nodes are topology entries of one seeded world,
/// the fault schedule is a [`FaultPlan`] of every fault's
/// [`actions`](crate::scenario::FaultSpec::actions) that the event queue
/// fires on its own, ops land at invocation boundaries, marks do
/// nothing, and the run closes with the world's trace hash.
struct Sim<'a> {
    scenario: &'a Scenario,
    world: StoreWorld,
    client: NodeId,
    servers: Vec<NodeId>,
    ops: Schedule<Op>,
}

impl<'a> Sim<'a> {
    fn new(s: &'a Scenario) -> Self {
        let mut t = Topology::new();
        let client = t.add_node("client", 0);
        let servers = t.add_servers("s", s.servers.max(1));
        let mut world = StoreWorld::new(s.seed, t, s.link.model());
        if let Some(bytes_per_ms) = s.bandwidth {
            world.set_bandwidth(bytes_per_ms, StoreMsg::wire_size);
        }
        // Record the causal event stream: explain mode and the Perfetto
        // exporter both read it off the report. Pure observation — enabling
        // it never touches the RNG or the event queue, so trace hashes are
        // unchanged.
        world.events_mut().set_enabled(true);
        let mut ops = s.ops.clone();
        ops.sort_by_key(Op::at_ms);
        Sim {
            scenario: s,
            world,
            client,
            servers,
            ops: Schedule::new(ops.into_iter().map(|op| (op.at_ms(), op)).collect()),
        }
    }
}

impl Stage for Sim<'_> {
    fn rt(&mut self) -> &mut StoreRt {
        &mut self.world
    }

    fn nodes(&self) -> (NodeId, Vec<NodeId>) {
        (self.client, self.servers.clone())
    }

    fn mark(&mut self, _: Mark<'_>) -> bool {
        true
    }

    fn origin(&mut self) {
        let t0 = self.ops.start(self.world.now());
        let (faults, servers) = (&self.scenario.faults, &self.servers);
        let mut plan = FaultPlan::none();
        for edge in faults.iter().flat_map(|f| f.actions(servers)) {
            plan = plan.at(t0 + ms(edge.at_ms), edge.action);
        }
        self.world.install_plan(&plan);
    }

    fn advance(&mut self, fleet: &Fleet, to_ms: Option<u64>) {
        self.ops
            .advance(&mut self.world, to_ms, |w, &op| fleet.apply_op(w, op));
    }

    fn settle(&mut self, _: &Fleet) {
        self.world.run_to_quiescence();
    }

    fn close(&mut self, _: &mut Vec<String>) -> Closed {
        // Close the span ledger: anything still open is an instrumentation
        // bug, surfaced both here and as `span.unclosed` events in the
        // stream.
        let at = self.world.now().as_micros();
        let unclosed = self.world.events_mut().finish(at);
        debug_assert!(
            unclosed.is_empty(),
            "unclosed spans at end of run: {unclosed:?}"
        );
        Closed {
            trace_hash: self.world.trace_hash(),
            sim_time_us: at,
            // The world is dropped on return: take its registry, don't copy it.
            metrics: std::mem::take(self.world.metrics_mut()),
            events: self.world.events_mut().take_events(),
        }
    }
}

/// Executes a scenario end to end and checks every oracle. Deterministic:
/// same scenario in, same [`RunReport`] (including `trace_hash`) out.
pub fn execute(s: &Scenario) -> RunReport {
    drive(s, &mut Sim::new(s)).unwrap_or_else(|e| panic!("{e}: the prelude precedes all faults"))
}

/// A scenario a [`campaign`] drew that the oracles rejected, unshrunk.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The campaign iteration that drew it.
    pub iter: u64,
    /// The scenario as generated.
    pub scenario: Scenario,
    /// Its run's [`RunReport::violations`].
    pub violations: Vec<String>,
}

/// Executes `iters` scenarios of one leg, the `i`-th generated from
/// `mix(seed, i)`. Returns every run's trace hash folded in iteration
/// order, and the failures in that order.
pub fn campaign(&(_, generate): &Leg, seed: u64, iters: u64) -> (u64, Vec<Failure>) {
    let mut combined = 0u64;
    let mut failures = Vec::new();
    for iter in 0..iters {
        let scenario = generate(mix(seed, iter));
        let report = execute(&scenario);
        combined = combined.rotate_left(1) ^ report.trace_hash;
        if !report.violations.is_empty() {
            failures.push(Failure {
                iter,
                scenario,
                violations: report.violations,
            });
        }
    }
    (combined, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, mix};
    use crate::scenario::{Chaos, Deployment, FaultSpec, Link};
    use weakset::prelude::Semantics;
    use weakset_sim::fault::FaultAction;
    use weakset_sim::time::SimTime;
    use weakset_spec::prelude::Outcome;
    use weakset_store::prelude::ReadPolicy;

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
            window: 1,
            link: Link::DEFAULT,
            bandwidth: None,
            file_size: None,
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
    fn a_long_run_is_not_cut_by_the_wedge_bound() {
        // 1,700 yields is more than four times the driver's patience
        // (400 waits): only blocked invocations count.
        let s = Scenario {
            budget: 5_000,
            think_ms: 0,
            setup: (1..=1_700).map(|e| (e, e as usize % 2)).collect(),
            ..quiet(Semantics::Snapshot)
        };
        let report = execute(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.yielded.len(), 1_700);
    }

    #[test]
    fn a_run_still_blocked_after_the_last_heal_is_wedged() {
        // The scenario's one fault heals 5 ms after the run origin, but
        // server 1 is crashed outside its schedule before iteration
        // starts: the run blocks with every listed fault healed.
        let s = Scenario {
            start_ms: 1_000,
            faults: vec![FaultSpec::Partition {
                at_ms: 0,
                side: vec![1],
                for_ms: 5,
            }],
            ..quiet(Semantics::Optimistic)
        };
        let mut sim = Sim::new(&s);
        let crash = FaultAction::Crash(sim.servers[1]);
        sim.world.schedule_fault(SimTime::from_millis(500), crash);
        let report = drive(&s, &mut sim).expect("the setup is faultless");
        assert_eq!(
            report.violations,
            vec!["driver wedged: iterator blocked past every heal".to_string()]
        );
        let run = &report.computations[0].runs[0];
        assert_eq!(run.invocations.last().unwrap().outcome, Outcome::Blocked);
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
            window: 1,
            link: Link::DEFAULT,
            bandwidth: None,
            file_size: None,
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
                1,
                "{sem}: one computation of the logical set"
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
            let figure = sem.figure().to_string();
            assert!(
                report.violations.iter().any(|v| v.starts_with(&figure)),
                "{sem}: the forged run is not judged as one set by {figure}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn sharded_optimistic_rides_out_a_shard_primary_outage() {
        // Crash server 0 (shard 0's primary) mid-run: the optimistic
        // union run blocks while its shard is dark, resumes on restart,
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
