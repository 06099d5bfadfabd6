//! The record/replay bridge: run a scenario on the *real* threaded
//! runtime while a [`Recorder`] captures every observable boundary
//! crossing, then re-drive the same scenario inside the deterministic
//! simulator with the recorded nondeterminism pinned — delivery order,
//! async completion winners, observed failures, fault-table transitions,
//! and region-boundary clock reads are all substituted from the log.
//!
//! This puts a real (irreproducible) run in front of the whole DST
//! toolchain: the conformance oracles judge it, repeated replays certify
//! determinism via [`RunReport::trace_hash`], [`shrink_recording`]
//! greedily minimizes the *recording* (dropping whole regions together
//! with their scenario items), and `explain` walks the replayed causal
//! DAG — exactly as for generated scenarios.
//!
//! ## Alignment model
//!
//! The recorded log is the authority. The record driver brackets every
//! driver-level activity (each setup add, workload op, fault transition,
//! and iterator invocation) in a [`RecEvent::Region`] marker; the replay
//! driver *peeks* the next marker to decide what to re-issue, so the two
//! drivers walk the same schedule even when wall-clock timing skewed the
//! live interleaving. Between markers, each live transport call is
//! matched against the next recorded one:
//!
//! * a recorded `Ok` rpc is **re-executed** against the simulated
//!   services (and its reply hash verified),
//! * a recorded *failure* is **substituted** — the error is returned
//!   without touching the simulated network, after advancing the virtual
//!   clock by the observed stall,
//! * a recorded `wait_any` pins the simulated wait to the recorded
//!   winner's token,
//! * recorded reachability/liveness transitions are applied to the
//!   simulated topology at their log position.
//!
//! Every mismatch (payload hash, endpoints, call kind, missing or
//! leftover entries) is a *divergence*: counted under
//! [`weakset_obs::replay::DIVERGENCE`], traced as a `replay.divergence`
//! event, and reported on [`ReplayReport::divergences`] — never silent.
//! A [`Recording::truncated`] log (hung shutdown) replays its completed
//! prefix; only then are beyond-log calls forgiven.
//!
//! ## Scope (v1)
//!
//! Recording captures any threaded run; *replay* drives
//! [`Deployment::Plain`] workloads (gossip and sharded deployments spawn
//! background tasks and fan-out schedules whose regions v1 does not
//! bracket). The live run's report carries `trace_hash: 0` — real
//! scheduling has no deterministic trace; determinism is a property of
//! the *replay*.

use crate::oracle;
use crate::run::{self, ms, RunReport, TestSet, COLL, MAX_WAITS};
use crate::scenario::{Chaos, Deployment, FaultSpec, Op, Scenario};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Duration;
use weakset::prelude::{IterConfig, IterStep, Semantics, WeakSet};
use weakset_obs::replay as names;
use weakset_obs::FlightRecorder;
use weakset_runtime::record::{hash_debug, RecEvent, RecOutcome, Recorder, Recording};
use weakset_runtime::threaded::ThreadedRuntime;
use weakset_runtime::traits::{Clock, Observe, RtTask, Runtime, ServiceHost, Spawner, Transport};
use weakset_sim::latency::LatencyModel;
use weakset_sim::link::LinkState;
use weakset_sim::metrics::{SpanId, TraceContext};
use weakset_sim::net::{BatchEnvelope, NetError};
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::topology::Topology;
use weakset_sim::world::{ReplyToken, Service, Task, WorldConfig};
use weakset_spec::prelude::Computation;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreMsg, StoreServer, StoreWorld};

/// Shrinking budget: hard cap on replays one [`shrink_recording`] call
/// may perform (mirrors [`crate::shrink`]).
const MAX_EXECUTIONS: usize = 200;

/// What recording one scenario on the threaded runtime produced.
#[derive(Debug)]
pub struct RecordedRun {
    /// The captured boundary-event log (workload embedded).
    pub recording: Recording,
    /// The live run's report. `trace_hash` is `0`: real scheduling has
    /// no deterministic trace — replay the recording for one.
    pub report: RunReport,
    /// Final membership under the scenario's read policy, sorted.
    pub membership: Vec<u64>,
}

/// What replaying a recording through the simulator produced.
#[derive(Debug)]
pub struct ReplayReport {
    /// The replayed run's report; `trace_hash` is the simulator's, so
    /// two replays of the same recording hash identically.
    pub report: RunReport,
    /// Final membership under the workload's read policy, sorted.
    /// Empty when a truncated log ends before the membership read.
    pub membership: Vec<u64>,
    /// Every log/sim mismatch detected, in detection order. Also counted
    /// under [`weakset_obs::replay::DIVERGENCE`]. Empty is the
    /// faithful-reproduction claim.
    pub divergences: Vec<String>,
}

// ---------------------------------------------------------------------
// Region labels and the fault-transition expansion
// ---------------------------------------------------------------------
//
// Labels are intrinsic to the scenario item (never positional), so the
// shrinker can drop an item from the workload and excise exactly its
// regions from the log. Two identical items produce identical labels;
// the shrinker then removes both regions at once and the candidate is
// simply rejected if that breaks alignment.

fn setup_label(elem: u64, home: usize) -> String {
    format!("setup.{elem}.{home}")
}

fn op_label(op: &Op) -> String {
    match *op {
        Op::Add { at_ms, elem, home } => format!("op.{at_ms}.add.{elem}.{home}"),
        Op::Remove { at_ms, elem } => format!("op.{at_ms}.rm.{elem}"),
    }
}

/// One scheduled topology change: a fault edge (down or up) expanded to
/// node-index space, where index 0 is the client and server `i` is node
/// `i + 1` — the ids both backends assign when nodes are created in
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Transition {
    at_ms: u64,
    label: String,
    acts: Vec<TAct>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TAct {
    Link { a: usize, b: usize, ok: bool },
    Node { node: usize, up: bool },
}

/// Server index → global node index (client is 0, servers follow).
fn sv(i: usize, n: usize) -> usize {
    (i % n) + 1
}

/// Expands one fault into its down/up transitions. A partition cuts
/// every link between the isolated side and everyone else — including
/// the client — so the simulator's multi-hop routing cannot sneak
/// around it and both backends agree on reachability.
fn expand_one(f: &FaultSpec, n: usize) -> Vec<Transition> {
    match f {
        FaultSpec::Outage {
            at_ms,
            node,
            for_ms,
        } => {
            let g = sv(*node, n);
            vec![
                Transition {
                    at_ms: *at_ms,
                    label: format!("fault.out.{at_ms}.{node}.{for_ms}.down"),
                    acts: vec![TAct::Node { node: g, up: false }],
                },
                Transition {
                    at_ms: at_ms + for_ms,
                    label: format!("fault.out.{at_ms}.{node}.{for_ms}.up"),
                    acts: vec![TAct::Node { node: g, up: true }],
                },
            ]
        }
        FaultSpec::Partition {
            at_ms,
            side,
            for_ms,
        } => {
            let side_g: BTreeSet<usize> = side.iter().map(|&i| sv(i, n)).collect();
            let mut cuts = Vec::new();
            let mut heals = Vec::new();
            for &a in &side_g {
                for b in 0..=n {
                    if !side_g.contains(&b) {
                        cuts.push(TAct::Link { a, b, ok: false });
                        heals.push(TAct::Link { a, b, ok: true });
                    }
                }
            }
            let side_label = side
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("-");
            vec![
                Transition {
                    at_ms: *at_ms,
                    label: format!("fault.part.{at_ms}.{side_label}.{for_ms}.cut"),
                    acts: cuts,
                },
                Transition {
                    at_ms: at_ms + for_ms,
                    label: format!("fault.part.{at_ms}.{side_label}.{for_ms}.heal"),
                    acts: heals,
                },
            ]
        }
        FaultSpec::Flap {
            at_ms,
            a,
            b,
            down_ms,
            up_ms,
            cycles,
        } => {
            let (ga, gb) = (sv(*a, n), sv(*b, n));
            let mut out = Vec::new();
            let mut t = *at_ms;
            for i in 0..*cycles {
                out.push(Transition {
                    at_ms: t,
                    label: format!("fault.flap.{at_ms}.{a}.{b}.{i}.down"),
                    acts: vec![TAct::Link {
                        a: ga,
                        b: gb,
                        ok: false,
                    }],
                });
                t += down_ms;
                out.push(Transition {
                    at_ms: t,
                    label: format!("fault.flap.{at_ms}.{a}.{b}.{i}.up"),
                    acts: vec![TAct::Link {
                        a: ga,
                        b: gb,
                        ok: true,
                    }],
                });
                t += up_ms;
            }
            out
        }
    }
}

fn expand_faults(faults: &[FaultSpec], n: usize) -> Vec<Transition> {
    let mut out: Vec<Transition> = faults.iter().flat_map(|f| expand_one(f, n)).collect();
    out.sort_by_key(|t| t.at_ms); // stable: same-instant transitions keep spec order
    out
}

/// The merged record-driver schedule: fault transitions and workload
/// ops, ordered by due time (transitions first on ties).
enum SchedItem {
    Trans(Transition),
    Op(Op),
}

fn sched_at(item: &SchedItem) -> u64 {
    match item {
        SchedItem::Trans(t) => t.at_ms,
        SchedItem::Op(o) => o.at_ms(),
    }
}

fn build_schedule(s: &Scenario) -> Vec<SchedItem> {
    let n = s.servers.max(1);
    let mut keyed: Vec<(u64, u8, SchedItem)> = expand_faults(&s.faults, n)
        .into_iter()
        .map(|t| (t.at_ms, 0, SchedItem::Trans(t)))
        .collect();
    let mut ops = s.ops.clone();
    ops.sort_by_key(Op::at_ms);
    keyed.extend(ops.into_iter().map(|o| (o.at_ms(), 1, SchedItem::Op(o))));
    keyed.sort_by_key(|(at, kind, _)| (*at, *kind));
    keyed.into_iter().map(|(_, _, item)| item).collect()
}

// ---------------------------------------------------------------------
// Record driver (threaded backend)
// ---------------------------------------------------------------------

/// Applies every schedule item due at or before `limit_ms`, each under
/// its own region marker. With `advance_clock`, sleeps (wall time) to
/// each item's due instant first; without, applies only the already-due.
#[allow(clippy::too_many_arguments)]
fn run_schedule(
    rt: &mut ThreadedRuntime<StoreMsg>,
    rec: &Recorder,
    set: &TestSet,
    servers: &[NodeId],
    schedule: &[SchedItem],
    next: &mut usize,
    t0: SimTime,
    limit_ms: u64,
    advance_clock: bool,
) {
    while *next < schedule.len() {
        let due = sched_at(&schedule[*next]);
        if due > limit_ms {
            break;
        }
        if advance_clock {
            let due_t = t0 + ms(due);
            let now = rt.now();
            if now < due_t {
                rt.sleep(due_t.saturating_since(now));
            }
        } else if due > rt.now().saturating_since(t0).as_millis() {
            break;
        }
        match &schedule[*next] {
            SchedItem::Trans(tr) => {
                rec.region(rt.now(), &tr.label);
                for act in &tr.acts {
                    match *act {
                        TAct::Link { a, b, ok } => {
                            rt.set_reachable(NodeId(a as u32), NodeId(b as u32), ok);
                        }
                        TAct::Node { node, up } => rt.set_node_up(NodeId(node as u32), up),
                    }
                }
            }
            SchedItem::Op(op) => {
                rec.region(rt.now(), &op_label(op));
                run::apply_op(rt, set, servers, *op);
            }
        }
        *next += 1;
    }
}

/// Runs a [`Deployment::Plain`] scenario on the threaded runtime with a
/// [`Recorder`] attached, producing a replayable [`Recording`] alongside
/// the live run's oracle-checked report.
///
/// The driver mirrors [`crate::run::execute`] — same setup, schedule,
/// invocation loop, tail guard, and oracle pipeline — but every activity
/// is bracketed in a region marker so replay can re-align on it. A hung
/// shutdown is reported as a violation and marks the recording
/// truncated rather than hanging the caller.
///
/// # Errors
///
/// Non-`Plain` deployments (unsupported by replay v1) and failures in
/// the faultless prelude (collection creation, setup adds).
pub fn record_scenario(s: &Scenario) -> Result<RecordedRun, String> {
    if s.deployment != Deployment::Plain {
        return Err("record/replay v1 drives Plain deployments only".into());
    }
    let mut violations: Vec<String> = Vec::new();
    let mut rt = ThreadedRuntime::<StoreMsg>::new(s.seed);
    let rec = Recorder::new(s.seed);
    rec.set_workload(s.to_ron());
    rt.attach_recorder(rec.clone());
    rt.events_mut().set_enabled(true);
    // Black box for the live run: boundary crossings land in a bounded
    // ring, dumped as a Perfetto-loadable trace only when something goes
    // wrong (oracle violation here, hung shutdown inside the runtime).
    let flight = FlightRecorder::new(4096)
        .with_dump_path(std::env::temp_dir().join(format!("weakset-flight-{}.json", s.seed)));
    rt.attach_flight_recorder(flight.clone());

    let cn = rt.add_node("client");
    let n = s.servers.max(1);
    let servers: Vec<NodeId> = (0..n).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &server in &servers {
        rt.install_service(server, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, ms(50));
    let config = IterConfig {
        read_policy: s.read_policy,
        fetch_order: s.fetch_order,
        guard_growth: s.guard_growth,
        ..IterConfig::default()
    };
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client
        .create_collection(&mut rt, &cref)
        .map_err(|e| format!("create_collection failed: {e:?}"))?;
    let set = TestSet::One(WeakSet::new(client.clone(), cref.clone()).with_config(config));

    for &(elem, home) in &s.setup {
        rec.region(rt.now(), &setup_label(elem, home));
        let obj = ObjectRecord::new(ObjectId(elem), format!("e{elem}"), &b"dst"[..]);
        set.add(&mut rt, obj, servers[home % n])
            .map_err(|e| format!("setup add failed: {e:?}"))?;
    }

    let schedule = build_schedule(s);
    let mut next = 0usize;
    let t0 = rt.now();
    run_schedule(
        &mut rt, &rec, &set, &servers, &schedule, &mut next, t0, s.start_ms, true,
    );
    let at_start = t0 + ms(s.start_ms);
    let now = rt.now();
    if now < at_start {
        rt.sleep(at_start.saturating_since(now));
    }
    rec.region(rt.now(), "start");

    let mut it = set.single().elements_observed(s.semantics);
    let mut yielded: Vec<u64> = Vec::new();
    let mut yielded_ids: BTreeSet<u64> = BTreeSet::new();
    let mut steps = 0usize;
    let mut waits = 0usize;
    let budget = s.budget.max(1);
    loop {
        let elapsed = rt.now().saturating_since(t0).as_millis();
        run_schedule(
            &mut rt, &rec, &set, &servers, &schedule, &mut next, t0, elapsed, false,
        );

        // Tail guard (see run::execute): when every current member has
        // been yielded but membership is unreadable, wait for the
        // self-healing fault instead of forcing an illegal terminal
        // step. Driver-side omniscience; emits no region.
        if matches!(s.semantics, Semantics::Optimistic | Semantics::GrowOnly) {
            let members = run::ground_truth_members(&rt, s, &set);
            let all_yielded = members.iter().all(|m| yielded_ids.contains(m));
            if all_yielded && !run::all_membership_readable(&rt, s.read_policy, cn, &set) {
                waits += 1;
                if waits > MAX_WAITS {
                    violations.push("driver wedged: membership never became readable".into());
                    break;
                }
                rt.sleep(ms(5));
                continue;
            }
        }

        steps += 1;
        rec.region(rt.now(), &format!("inv.{steps}"));
        match it.next(&mut rt) {
            IterStep::Yielded(obj) => {
                waits = 0;
                yielded.push(obj.id.0);
                yielded_ids.insert(obj.id.0);
                if yielded.len() >= budget {
                    break;
                }
                rt.sleep(ms(s.think_ms));
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
                rt.sleep(ms(5));
            }
        }
        if steps > 4 * MAX_WAITS {
            violations.push("driver wedged: invocation budget exhausted".into());
            break;
        }
    }

    // Drain the schedule so every fault heals and every op lands.
    run_schedule(
        &mut rt,
        &rec,
        &set,
        &servers,
        &schedule,
        &mut next,
        t0,
        u64::MAX,
        true,
    );
    let drained = t0 + ms(s.horizon_ms() + 60);
    let now = rt.now();
    if now < drained {
        rt.sleep(drained.saturating_since(now));
    }

    rec.region(rt.now(), "members");
    let mut membership: Vec<u64> = client
        .read_members(&mut rt, &cref, s.read_policy)
        .map(|m| m.entries.iter().map(|e| e.elem.0).collect())
        .unwrap_or_default();
    membership.sort_unstable();
    rec.region(rt.now(), "end");

    let mut computations: Vec<Computation> = it.take_computation(&rt).into_iter().collect();
    if let Err(hung) = rt.shutdown(Duration::from_secs(10)) {
        // The shutdown hook already marked the recording truncated.
        violations.push(format!("threaded shutdown reported hung nodes: {hung:?}"));
    }

    if s.chaos == Chaos::PhantomYield {
        run::inject_phantom_yield(computations.last_mut(), &mut violations);
    }
    if computations.is_empty() {
        violations.push("observer produced no computation".into());
    }
    for comp in &computations {
        violations.extend(oracle::check(s, comp));
    }

    // Report-only ledger: names any span a crashed or wedged activity
    // left open, and counts them under `trace.unclosed_spans`.
    let unclosed = rt.finish_spans();
    if !unclosed.is_empty() {
        eprintln!(
            "record: {} span(s) left unclosed: {}",
            unclosed.len(),
            unclosed.join(", ")
        );
    }
    if !violations.is_empty() && !flight.has_dumped() {
        match flight.dump() {
            Ok(path) => eprintln!("record: flight recorder dumped to {}", path.display()),
            Err(e) => eprintln!("record: flight-recorder dump failed: {e}"),
        }
    }
    let events = rt.events_mut().take_events();
    let report = RunReport {
        seed: s.seed,
        trace_hash: 0, // real scheduling has no deterministic trace
        yielded,
        steps,
        violations,
        computations,
        sim_time_us: rt.now().as_micros(),
        metrics: Observe::metrics(&rt).clone(),
        events,
    };
    Ok(RecordedRun {
        recording: rec.finish(),
        report,
        membership,
    })
}

// ---------------------------------------------------------------------
// The replaying runtime
// ---------------------------------------------------------------------

fn is_matchable(ev: &RecEvent) -> bool {
    matches!(
        ev,
        RecEvent::Rpc { .. } | RecEvent::Send { .. } | RecEvent::WaitAny { .. }
    )
}

fn kind_name(ev: &RecEvent) -> &'static str {
    match ev {
        RecEvent::AddNode { .. } => "AddNode",
        RecEvent::InstallService { .. } => "InstallService",
        RecEvent::Region { .. } => "Region",
        RecEvent::Rpc { .. } => "Rpc",
        RecEvent::Send { .. } => "Send",
        RecEvent::TookReply { .. } => "TookReply",
        RecEvent::WaitAny { .. } => "WaitAny",
        RecEvent::Sleep { .. } => "Sleep",
        RecEvent::SpawnIn { .. } => "SpawnIn",
        RecEvent::TimerFired { .. } => "TimerFired",
        RecEvent::SetReachable { .. } => "SetReachable",
        RecEvent::SetNodeUp { .. } => "SetNodeUp",
    }
}

/// A [`Runtime`] that wraps the simulator and consumes a recording as
/// the client code re-executes: transport calls are matched against the
/// log (re-executed, substituted, or pinned), recorded fault transitions
/// are applied to the simulated topology at their log position, and
/// everything else delegates to the world.
struct ReplayRuntime {
    world: StoreWorld,
    rec: Recording,
    /// Cursor into `rec.entries`: everything before it has been
    /// consumed (replayed, applied, or skipped as informational).
    pos: usize,
    /// Recorded raw token → the simulator token minted for the same
    /// logical send, so recorded `wait_any` winners pin sim waits.
    token_map: HashMap<u64, ReplyToken>,
    divergences: Vec<String>,
    /// The cursor ran past the last entry (or up to a region boundary
    /// with nothing left) — meaningful together with `rec.truncated`.
    past_end: bool,
}

impl ReplayRuntime {
    fn diverge(&mut self, detail: impl Into<String>) {
        let detail = detail.into();
        self.world.metrics_mut().incr(names::DIVERGENCE);
        Observe::trace_event(&mut self.world, "replay.divergence", &|| detail.clone());
        self.divergences.push(detail);
    }

    /// Beyond a truncated log's end, missing counterparts are expected,
    /// not divergences: the replay free-runs the completed prefix's
    /// continuation live in the simulator.
    fn off_log(&self) -> bool {
        self.past_end && self.rec.truncated
    }

    fn apply_fault(&mut self, ev: &RecEvent) {
        match *ev {
            RecEvent::SetReachable { a, b, ok } => {
                let state = if ok {
                    LinkState::healthy()
                } else {
                    LinkState::down()
                };
                // set_link normalizes the key: one call covers both
                // directions, matching the threaded fault table.
                self.world
                    .topology_mut()
                    .set_link(NodeId(a), NodeId(b), state);
                self.world.metrics_mut().incr(names::FAULT_APPLIED);
            }
            RecEvent::SetNodeUp { node, up } => {
                if up {
                    self.world.topology_mut().restart(NodeId(node));
                } else {
                    self.world.topology_mut().crash(NodeId(node));
                }
                self.world.metrics_mut().incr(names::FAULT_APPLIED);
            }
            _ => {}
        }
    }

    /// Advances the cursor to the next transport entry, applying fault
    /// entries and skipping informational ones on the way. Stops (without
    /// consuming) at a region marker — matching never crosses regions.
    fn next_matchable(&mut self) -> Option<usize> {
        loop {
            if self.pos >= self.rec.entries.len() {
                self.past_end = true;
                return None;
            }
            let ev = self.rec.entries[self.pos].ev.clone();
            match ev {
                RecEvent::Region { .. } => return None,
                ref m if is_matchable(m) => return Some(self.pos),
                other => {
                    self.apply_fault(&other);
                    self.pos += 1;
                }
            }
        }
    }

    /// Consumes fault/informational entries up to the next marker or
    /// transport entry, so transitions recorded at a region's head take
    /// effect before the driver issues its first call.
    fn drain_passive(&mut self) {
        while self.pos < self.rec.entries.len() {
            let ev = self.rec.entries[self.pos].ev.clone();
            if matches!(ev, RecEvent::Region { .. }) || is_matchable(&ev) {
                break;
            }
            self.apply_fault(&ev);
            self.pos += 1;
        }
        if self.pos >= self.rec.entries.len() {
            self.past_end = true;
        }
    }

    /// The next region marker's label, without consuming anything.
    fn peek_region(&self) -> Option<String> {
        self.rec.entries[self.pos..]
            .iter()
            .find_map(|e| match &e.ev {
                RecEvent::Region { label } => Some(label.clone()),
                _ => None,
            })
    }

    /// Re-aligns on the next region marker, which must carry `label`:
    /// consumes through it (applying fault entries, reporting any
    /// unreplayed transport entries), pins the virtual clock to the
    /// marker's recorded timestamp, and applies the region's leading
    /// passive entries. Returns whether alignment succeeded.
    fn sync_region(&mut self, label: &str) -> bool {
        let mut marker = None;
        let mut skipped = 0usize;
        for (j, e) in self.rec.entries.iter().enumerate().skip(self.pos) {
            match &e.ev {
                RecEvent::Region { .. } => {
                    marker = Some(j);
                    break;
                }
                ev if is_matchable(ev) => skipped += 1,
                _ => {}
            }
        }
        let Some(j) = marker else {
            self.past_end = true;
            if !self.rec.truncated {
                self.diverge(format!("log ended before region '{label}'"));
            }
            return false;
        };
        let RecEvent::Region { label: got } = self.rec.entries[j].ev.clone() else {
            unreachable!("marker index points at a Region entry");
        };
        if got != label {
            self.diverge(format!("expected region '{label}', log has '{got}'"));
            return false;
        }
        if skipped > 0 {
            self.diverge(format!(
                "{skipped} recorded call(s) before region '{label}' were not re-issued"
            ));
        }
        while self.pos < j {
            let ev = self.rec.entries[self.pos].ev.clone();
            self.apply_fault(&ev);
            self.pos += 1;
        }
        let at = SimTime::from_micros(self.rec.entries[j].at_us);
        self.pos = j + 1;
        // Substitute the recorded clock: region boundaries re-occur at
        // the instants the live run observed them.
        if self.world.now() < at {
            self.world.run_until(at);
        }
        self.drain_passive();
        true
    }

    /// Consumes through the next marker unconditionally (for regions the
    /// replayer does not recognize).
    fn skip_region(&mut self) {
        while self.pos < self.rec.entries.len() {
            let at_us = self.rec.entries[self.pos].at_us;
            let ev = self.rec.entries[self.pos].ev.clone();
            self.apply_fault(&ev);
            self.pos += 1;
            if matches!(ev, RecEvent::Region { .. }) {
                let at = SimTime::from_micros(at_us);
                if self.world.now() < at {
                    self.world.run_until(at);
                }
                return;
            }
        }
        self.past_end = true;
    }
}

impl Clock for ReplayRuntime {
    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn sleep(&mut self, d: SimDuration) {
        self.world.sleep(d)
    }

    fn rng_for(&self, label: &str) -> SimRng {
        self.world.rng_for(label)
    }
}

impl Observe for ReplayRuntime {
    fn metrics(&self) -> &weakset_sim::metrics::Metrics {
        self.world.metrics()
    }

    fn metrics_mut(&mut self) -> &mut weakset_sim::metrics::Metrics {
        self.world.metrics_mut()
    }

    fn span_enter(&mut self, kind: &str, detail: &dyn Fn() -> String) -> SpanId {
        Observe::span_enter(&mut self.world, kind, detail)
    }

    fn span_enter_under(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: &dyn Fn() -> String,
    ) -> SpanId {
        Observe::span_enter_under(&mut self.world, parent, kind, detail)
    }

    fn span_exit(&mut self, id: SpanId) {
        Observe::span_exit(&mut self.world, id)
    }

    fn current_ctx(&self) -> Option<TraceContext> {
        Observe::current_ctx(&self.world)
    }

    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String) {
        Observe::trace_event(&mut self.world, kind, detail)
    }
}

impl Transport<StoreMsg> for ReplayRuntime {
    fn rpc(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: StoreMsg,
        timeout: SimDuration,
    ) -> Result<StoreMsg, NetError> {
        let req = hash_debug(&msg);
        let Some(i) = self.next_matchable() else {
            if !self.off_log() {
                self.diverge(format!(
                    "live rpc {from}->{to} has no recorded counterpart before the next region"
                ));
            }
            return self.world.rpc(from, to, msg, timeout);
        };
        let entry = self.rec.entries[i].ev.clone();
        let RecEvent::Rpc {
            from: rec_from,
            to: rec_to,
            req_hash,
            outcome,
            elapsed_us,
        } = entry
        else {
            self.diverge(format!(
                "live rpc {from}->{to} does not match recorded {}",
                kind_name(&entry)
            ));
            return self.world.rpc(from, to, msg, timeout);
        };
        self.pos = i + 1;
        if (rec_from, rec_to) != (from.0, to.0) {
            self.diverge(format!(
                "rpc endpoints diverge: live {from}->{to}, recorded {rec_from}->{rec_to}"
            ));
        }
        if req_hash != req {
            self.diverge(format!(
                "rpc request payload diverges ({from}->{to}): live {req:#018x}, recorded {req_hash:#018x}"
            ));
        }
        match outcome {
            RecOutcome::Ok { reply_hash } => {
                self.world.metrics_mut().incr(names::RPC_REPLAYED);
                let result = self.world.rpc(from, to, msg, timeout);
                match &result {
                    Ok(reply) => {
                        if hash_debug(reply) != reply_hash {
                            self.diverge(format!("rpc reply payload diverges ({from}->{to})"));
                        }
                    }
                    Err(e) => {
                        self.diverge(format!(
                            "recorded rpc succeeded, simulated one failed ({from}->{to}): {e}"
                        ));
                    }
                }
                result
            }
            failed => {
                // Inject the recorded failure without touching the
                // simulated network; advance the virtual clock by the
                // stall the live client observed.
                self.world.metrics_mut().incr(names::RPC_SUBSTITUTED);
                let stall = SimDuration::from_micros(elapsed_us.min(timeout.as_micros()));
                self.world.sleep(stall);
                Err(failed
                    .to_net_error()
                    .expect("non-Ok outcome maps to an error"))
            }
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: StoreMsg) -> ReplyToken {
        let req = hash_debug(&msg);
        let Some(i) = self.next_matchable() else {
            if !self.off_log() {
                self.diverge(format!(
                    "live send {from}->{to} has no recorded counterpart before the next region"
                ));
            }
            return self.world.send(from, to, msg);
        };
        let entry = self.rec.entries[i].ev.clone();
        let RecEvent::Send {
            from: rec_from,
            to: rec_to,
            req_hash,
            token,
        } = entry
        else {
            self.diverge(format!(
                "live send {from}->{to} does not match recorded {}",
                kind_name(&entry)
            ));
            return self.world.send(from, to, msg);
        };
        self.pos = i + 1;
        if (rec_from, rec_to) != (from.0, to.0) {
            self.diverge(format!(
                "send endpoints diverge: live {from}->{to}, recorded {rec_from}->{rec_to}"
            ));
        }
        if req_hash != req {
            self.diverge(format!("send payload diverges ({from}->{to})"));
        }
        let sim = self.world.send(from, to, msg);
        self.token_map.insert(token, sim);
        sim
    }

    fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<StoreMsg>) -> ReplyToken {
        // Mirror the threaded backend: one wrapped envelope, one Send
        // entry in the log.
        self.world.metrics_mut().incr("net.batch.envelopes");
        self.world
            .metrics_mut()
            .add("net.batch.parts", parts.len() as u64);
        Transport::send(self, from, to, StoreMsg::wrap_batch(parts))
    }

    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<StoreMsg, NetError>> {
        // Recorded TookReply entries are informational; availability is
        // pinned by wait_any winners.
        self.world.try_take_reply(token)
    }

    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        let Some(i) = self.next_matchable() else {
            if !self.off_log() {
                self.diverge(
                    "live wait_any has no recorded counterpart before the next region".to_string(),
                );
            }
            return self.world.wait_any(tokens, deadline);
        };
        let entry = self.rec.entries[i].ev.clone();
        let RecEvent::WaitAny { winner, elapsed_us } = entry else {
            self.diverge(format!(
                "live wait_any does not match recorded {}",
                kind_name(&entry)
            ));
            return self.world.wait_any(tokens, deadline);
        };
        self.pos = i + 1;
        match winner {
            Some(raw) => match self.token_map.get(&raw).copied() {
                Some(sim_tok) if tokens.contains(&sim_tok) => {
                    self.world.metrics_mut().incr(names::WAIT_PINNED);
                    // Pin the wait to the recorded winner, with a
                    // generous horizon — the sim may deliver on a
                    // different schedule than the wall clock did.
                    let horizon =
                        self.world.now() + SimDuration::from_micros(elapsed_us) + ms(60_000);
                    let got = self.world.wait_any(&[sim_tok], horizon);
                    if got.is_none() {
                        self.diverge(format!(
                            "pinned wait_any winner (recorded token {raw}) never completed in sim"
                        ));
                    }
                    got
                }
                _ => {
                    self.diverge(format!(
                        "recorded wait_any winner {raw} is not among the live tokens"
                    ));
                    self.world.wait_any(tokens, deadline)
                }
            },
            None => {
                // Recorded deadline expiry: substitute it, advancing the
                // clock to the caller's deadline. Completions stay
                // queued for later try_take_reply calls.
                if self.world.now() < deadline {
                    self.world.run_until(deadline);
                }
                None
            }
        }
    }

    /// Matches the threaded backend's estimate (zero), so closest-first
    /// candidate ordering falls back to the same id tie-break on replay.
    fn estimate_latency(&self, _a: NodeId, _b: NodeId) -> SimDuration {
        SimDuration::ZERO
    }
}

impl ServiceHost<StoreMsg> for ReplayRuntime {
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<StoreMsg> + Send>) {
        self.world.install_service(node, svc);
    }

    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn std::any::Any)) -> bool {
        ServiceHost::with_service_any(&self.world, node, f)
    }

    fn with_service_any_mut(
        &mut self,
        node: NodeId,
        f: &mut dyn FnMut(&mut dyn std::any::Any),
    ) -> bool {
        ServiceHost::with_service_any_mut(&mut self.world, node, f)
    }

    fn is_up(&self, node: NodeId) -> bool {
        ServiceHost::is_up(&self.world, node)
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        ServiceHost::reachable(&self.world, from, to)
    }
}

/// Bridges a backend-agnostic task onto the simulator's queue. Spawned
/// tasks run against the bare world (not the replayer): nothing in a
/// Plain deployment spawns, so recorded `TimerFired` entries stay
/// informational.
struct TaskAdapter(Box<dyn RtTask<StoreMsg>>);

impl Task<StoreMsg> for TaskAdapter {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn run(self: Box<Self>, world: &mut StoreWorld) {
        let rt: &mut dyn Runtime<StoreMsg> = world;
        self.0.run(rt)
    }
}

impl Spawner<StoreMsg> for ReplayRuntime {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<StoreMsg>>) {
        self.world.spawn_in(d, TaskAdapter(task));
    }
}

// ---------------------------------------------------------------------
// Replay driver (simulated backend)
// ---------------------------------------------------------------------

/// Replays a recording through the deterministic simulator and checks
/// the conformance oracles over the replayed computation.
///
/// The embedded workload re-drives the same client code the live run
/// executed, region by region in *log* order; the recorded
/// nondeterminism is substituted as described in the module docs. The
/// result is a pure function of the recording: replaying twice yields
/// byte-identical traces (equal [`RunReport::trace_hash`]), which is the
/// determinism certificate CI asserts.
///
/// # Errors
///
/// An unparsable embedded workload, a non-`Plain` deployment, or a node
/// roster that does not fit the workload.
pub fn replay_recording(rec: &Recording) -> Result<ReplayReport, String> {
    let s = Scenario::from_ron(&rec.workload).map_err(|e| format!("embedded workload: {e}"))?;
    if s.deployment != Deployment::Plain {
        return Err("record/replay v1 drives Plain deployments only".into());
    }
    let n = s.servers.max(1);
    if rec.nodes.len() != n + 1 {
        return Err(format!(
            "recording has {} node(s), the workload needs {} (client + {n} servers)",
            rec.nodes.len(),
            n + 1
        ));
    }

    // Rebuild the fleet in recorded creation order, so node ids match
    // the raw ids in the log.
    let mut t = Topology::new();
    let ids: Vec<NodeId> = rec
        .nodes
        .iter()
        .enumerate()
        .map(|(i, name)| t.add_node(name.clone(), i as u32))
        .collect();
    let cn = ids[0];
    let servers: Vec<NodeId> = ids[1..].to_vec();
    let mut world = StoreWorld::new(
        WorldConfig::seeded(rec.seed),
        t,
        LatencyModel::Constant(ms(1)),
    );
    world.events_mut().set_enabled(true);
    for &server in &servers {
        world.install_service(server, Box::new(StoreServer::new()));
    }
    let mut rt = ReplayRuntime {
        world,
        rec: rec.clone(),
        pos: 0,
        token_map: HashMap::new(),
        divergences: Vec::new(),
        past_end: false,
    };

    let mut violations: Vec<String> = Vec::new();
    let client = StoreClient::new(cn, ms(50));
    let config = IterConfig {
        read_policy: s.read_policy,
        fetch_order: s.fetch_order,
        guard_growth: s.guard_growth,
        ..IterConfig::default()
    };
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    // The prelude's rpcs are the first matchable entries in the log.
    if let Err(e) = client.create_collection(&mut rt, &cref) {
        rt.diverge(format!("create_collection failed on replay: {e:?}"));
    }
    let set = TestSet::One(WeakSet::new(client.clone(), cref.clone()).with_config(config));

    let ops_by_label: HashMap<String, Op> = s.ops.iter().map(|o| (op_label(o), *o)).collect();

    let mut halted = false;
    for &(elem, home) in &s.setup {
        let label = setup_label(elem, home);
        match rt.peek_region() {
            Some(l) if l == label => {
                rt.sync_region(&label);
                let obj = ObjectRecord::new(ObjectId(elem), format!("e{elem}"), &b"dst"[..]);
                let _ = set.add(&mut rt, obj, servers[home % n]);
            }
            Some(other) => {
                rt.diverge(format!(
                    "expected setup region '{label}', log has '{other}'"
                ));
                rt.skip_region();
            }
            None => {
                if !rec.truncated {
                    rt.diverge(format!("log ends before setup region '{label}'"));
                }
                halted = true;
                break;
            }
        }
    }

    // Pre-start schedule: ops and fault transitions the live driver
    // applied before iteration began, in log order.
    while !halted {
        match rt.peek_region() {
            None => {
                if !rec.truncated {
                    rt.diverge("log ends before the start region".to_string());
                }
                halted = true;
            }
            Some(l) if l == "start" => {
                rt.sync_region("start");
                break;
            }
            Some(l) if l.starts_with("fault.") => {
                rt.sync_region(&l);
            }
            Some(l) if l.starts_with("op.") => {
                rt.sync_region(&l);
                match ops_by_label.get(&l) {
                    Some(&op) => run::apply_op(&mut rt, &set, &servers, op),
                    None => rt.diverge(format!("recorded op region '{l}' is not in the workload")),
                }
            }
            Some(l) => {
                rt.diverge(format!("unexpected region '{l}' before start"));
                rt.skip_region();
            }
        }
    }

    let mut it = set.single().elements_observed(s.semantics);
    let mut yielded: Vec<u64> = Vec::new();
    let mut steps = 0usize;
    loop {
        if halted {
            break;
        }
        match rt.peek_region() {
            None => break,
            Some(l) if l == "members" || l == "end" => break,
            Some(l) if l.starts_with("fault.") => {
                rt.sync_region(&l);
            }
            Some(l) if l.starts_with("op.") => {
                rt.sync_region(&l);
                match ops_by_label.get(&l) {
                    Some(&op) => run::apply_op(&mut rt, &set, &servers, op),
                    None => rt.diverge(format!("recorded op region '{l}' is not in the workload")),
                }
            }
            Some(l) if l.starts_with("inv.") => {
                rt.sync_region(&l);
                steps += 1;
                match it.next(&mut rt) {
                    IterStep::Yielded(obj) => {
                        yielded.push(obj.id.0);
                        rt.sleep(ms(s.think_ms));
                    }
                    IterStep::Done => {}
                    IterStep::Failed(f) => {
                        if s.semantics == Semantics::Optimistic {
                            violations.push(format!("optimistic iterator signalled failure: {f}"));
                        }
                    }
                    IterStep::Blocked => rt.sleep(ms(5)),
                }
            }
            Some(l) => {
                rt.diverge(format!("unexpected region '{l}'"));
                rt.skip_region();
            }
        }
    }

    let mut membership: Vec<u64> = Vec::new();
    if rt.peek_region().as_deref() == Some("members") {
        rt.sync_region("members");
        membership = client
            .read_members(&mut rt, &cref, s.read_policy)
            .map(|m| m.entries.iter().map(|e| e.elem.0).collect())
            .unwrap_or_default();
        membership.sort_unstable();
    } else if !rec.truncated {
        rt.diverge("log ended without a members region".to_string());
    }
    if rt.peek_region().as_deref() == Some("end") {
        rt.sync_region("end");
    } else if !rec.truncated {
        rt.diverge("log ended without an end region".to_string());
    }

    // Anything still unconsumed means the replay issued fewer calls
    // than the live run — a divergence unless the log is truncated.
    let leftover = rt.rec.entries[rt.pos..]
        .iter()
        .filter(|e| is_matchable(&e.ev))
        .count();
    if leftover > 0 && !rt.rec.truncated {
        rt.diverge(format!(
            "{leftover} recorded call(s) were never re-issued by the replay"
        ));
    }

    rt.world.run_to_quiescence();
    let mut computations: Vec<Computation> = it.take_computation(&rt).into_iter().collect();
    if s.chaos == Chaos::PhantomYield {
        run::inject_phantom_yield(computations.last_mut(), &mut violations);
    }
    if computations.is_empty() {
        violations.push("observer produced no computation".into());
    }
    for comp in &computations {
        violations.extend(oracle::check(&s, comp));
    }

    let consumed = rt.pos as u64;
    rt.world
        .metrics_mut()
        .add(names::ENTRIES_CONSUMED, consumed);
    let at = rt.world.now().as_micros();
    let unclosed = rt.world.events_mut().finish(at);
    if !unclosed.is_empty() {
        let detail = format!("{} span(s) left open at end of replay", unclosed.len());
        rt.diverge(detail);
    }
    let events = rt.world.events_mut().take_events();
    let report = RunReport {
        seed: rec.seed,
        trace_hash: rt.world.trace_hash(),
        yielded,
        steps,
        violations,
        computations,
        sim_time_us: rt.world.now().as_micros(),
        metrics: rt.world.metrics().clone(),
        events,
    };
    Ok(ReplayReport {
        report,
        membership,
        divergences: rt.divergences,
    })
}

// ---------------------------------------------------------------------
// Shrinking the recording
// ---------------------------------------------------------------------

/// Removes every region whose marker carries one of `labels`: the
/// marker and everything after it up to the next marker.
fn remove_regions(
    entries: &[weakset_runtime::record::RecEntry],
    labels: &[String],
) -> Vec<weakset_runtime::record::RecEntry> {
    let mut out = Vec::new();
    let mut dropping = false;
    for e in entries {
        if let RecEvent::Region { label } = &e.ev {
            dropping = labels.iter().any(|l| l == label);
        }
        if !dropping {
            out.push(e.clone());
        }
    }
    out
}

#[derive(Clone, Copy)]
enum Field {
    Faults,
    Ops,
    Setup,
}

fn field_len(s: &Scenario, field: Field) -> usize {
    match field {
        Field::Faults => s.faults.len(),
        Field::Ops => s.ops.len(),
        Field::Setup => s.setup.len(),
    }
}

/// Drops workload item `i` of `field` from both the scenario and the
/// recording: the item leaves the embedded workload, and its regions
/// (by intrinsic label) leave the log.
fn drop_item(rec: &Recording, s: &Scenario, field: Field, i: usize) -> (Recording, Scenario) {
    let mut s2 = s.clone();
    let labels: Vec<String> = match field {
        Field::Faults => {
            let f = s2.faults.remove(i);
            expand_one(&f, s2.servers.max(1))
                .into_iter()
                .map(|t| t.label)
                .collect()
        }
        Field::Ops => {
            let o = s2.ops.remove(i);
            vec![op_label(&o)]
        }
        Field::Setup => {
            let (elem, home) = s2.setup.remove(i);
            vec![setup_label(elem, home)]
        }
    };
    let mut r2 = rec.clone();
    r2.workload = s2.to_ron();
    r2.entries = remove_regions(&rec.entries, &labels);
    (r2, s2)
}

/// Greedily shrinks a violating recording: repeatedly drop one fault,
/// op, or setup element (excising its log regions along with the
/// workload item) and keep the candidate iff its replay still violates
/// an oracle. Returns the smallest recording found and the number of
/// replays spent. A non-violating (or unparsable) input is returned
/// unchanged.
pub fn shrink_recording(rec: &Recording) -> (Recording, usize) {
    let mut execs = 0usize;
    let violating = |r: &Recording, execs: &mut usize| -> bool {
        *execs += 1;
        replay_recording(r)
            .map(|rep| !rep.report.violations.is_empty())
            .unwrap_or(false)
    };
    let mut best = rec.clone();
    if !violating(&best, &mut execs) {
        return (best, execs);
    }
    let Ok(mut s) = Scenario::from_ron(&best.workload) else {
        return (best, execs);
    };
    loop {
        let mut progressed = false;
        for field in [Field::Faults, Field::Ops, Field::Setup] {
            let mut i = 0usize;
            while i < field_len(&s, field) {
                if execs >= MAX_EXECUTIONS {
                    return (best, execs);
                }
                let (cand_rec, cand_s) = drop_item(&best, &s, field, i);
                if violating(&cand_rec, &mut execs) {
                    best = cand_rec;
                    s = cand_s;
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }
        if !progressed {
            return (best, execs);
        }
    }
}

// ---------------------------------------------------------------------
// Artifact files
// ---------------------------------------------------------------------

/// Where a recording with the given id lives under `dir`
/// (`rec-<id>.ron`, next to the scenario repro artifacts).
pub fn rec_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("rec-{id}.ron"))
}

/// Writes the recording to [`rec_path`]`(dir, recording.seed)`,
/// creating `dir` when needed.
///
/// # Errors
///
/// Propagates filesystem errors as human-readable strings.
pub fn write_recording(dir: &Path, rec: &Recording) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = rec_path(dir, rec.seed);
    std::fs::write(&path, rec.to_ron()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Loads a recording artifact.
///
/// # Errors
///
/// Filesystem errors and parse failures (including an unsupported
/// schema version), as human-readable strings.
pub fn load_recording(path: &Path) -> Result<Recording, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Recording::from_ron(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_runtime::record::RecEntry;
    use weakset_store::prelude::ReadPolicy;

    #[test]
    fn partition_expansion_cuts_the_client_too() {
        let f = FaultSpec::Partition {
            at_ms: 10,
            side: vec![0],
            for_ms: 20,
        };
        let ts = expand_one(&f, 2);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].label, "fault.part.10.0.20.cut");
        assert_eq!(ts[1].label, "fault.part.10.0.20.heal");
        assert_eq!(ts[1].at_ms, 30);
        // Side {server 0} = node 1; complement = {client 0, node 2}.
        assert_eq!(
            ts[0].acts,
            vec![
                TAct::Link {
                    a: 1,
                    b: 0,
                    ok: false
                },
                TAct::Link {
                    a: 1,
                    b: 2,
                    ok: false
                },
            ]
        );
        assert!(ts[1]
            .acts
            .iter()
            .all(|a| matches!(a, TAct::Link { ok: true, .. })));
    }

    #[test]
    fn flap_expands_one_transition_pair_per_cycle() {
        let f = FaultSpec::Flap {
            at_ms: 5,
            a: 0,
            b: 1,
            down_ms: 2,
            up_ms: 3,
            cycles: 2,
        };
        let ts = expand_one(&f, 3);
        assert_eq!(ts.len(), 4);
        assert_eq!(
            ts.iter().map(|t| t.at_ms).collect::<Vec<_>>(),
            vec![5, 7, 10, 12]
        );
        assert_eq!(ts[0].label, "fault.flap.5.0.1.0.down");
        assert_eq!(ts[3].label, "fault.flap.5.0.1.1.up");
    }

    #[test]
    fn outage_maps_server_index_to_global_node() {
        let f = FaultSpec::Outage {
            at_ms: 1,
            node: 4, // wraps: 4 % 3 = server 1 = global node 2
            for_ms: 9,
        };
        let ts = expand_one(&f, 3);
        assert_eq!(ts[0].acts, vec![TAct::Node { node: 2, up: false }]);
        assert_eq!(ts[1].acts, vec![TAct::Node { node: 2, up: true }]);
    }

    #[test]
    fn schedule_orders_by_due_time_transitions_first() {
        let s = Scenario {
            seed: 1,
            servers: 2,
            deployment: Deployment::Plain,
            semantics: Semantics::Snapshot,
            read_policy: ReadPolicy::Primary,
            guard_growth: false,
            fetch_order: weakset::prelude::FetchOrder::IdOrder,
            think_ms: 1,
            budget: 8,
            start_ms: 10,
            setup: vec![],
            ops: vec![Op::Add {
                at_ms: 5,
                elem: 9,
                home: 0,
            }],
            faults: vec![FaultSpec::Outage {
                at_ms: 5,
                node: 0,
                for_ms: 3,
            }],
            chaos: Chaos::None,
        };
        let sched = build_schedule(&s);
        assert_eq!(sched.len(), 3); // down, up, add
        assert!(matches!(&sched[0], SchedItem::Trans(t) if t.at_ms == 5));
        assert!(matches!(&sched[1], SchedItem::Op(_)));
        assert!(matches!(&sched[2], SchedItem::Trans(t) if t.at_ms == 8));
    }

    #[test]
    fn remove_regions_excises_marker_and_body() {
        let region = |label: &str| RecEntry {
            at_us: 0,
            ev: RecEvent::Region {
                label: label.into(),
            },
        };
        let rpc = |h: u64| RecEntry {
            at_us: 0,
            ev: RecEvent::Rpc {
                from: 0,
                to: 1,
                req_hash: h,
                outcome: RecOutcome::Timeout,
                elapsed_us: 0,
            },
        };
        let entries = vec![
            rpc(1), // preamble, before any region: always kept
            region("setup.1.0"),
            rpc(2),
            region("op.5.add.9.0"),
            rpc(3),
            region("end"),
        ];
        let kept = remove_regions(&entries, &["setup.1.0".to_string()]);
        assert_eq!(kept.len(), 4);
        assert!(matches!(&kept[0].ev, RecEvent::Rpc { req_hash: 1, .. }));
        assert!(matches!(&kept[1].ev, RecEvent::Region { label } if label == "op.5.add.9.0"));
        assert!(matches!(&kept[2].ev, RecEvent::Rpc { req_hash: 3, .. }));
        assert!(matches!(&kept[3].ev, RecEvent::Region { label } if label == "end"));
    }

    #[test]
    fn op_labels_are_intrinsic_and_distinct() {
        let add = Op::Add {
            at_ms: 7,
            elem: 3,
            home: 1,
        };
        let rm = Op::Remove { at_ms: 7, elem: 3 };
        assert_eq!(op_label(&add), "op.7.add.3.1");
        assert_eq!(op_label(&rm), "op.7.rm.3");
        assert_ne!(op_label(&add), op_label(&rm));
        assert_eq!(setup_label(3, 1), "setup.3.1");
    }

    #[test]
    fn recording_artifacts_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("weakset-replay-test-{}", std::process::id()));
        let rec = Recording {
            schema_version: weakset_runtime::record::SCHEMA_VERSION,
            seed: 77,
            truncated: false,
            nodes: vec!["client".into(), "s0".into()],
            workload: "Scenario(\n)".into(),
            entries: vec![RecEntry {
                at_us: 3,
                ev: RecEvent::Region {
                    label: "start".into(),
                },
            }],
        };
        let path = write_recording(&dir, &rec).unwrap();
        assert_eq!(path, rec_path(&dir, 77));
        assert!(path.file_name().unwrap().to_str().unwrap() == "rec-77.ron");
        let back = load_recording(&path).unwrap();
        assert_eq!(back, rec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_non_plain_and_bad_rosters() {
        let s = Scenario {
            seed: 1,
            servers: 2,
            deployment: Deployment::Gossip {
                grow_only: false,
                merkle: false,
            },
            semantics: Semantics::Snapshot,
            read_policy: ReadPolicy::Primary,
            guard_growth: false,
            fetch_order: weakset::prelude::FetchOrder::IdOrder,
            think_ms: 1,
            budget: 8,
            start_ms: 10,
            setup: vec![],
            ops: vec![],
            faults: vec![],
            chaos: Chaos::None,
        };
        assert!(record_scenario(&s).is_err());
        let rec = Recording {
            schema_version: weakset_runtime::record::SCHEMA_VERSION,
            seed: 1,
            truncated: false,
            nodes: vec!["client".into()],
            workload: s.to_ron(),
            entries: vec![],
        };
        assert!(replay_recording(&rec).unwrap_err().contains("Plain"));
        let plain = Scenario {
            deployment: Deployment::Plain,
            ..s
        };
        let rec = Recording {
            workload: plain.to_ron(),
            ..rec
        };
        // 1 node recorded, workload needs client + 2 servers.
        assert!(replay_recording(&rec).unwrap_err().contains("node"));
    }
}
