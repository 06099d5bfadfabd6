//! The record/replay bridge: run a scenario on the *real* threaded
//! runtime while a [`Recorder`] captures every observable boundary
//! crossing, then re-drive the same scenario inside the deterministic
//! simulator with the recorded nondeterminism pinned — delivery order,
//! async completion winners, observed failures, and region-boundary
//! clock reads are all substituted from the log.
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
//! The recorded log is the authority. Both halves are stages of the one
//! driver (`drive.rs`): the threaded stage brackets every
//! driver-level activity (each setup add, workload op, fault transition,
//! and iterator invocation) in a [`RecEvent::Region`] marker; the replay
//! stage re-aligns on each marker as the driver reaches the same
//! activity, and takes its schedule — which fault and op regions come
//! next, whether there is a next invocation at all — from the log, so
//! the two runs walk the same schedule even when wall-clock timing
//! skewed the live interleaving. Between markers, each live transport
//! call is matched against the next recorded one:
//!
//! * a recorded `Ok` rpc is **re-executed** against the simulated
//!   services (and its reply hash verified),
//! * a recorded *failure* is **substituted** — the error is returned
//!   without touching the simulated network, after advancing the virtual
//!   clock by the observed stall,
//! * a recorded `wait_any` pins the simulated wait to the recorded
//!   winner's token,
//! * a `fault.*` region re-applies the fault edge its label names in
//!   the embedded workload (as an `op.*` region re-issues its op),
//!   through the simulator's own `World::apply_fault`: the replayed run
//!   carries the same `sim.fault.*` events a simulated one does.
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
//! [`Deployment::Plain`] and [`Deployment::Sharded`] workloads (a
//! gossip deployment spawns anti-entropy tasks whose regions v1 does
//! not bracket). The live run's report carries `trace_hash: 0` — real
//! scheduling has no deterministic trace; determinism is a property of
//! the *replay*.

use crate::drive::{drive, ms, Closed, Fleet, Mark, Schedule, Stage};
use crate::run::RunReport;
use crate::scenario::{Deployment, Op, Scenario};
use crate::shrink::{shrink_by, Field};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use weakset_obs::replay as names;
use weakset_runtime::record::{hash_debug, RecEntry, RecEvent, RecOutcome, Recorder, Recording};
use weakset_runtime::threaded::ThreadedRuntime;
use weakset_runtime::traits::{Clock, Observe, RtTask, ServiceHost, Spawner, Transport};
use weakset_sim::fault::FaultAction;
use weakset_sim::latency::LatencyModel;
use weakset_sim::metrics::{SpanId, TraceContext};
use weakset_sim::net::{BatchEnvelope, NetError};
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::topology::Topology;
use weakset_sim::world::{ReplyToken, Service};
use weakset_store::prelude::{StoreMsg, StoreRt, StoreWorld};

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
// The labelled workload
// ---------------------------------------------------------------------

/// One workload item a log-bound stage schedules: a fault edge or an op.
#[derive(Clone)]
enum Item {
    Fault(FaultAction),
    Op(Op),
}

/// The workload's timed items under their region labels: every fault's
/// [`actions`](crate::scenario::FaultSpec::actions) in spec order, then
/// the ops, stably sorted by due offset (fault edges first on ties).
/// Labels, like every [`Mark`], are intrinsic to the scenario item: two
/// identical items share one, and the recording shrinker then removes
/// both regions at once — a candidate that breaks alignment is simply
/// rejected.
fn labelled_workload(s: &Scenario, servers: &[NodeId]) -> Vec<(u64, (String, Item))> {
    let faults = s.faults.iter().flat_map(|f| f.actions(servers)).map(|e| {
        let label = e.to_string();
        (e.at_ms, (label, Item::Fault(e.action)))
    });
    let ops = s
        .ops
        .iter()
        .map(|op| (op.at_ms(), (Mark::Op(op).to_string(), Item::Op(*op))));
    let mut items: Vec<_> = faults.chain(ops).collect();
    items.sort_by_key(|(at, _)| *at);
    items
}

/// A recording's servers: every node after the client, node 0.
fn recorded_servers(rec: &Recording) -> Vec<NodeId> {
    (1..rec.nodes.len() as u32).map(NodeId).collect()
}

// ---------------------------------------------------------------------
// Threaded stage (records)
// ---------------------------------------------------------------------

/// The threaded stage: nodes are OS threads, the schedule is the
/// labelled workload applied by the driver thread, every mark is a
/// region marker in the recorder's log, and the run closes with a
/// deadline shutdown. The recording is the black box: it holds
/// every boundary crossing, typed and replayable.
struct Threads {
    rt: ThreadedRuntime<StoreMsg>,
    rec: Recorder,
    client: NodeId,
    servers: Vec<NodeId>,
    schedule: Schedule<(String, Item)>,
    /// Final membership under the scenario's read policy, sorted.
    membership: Vec<u64>,
}

impl Threads {
    fn new(s: &Scenario) -> Self {
        let mut rt = ThreadedRuntime::<StoreMsg>::new(s.seed);
        let rec = Recorder::new(s.seed);
        rec.set_workload(s.to_ron());
        rt.attach_recorder(rec.clone());
        rt.events_mut().set_enabled(true);
        let client = rt.add_node("client");
        let servers: Vec<NodeId> = (0..s.servers.max(1))
            .map(|i| rt.add_node(format!("s{i}")))
            .collect();
        Threads {
            schedule: Schedule::new(labelled_workload(s, &servers)),
            rt,
            rec,
            client,
            servers,
            membership: Vec::new(),
        }
    }
}

impl Stage for Threads {
    fn rt(&mut self) -> &mut StoreRt {
        &mut self.rt
    }

    fn nodes(&self) -> (NodeId, Vec<NodeId>) {
        (self.client, self.servers.clone())
    }

    fn mark(&mut self, mark: Mark<'_>) -> bool {
        self.rec.region(self.rt.now(), &mark.to_string());
        true
    }

    fn origin(&mut self) {
        self.schedule.start(self.rt.now());
    }

    fn advance(&mut self, fleet: &Fleet, to_ms: Option<u64>) {
        let rec = &self.rec;
        self.schedule
            .advance(&mut self.rt, to_ms, |rt, (label, item)| {
                rec.region(rt.now(), label);
                match item {
                    Item::Fault(action) => rt.apply_fault(action),
                    Item::Op(op) => fleet.apply_op(rt, *op),
                }
            });
    }

    fn settle(&mut self, fleet: &Fleet) {
        self.membership = final_membership(self, fleet);
    }

    fn close(&mut self, violations: &mut Vec<String>) -> Closed {
        if let Err(hung) = self.rt.shutdown(Duration::from_secs(10)) {
            // The shutdown hook already marked the recording truncated.
            violations.push(format!("threaded shutdown reported hung nodes: {hung:?}"));
        }
        // Report-only ledger: names any span a crashed or wedged activity
        // left open, and counts them under `trace.unclosed_spans`.
        let unclosed = self.rt.finish_spans();
        if !unclosed.is_empty() {
            eprintln!(
                "record: {} span(s) left unclosed: {}",
                unclosed.len(),
                unclosed.join(", ")
            );
        }
        Closed {
            trace_hash: 0, // real scheduling has no deterministic trace
            sim_time_us: self.rt.now().as_micros(),
            metrics: std::mem::take(Observe::metrics_mut(&mut self.rt)),
            events: self.rt.events_mut().take_events(),
        }
    }
}

/// The final membership read both log-bound stages end on, under its
/// [`Mark::Members`] / [`Mark::End`] brackets.
fn final_membership(stage: &mut impl Stage, fleet: &Fleet) -> Vec<u64> {
    let mut membership = Vec::new();
    if stage.mark(Mark::Members) {
        membership = fleet.read_members(stage.rt());
    }
    stage.mark(Mark::End);
    membership
}

const NO_GOSSIP: &str = "record/replay v1 does not drive Gossip deployments";

/// Runs a Plain or Sharded scenario on the threaded runtime with a
/// [`Recorder`] attached, producing a replayable [`Recording`] alongside
/// the live run's oracle-checked report.
///
/// This is [`crate::run::execute`]'s driver on another stage — same
/// fleet, invocation loop, wait limits and verdict — with every activity
/// bracketed in a region marker so replay can re-align on it. A hung
/// shutdown is reported as a violation and marks the recording
/// truncated rather than hanging the caller.
///
/// # Errors
///
/// Gossip deployments (unsupported by replay v1) and failures in
/// the faultless prelude (collection creation, setup adds).
pub fn record_scenario(s: &Scenario) -> Result<RecordedRun, String> {
    if matches!(s.deployment, Deployment::Gossip { .. }) {
        return Err(NO_GOSSIP.into());
    }
    let mut stage = Threads::new(s);
    let report = drive(s, &mut stage)?;
    Ok(RecordedRun {
        recording: stage.rec.finish(),
        report,
        membership: stage.membership,
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

/// A [`Runtime`](weakset_runtime::traits::Runtime) that wraps the
/// simulator and consumes a recording as the client code re-executes:
/// transport calls are matched against the log (re-executed, substituted,
/// or pinned), fault and op regions re-issue the workload item they name,
/// and everything else delegates to the world.
struct ReplayRuntime {
    world: StoreWorld,
    rec: Recording,
    /// The embedded workload's items by region label: what an `op.` or
    /// `fault.` region re-issues.
    items: HashMap<String, Item>,
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
    /// Final membership under the workload's read policy, sorted.
    membership: Vec<u64>,
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

    /// Skips informational entries up to the next marker or transport
    /// entry.
    fn drain_passive(&mut self) {
        while let Some(e) = self.rec.entries.get(self.pos) {
            if matches!(e.ev, RecEvent::Region { .. }) || is_matchable(&e.ev) {
                break;
            }
            self.pos += 1;
        }
        if self.pos >= self.rec.entries.len() {
            self.past_end = true;
        }
    }

    /// The recorded counterpart of the live transport call `live`: the
    /// region's next transport entry, consumed iff it is of the `kind`
    /// the call needs — matching never crosses a region marker. A miss
    /// is a divergence, except beyond a truncated log's end.
    fn counterpart(
        &mut self,
        live: std::fmt::Arguments<'_>,
        kind: fn(&RecEvent) -> bool,
    ) -> Option<RecEvent> {
        self.drain_passive();
        let next = self.rec.entries.get(self.pos).map(|e| e.ev.clone());
        match next.filter(is_matchable) {
            Some(ev) if kind(&ev) => {
                self.pos += 1;
                Some(ev)
            }
            Some(other) => {
                self.diverge(format!("live {live} does not match recorded {other:?}"));
                None
            }
            None => {
                if !self.off_log() {
                    self.diverge(format!(
                        "live {live} has no recorded counterpart before the next region"
                    ));
                }
                None
            }
        }
    }

    /// Reports a live call whose endpoints or payload hash differ from
    /// its recorded counterpart's.
    fn check_call(&mut self, what: &str, live: (NodeId, NodeId, u64), recorded: (u32, u32, u64)) {
        let (from, to, hash) = live;
        let (rec_from, rec_to, rec_hash) = recorded;
        if (rec_from, rec_to) != (from.0, to.0) {
            self.diverge(format!(
                "{what} endpoints diverge: live {from}->{to}, recorded {rec_from}->{rec_to}"
            ));
        }
        if rec_hash != hash {
            self.diverge(format!(
                "{what} payload diverges ({from}->{to}): live {hash:#018x}, recorded {rec_hash:#018x}"
            ));
        }
    }

    /// The next region marker — its index and label — without consuming
    /// anything.
    fn next_region(&self) -> Option<(usize, &str)> {
        self.rec.entries[self.pos..]
            .iter()
            .enumerate()
            .find_map(|(i, e)| match &e.ev {
                RecEvent::Region { label } => Some((self.pos + i, label.as_str())),
                _ => None,
            })
    }

    /// Re-aligns on the region marker at `j`: consumes through it
    /// (reporting any unreplayed transport entries), pins the virtual
    /// clock to the marker's recorded timestamp, and skips the region's
    /// leading passive entries.
    fn enter_region(&mut self, j: usize) {
        let skipped = self.rec.entries[self.pos..j]
            .iter()
            .filter(|e| is_matchable(&e.ev))
            .count();
        if skipped > 0 {
            self.diverge(format!(
                "{skipped} recorded call(s) before entry {j} were not re-issued"
            ));
        }
        let at = SimTime::from_micros(self.rec.entries[j].at_us);
        self.pos = j + 1;
        // Substitute the recorded clock: region boundaries re-occur at
        // the instants the live run observed them.
        if self.world.now() < at {
            self.world.run_until(at);
        }
        self.drain_passive();
    }
}

/// The replay stage: nodes are the recorded roster, the schedule is
/// whatever fault and op regions the log holds next, a mark re-aligns on
/// the log's next region — and refuses the activity when the log has
/// another or none — and the run closes by accounting for every entry
/// the replay did not consume.
impl Stage for ReplayRuntime {
    fn rt(&mut self) -> &mut StoreRt {
        self
    }

    fn nodes(&self) -> (NodeId, Vec<NodeId>) {
        (NodeId(0), recorded_servers(&self.rec))
    }

    fn mark(&mut self, mark: Mark<'_>) -> bool {
        let want = mark.to_string();
        match self.next_region() {
            Some((j, got)) if got == want => {
                self.enter_region(j);
                true
            }
            Some((_, got)) => {
                let detail = format!("expected region '{want}', log has '{got}'");
                self.diverge(detail);
                false
            }
            None => {
                // A truncated log's missing tail is expected; replay runs
                // its completed prefix.
                if !self.rec.truncated {
                    self.diverge(format!("log ends before region '{want}'"));
                }
                self.past_end = true;
                false
            }
        }
    }

    fn origin(&mut self) {}

    /// The log is the schedule: re-issues every fault and op region up to
    /// the next region of another kind, wherever the clock stands.
    fn advance(&mut self, fleet: &Fleet, _: Option<u64>) {
        while let Some((j, label)) = self.next_region() {
            if !label.starts_with("op.") && !label.starts_with("fault.") {
                break;
            }
            let item = self.items.get(label).cloned();
            let unknown = item
                .is_none()
                .then(|| format!("recorded region '{label}' is not in the workload"));
            self.enter_region(j);
            match item {
                Some(Item::Fault(action)) => {
                    self.world.apply_fault(action);
                    self.world.metrics_mut().incr(names::FAULT_APPLIED);
                }
                Some(Item::Op(op)) => fleet.apply_op(self, op),
                None => {}
            }
            if let Some(detail) = unknown {
                self.diverge(detail);
            }
        }
    }

    fn settle(&mut self, fleet: &Fleet) {
        self.membership = final_membership(self, fleet);
        // Anything still unconsumed means the replay issued fewer calls
        // than the live run — a divergence unless the log is truncated.
        let leftover = self.rec.entries[self.pos..]
            .iter()
            .filter(|e| is_matchable(&e.ev))
            .count();
        if leftover > 0 && !self.rec.truncated {
            self.diverge(format!(
                "{leftover} recorded call(s) were never re-issued by the replay"
            ));
        }
        self.world.run_to_quiescence();
    }

    fn close(&mut self, _: &mut Vec<String>) -> Closed {
        let consumed = self.pos as u64;
        self.world
            .metrics_mut()
            .add(names::ENTRIES_CONSUMED, consumed);
        let at = self.world.now().as_micros();
        let unclosed = self.world.events_mut().finish(at);
        if !unclosed.is_empty() {
            self.diverge(format!(
                "{} span(s) left open at end of replay",
                unclosed.len()
            ));
        }
        Closed {
            trace_hash: self.world.trace_hash(),
            sim_time_us: at,
            metrics: std::mem::take(self.world.metrics_mut()),
            events: self.world.events_mut().take_events(),
        }
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
        let Some(RecEvent::Rpc {
            from: rec_from,
            to: rec_to,
            req_hash,
            outcome,
            elapsed_us,
        }) = self.counterpart(format_args!("rpc {from}->{to}"), |e| {
            matches!(e, RecEvent::Rpc { .. })
        })
        else {
            return self.world.rpc(from, to, msg, timeout);
        };
        self.check_call(
            "rpc request",
            (from, to, hash_debug(&msg)),
            (rec_from, rec_to, req_hash),
        );
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
        let Some(RecEvent::Send {
            from: rec_from,
            to: rec_to,
            req_hash,
            token,
        }) = self.counterpart(format_args!("send {from}->{to}"), |e| {
            matches!(e, RecEvent::Send { .. })
        })
        else {
            return self.world.send(from, to, msg);
        };
        self.check_call(
            "send",
            (from, to, hash_debug(&msg)),
            (rec_from, rec_to, req_hash),
        );
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

    fn abandon(&mut self, token: ReplyToken) {
        self.world.abandon(token)
    }

    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        let Some(RecEvent::WaitAny { winner, elapsed_us }) = self
            .counterpart(format_args!("wait_any"), |e| {
                matches!(e, RecEvent::WaitAny { .. })
            })
        else {
            return self.world.wait_any(tokens, deadline);
        };
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

/// Spawned tasks run against the bare world (not the replayer), through
/// the simulator's own [`Spawner`]: nothing in a Plain or Sharded
/// deployment spawns, so recorded `TimerFired` entries stay
/// informational.
impl Spawner<StoreMsg> for ReplayRuntime {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<StoreMsg>>) {
        Spawner::spawn_in(&mut self.world, d, task);
    }
}

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
/// An unparsable embedded workload, a Gossip deployment, a node
/// roster that does not fit the workload, or a prelude (collection
/// creation, setup adds) the log does not let succeed.
pub fn replay_recording(rec: &Recording) -> Result<ReplayReport, String> {
    let s = Scenario::from_ron(&rec.workload).map_err(|e| format!("embedded workload: {e}"))?;
    if matches!(s.deployment, Deployment::Gossip { .. }) {
        return Err(NO_GOSSIP.into());
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
    // the raw ids in the log (client 0, servers after it).
    let mut t = Topology::new();
    for (i, name) in rec.nodes.iter().enumerate() {
        t.add_node(name.clone(), i as u32);
    }
    let mut world = StoreWorld::new(rec.seed, t, LatencyModel::Constant(ms(1)));
    world.events_mut().set_enabled(true);
    let mut stage = ReplayRuntime {
        world,
        rec: rec.clone(),
        items: labelled_workload(&s, &recorded_servers(rec))
            .into_iter()
            .map(|(_, labelled)| labelled)
            .collect(),
        pos: 0,
        token_map: HashMap::new(),
        divergences: Vec::new(),
        past_end: false,
        membership: Vec::new(),
    };
    let mut report = drive(&s, &mut stage)?;
    report.seed = rec.seed;
    Ok(ReplayReport {
        report,
        membership: stage.membership,
        divergences: stage.divergences,
    })
}

// ---------------------------------------------------------------------
// Shrinking the recording
// ---------------------------------------------------------------------

/// Removes every region whose marker carries one of `labels`: the
/// marker and everything after it up to the next marker.
fn remove_regions(entries: &[RecEntry], labels: &[String]) -> Vec<RecEntry> {
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

/// Drops workload item `i` of `field` from both the scenario and the
/// recording: the item leaves the embedded workload, and its regions
/// (by intrinsic label) leave the log.
fn drop_item((rec, s): &(Recording, Scenario), field: Field, i: usize) -> (Recording, Scenario) {
    let labels: Vec<String> = match field {
        Field::Faults => s.faults[i]
            .actions(&recorded_servers(rec))
            .map(|edge| edge.to_string())
            .collect(),
        Field::Ops => vec![Mark::Op(&s.ops[i]).to_string()],
        Field::Setup => vec![Mark::Setup(s.setup[i].0, s.setup[i].1).to_string()],
    };
    let mut s2 = s.clone();
    field.remove(&mut s2, i);
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
    let violates =
        |r: &Recording| replay_recording(r).is_ok_and(|rep| !rep.report.violations.is_empty());
    if !violates(rec) {
        return (rec.clone(), 1);
    }
    let s = Scenario::from_ron(&rec.workload).expect("a recording that replays has a workload");
    let ((best, _), execs) = shrink_by((rec.clone(), s), |c| &c.1, drop_item, |c| violates(&c.0));
    (best, execs + 1)
}

// ---------------------------------------------------------------------
// Artifact files
// ---------------------------------------------------------------------

/// Where a recording with the given id lives under `dir`
/// (`rec-<id>.ron`, next to the scenario repro artifacts).
fn rec_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("rec-{id}.ron"))
}

/// Writes the recording to `dir/rec-<seed>.ron`, creating `dir` when
/// needed.
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
    use crate::scenario::{Chaos, FaultSpec, Link};
    use weakset::prelude::Semantics;
    use weakset_store::prelude::ReadPolicy;

    #[test]
    fn workload_orders_by_due_time_fault_edges_first() {
        let s = Scenario {
            seed: 1,
            servers: 2,
            deployment: Deployment::Plain,
            semantics: Semantics::Snapshot,
            read_policy: ReadPolicy::Primary,
            guard_growth: false,
            fetch_order: weakset::prelude::FetchOrder::IdOrder,
            window: 1,
            link: Link::DEFAULT,
            bandwidth: None,
            file_size: None,
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
        let servers = [NodeId(1), NodeId(2)];
        let sched: Vec<(u64, String)> = labelled_workload(&s, &servers)
            .into_iter()
            .map(|(at, (label, _))| (at, label))
            .collect();
        let want = [
            (5, "fault.out.5.0.3.down"),
            (5, "op.5.add.9.0"),
            (8, "fault.out.5.0.3.up"),
        ];
        assert_eq!(sched, want.map(|(at, l)| (at, l.to_string())));
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
        assert_eq!(Mark::Op(&add).to_string(), "op.7.add.3.1");
        assert_eq!(Mark::Op(&rm).to_string(), "op.7.rm.3");
        assert_eq!(Mark::Setup(3, 1).to_string(), "setup.3.1");
        assert_eq!(Mark::Inv(12).to_string(), "inv.12");
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
            window: 1,
            link: Link::DEFAULT,
            bandwidth: None,
            file_size: None,
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
        assert!(replay_recording(&rec).unwrap_err().contains("Gossip"));
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

    /// The fleet builder is the driver's, not a stage's, so the threaded
    /// stage runs every deployment — oracle on — even though
    /// `record_scenario` still refuses Gossip, which replay v1 cannot
    /// re-drive.
    #[test]
    fn quiet_sharded_and_gossip_runs_conform_on_threads() {
        let gossip = Deployment::Gossip {
            grow_only: false,
            merkle: false,
        };
        for (deployment, servers, semantics, read_policy, computations) in [
            (
                Deployment::Sharded { shards: 2 },
                4,
                Semantics::Snapshot,
                ReadPolicy::Quorum,
                1,
            ),
            (gossip, 3, Semantics::Optimistic, ReadPolicy::Leaderless, 1),
        ] {
            let s = Scenario {
                seed: 0x7EAD,
                servers,
                deployment,
                semantics,
                read_policy,
                guard_growth: false,
                fetch_order: weakset::prelude::FetchOrder::IdOrder,
                window: 1,
                link: Link::DEFAULT,
                bandwidth: None,
                file_size: None,
                think_ms: 1,
                budget: 16,
                start_ms: 60,
                setup: (1..=6).map(|i| (i, i as usize - 1)).collect(),
                ops: vec![Op::Add {
                    at_ms: 5,
                    elem: 7,
                    home: 2,
                }],
                faults: vec![],
                chaos: Chaos::None,
            };
            let mut stage = Threads::new(&s);
            let report = drive(&s, &mut stage).expect("faultless prelude");
            assert_eq!(report.violations, Vec::<String>::new(), "{deployment:?}");
            assert_eq!(report.computations.len(), computations, "{deployment:?}");
            let mut yielded = report.yielded;
            yielded.sort_unstable();
            assert_eq!(yielded, (1..=7).collect::<Vec<u64>>(), "{deployment:?}");
            assert_eq!(stage.membership, yielded, "{deployment:?}");
        }
    }
}
