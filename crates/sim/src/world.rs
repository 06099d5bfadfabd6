//! The simulation world: clock, event queue, network, services, and the
//! synchronous RPC primitive.
//!
//! # Execution model
//!
//! The paper models each procedure/iterator invocation as *atomic* from the
//! caller's point of view, while other processes (mutators) and failures
//! interleave *between* invocations and while messages are in flight. The
//! world realizes this with a single-threaded discrete-event loop:
//!
//! * `World` is a [`Runtime`](crate::traits::Runtime): it implements the
//!   boundary traits of [`crate::traits`] itself, so `&mut World<M>`
//!   coerces to `&mut dyn Runtime<M>`. Client code runs synchronously: it
//!   [`Transport::send`]s a request and calls [`Transport::wait_any`],
//!   which pumps the event queue until the reply arrives or the deadline
//!   passes ([`Transport::rpc`] is exactly that pair). While pumping,
//!   *other* scheduled work (tasks queued with [`World::spawn_at`] or
//!   [`Spawner::spawn_in`], fault-plan actions) fires in timestamp order,
//!   so concurrency and failures genuinely interleave with the client's
//!   RPCs.
//! * Every task is an [`RtTask`], and background work is woken: it never
//!   pumps the event loop itself. A task runs one step at a time, and the
//!   [`Wake`] each step returns re-queues the same box: at a later
//!   instant, or when a reply lands or its deadline passes (the gossip
//!   engine's rounds). So a foreground wait that fires a task resumes at
//!   the instant its own reply or deadline fires. A wait that begins
//!   inside a dispatched task would hold the wait that fired it until it
//!   ends; it counts `sim.wait.nested`, and no runtime task makes one.
//! * Servers are [`Service`] implementations installed per node; handlers
//!   run at message-delivery time and are local (no nested RPC from a
//!   handler — multi-node operations are orchestrated by clients, as in the
//!   paper's client/server RPC model).
//! * Determinism: all randomness comes from labelled [`SimRng`] streams
//!   derived from the run seed, and event ties break by insertion order.

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultPlan};
use crate::latency::LatencyModel;
use crate::metrics::{EventSink, Label, Metrics, SpanId, TraceContext};
use crate::net::NetError;
use crate::node::NodeId;
use crate::requests::{Account, Books, Requests};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent};
use crate::traits::{Clock, Observe, RtMessage, RtTask, ServiceHost, Spawner, Transport, Wake};
use std::any::Any;

pub use crate::requests::ReplyToken;

/// A message handler installed on a node.
///
/// Handlers are local: they mutate their own state and return a reply. They
/// must also be [`Any`] so tests and workloads can downcast a node's service
/// to its concrete type via [`World::service`].
pub trait Service<M>: Any {
    /// Handles one request from `from`, producing the reply.
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: M) -> M;

    /// Handles `msg` right now, on whichever thread asks, when that is
    /// bounded work.
    ///
    /// Contract: `Ok(r)` is exactly what [`Service::handle`] would have
    /// replied *and done* in the same state, and the call neither blocks
    /// nor sleeps. `Err(msg)` hands the request back untouched, state
    /// unchanged: "use the mailbox". That is always a correct answer and
    /// is what the default gives, so a service that does not opt in is
    /// served by `handle` alone.
    ///
    /// A backend may call this from the *requesting* thread while it
    /// holds the service between two `handle` executions (the threaded
    /// runtime does, see `weakset-runtime`'s `threaded` module), with the
    /// `ctx` `handle` would get. The simulator never calls it.
    fn serve_inline(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: M) -> Result<M, M> {
        Err(msg)
    }
}

/// Context passed to a [`Service`] handler. It carries no time, so a
/// backend builds one without reading a clock.
#[derive(Debug)]
pub struct ServiceCtx<'a> {
    /// The node this service runs on.
    pub node: NodeId,
    /// Deterministic randomness for the handler.
    pub rng: &'a mut SimRng,
}

/// How long failure detection takes: a request to a node with no route
/// to it, or a crashed one, fails this long after it was sent (the paper
/// assumes failures are detectable from lower layers).
const DETECT_DELAY: SimDuration = SimDuration::from_millis(2);

/// The world's requests, and the tasks woken on their replies.
type Table<M> = Requests<M, Box<dyn RtTask<M>>>;

/// The simulation world. Generic over the message type `M` exchanged between
/// clients and services.
pub struct World<M: RtMessage> {
    now: SimTime,
    queue: EventQueue<M>,
    topology: Topology,
    /// Indexed by the dense [`NodeId`]; `None` where nothing is installed
    /// (or while the node's handler is running).
    services: Vec<Option<Box<dyn Service<M>>>>,
    /// Every request's life cycle, and the tasks waiting on a reply.
    requests: Table<M>,
    /// How many dispatched tasks are running: a wait that begins while
    /// one is counts `sim.wait.nested`.
    tasks_running: u32,
    latency: LatencyModel,
    lat_rng: SimRng,
    drop_rng: SimRng,
    svc_rng: SimRng,
    /// Seed from which every random stream is derived.
    seed: u64,
    /// The run's determinism fingerprint, folded as events happen.
    trace: Trace,
    metrics: Metrics,
    events: EventSink,
    /// Stack of open causal spans; the top is the context new spans and
    /// outgoing messages inherit. Dispatched work (a task, a service
    /// handler) sees only the entries from `ctx_base` up, so background
    /// work never parents under the pumping RPC; one stack serves every
    /// nesting level, so dispatching allocates nothing.
    ctx: Vec<TraceContext>,
    /// Where the running work's part of `ctx` starts.
    ctx_base: usize,
    /// Link throughput in bytes per millisecond; `None` = infinite.
    bandwidth_bytes_per_ms: Option<u64>,
    /// Measures a message's wire size for transfer-time charging.
    #[allow(clippy::type_complexity)]
    sizer: Option<Box<dyn Fn(&M) -> usize>>,
}

impl<M: RtMessage> World<M> {
    /// Creates a world over a topology with the given latency model;
    /// every random stream of the run is derived from `seed`.
    pub fn new(seed: u64, topology: Topology, latency: LatencyModel) -> Self {
        World {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            topology,
            services: Vec::new(),
            requests: Requests::default(),
            tasks_running: 0,
            latency,
            lat_rng: SimRng::for_label(seed, "latency"),
            drop_rng: SimRng::for_label(seed, "drops"),
            svc_rng: SimRng::for_label(seed, "service"),
            seed,
            trace: Trace::new(),
            metrics: Metrics::new(),
            events: EventSink::new(),
            ctx: Vec::new(),
            ctx_base: 0,
            bandwidth_bytes_per_ms: None,
            sizer: None,
        }
    }

    /// Models finite link throughput: every message is charged an extra
    /// `size / bytes_per_ms` of one-way delay, where `size` comes from
    /// `sizer`. Links have infinite capacity (no queueing between
    /// concurrent transfers); the charge is pure serialization delay, so
    /// big payloads cost more than small ones — the paper's file fetches.
    pub fn set_bandwidth(&mut self, bytes_per_ms: u64, sizer: impl Fn(&M) -> usize + 'static) {
        assert!(bytes_per_ms > 0, "bandwidth must be positive");
        self.bandwidth_bytes_per_ms = Some(bytes_per_ms);
        self.sizer = Some(Box::new(sizer));
    }

    fn transfer_delay(&self, msg: &M) -> SimDuration {
        match (self.bandwidth_bytes_per_ms, &self.sizer) {
            (Some(bpm), Some(sizer)) => {
                let bytes = sizer(msg) as u64;
                SimDuration::from_micros(bytes.saturating_mul(1000) / bpm)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Read access to the network graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the network graph (tests and fault injection).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The structured event sink. Disabled by default; enable with
    /// [`World::events_mut`] + [`EventSink::set_enabled`] to record
    /// fault transitions and task runs keyed by sim time.
    pub fn events(&self) -> &EventSink {
        &self.events
    }

    /// Mutable access to the event sink (enable/disable, client spans).
    pub fn events_mut(&mut self) -> &mut EventSink {
        &mut self.events
    }

    /// Opens a causal span under the current context (or as a fresh
    /// trace root when none is open) and makes it the current context.
    /// `detail` is built only when the sink records, and a short one
    /// (a [`NodeId::label`] or [`NodeId::link_label`]) is built in place:
    /// neither a disabled sink nor an enabled one allocates for it.
    /// Pair with [`Observe::span_exit`].
    pub fn span_enter<D: Into<Label>>(&mut self, kind: &str, detail: impl FnOnce() -> D) -> SpanId {
        let parent = self.current_ctx();
        self.span_enter_under(parent, kind, detail)
    }

    /// Opens a causal span under an explicit parent context (e.g. an
    /// iterator's stored trace root) and makes it the current context.
    pub fn span_enter_under<D: Into<Label>>(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: impl FnOnce() -> D,
    ) -> SpanId {
        let at = self.now.as_micros();
        let d = if self.events.is_enabled() {
            detail().into()
        } else {
            Label::default()
        };
        let ctx = self.events.begin_span(at, kind, d, parent);
        self.ctx.push(ctx);
        ctx.span
    }

    /// Records a point event attributed to the current causal context.
    /// No-op when the sink is disabled; `detail` is built only when it
    /// records, and a short one allocates nothing (see
    /// [`World::span_enter`]).
    pub fn trace_event<D: Into<Label>>(&mut self, kind: &str, detail: impl FnOnce() -> D) {
        if self.events.is_enabled() {
            let ctx = self.current_ctx();
            self.events
                .event_in(self.now.as_micros(), kind, detail().into(), ctx);
        }
    }

    /// Starts a level of dispatched work that sees `ctx` alone; returns
    /// the outer level for [`World::end_dispatched`].
    fn begin_dispatched(&mut self, ctx: Option<TraceContext>) -> usize {
        let outer = std::mem::replace(&mut self.ctx_base, self.ctx.len());
        self.ctx.extend(ctx);
        outer
    }

    /// Drops whatever the work left on the stack; restores `outer`.
    fn end_dispatched(&mut self, outer: usize) {
        self.ctx.truncate(self.ctx_base);
        self.ctx_base = outer;
    }

    /// Downcasts the service on `node` to a concrete type.
    pub fn service<T: 'static>(&self, node: NodeId) -> Option<&T> {
        let svc: &dyn Any = self.services.get(node.index())?.as_deref()?;
        svc.downcast_ref()
    }

    /// Mutable downcast of the service on `node`.
    pub fn service_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        let svc: &mut dyn Any = self.services.get_mut(node.index())?.as_deref_mut()?;
        svc.downcast_mut()
    }

    /// Schedules a task to run at `t`, or now if `t` has passed, and
    /// again at each [`Wake`] its runs return.
    pub fn spawn_at(&mut self, t: SimTime, task: Box<dyn RtTask<M>>) {
        self.queue.push(t.max(self.now), EventKind::Task(task));
    }

    /// Fires `task` when the reply under `token` lands, or at `deadline`
    /// if that comes first. At the deadline the request ends as a
    /// timed-out one does, and the task finds nothing under the token;
    /// the reply, if it comes first, cancels the deadline. A reply
    /// already in fires the task at once.
    fn wake_on_reply(&mut self, token: ReplyToken, deadline: SimTime, task: Box<dyn RtTask<M>>) {
        match self.requests.wake_on_reply(token, task) {
            Some(task) => self.spawn_at(self.now, task),
            None => self
                .queue
                .push(deadline.max(self.now), EventKind::Deadline(token)),
        }
    }

    /// Schedules one fault action.
    pub fn schedule_fault(&mut self, t: SimTime, action: FaultAction) {
        let at = if t < self.now { self.now } else { t };
        self.queue.push(at, EventKind::Fault(action));
    }

    /// Installs every action of a fault plan.
    pub fn install_plan(&mut self, plan: &FaultPlan) {
        for (t, a) in plan.actions() {
            self.schedule_fault(*t, a.clone());
        }
    }

    /// The determinism fingerprint of everything that has happened so
    /// far: a 64-bit digest of every RPC, fault action and task firing
    /// with its simulated time, folded as each happened. Two runs of the
    /// same `(seed, workload, fault plan)` must report equal
    /// fingerprints; `weakset-dst` fails a run whose replay diverges.
    pub fn trace_hash(&self) -> u64 {
        self.trace.hash()
    }

    /// Fires the earliest pending event if it is due at or before
    /// `deadline`, moving the clock to it; `false` when none is.
    fn fire_next(&mut self, deadline: SimTime) -> bool {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => {
                let (_, kind) = self.queue.pop().expect("peeked event vanished");
                self.now = t;
                self.dispatch(kind);
                true
            }
            _ => false,
        }
    }

    /// Advances simulated time to `deadline`, firing every event scheduled
    /// before or at it.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.note_wait();
        while self.fire_next(deadline) {}
        self.now = self.now.max(deadline);
    }

    /// Fires every remaining event.
    pub fn run_to_quiescence(&mut self) {
        while self.fire_next(SimTime::MAX) {}
    }

    /// The request table, and the books its accounts are written into
    /// now.
    fn requests(&mut self) -> (&mut Table<M>, Books<'_, impl Fn() -> SimTime>) {
        let now = self.now;
        let books = Books::new(&mut self.metrics, &mut self.events, move || now);
        let books = books.traced(&mut self.trace);
        (&mut self.requests, books)
    }

    /// The request under `token` ends with `result`, or as a timeout when
    /// its message was lost (`None`). A task its reply wakes fires now,
    /// and its deadline is cancelled.
    fn complete(&mut self, token: ReplyToken, result: Option<Result<M, NetError>>) {
        let (requests, books) = self.requests();
        if let Some(task) = requests.complete(token, result, books) {
            self.queue
                .retain(|e| !matches!(e, EventKind::Deadline(t) if *t == token));
            self.fire_task(task);
        }
    }

    /// Puts a routed request on the wire under `token`: lost at the
    /// link's drop rate, else delivered one sampled latency from now,
    /// under `ctx`.
    fn transmit(
        &mut self,
        token: ReplyToken,
        from: NodeId,
        to: NodeId,
        msg: M,
        ctx: Option<TraceContext>,
    ) {
        if self.drop_rng.chance(self.topology.link(from, to).drop_prob) {
            // Never completes; the caller's deadline applies.
            self.lose(from, to, ctx, token);
            return;
        }
        let lat = self.latency.sample(
            self.topology.node(from),
            self.topology.node(to),
            &mut self.lat_rng,
        ) + self.transfer_delay(&msg);
        self.queue.push(
            self.now + lat,
            EventKind::Deliver {
                from,
                to,
                msg,
                token,
                ctx,
            },
        );
    }

    /// A message from `from` to `to`, for `token`, is lost: counted,
    /// traced, and recorded under `ctx` when the sink records.
    fn lose(&mut self, from: NodeId, to: NodeId, ctx: Option<TraceContext>, token: ReplyToken) {
        self.trace
            .record(self.now, TraceEvent::MessageLost { from, to });
        self.metrics.incr("msg.dropped");
        if self.events.is_enabled() {
            self.events.event_in(
                self.now.as_micros(),
                "net.msg.lost",
                from.link_label(to),
                ctx,
            );
        }
        self.complete(token, None);
    }

    /// A wait begins: nested when a dispatched task is running, which
    /// then holds whichever wait fired it until this one ends.
    fn note_wait(&mut self) {
        if self.tasks_running > 0 {
            self.metrics.incr("sim.wait.nested");
        }
    }

    /// Runs one step of a task now, rooting its own traces: with an
    /// empty context stack. The [`Wake`] it returns re-queues its box.
    fn fire_task(&mut self, mut task: Box<dyn RtTask<M>>) {
        let label = task.label();
        if self.events.is_enabled() {
            self.events.event(self.now.as_micros(), "sim.task", label);
        }
        self.trace.record(self.now, TraceEvent::TaskRan { label });
        let outer = self.begin_dispatched(None);
        self.tasks_running += 1;
        let wake = task.run(self);
        self.tasks_running -= 1;
        self.end_dispatched(outer);
        match wake {
            Wake::Never => {}
            Wake::At(t) => self.spawn_at(t, task),
            Wake::Reply(token, deadline) => self.wake_on_reply(token, deadline, task),
        }
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        self.metrics.incr("sim.dispatch.total");
        self.metrics
            .gauge_max("sim.queue.depth.max", self.queue.len() as u64);
        match kind {
            EventKind::CompleteError { token, error } => {
                self.metrics.incr("sim.dispatch.complete_error");
                self.complete(token, Some(Err(error)));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                token,
                ctx,
            } => {
                self.metrics.incr("sim.dispatch.deliver");
                // Mid-flight state changes: the message dies if the route or
                // the server vanished while it travelled.
                if !self.topology.reachable(from, to) {
                    self.lose(from, to, ctx, token);
                    return;
                }
                let Some(mut svc) = self.services.get_mut(to.index()).and_then(Option::take) else {
                    self.trace
                        .record(self.now, TraceEvent::MessageLost { from, to });
                    self.metrics.incr("msg.no_service");
                    self.complete(token, None);
                    return;
                };
                // Handlers run under the *message's* context, not
                // whatever span the pumping client has open.
                let outer = self.begin_dispatched(ctx);
                let span = self.span_enter("svc.handle", || to.label());
                let reply = {
                    let mut ctx = ServiceCtx {
                        node: to,
                        rng: &mut self.svc_rng,
                    };
                    svc.handle(&mut ctx, from, msg)
                };
                self.span_exit(span);
                self.end_dispatched(outer);
                self.services[to.index()] = Some(svc);
                self.trace
                    .record(self.now, TraceEvent::RpcHandled { from, to });
                // Reply drop sampling uses the same link.
                if self.drop_rng.chance(self.topology.link(to, from).drop_prob) {
                    self.lose(to, from, ctx, token);
                    return;
                }
                let lat = self.latency.sample(
                    self.topology.node(to),
                    self.topology.node(from),
                    &mut self.lat_rng,
                ) + self.transfer_delay(&reply);
                self.queue.push(
                    self.now + lat,
                    EventKind::ReplyArrive {
                        from: to,
                        to: from,
                        msg: reply,
                        token,
                        ctx,
                    },
                );
            }
            EventKind::ReplyArrive {
                from,
                to,
                msg,
                token,
                ctx,
            } => {
                self.metrics.incr("sim.dispatch.reply");
                if !self.topology.reachable(from, to) {
                    self.lose(from, to, ctx, token);
                    return;
                }
                self.complete(token, Some(Ok(msg)));
            }
            EventKind::Fault(action) => {
                self.metrics.incr("sim.dispatch.fault");
                self.apply_fault(action);
            }
            EventKind::Task(task) => {
                self.metrics.incr("sim.dispatch.task");
                self.fire_task(task);
            }
            EventKind::Deadline(token) => {
                self.metrics.incr("sim.dispatch.deadline");
                let (requests, books) = self.requests();
                let task = requests.deadline(token, books);
                self.fire_task(task);
            }
        }
    }

    /// Applies one fault now, as a fired [`FaultPlan`] entry does: the
    /// topology changes, and the change is counted, traced and recorded
    /// as a `sim.fault.*` event.
    pub fn apply_fault(&mut self, action: FaultAction) {
        let kind = match &action {
            FaultAction::Crash(_) => "sim.fault.crash",
            FaultAction::Restart(_) => "sim.fault.restart",
            FaultAction::SetLink(..) => "sim.fault.set_link",
            FaultAction::Partition(_) => "sim.fault.partition",
            FaultAction::HealPartition => "sim.fault.heal_partition",
            FaultAction::SetGroup(..) => "sim.fault.set_group",
        };
        self.metrics.incr(kind);
        if self.events.is_enabled() {
            let detail = match &action {
                FaultAction::Crash(n) | FaultAction::Restart(n) | FaultAction::SetGroup(n, _) => {
                    n.to_string()
                }
                FaultAction::SetLink(a, b, state) => {
                    format!("{a}->{b} {}", if state.up { "up" } else { "down" })
                }
                // Name the isolated side so failure explanations can tie
                // an unreachable member back to this exact event.
                FaultAction::Partition(side) => {
                    let nodes: Vec<String> = side.iter().map(|n| n.to_string()).collect();
                    format!("[{}]", nodes.join(","))
                }
                FaultAction::HealPartition => String::new(),
            };
            self.events.event(self.now.as_micros(), kind, detail);
        }
        action.apply_to(&mut self.topology);
        let ev = match &action {
            FaultAction::Crash(n) => TraceEvent::NodeCrashed(*n),
            FaultAction::Restart(n) => TraceEvent::NodeRestarted(*n),
            FaultAction::SetLink(a, b, _) => TraceEvent::LinkChanged(*a, *b),
            FaultAction::Partition(side) => TraceEvent::PartitionImposed(side),
            FaultAction::HealPartition => TraceEvent::PartitionHealed,
            FaultAction::SetGroup(n, _) => TraceEvent::GroupChanged(*n),
        };
        self.trace.record(self.now, ev);
    }
}

impl<M: RtMessage> Clock for World<M> {
    fn now(&self) -> SimTime {
        self.now
    }

    /// Sleeps the calling client for `d`, letting background work fire.
    fn sleep(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    fn rng_for(&self, label: &str) -> SimRng {
        SimRng::for_label(self.seed, label)
    }
}

impl<M: RtMessage> Observe for World<M> {
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn span_enter_under(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: &dyn Fn() -> String,
    ) -> SpanId {
        World::span_enter_under(self, parent, kind, detail)
    }

    fn span_exit(&mut self, id: SpanId) {
        let top = self.ctx.pop();
        debug_assert_eq!(top.map(|c| c.span), Some(id), "span_exit out of LIFO order");
        self.events.end_span(self.now.as_micros(), id);
    }

    /// The innermost open span of the running work, which outgoing
    /// messages and child spans inherit.
    fn current_ctx(&self) -> Option<TraceContext> {
        self.ctx[self.ctx_base..].last().copied()
    }

    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String) {
        World::trace_event(self, kind, detail)
    }
}

impl<M: RtMessage> Transport<M> for World<M> {
    /// Sends a request *asynchronously*: the message is launched and a
    /// token is returned immediately, without advancing time. Use
    /// [`Transport::try_take_reply`] or [`Transport::wait_any`] to collect
    /// the reply. Several requests can be in flight at once — this is how
    /// dynamic sets fetch member objects in parallel.
    ///
    /// A crashed caller sends nothing: its request fails at once with
    /// [`NetError::NodeDown`] of `from`, unaccounted. A request to a node
    /// with no route to it, or a crashed one, completes with that error
    /// after the 2 ms detection delay. A message lost in flight, or sent
    /// to a node with no service, ends its request as a timeout, which
    /// its caller sees at its own deadline. Every other request is
    /// accounted where it ends, in the [`Requests`] table; its `net.rpc`
    /// span opens now, under the current context, without becoming
    /// current.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> ReplyToken {
        let routed = self.topology.route(from, to);
        if routed == Err(NetError::NodeDown(from)) {
            return self.requests.park(Err(NetError::NodeDown(from)));
        }
        self.trace
            .record(self.now, TraceEvent::RpcSend { from, to });
        self.metrics.incr("rpc.sent");
        let detail = if self.events.is_enabled() {
            from.link_label(to)
        } else {
            Label::default()
        };
        let parent = self.current_ctx();
        let span = self
            .events
            .begin_span(self.now.as_micros(), "net.rpc", detail, parent);
        let token = self.requests.open(Account {
            from,
            to,
            started: Some(self.now),
            span: Some(span),
        });
        match routed {
            Ok(()) => self.transmit(token, from, to, msg, Some(span)),
            Err(error) => self.queue.push(
                self.now + DETECT_DELAY,
                EventKind::CompleteError { token, error },
            ),
        }
        token
    }

    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<M, NetError>> {
        self.requests.take(token)
    }

    /// Pumps the event loop until one of `tokens` completes or `deadline`
    /// passes.
    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        self.note_wait();
        loop {
            if let Some(&t) = tokens.iter().find(|&&t| self.requests.is_done(t)) {
                return Some(t);
            }
            if !self.fire_next(deadline) {
                self.now = self.now.max(deadline);
                return None;
            }
        }
    }

    fn abandon(&mut self, token: ReplyToken) {
        let (requests, books) = self.requests();
        requests.abandon(token, books);
    }

    fn estimate_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.latency
            .estimate(self.topology.node(a), self.topology.node(b))
    }
}

impl<M: RtMessage> ServiceHost<M> for World<M> {
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<M> + Send>) {
        if self.services.len() <= node.index() {
            self.services.resize_with(node.index() + 1, || None);
        }
        self.services[node.index()] = Some(svc);
    }

    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn Any)) -> bool {
        let svc = self.services.get(node.index()).and_then(Option::as_deref);
        svc.map(|svc| f(svc)).is_some()
    }

    fn with_service_any_mut(&mut self, node: NodeId, f: &mut dyn FnMut(&mut dyn Any)) -> bool {
        let svc = self.services.get_mut(node.index());
        svc.and_then(Option::as_deref_mut)
            .map(|svc| f(svc))
            .is_some()
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.topology.is_up(node)
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.topology.reachable(from, to)
    }
}

impl<M: RtMessage> Spawner<M> for World<M> {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<M>>) {
        self.spawn_at(self.now + d, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkState;
    use crate::net::BatchEnvelope;
    use crate::traits::{Runtime, RuntimeExt, TaskFn};
    use std::sync::{Arc, Mutex};
    use Msg::{Batch, Val};

    /// A protocol with a batch variant, as `StoreMsg` has.
    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Val(u64),
        Batch(Vec<Msg>),
    }
    impl BatchEnvelope for Msg {
        fn wrap_batch(parts: Vec<Self>) -> Self {
            Batch(parts)
        }
        fn unwrap_batch(self) -> Result<Vec<Self>, Self> {
            match self {
                Batch(parts) => Ok(parts),
                other => Err(other),
            }
        }
    }

    /// A service that echoes the request plus one, part by part.
    struct PlusOne;
    impl Service<Msg> for PlusOne {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
            fn one(m: Msg) -> Msg {
                match m {
                    Val(n) => Val(n + 1),
                    Batch(parts) => Batch(parts.into_iter().map(one).collect()),
                }
            }
            one(msg)
        }
    }

    /// A counting [`PlusOne`], for downcast tests.
    struct Counter {
        hits: u64,
    }
    impl Service<Msg> for Counter {
        fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: Msg) -> Msg {
            self.hits += 1;
            PlusOne.handle(ctx, from, msg)
        }
    }

    /// The timeout of a test rpc that is not about timeouts.
    const TIMEOUT: SimDuration = SimDuration::from_millis(100);

    /// A task that runs `f` once.
    fn once(mut f: impl FnMut(&mut dyn Runtime<Msg>) + Send + 'static) -> Box<dyn RtTask<Msg>> {
        Box::new(TaskFn(move |rt: &mut (dyn Runtime<Msg> + 'static)| {
            f(rt);
            Wake::Never
        }))
    }

    fn two_node_world() -> (World<Msg>, NodeId, NodeId) {
        let mut t = Topology::new();
        let client = t.add_node("client", 0);
        let server = t.add_node("server", 1);
        let mut w = World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(server, Box::new(PlusOne));
        (w, client, server)
    }

    #[test]
    fn rpc_round_trips_and_advances_time() {
        let (mut w, c, s) = two_node_world();
        let r = w.rpc(c, s, Val(41), TIMEOUT);
        assert_eq!(r, Ok(Val(42)));
        // One-way 5ms, round trip 10ms.
        assert_eq!(w.now(), SimTime::from_millis(10));
        assert_eq!(w.metrics().counter("rpc.ok"), 1);
    }

    #[test]
    fn rpc_to_crashed_server_fails() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().crash(s);
        let r = w.rpc(c, s, Val(1), TIMEOUT);
        assert_eq!(r, Err(NetError::NodeDown(s)));
    }

    #[test]
    fn rpc_from_crashed_client_fails_locally() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().crash(c);
        assert_eq!(w.rpc(c, s, Val(1), TIMEOUT), Err(NetError::NodeDown(c)));
    }

    #[test]
    fn partition_gives_unreachable_after_the_detection_delay() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().partition(&[s]);
        let r = w.rpc(c, s, Val(1), TIMEOUT);
        assert_eq!(r, Err(NetError::Unreachable { from: c, to: s }));
        // Detection took DETECT_DELAY, not the whole timeout.
        assert_eq!(w.now(), SimTime::from_millis(2));
    }

    #[test]
    fn missing_service_times_out() {
        let (mut w, c, _s) = two_node_world();
        let extra = w.topology_mut().add_node("empty", 2);
        let r = w.rpc(c, extra, Val(7), SimDuration::from_millis(20));
        assert_eq!(r, Err(NetError::Timeout));
    }

    #[test]
    fn lossy_link_eventually_times_out() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        t.set_link(c, s, LinkState::lossy(1.0));
        let mut w: World<Msg> =
            World::new(3, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(s, Box::new(PlusOne));
        assert_eq!(
            w.rpc(c, s, Val(1), SimDuration::from_millis(10)),
            Err(NetError::Timeout)
        );
        assert!(w.metrics().counter("msg.dropped") >= 1);
    }

    #[test]
    fn mid_flight_crash_loses_message() {
        let (mut w, c, s) = two_node_world();
        // Crash the server 1ms after the request leaves; delivery needs 5ms.
        w.schedule_fault(SimTime::from_millis(1), FaultAction::Crash(s));
        let r = w.rpc(c, s, Val(1), SimDuration::from_millis(30));
        // Failure detection doesn't trigger: the server was up at send
        // time.
        assert_eq!(r, Err(NetError::Timeout));
        assert_eq!(w.metrics().counter("msg.dropped"), 1);
    }

    #[test]
    fn background_task_fires_during_rpc() {
        let (mut w, c, s) = two_node_world();
        w.spawn_at(
            SimTime::from_millis(3),
            once(|w| {
                w.metrics_mut().incr("test.mutation");
            }),
        );
        let r = w.rpc(c, s, Val(1), TIMEOUT);
        assert_eq!(r, Ok(Val(2)));
        assert_eq!(w.metrics().counter("test.mutation"), 1);
    }

    #[test]
    fn nested_rpc_from_task_works() {
        let (mut w, c, s) = two_node_world();
        // A concurrent client task performing its own RPC mid-way through
        // the main client's RPC.
        w.spawn_at(
            SimTime::from_millis(2),
            once(move |w| {
                let r = w.rpc(c, s, Val(100), TIMEOUT);
                assert_eq!(r, Ok(Val(101)));
            }),
        );
        let r = w.rpc(c, s, Val(1), SimDuration::from_millis(200));
        assert_eq!(r, Ok(Val(2)));
    }

    #[test]
    fn a_wait_inside_a_task_is_counted_nested() {
        let (mut w, c, s) = two_node_world();
        w.spawn_at(
            SimTime::from_millis(2),
            once(move |w| {
                assert_eq!(w.rpc(c, s, Val(100), TIMEOUT), Ok(Val(101)));
            }),
        );
        assert_eq!(w.rpc(c, s, Val(1), TIMEOUT), Ok(Val(2)));
        assert_eq!(w.metrics().counter("sim.wait.nested"), 1);
        // The outer reply landed at 10 ms, but the task's rpc held the
        // wait that fired it until its own reply, at 12 ms.
        assert_eq!(w.now(), SimTime::from_millis(12));
        w.sleep(TIMEOUT);
        assert_eq!(w.metrics().counter("sim.wait.nested"), 1);
    }

    #[test]
    fn rpc_timeout_never_sets_the_clock_back() {
        let mut t = Topology::new();
        let client = t.add_node("client", 0);
        let mute = t.add_node("mute", 1);
        let mut w: World<Msg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        // The task's rpc times out at 25 ms, past the outer one's 10 ms.
        w.spawn_at(
            SimTime::from_millis(5),
            once(move |w| {
                let r = w.rpc(client, mute, Val(0), SimDuration::from_millis(20));
                assert_eq!(r, Err(NetError::Timeout));
            }),
        );
        let r = w.rpc(client, mute, Val(0), SimDuration::from_millis(10));
        assert_eq!(r, Err(NetError::Timeout));
        assert!(
            w.now() >= SimTime::from_millis(25),
            "clock read {:?}",
            w.now()
        );
    }

    #[test]
    fn a_late_reply_to_a_timed_out_rpc_is_not_kept() {
        let (mut w, c, s) = two_node_world();
        for i in 0..100 {
            let r = w.rpc(c, s, Val(i), SimDuration::from_millis(1));
            assert_eq!(r, Err(NetError::Timeout));
        }
        w.run_to_quiescence();
        assert_eq!(w.requests.held(), (0, 0), "late replies kept");
        // A send nobody ended still keeps its reply for its token.
        let token = w.send(c, s, Val(1));
        w.run_to_quiescence();
        assert_eq!(w.try_take_reply(token), Some(Ok(Val(2))));
    }

    #[test]
    fn sleep_advances_time_and_fires_events() {
        let (mut w, _c, s) = two_node_world();
        w.schedule_fault(SimTime::from_millis(4), FaultAction::Crash(s));
        w.sleep(SimDuration::from_millis(10));
        assert_eq!(w.now(), SimTime::from_millis(10));
        assert!(!w.topology().is_up(s));
    }

    #[test]
    fn service_downcast_sees_state() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        let mut w: World<Msg> =
            World::new(5, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(s, Box::new(Counter { hits: 0 }));
        w.rpc(c, s, Val(9), TIMEOUT).unwrap();
        w.rpc(c, s, Val(9), TIMEOUT).unwrap();
        assert_eq!(w.service::<Counter>(s).unwrap().hits, 2);
        w.service_mut::<Counter>(s).unwrap().hits = 0;
        assert_eq!(w.service::<Counter>(s).unwrap().hits, 0);
        assert!(w.service::<PlusOne>(s).is_none());
        // The table is dense: a node below the highest install with
        // nothing on it, and one past the table's end, both read empty.
        assert!(w.service::<Counter>(c).is_none());
        let late = w.topology_mut().add_node("late", 2);
        assert!(w.service::<Counter>(late).is_none() && w.service_mut::<Counter>(late).is_none());
        w.install_service(late, Box::new(Counter { hits: 7 }));
        assert_eq!(w.service::<Counter>(late).unwrap().hits, 7);
    }

    #[test]
    fn same_seed_same_run() {
        fn run(seed: u64) -> (u64, Vec<Msg>) {
            let mut t = Topology::new();
            let c = t.add_node("c", 0);
            let servers: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("s{i}"), i + 1)).collect();
            let mut w: World<Msg> = World::new(
                seed,
                t,
                LatencyModel::Uniform {
                    lo: SimDuration::from_millis(1),
                    hi: SimDuration::from_millis(20),
                },
            );
            for &s in &servers {
                w.install_service(s, Box::new(PlusOne));
            }
            let mut outs = Vec::new();
            for i in 0..20 {
                let s = servers[(i % servers.len() as u64) as usize];
                if let Ok(v) = w.rpc(c, s, Val(i), TIMEOUT) {
                    outs.push(v);
                }
            }
            (w.now().as_micros(), outs)
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn install_plan_schedules_all_actions() {
        let (mut w, _c, s) = two_node_world();
        let plan = FaultPlan::none()
            .crash_at(SimTime::from_millis(1), s)
            .restart_at(SimTime::from_millis(2), s);
        w.install_plan(&plan);
        assert_eq!(w.queue.len(), 2);
        w.run_to_quiescence();
        assert!(w.topology().is_up(s));
        assert_eq!(w.metrics().counter("sim.fault.crash"), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut w, _c, s) = two_node_world();
        w.schedule_fault(SimTime::from_millis(50), FaultAction::Crash(s));
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.now(), SimTime::from_millis(10));
        assert!(w.topology().is_up(s));
        w.run_until(SimTime::from_millis(60));
        assert!(!w.topology().is_up(s));
    }

    #[test]
    fn async_sends_overlap_latency() {
        // 4 requests of 5ms each, issued together: total wall time is one
        // round trip (10ms), not four.
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let servers: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("s{i}"), 1)).collect();
        let mut w: World<Msg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        for &s in &servers {
            w.install_service(s, Box::new(PlusOne));
        }
        let tokens: Vec<ReplyToken> = servers.iter().map(|&s| w.send(c, s, Val(1))).collect();
        let deadline = SimTime::from_millis(100);
        let mut got = 0;
        let mut pending = tokens.clone();
        while !pending.is_empty() {
            let done = w
                .wait_any(&pending, deadline)
                .expect("reply before deadline");
            assert_eq!(w.try_take_reply(done), Some(Ok(Val(2))));
            pending.retain(|&t| t != done);
            got += 1;
        }
        assert_eq!(got, 4);
        assert_eq!(w.now(), SimTime::from_millis(10));
    }

    #[test]
    fn async_send_to_unreachable_completes_with_error() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().partition(&[s]);
        let token = w.send(c, s, Val(1));
        // Not complete yet: detection takes DETECT_DELAY.
        assert!(w.try_take_reply(token).is_none());
        let done = w.wait_any(&[token], SimTime::from_millis(50));
        assert_eq!(done, Some(token));
        assert_eq!(
            w.try_take_reply(token),
            Some(Err(NetError::Unreachable { from: c, to: s }))
        );
        assert_eq!(w.now(), SimTime::from_millis(2));
    }

    #[test]
    fn wait_any_returns_none_on_deadline() {
        let (mut w, c, _s) = two_node_world();
        let ghost = w.topology_mut().add_node("ghost", 5);
        // No service on ghost: the request is delivered but dropped, so
        // the token never completes and the deadline applies.
        let token = w.send(c, ghost, Val(1));
        assert_eq!(w.wait_any(&[token], SimTime::from_millis(7)), None);
        assert_eq!(w.now(), SimTime::from_millis(7));
        assert!(w.try_take_reply(token).is_none());
    }

    #[test]
    fn send_from_crashed_node_completes_immediately() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().crash(c);
        let token = w.send(c, s, Val(1));
        // Complete before anything runs the event loop.
        assert_eq!(w.try_take_reply(token), Some(Err(NetError::NodeDown(c))));
        assert_eq!(w.now(), SimTime::from_millis(0));
    }

    #[test]
    fn bandwidth_charges_transfer_time() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        let mut w: World<Msg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(s, Box::new(PlusOne));
        // Message size = its value in bytes; 1000 bytes/ms.
        w.set_bandwidth(1000, |m: &Msg| match m {
            Val(n) => *n as usize,
            Batch(_) => 0,
        });
        // 10_000-byte request and a 10_001-byte echo reply:
        // (5ms + 10ms) out + (5ms + 10.001ms) back.
        let started = w.now();
        let r = w.rpc(c, s, Val(10_000), SimDuration::from_millis(200));
        assert_eq!(r, Ok(Val(10_001)));
        let took = w.now().saturating_since(started);
        assert_eq!(took, SimDuration::from_micros(30_001));
        // A zero-byte request still pays its 1-byte echo reply (1us).
        let started = w.now();
        w.rpc(c, s, Val(0), SimDuration::from_millis(200)).unwrap();
        assert_eq!(
            w.now().saturating_since(started),
            SimDuration::from_micros(10_001)
        );
    }

    #[test]
    fn rpc_spans_link_client_and_server() {
        let (mut w, c, s) = two_node_world();
        w.events_mut().set_enabled(true);
        let root = w.span_enter("iter.fig4.invocation", String::new);
        w.rpc(c, s, Val(1), TIMEOUT).unwrap();
        w.span_exit(root);
        let at = w.now().as_micros();
        assert!(w.events_mut().finish(at).is_empty());
        let events = w.events_mut().take_events();
        let dag = crate::metrics::CausalDag::from_events(&events);
        assert_eq!(dag.roots().len(), 1, "one trace rooted at the invocation");
        let root_node = dag.span(dag.roots()[0]).unwrap();
        assert_eq!(root_node.kind, "iter.fig4.invocation");
        let rpc = dag.span(root_node.children[0]).unwrap();
        assert_eq!(rpc.kind, "net.rpc");
        assert_eq!(rpc.detail, "n0->n1");
        assert_eq!(rpc.duration_us(), 10_000, "one 5ms-each-way round trip");
        let handle = dag.span(rpc.children[0]).unwrap();
        assert_eq!(handle.kind, "svc.handle");
        assert_eq!(handle.detail, "n1");
        assert_eq!(
            handle.trace, root_node.trace,
            "server work joins the caller's trace"
        );
    }

    /// A send is accounted as an rpc is, where it ends: its span under
    /// the sender's context covers the round trip, and the handler's
    /// span nests under it.
    #[test]
    fn a_send_is_accounted_like_an_rpc() {
        let (mut w, c, s) = two_node_world();
        w.events_mut().set_enabled(true);
        let root = w.span_enter("iter.fig4.invocation", String::new);
        let token = w.send(c, s, Val(1));
        w.span_exit(root);
        assert_eq!(w.wait_any(&[token], SimTime::from_millis(50)), Some(token));
        assert_eq!(w.try_take_reply(token), Some(Ok(Val(2))));
        let m = w.metrics();
        let counts = ["rpc.sent", "rpc.ok", "rpc.failed"].map(|n| m.counter(n));
        assert_eq!(counts, [1, 1, 0]);
        assert_eq!(m.latency("rpc.latency").map(|l| l.len()), Some(1));
        let at = w.now().as_micros();
        assert!(w.events_mut().finish(at).is_empty());
        let dag = crate::metrics::CausalDag::from_events(&w.events_mut().take_events());
        let root_node = dag.span(dag.roots()[0]).unwrap();
        let send = dag.span(root_node.children[0]).unwrap();
        assert_eq!(
            (send.kind.as_str(), send.duration_us()),
            ("net.rpc", 10_000)
        );
        assert_eq!(dag.span(send.children[0]).unwrap().kind, "svc.handle");
    }

    /// A send that fails, or whose request is lost, ends as a failed rpc:
    /// no span is left open for its caller's deadline to close.
    #[test]
    fn a_failed_or_lost_send_ends_failed() {
        let (mut w, c, s) = two_node_world();
        w.events_mut().set_enabled(true);
        w.topology_mut().partition(&[s]);
        let unrouted = w.send(c, s, Val(1));
        w.topology_mut().heal_partition();
        w.topology_mut().set_link(c, s, LinkState::lossy(1.0));
        let lost = w.send(c, s, Val(1));
        assert_eq!(w.wait_any(&[lost], SimTime::from_millis(50)), None);
        assert!(matches!(w.try_take_reply(unrouted), Some(Err(_))));
        let m = w.metrics();
        let counts = ["rpc.sent", "rpc.ok", "rpc.failed"].map(|n| m.counter(n));
        assert_eq!(counts, [2, 0, 2]);
        let at = w.now().as_micros();
        assert!(w.events_mut().finish(at).is_empty());
        assert_eq!(w.events().count_kind("net.rpc.failed"), 2);
    }

    #[test]
    fn failed_rpc_records_attributed_failure_event() {
        let (mut w, c, s) = two_node_world();
        w.events_mut().set_enabled(true);
        w.topology_mut().partition(&[s]);
        assert!(w.rpc(c, s, Val(1), TIMEOUT).is_err());
        let at = w.now().as_micros();
        assert!(w.events_mut().finish(at).is_empty());
        let events = w.events_mut().take_events();
        let dag = crate::metrics::CausalDag::from_events(&events);
        let failures = dag.points_under(dag.roots()[0]);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, "net.rpc.failed");
        assert!(failures[0].detail.contains("no route from n0 to n1"));
    }

    #[test]
    fn background_tasks_root_their_own_traces() {
        let (mut w, c, s) = two_node_world();
        w.events_mut().set_enabled(true);
        // A concurrent task fires mid-RPC and performs its own RPC; its
        // spans must not parent under the pumping client's span.
        w.spawn_at(
            SimTime::from_millis(2),
            once(move |w| {
                let _ = w.rpc(c, s, Val(100), TIMEOUT);
            }),
        );
        let outer = w.span_enter("iter.fig5.invocation", String::new);
        w.rpc(c, s, Val(1), SimDuration::from_millis(200)).unwrap();
        w.span_exit(outer);
        let at = w.now().as_micros();
        assert!(w.events_mut().finish(at).is_empty());
        let events = w.events_mut().take_events();
        let dag = crate::metrics::CausalDag::from_events(&events);
        assert_eq!(dag.roots().len(), 2, "client trace + background trace");
        let traces: Vec<_> = dag
            .roots()
            .iter()
            .map(|&r| dag.span(r).unwrap().trace)
            .collect();
        assert_ne!(traces[0], traces[1]);
    }

    #[test]
    fn nested_dispatch_keeps_each_levels_context() {
        let (mut w, c, s) = two_node_world();
        w.events_mut().set_enabled(true);
        // The client's request lands at 5 ms, while the task (fired at
        // 2 ms) pumps for its own reply: three levels on one stack.
        w.spawn_at(
            SimTime::from_millis(2),
            once(move |w| {
                assert_eq!(w.current_ctx(), None, "a task starts with no context");
                let work = w.span_enter("task.work", &String::new);
                w.rpc(c, s, Val(100), TIMEOUT).unwrap();
                assert_eq!(w.current_ctx().map(|x| x.span), Some(work));
                w.span_exit(work);
            }),
        );
        let outer = w.span_enter("iter.fig5.invocation", String::new);
        w.rpc(c, s, Val(1), SimDuration::from_millis(200)).unwrap();
        assert_eq!(w.current_ctx().map(|x| x.span), Some(outer));
        w.span_exit(outer);
        assert!(w.ctx.is_empty() && w.ctx_base == 0, "every level unwound");
        // Each handler ran under its own message's rpc, in its own trace.
        let dag = crate::metrics::CausalDag::from_events(w.events().events());
        let node = |id: SpanId| dag.span(id).unwrap();
        let handled: Vec<_> = (dag.roots().iter())
            .flat_map(|&root| dag.descendants(root).into_iter().map(move |id| (root, id)))
            .filter(|&(_, id)| node(id).kind == "svc.handle")
            .map(|(root, id)| {
                let rpc = node(id).parent.map(node).unwrap();
                (
                    node(root).kind.as_str(),
                    rpc.kind.as_str(),
                    node(id).begin_us,
                )
            })
            .collect();
        assert_eq!(
            handled,
            [
                ("iter.fig5.invocation", "net.rpc", 5_000),
                ("task.work", "net.rpc", 7_000)
            ]
        );
    }

    #[test]
    fn heal_restores_service_after_partition() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().partition(&[s]);
        assert!(w.rpc(c, s, Val(1), TIMEOUT).is_err());
        w.topology_mut().heal_partition();
        assert_eq!(w.rpc(c, s, Val(1), TIMEOUT), Ok(Val(2)));
    }

    #[test]
    fn batched_rpc_is_one_round_trip_for_many_parts() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        let mut w: World<Msg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(s, Box::new(PlusOne));
        let started = w.now();
        let parts = (0..4).map(Val).collect();
        let token = w.send_batch(c, s, parts);
        let deadline = w.now() + SimDuration::from_millis(200);
        assert_eq!(w.wait_any(&[token], deadline), Some(token));
        let reply = w.try_take_reply(token).expect("completed").unwrap();
        let replies = reply.unwrap_batch().expect("a reply envelope");
        assert_eq!(
            replies,
            (1..5).map(Val).collect::<Vec<_>>(),
            "per-part replies in request order"
        );
        // One envelope out + one back: a single 10ms round trip, exactly
        // as if a lone message had been sent.
        assert_eq!(
            w.now().saturating_since(started),
            SimDuration::from_millis(10)
        );
        assert_eq!(w.metrics().counter("net.batch.envelopes"), 1);
        assert_eq!(w.metrics().counter("net.batch.parts"), 4);
        assert_eq!(w.metrics().counter("rpc.sent"), 1);
    }

    #[test]
    fn batch_buffer_flushes_one_envelope_per_destination() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s1 = t.add_node("s1", 1);
        let s2 = t.add_node("s2", 2);
        let mut w: World<Msg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(s1, Box::new(PlusOne));
        w.install_service(s2, Box::new(PlusOne));
        let mut buf = crate::net::BatchBuffer::new(c);
        buf.push(s1, Val(10));
        buf.push(s2, Val(20));
        buf.push(s1, Val(11));
        assert_eq!(buf.pending_parts(), 3);
        let launched = buf.flush(&mut w);
        assert!(buf.is_empty());
        assert_eq!(launched.len(), 2, "one envelope per destination");
        assert_eq!(launched[0].0, s1);
        assert_eq!(launched[0].2, 2);
        // Both envelopes are in flight CONCURRENTLY: waiting for both
        // still costs one round trip of wall-clock.
        let started = w.now();
        let tokens: Vec<ReplyToken> = launched.iter().map(|&(_, t, _)| t).collect();
        let deadline = w.now() + SimDuration::from_millis(200);
        let mut remaining = tokens.clone();
        while !remaining.is_empty() {
            let done = w.wait_any(&remaining, deadline).expect("reply");
            remaining.retain(|&t| t != done);
        }
        assert_eq!(
            w.now().saturating_since(started),
            SimDuration::from_millis(10)
        );
        let r1 = w.try_take_reply(tokens[0]).unwrap().unwrap();
        assert_eq!(r1.unwrap_batch().unwrap(), vec![Val(11), Val(12)]);
    }

    /// Two nodes over 1 ms links, a [`Counter`] on the second.
    fn counted_world() -> (World<Msg>, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a", 0);
        let b = t.add_node("b", 1);
        let mut w = World::new(0, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(b, Box::new(Counter { hits: 0 }));
        (w, a, b)
    }

    #[test]
    fn world_coerces_to_dyn_runtime() {
        let (mut w, a, b) = counted_world();
        let rt: &mut dyn Runtime<Msg> = &mut w;
        let reply = rt.rpc(a, b, Val(1), SimDuration::from_millis(100));
        assert_eq!(reply, Ok(Val(2)));
        assert!(rt.now() > SimTime::ZERO);
        assert!(rt.is_up(b));
        assert!(rt.reachable(a, b));
    }

    #[test]
    fn typed_service_access_through_dyn() {
        let (mut w, _a, b) = counted_world();
        let rt: &mut dyn Runtime<Msg> = &mut w;
        let hits = rt.with_service(b, |e: &Counter| e.hits);
        assert_eq!(hits, Some(0));
        let bumped = rt.with_service_mut(b, |e: &mut Counter| {
            e.hits += 7;
            e.hits
        });
        assert_eq!(bumped, Some(7));
        assert_eq!(rt.with_service(NodeId(99), |e: &Counter| e.hits), None);
    }

    #[test]
    fn spawned_rt_task_fires_on_sim_queue() {
        let (mut w, _a, b) = counted_world();
        {
            let rt: &mut dyn Runtime<Msg> = &mut w;
            rt.spawn_in(
                SimDuration::from_millis(5),
                once(move |rt| {
                    rt.with_service_mut(b, |e: &mut Counter| e.hits = 42);
                }),
            );
            rt.sleep(SimDuration::from_millis(10));
        }
        assert_eq!(w.service::<Counter>(b).map(|e| e.hits), Some(42));
    }

    /// What a [`pinger`] saw when it was woken: the time, and what it
    /// found under its token.
    type Seen = Arc<Mutex<Option<(SimTime, ReplyToken, Option<Result<Msg, NetError>>)>>>;

    /// A task that sends `Val(1)` from `a` to `b`, asks to be woken on
    /// the reply with a 50 ms deadline, and then records what it saw.
    fn pinger(a: NodeId, b: NodeId, seen: &Seen) -> Box<dyn RtTask<Msg>> {
        let seen = Arc::clone(seen);
        let mut sent = None;
        Box::new(TaskFn(
            move |rt: &mut (dyn Runtime<Msg> + 'static)| match sent {
                None => {
                    let token = rt.send(a, b, Val(1));
                    sent = Some(token);
                    Wake::Reply(token, rt.now() + SimDuration::from_millis(50))
                }
                Some(token) => {
                    let reply = rt.try_take_reply(token);
                    *seen.lock().unwrap() = Some((rt.now(), token, reply));
                    Wake::Never
                }
            },
        ))
    }

    #[test]
    fn a_task_woken_on_a_reply_runs_when_it_lands() {
        let (mut w, a, b) = counted_world();
        let seen = Seen::default();
        w.spawn_in(SimDuration::ZERO, pinger(a, b, &seen));
        w.sleep(SimDuration::from_millis(100));
        let (at, _, reply) = seen.lock().unwrap().take().expect("the task was woken");
        // One round trip over 1 ms links, not the 50 ms deadline.
        assert_eq!(at, SimTime::from_millis(2));
        assert_eq!(reply, Some(Ok(Val(2))));
        assert_eq!(w.metrics().counter("rpc.ok"), 1);
        // The sleep ran past the 50 ms deadline, which the reply cancelled.
        assert_eq!(w.metrics().counter("sim.dispatch.deadline"), 0);
    }

    #[test]
    fn a_task_whose_request_is_lost_runs_at_its_deadline() {
        let (mut w, a, b) = counted_world();
        w.topology_mut().set_link(a, b, LinkState::lossy(1.0));
        let seen = Seen::default();
        w.spawn_in(SimDuration::ZERO, pinger(a, b, &seen));
        w.sleep(SimDuration::from_millis(100));
        let (at, token, reply) = seen.lock().unwrap().take().expect("the task was woken");
        assert_eq!(at, SimTime::from_millis(50));
        assert_eq!(reply, None);
        assert_eq!(w.metrics().counter("msg.dropped"), 1);
        assert_eq!(w.metrics().counter("rpc.failed"), 1);
        assert_eq!(w.try_take_reply(token), None, "nothing stays in completed");
    }
}
