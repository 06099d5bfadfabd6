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
//! * Client code runs synchronously and calls [`World::rpc`], which pumps
//!   the event queue until the reply arrives or the timeout expires. While
//!   pumping, *other* scheduled work (background mutators installed with
//!   [`World::spawn_at`], fault-plan actions) fires in timestamp order, so
//!   concurrency and failures genuinely interleave with the client's RPCs.
//! * Background work is woken, and never pumps the event loop itself. A
//!   runtime task (the gossip engine's rounds) runs one step at a time:
//!   each step sends, and the task is fired again when the reply lands or
//!   its deadline passes ([`World::wake_on_reply`]), or at a later instant
//!   ([`World::spawn_boxed_at`]). So a foreground wait that fires a task
//!   resumes at the instant its own reply or deadline fires. A wait that
//!   begins inside a dispatched task would hold the wait that fired it
//!   until it ends; it counts `sim.wait.nested`, and no runtime task makes
//!   one.
//! * Servers are [`Service`] implementations installed per node; handlers
//!   run at message-delivery time and are local (no nested RPC from a
//!   handler — multi-node operations are orchestrated by clients, as in the
//!   paper's client/server RPC model).
//! * Determinism: all randomness comes from labelled [`SimRng`] streams
//!   derived from the run seed, and event ties break by insertion order.

use crate::event::{run_task, EventKind, EventQueue};
use crate::fault::{FaultAction, FaultPlan};
use crate::idmap::IdMap;
use crate::latency::LatencyModel;
use crate::metrics::{EventSink, Label, Metrics, SpanId, TraceContext};
use crate::net::{BatchEnvelope, NetError};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent};
use std::any::Any;

/// Correlates a reply with the RPC that is waiting for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReplyToken(u64);

impl ReplyToken {
    /// Builds a token from a raw id. Alternative runtime backends (see
    /// `weakset-runtime`) mint their own tokens with this.
    pub const fn from_raw(raw: u64) -> Self {
        ReplyToken(raw)
    }

    /// The raw id behind this token.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

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

/// A unit of scheduled work that runs against the world (e.g. a background
/// mutator or a concurrent client operation).
///
/// Tasks receive `&mut World`. The event loop is re-entrant, so a task may
/// call [`World::rpc`] and pump it, preserving global time order, but the
/// wait that fired it then resumes only when the task returns: such a wait
/// counts `sim.wait.nested`. A task that must not hold the foreground sends
/// and re-queues itself instead ([`World::wake_on_reply`]).
pub trait Task<M> {
    /// Label folded into the run's fingerprint, and recorded as a
    /// `sim.task` event by an enabled sink, when the task fires.
    fn label(&self) -> &str {
        "task"
    }
    /// Runs the task.
    fn run(self: Box<Self>, world: &mut World<M>);
}

impl<M, F> Task<M> for F
where
    F: FnOnce(&mut World<M>),
{
    fn run(self: Box<Self>, world: &mut World<M>) {
        (*self)(world)
    }
}

/// How long failure detection takes: a request to a node with no route
/// to it, or a crashed one, fails this long after it was sent (the paper
/// assumes failures are detectable from lower layers).
const DETECT_DELAY: SimDuration = SimDuration::from_millis(2);

/// A request [`World::send`] launched whose outcome has not arrived:
/// what its account needs when it does.
struct OpenSend {
    from: NodeId,
    to: NodeId,
    started: SimTime,
    /// Its `net.rpc` span, open under the sender's context.
    span: TraceContext,
}

/// The simulation world. Generic over the message type `M` exchanged between
/// clients and services.
pub struct World<M> {
    now: SimTime,
    queue: EventQueue<M>,
    topology: Topology,
    /// Indexed by the dense [`NodeId`]; `None` where nothing is installed
    /// (or while the node's handler is running).
    services: Vec<Option<Box<dyn Service<M>>>>,
    completed: IdMap<ReplyToken, Result<M, NetError>>,
    /// Requests [`World::send`] launched that have not ended yet.
    sends: IdMap<ReplyToken, OpenSend>,
    /// Tasks waiting on a reply ([`World::wake_on_reply`]), fired when it
    /// lands or at their deadline.
    woken: IdMap<ReplyToken, Box<dyn Task<M>>>,
    /// How many dispatched tasks are running: a wait that begins while
    /// one is counts `sim.wait.nested`.
    tasks_running: u32,
    next_token: u64,
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

impl<M: Clone + std::fmt::Debug + 'static> World<M> {
    /// Creates a world over a topology with the given latency model;
    /// every random stream of the run is derived from `seed`.
    pub fn new(seed: u64, topology: Topology, latency: LatencyModel) -> Self {
        World {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            topology,
            services: Vec::new(),
            completed: IdMap::default(),
            sends: IdMap::default(),
            woken: IdMap::default(),
            tasks_running: 0,
            next_token: 0,
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

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the network graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the network graph (tests and fault injection).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Run metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable run metrics (for client-side instrumentation).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
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
    /// Pair with [`World::span_exit`].
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

    /// Closes a span opened with [`World::span_enter`] /
    /// [`World::span_enter_under`] and pops it off the context stack.
    /// Spans must close in LIFO order.
    pub fn span_exit(&mut self, id: SpanId) {
        let top = self.ctx.pop();
        debug_assert_eq!(top.map(|c| c.span), Some(id), "span_exit out of LIFO order");
        self.events.end_span(self.now.as_micros(), id);
    }

    /// The current causal context: the innermost open span, which
    /// outgoing messages and child spans inherit.
    pub fn current_ctx(&self) -> Option<TraceContext> {
        self.ctx[self.ctx_base..].last().copied()
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

    /// A fresh deterministic RNG stream labelled for a consumer (workload
    /// generation, client decisions, ...). Same `(seed, label)` ⇒ same
    /// stream.
    pub fn rng_for(&self, label: &str) -> SimRng {
        SimRng::for_label(self.seed, label)
    }

    /// Deterministic latency estimate from `a` to `b` (for closest-first
    /// scheduling).
    pub fn estimate_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.latency
            .estimate(self.topology.node(a), self.topology.node(b))
    }

    /// Installs (or replaces) the service on a node.
    pub fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<M>>) {
        if self.services.len() <= node.index() {
            self.services.resize_with(node.index() + 1, || None);
        }
        self.services[node.index()] = Some(svc);
    }

    /// Downcasts the service on `node` to a concrete type.
    pub fn service<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.service_dyn(node).and_then(<dyn Any>::downcast_ref)
    }

    /// Mutable downcast of the service on `node`.
    pub fn service_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.service_dyn_mut(node).and_then(<dyn Any>::downcast_mut)
    }

    /// Borrows the service on `node` untyped, for runtime-agnostic
    /// inspection (the `weakset-runtime` trait boundary downcasts it).
    pub fn service_dyn(&self, node: NodeId) -> Option<&dyn Any> {
        let svc = self.services.get(node.index())?.as_ref()?;
        Some(svc.as_ref() as &dyn Any)
    }

    /// Mutable untyped borrow of the service on `node`.
    pub fn service_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Any> {
        let svc = self.services.get_mut(node.index())?.as_mut()?;
        Some(svc.as_mut() as &mut dyn Any)
    }

    /// Schedules a task at an absolute time.
    pub fn spawn_at(&mut self, t: SimTime, task: impl Task<M> + 'static) {
        self.spawn_boxed_at(t, Box::new(task));
    }

    /// Schedules a boxed task at an absolute time, or now if `t` has
    /// passed: a task re-queues the box it runs in, and allocates nothing.
    pub fn spawn_boxed_at(&mut self, t: SimTime, task: Box<dyn Task<M>>) {
        self.queue.push(t.max(self.now), EventKind::Task(task));
    }

    /// Fires `task` when the reply under `token` lands, or at `deadline`
    /// if that comes first. At the deadline the request ends as a
    /// timed-out [`World::rpc`] does, and the task finds nothing under
    /// the token. A reply already in fires the task at once.
    pub fn wake_on_reply(&mut self, token: ReplyToken, deadline: SimTime, task: Box<dyn Task<M>>) {
        if self.completed.contains_key(&token) {
            self.spawn_boxed_at(self.now, task);
            return;
        }
        self.woken.insert(token, task);
        self.queue
            .push(deadline.max(self.now), EventKind::Deadline(token));
    }

    /// Schedules a task `d` from now.
    pub fn spawn_in(&mut self, d: SimDuration, task: impl Task<M> + 'static) {
        self.spawn_at(self.now + d, task);
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
                let ev = self.queue.pop().expect("peeked event vanished");
                self.now = t;
                self.dispatch(ev.kind);
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

    /// Sleeps the calling client for `d`, letting background work fire.
    pub fn sleep(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Fires every remaining event.
    pub fn run_to_quiescence(&mut self) {
        while self.fire_next(SimTime::MAX) {}
    }

    /// Performs a synchronous RPC: [`World::send`]s `msg` from node
    /// `from` to the service on node `to`, pumps the event loop until the
    /// reply arrives or `timeout` passes ([`World::wait_any`]), and takes
    /// the reply. It is accounted as a send is, where it ends.
    ///
    /// Simulated time advances while waiting; background tasks and fault
    /// actions scheduled in the meantime fire in order, so the world can
    /// change under the caller exactly as the paper's model allows.
    ///
    /// # Errors
    ///
    /// * [`NetError::NodeDown`] — the *calling* node is crashed.
    /// * [`NetError::Unreachable`] / [`NetError::NodeDown`] of `to` —
    ///   failure detection reported no route, or a crashed server, at
    ///   send time (after a 2 ms detection delay).
    /// * [`NetError::Timeout`] — no reply within `timeout` (message lost,
    ///   server crashed/partitioned mid-flight, or no service installed).
    ///   The request ends then, if nothing ended it earlier.
    pub fn rpc(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        timeout: SimDuration,
    ) -> Result<M, NetError> {
        let deadline = self.now + timeout;
        let token = self.send(from, to, msg);
        if self.wait_any(&[token], deadline).is_none() {
            self.end_send(token, Err(NetError::Timeout));
            return Err(NetError::Timeout);
        }
        self.completed
            .remove(&token)
            .expect("a completed token has its reply")
    }

    /// Sends a request *asynchronously*: the message is launched and a
    /// token is returned immediately, without advancing time. Use
    /// [`World::try_take_reply`] or [`World::wait_any`] to collect the
    /// reply. Several requests can be in flight at once — this is how
    /// dynamic sets fetch member objects in parallel.
    ///
    /// A crashed caller sends nothing: its request fails at once with
    /// [`NetError::NodeDown`] of `from`, unaccounted. A request to a node
    /// with no route to it, or a crashed one, completes with that error
    /// after the 2 ms detection delay. Every other request is accounted
    /// where it ends (`World::end_send`); its `net.rpc` span opens now,
    /// under the current context, without becoming current.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> ReplyToken {
        let token = self.next_token();
        let routed = self.topology.route(from, to);
        if routed == Err(NetError::NodeDown(from)) {
            self.completed.insert(token, Err(NetError::NodeDown(from)));
            return token;
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
        let open = OpenSend {
            from,
            to,
            started: self.now,
            span,
        };
        self.sends.insert(token, open);
        match routed {
            Ok(()) => self.launch(token, from, to, msg, Some(span)),
            Err(error) => self.queue.push(
                self.now + DETECT_DELAY,
                EventKind::CompleteError { token, error },
            ),
        }
        token
    }

    /// Makes `result` the reply waiting under `token` and ends the send
    /// that launched it, if that send is still open. A reply to a send
    /// already ended — an rpc that timed out — is dropped here: nobody
    /// waits for it. A window's abandoned sends stay open, so their
    /// late replies are kept for it. A task waiting on the reply
    /// ([`World::wake_on_reply`]) fires now.
    fn complete(&mut self, token: ReplyToken, result: Result<M, NetError>) {
        if self.sends.contains_key(&token) {
            self.end_send(token, result.as_ref().map(|_| ()).map_err(|e| *e));
            self.completed.insert(token, result);
            if let Some(task) = self.woken.remove(&token) {
                self.fire_task(task);
            }
        }
    }

    /// Ends the request [`World::send`] launched under `token`, if it is
    /// still open: the one account of every request, `rpc.ok` and an
    /// `rpc.latency` sample, or `rpc.failed` and a `net.rpc.failed`
    /// event; its `net.rpc` span closes, and the trace records the
    /// outcome. A send ends when its reply or error arrives, when its
    /// request or reply is lost (then as a timeout, which is what its
    /// caller sees at its own deadline), or when an [`World::rpc`]
    /// waiting for it times out (DESIGN.md §6).
    fn end_send(&mut self, token: ReplyToken, outcome: Result<(), NetError>) {
        let Some(open) = self.sends.remove(&token) else {
            return;
        };
        let (at, from, to) = (self.now.as_micros(), open.from, open.to);
        match outcome {
            Ok(()) => {
                self.trace.record(self.now, TraceEvent::RpcOk { from, to });
                self.metrics.incr("rpc.ok");
                let took = self.now.saturating_since(open.started);
                self.metrics.observe("rpc.latency", took.as_micros());
            }
            Err(error) => {
                let failed = TraceEvent::RpcFailed { from, to, error };
                self.trace.record(self.now, failed);
                self.metrics.incr("rpc.failed");
                if self.events.is_enabled() {
                    let detail = format!("{from}->{to}: {error}");
                    self.events
                        .event_in(at, "net.rpc.failed", detail, Some(open.span));
                }
            }
        }
        self.events.end_span(at, open.span.span);
    }

    fn next_token(&mut self) -> ReplyToken {
        self.next_token += 1;
        ReplyToken(self.next_token - 1)
    }

    /// Puts a routed request on the wire under `token`: lost at the
    /// link's drop rate, else delivered one sampled latency from now,
    /// under `ctx`.
    fn launch(
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
        self.end_send(token, Err(NetError::Timeout));
    }

    /// Launches a batched request asynchronously (see [`World::send`]):
    /// the parts are wrapped into one envelope and a single token is
    /// returned. The reply (collected via [`World::try_take_reply`]) is
    /// an envelope; recover the per-part replies with
    /// [`BatchEnvelope::unwrap_batch`].
    pub fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<M>) -> ReplyToken
    where
        M: BatchEnvelope,
    {
        self.metrics.incr("net.batch.envelopes");
        self.metrics.add("net.batch.parts", parts.len() as u64);
        self.send(from, to, M::wrap_batch(parts))
    }

    /// Collects the reply for an asynchronously-sent request if it has
    /// already completed. Does not advance time.
    pub fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<M, NetError>> {
        self.completed.remove(&token)
    }

    /// Gives up on the request launched under `token`: it ends now as a
    /// timed-out [`World::rpc`] does, if nothing ended it earlier, and a
    /// reply already in is dropped, so a late one is never kept.
    pub fn abandon(&mut self, token: ReplyToken) {
        self.end_send(token, Err(NetError::Timeout));
        self.completed.remove(&token);
    }

    /// Pumps the event loop until one of `tokens` completes or `deadline`
    /// passes. Returns the completed token (its reply is left for
    /// [`World::try_take_reply`]), or `None` on deadline.
    pub fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        self.note_wait();
        loop {
            if let Some(&t) = tokens.iter().find(|t| self.completed.contains_key(t)) {
                return Some(t);
            }
            if !self.fire_next(deadline) {
                self.now = self.now.max(deadline);
                return None;
            }
        }
    }

    /// A wait begins: nested when a dispatched task is running, which
    /// then holds whichever wait fired it until this one ends.
    fn note_wait(&mut self) {
        if self.tasks_running > 0 {
            self.metrics.incr("sim.wait.nested");
        }
    }

    /// Runs a task now, rooting its own traces: with an empty context
    /// stack.
    fn fire_task(&mut self, task: Box<dyn Task<M>>) {
        let label = task.label();
        if self.events.is_enabled() {
            self.events.event(self.now.as_micros(), "sim.task", label);
        }
        self.trace.record(self.now, TraceEvent::TaskRan { label });
        let outer = self.begin_dispatched(None);
        self.tasks_running += 1;
        run_task(task, self);
        self.tasks_running -= 1;
        self.end_dispatched(outer);
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        self.metrics.incr("sim.dispatch.total");
        self.metrics
            .gauge_max("sim.queue.depth.max", self.queue.len() as u64);
        match kind {
            EventKind::CompleteError { token, error } => {
                self.metrics.incr("sim.dispatch.complete_error");
                self.complete(token, Err(error));
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
                    self.end_send(token, Err(NetError::Timeout));
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
                self.complete(token, Ok(msg));
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
                // Stale once the reply has woken the task.
                if let Some(task) = self.woken.remove(&token) {
                    self.end_send(token, Err(NetError::Timeout));
                    self.fire_task(task);
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkState;

    /// A service that echoes the request plus one.
    struct PlusOne;
    impl Service<u64> for PlusOne {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: u64) -> u64 {
            msg + 1
        }
    }

    /// A counting service for downcast tests.
    struct Counter {
        hits: u64,
    }
    impl Service<u64> for Counter {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: u64) -> u64 {
            self.hits += 1;
            msg
        }
    }

    /// The timeout of a test rpc that is not about timeouts.
    const TIMEOUT: SimDuration = SimDuration::from_millis(100);

    fn two_node_world() -> (World<u64>, NodeId, NodeId) {
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
        let r = w.rpc(c, s, 41, TIMEOUT);
        assert_eq!(r, Ok(42));
        // One-way 5ms, round trip 10ms.
        assert_eq!(w.now(), SimTime::from_millis(10));
        assert_eq!(w.metrics().counter("rpc.ok"), 1);
    }

    #[test]
    fn rpc_to_crashed_server_fails() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().crash(s);
        let r = w.rpc(c, s, 1, TIMEOUT);
        assert_eq!(r, Err(NetError::NodeDown(s)));
    }

    #[test]
    fn rpc_from_crashed_client_fails_locally() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().crash(c);
        assert_eq!(w.rpc(c, s, 1, TIMEOUT), Err(NetError::NodeDown(c)));
    }

    #[test]
    fn partition_gives_unreachable_after_the_detection_delay() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().partition(&[s]);
        let r = w.rpc(c, s, 1, TIMEOUT);
        assert_eq!(r, Err(NetError::Unreachable { from: c, to: s }));
        // Detection took DETECT_DELAY, not the whole timeout.
        assert_eq!(w.now(), SimTime::from_millis(2));
    }

    #[test]
    fn missing_service_times_out() {
        let (mut w, c, _s) = two_node_world();
        let extra = w.topology_mut().add_node("empty", 2);
        let r = w.rpc(c, extra, 7, SimDuration::from_millis(20));
        assert_eq!(r, Err(NetError::Timeout));
    }

    #[test]
    fn lossy_link_eventually_times_out() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        t.set_link(c, s, LinkState::lossy(1.0));
        let mut w: World<u64> =
            World::new(3, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(s, Box::new(PlusOne));
        assert_eq!(
            w.rpc(c, s, 1, SimDuration::from_millis(10)),
            Err(NetError::Timeout)
        );
        assert!(w.metrics().counter("msg.dropped") >= 1);
    }

    #[test]
    fn mid_flight_crash_loses_message() {
        let (mut w, c, s) = two_node_world();
        // Crash the server 1ms after the request leaves; delivery needs 5ms.
        w.schedule_fault(SimTime::from_millis(1), FaultAction::Crash(s));
        let r = w.rpc(c, s, 1, SimDuration::from_millis(30));
        // Failure detection doesn't trigger: the server was up at send
        // time.
        assert_eq!(r, Err(NetError::Timeout));
        assert_eq!(w.metrics().counter("msg.dropped"), 1);
    }

    #[test]
    fn background_task_fires_during_rpc() {
        let (mut w, c, s) = two_node_world();
        w.spawn_at(SimTime::from_millis(3), |w: &mut World<u64>| {
            w.metrics_mut().incr("test.mutation");
        });
        let r = w.rpc(c, s, 1, TIMEOUT);
        assert_eq!(r, Ok(2));
        assert_eq!(w.metrics().counter("test.mutation"), 1);
    }

    #[test]
    fn nested_rpc_from_task_works() {
        let (mut w, c, s) = two_node_world();
        // A concurrent client task performing its own RPC mid-way through
        // the main client's RPC.
        w.spawn_at(SimTime::from_millis(2), move |w: &mut World<u64>| {
            let r = w.rpc(c, s, 100, TIMEOUT);
            assert_eq!(r, Ok(101));
        });
        let r = w.rpc(c, s, 1, SimDuration::from_millis(200));
        assert_eq!(r, Ok(2));
    }

    #[test]
    fn a_wait_inside_a_task_is_counted_nested() {
        let (mut w, c, s) = two_node_world();
        w.spawn_at(SimTime::from_millis(2), move |w: &mut World<u64>| {
            assert_eq!(w.rpc(c, s, 100, TIMEOUT), Ok(101));
        });
        assert_eq!(w.rpc(c, s, 1, TIMEOUT), Ok(2));
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
        let mut w: World<u64> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        // The task's rpc times out at 25 ms, past the outer one's 10 ms.
        w.spawn_at(SimTime::from_millis(5), move |w: &mut World<u64>| {
            let r = w.rpc(client, mute, 0, SimDuration::from_millis(20));
            assert_eq!(r, Err(NetError::Timeout));
        });
        let r = w.rpc(client, mute, 0, SimDuration::from_millis(10));
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
            let r = w.rpc(c, s, i, SimDuration::from_millis(1));
            assert_eq!(r, Err(NetError::Timeout));
        }
        w.run_to_quiescence();
        assert_eq!(w.completed.len(), 0, "late replies kept");
        // A send nobody ended still keeps its reply for its token.
        let token = w.send(c, s, 1);
        w.run_to_quiescence();
        assert_eq!(w.try_take_reply(token), Some(Ok(2)));
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
        let mut w: World<u64> =
            World::new(5, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(s, Box::new(Counter { hits: 0 }));
        w.rpc(c, s, 9, TIMEOUT).unwrap();
        w.rpc(c, s, 9, TIMEOUT).unwrap();
        assert_eq!(w.service::<Counter>(s).unwrap().hits, 2);
        w.service_mut::<Counter>(s).unwrap().hits = 0;
        assert_eq!(w.service::<Counter>(s).unwrap().hits, 0);
        assert!(w.service::<PlusOne>(s).is_none());
        // The table is dense: a node below the highest install with
        // nothing on it, and one past the table's end, both read empty.
        assert!(w.service::<Counter>(c).is_none());
        let late = w.topology_mut().add_node("late", 2);
        assert!(w.service_dyn(late).is_none() && w.service_mut::<Counter>(late).is_none());
        w.install_service(late, Box::new(Counter { hits: 7 }));
        assert_eq!(w.service::<Counter>(late).unwrap().hits, 7);
    }

    #[test]
    fn same_seed_same_run() {
        fn run(seed: u64) -> (u64, Vec<u64>) {
            let mut t = Topology::new();
            let c = t.add_node("c", 0);
            let servers: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("s{i}"), i + 1)).collect();
            let mut w: World<u64> = World::new(
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
                if let Ok(v) = w.rpc(c, s, i, TIMEOUT) {
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
        let mut w: World<u64> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        for &s in &servers {
            w.install_service(s, Box::new(PlusOne));
        }
        let tokens: Vec<ReplyToken> = servers.iter().map(|&s| w.send(c, s, 1)).collect();
        let deadline = SimTime::from_millis(100);
        let mut got = 0;
        let mut pending = tokens.clone();
        while !pending.is_empty() {
            let done = w
                .wait_any(&pending, deadline)
                .expect("reply before deadline");
            assert_eq!(w.try_take_reply(done), Some(Ok(2)));
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
        let token = w.send(c, s, 1);
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
        let token = w.send(c, ghost, 1);
        assert_eq!(w.wait_any(&[token], SimTime::from_millis(7)), None);
        assert_eq!(w.now(), SimTime::from_millis(7));
        assert!(w.try_take_reply(token).is_none());
    }

    #[test]
    fn send_from_crashed_node_completes_immediately() {
        let (mut w, c, s) = two_node_world();
        w.topology_mut().crash(c);
        let token = w.send(c, s, 1);
        // Complete before anything runs the event loop.
        assert_eq!(w.try_take_reply(token), Some(Err(NetError::NodeDown(c))));
        assert_eq!(w.now(), SimTime::from_millis(0));
    }

    /// An `rpc` is a `send` and a wait: on every outcome, both ways of
    /// asking leave the same result, counters, trace and clock.
    #[test]
    fn rpc_and_send_share_one_account() {
        // `two_node_world`'s client and server.
        let (c, s) = (NodeId(0), NodeId(1));
        let failed = &[("rpc.failed", 1), ("rpc.sent", 1)][..];
        type Counters = &'static [(&'static str, u64)];
        let cases: [(&str, Result<u64, NetError>, Counters); 5] = [
            ("reply", Ok(2), &[("rpc.ok", 1), ("rpc.sent", 1)]),
            (
                "unroutable",
                Err(NetError::Unreachable { from: c, to: s }),
                failed,
            ),
            ("down target", Err(NetError::NodeDown(s)), failed),
            ("down caller", Err(NetError::NodeDown(c)), &[]),
            ("timeout", Err(NetError::Timeout), failed),
        ];
        for (case, want, counters) in cases {
            let [by_rpc, by_send] = [false, true].map(|via_send| {
                let (mut w, c, mut s) = two_node_world();
                match case {
                    "unroutable" => w.topology_mut().partition(&[s]),
                    "down target" => w.topology_mut().crash(s),
                    "down caller" => w.topology_mut().crash(c),
                    "timeout" => s = w.topology_mut().add_node("empty", 2),
                    _ => {}
                }
                let got = if via_send {
                    let token = w.send(c, s, 1);
                    w.wait_any(&[token], w.now() + TIMEOUT);
                    w.try_take_reply(token).unwrap_or(Err(NetError::Timeout))
                } else {
                    w.rpc(c, s, 1, TIMEOUT)
                };
                assert_eq!(got, want, "{case}, send: {via_send}");
                let m = w.metrics();
                let rpc: Vec<_> = m
                    .counters()
                    .filter(|(n, _)| n.starts_with("rpc."))
                    .collect();
                assert_eq!(rpc, counters, "{case}, send: {via_send}");
                let samples = m.latency("rpc.latency").map_or(0, |l| l.len() as u64);
                assert_eq!(samples, m.counter("rpc.ok"), "every reply is timed once");
                (w.trace_hash(), w.now())
            });
            assert_eq!(by_rpc, by_send, "{case}: rpc and send+wait_any differ");
        }
    }

    #[test]
    fn bandwidth_charges_transfer_time() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        let mut w: World<u64> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(s, Box::new(PlusOne));
        // Message size = its value in bytes; 1000 bytes/ms.
        w.set_bandwidth(1000, |m: &u64| *m as usize);
        // 10_000-byte request and a 10_001-byte echo reply:
        // (5ms + 10ms) out + (5ms + 10.001ms) back.
        let started = w.now();
        let r = w.rpc(c, s, 10_000, SimDuration::from_millis(200));
        assert_eq!(r, Ok(10_001));
        let took = w.now().saturating_since(started);
        assert_eq!(took, SimDuration::from_micros(30_001));
        // A zero-byte request still pays its 1-byte echo reply (1us).
        let started = w.now();
        w.rpc(c, s, 0, SimDuration::from_millis(200)).unwrap();
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
        w.rpc(c, s, 1, TIMEOUT).unwrap();
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
        let token = w.send(c, s, 1);
        w.span_exit(root);
        assert_eq!(w.wait_any(&[token], SimTime::from_millis(50)), Some(token));
        assert_eq!(w.try_take_reply(token), Some(Ok(2)));
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
        let unrouted = w.send(c, s, 1);
        w.topology_mut().heal_partition();
        w.topology_mut().set_link(c, s, LinkState::lossy(1.0));
        let lost = w.send(c, s, 1);
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
        assert!(w.rpc(c, s, 1, TIMEOUT).is_err());
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
        w.spawn_at(SimTime::from_millis(2), move |w: &mut World<u64>| {
            let _ = w.rpc(c, s, 100, TIMEOUT);
        });
        let outer = w.span_enter("iter.fig5.invocation", String::new);
        w.rpc(c, s, 1, SimDuration::from_millis(200)).unwrap();
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
        w.spawn_at(SimTime::from_millis(2), move |w: &mut World<u64>| {
            assert_eq!(w.current_ctx(), None, "a task starts with no context");
            let work = w.span_enter("task.work", String::new);
            w.rpc(c, s, 100, TIMEOUT).unwrap();
            assert_eq!(w.current_ctx().map(|x| x.span), Some(work));
            w.span_exit(work);
        });
        let outer = w.span_enter("iter.fig5.invocation", String::new);
        w.rpc(c, s, 1, SimDuration::from_millis(200)).unwrap();
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
        assert!(w.rpc(c, s, 1, TIMEOUT).is_err());
        w.topology_mut().heal_partition();
        assert_eq!(w.rpc(c, s, 1, TIMEOUT), Ok(2));
    }

    /// A protocol with a batch variant, mirroring how `StoreMsg` opts in.
    #[derive(Clone, Debug, PartialEq)]
    enum BMsg {
        Val(u64),
        Batch(Vec<BMsg>),
    }
    impl crate::net::BatchEnvelope for BMsg {
        fn wrap_batch(parts: Vec<Self>) -> Self {
            BMsg::Batch(parts)
        }
        fn unwrap_batch(self) -> Result<Vec<Self>, Self> {
            match self {
                BMsg::Batch(parts) => Ok(parts),
                other => Err(other),
            }
        }
    }
    struct BatchPlusOne;
    impl Service<BMsg> for BatchPlusOne {
        fn handle(&mut self, _ctx: &mut ServiceCtx, _from: NodeId, msg: BMsg) -> BMsg {
            fn one(m: BMsg) -> BMsg {
                match m {
                    BMsg::Val(n) => BMsg::Val(n + 1),
                    BMsg::Batch(parts) => BMsg::Batch(parts.into_iter().map(one).collect()),
                }
            }
            one(msg)
        }
    }

    #[test]
    fn batched_rpc_is_one_round_trip_for_many_parts() {
        let mut t = Topology::new();
        let c = t.add_node("c", 0);
        let s = t.add_node("s", 1);
        let mut w: World<BMsg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(s, Box::new(BatchPlusOne));
        let started = w.now();
        let parts = (0..4).map(BMsg::Val).collect();
        let token = w.send_batch(c, s, parts);
        let deadline = w.now() + SimDuration::from_millis(200);
        assert_eq!(w.wait_any(&[token], deadline), Some(token));
        let reply = w.try_take_reply(token).expect("completed").unwrap();
        let replies = reply.unwrap_batch().expect("a reply envelope");
        assert_eq!(
            replies,
            (1..5).map(BMsg::Val).collect::<Vec<_>>(),
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
        let mut w: World<BMsg> =
            World::new(1, t, LatencyModel::Constant(SimDuration::from_millis(5)));
        w.install_service(s1, Box::new(BatchPlusOne));
        w.install_service(s2, Box::new(BatchPlusOne));
        let mut buf = crate::net::BatchBuffer::new(c);
        buf.push(s1, BMsg::Val(10));
        buf.push(s2, BMsg::Val(20));
        buf.push(s1, BMsg::Val(11));
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
        use crate::net::BatchEnvelope as _;
        let r1 = w.try_take_reply(tokens[0]).unwrap().unwrap();
        assert_eq!(
            r1.unwrap_batch().unwrap(),
            vec![BMsg::Val(11), BMsg::Val(12)]
        );
    }
}
