//! The object-safe execution-environment traits.
//!
//! The split follows ownership: [`Clock`] owns time, [`Transport`] owns
//! delivery and completion, [`ServiceHost`] owns the per-node handlers
//! and liveness, [`Spawner`] owns deferred work, and [`Observe`] owns
//! metrics and the causal span stack. [`Runtime`] is their sum — the
//! type that client-side code takes as `&mut dyn Runtime<M>`.

use std::any::Any;
use std::fmt;
use weakset_sim::metrics::{Metrics, SpanId, TraceContext};
use weakset_sim::net::{BatchEnvelope, NetError};
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::{ReplyToken, Service};

/// What a message type must satisfy to cross the runtime boundary:
/// clonable, debuggable, batchable, and safe to hand to another thread.
pub trait RtMessage: Clone + fmt::Debug + BatchEnvelope + Send + 'static {}

impl<M: Clone + fmt::Debug + BatchEnvelope + Send + 'static> RtMessage for M {}

/// Time and deterministic randomness.
///
/// On the simulator this is the virtual event-queue clock; on the
/// threaded backend it is wall time since the runtime started, reported
/// in the same microsecond [`SimTime`] units so client code and metrics
/// are unit-compatible across backends.
pub trait Clock {
    /// The current instant.
    fn now(&self) -> SimTime;
    /// Blocks the calling logical process for `d`, letting background
    /// work (timers, message delivery) make progress in the meantime.
    fn sleep(&mut self, d: SimDuration);
    /// A deterministic RNG stream derived from the run seed and a label.
    fn rng_for(&self, label: &str) -> SimRng;
}

/// Metrics and causal tracing.
///
/// Span details are passed as `&dyn Fn() -> String` (object safety);
/// they are only invoked when the sink is enabled, so a disabled sink
/// still pays no allocation.
pub trait Observe {
    /// Run metrics.
    fn metrics(&self) -> &Metrics;
    /// Mutable run metrics (client-side instrumentation).
    fn metrics_mut(&mut self) -> &mut Metrics;
    /// Opens a causal span under the current context and makes it
    /// current. Pair with [`Observe::span_exit`].
    fn span_enter(&mut self, kind: &str, detail: &dyn Fn() -> String) -> SpanId;
    /// Opens a causal span under an explicit parent context.
    fn span_enter_under(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: &dyn Fn() -> String,
    ) -> SpanId;
    /// Closes a span opened by this trait; spans close in LIFO order.
    fn span_exit(&mut self, id: SpanId);
    /// The innermost open span's context.
    fn current_ctx(&self) -> Option<TraceContext>;
    /// Records a point event attributed to the current context.
    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String);
}

/// Message delivery and completion.
pub trait Transport<M: RtMessage> {
    /// Synchronous RPC: send, wait (advancing this backend's notion of
    /// time), return the reply or the failure.
    fn rpc(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        timeout: SimDuration,
    ) -> Result<M, NetError>;
    /// Launches a request asynchronously; collect with
    /// [`Transport::try_take_reply`] / [`Transport::wait_any`].
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> ReplyToken;
    /// Launches several sibling requests as one wire-level envelope.
    fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<M>) -> ReplyToken;
    /// Collects an async reply if it has completed. Never blocks.
    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<M, NetError>>;
    /// Blocks until one of `tokens` completes or `deadline` passes;
    /// the completed reply is left for [`Transport::try_take_reply`].
    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken>;
    /// Gives up on a request whose reply its caller will not take: it
    /// ends now as a timed-out [`Transport::rpc`] does, counting
    /// `rpc.failed`, unless it has ended already, and a reply already in
    /// is dropped. The default does nothing.
    fn abandon(&mut self, _token: ReplyToken) {}
    /// Deterministic latency estimate for closest-first scheduling.
    /// Backends without a latency model return zero (callers break ties
    /// by element id, so ordering stays deterministic).
    fn estimate_latency(&self, a: NodeId, b: NodeId) -> SimDuration;
}

/// Per-node services and liveness.
pub trait ServiceHost<M: RtMessage> {
    /// Installs (or replaces) the service handling messages on `node`.
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<M> + Send>);
    /// Visits the service on `node` untyped; returns false when the node
    /// hosts no service. Prefer [`RuntimeExt::with_service`].
    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn Any)) -> bool;
    /// Mutable visit of the service on `node`.
    fn with_service_any_mut(&mut self, node: NodeId, f: &mut dyn FnMut(&mut dyn Any)) -> bool;
    /// Whether the node is currently up.
    fn is_up(&self, node: NodeId) -> bool;
    /// Whether a route currently exists from `from` to `to`.
    fn reachable(&self, from: NodeId, to: NodeId) -> bool;
}

/// When a runtime task runs next: what [`RtTask::run`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Never: the task is done, and its box is dropped.
    Never,
    /// At this instant, or at once if it has passed.
    At(SimTime),
    /// When the reply under this token lands, or at the deadline if that
    /// comes first. The request then ends as a timed-out
    /// [`Transport::rpc`] does: it counts `rpc.failed`, and
    /// [`Transport::try_take_reply`] finds nothing under the token.
    Reply(ReplyToken, SimTime),
}

/// A unit of deferred work, the runtime-agnostic analogue of
/// [`weakset_sim::world::Task`]. `Send` because the threaded backend
/// carries pending tasks across view clones handed to other threads.
pub trait RtTask<M: RtMessage>: Send {
    /// Label recorded when the task fires.
    fn label(&self) -> &str {
        "task"
    }
    /// Runs one step of the task against whichever backend scheduled it,
    /// and says when to run the next. The backend keeps the box and fires
    /// it again then, so a step never waits itself: it calls no
    /// [`Transport::rpc`], [`Clock::sleep`] or [`Transport::wait_any`],
    /// and no foreground wait is held by it.
    fn run(&mut self, rt: &mut (dyn Runtime<M> + 'static)) -> Wake;
}

/// Adapts a closure into an [`RtTask`] (there is no blanket `FnMut`
/// impl: downstream crates implement `RtTask` for their own types, and
/// a blanket would conflict).
pub struct TaskFn<F>(pub F);

impl<M: RtMessage, F: FnMut(&mut (dyn Runtime<M> + 'static)) -> Wake + Send> RtTask<M>
    for TaskFn<F>
{
    fn run(&mut self, rt: &mut (dyn Runtime<M> + 'static)) -> Wake {
        (self.0)(rt)
    }
}

/// Deferred scheduling.
pub trait Spawner<M: RtMessage> {
    /// Schedules `task` to run `d` from now, and again at each [`Wake`]
    /// its runs return. The simulator fires it from the event queue; the
    /// threaded backend fires it from the driving view's timer heap while
    /// that view sleeps or waits.
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<M>>);
}

/// The full execution environment: what `StoreClient`, the `elements`
/// iterators, and the gossip engine run against.
pub trait Runtime<M: RtMessage>:
    Clock + Observe + ServiceHost<M> + Transport<M> + Spawner<M>
{
}

impl<M: RtMessage, T: Clock + Observe + ServiceHost<M> + Transport<M> + Spawner<M>> Runtime<M>
    for T
{
}

/// Typed conveniences over [`ServiceHost`]'s object-safe visitors.
pub trait RuntimeExt<M: RtMessage>: ServiceHost<M> {
    /// Reads the service on `node` downcast to `T`. `None` when the node
    /// hosts no service or it is not a `T`.
    fn with_service<T: Any, R>(&self, node: NodeId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let mut f = Some(f);
        let mut out = None;
        self.with_service_any(node, &mut |any| {
            if let Some(t) = any.downcast_ref::<T>() {
                if let Some(f) = f.take() {
                    out = Some(f(t));
                }
            }
        });
        out
    }

    /// Mutates the service on `node` downcast to `T`.
    fn with_service_mut<T: Any, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let mut f = Some(f);
        let mut out = None;
        self.with_service_any_mut(node, &mut |any| {
            if let Some(t) = any.downcast_mut::<T>() {
                if let Some(f) = f.take() {
                    out = Some(f(t));
                }
            }
        });
        out
    }
}

impl<M: RtMessage, S: ServiceHost<M> + ?Sized> RuntimeExt<M> for S {}
