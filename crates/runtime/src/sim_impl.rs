//! The simulator as a [`Runtime`](crate::traits::Runtime): trait impls for
//! [`weakset_sim::world::World`] that delegate to its inherent methods;
//! its rpc is [`Transport::rpc`]'s, a send and a wait.
//!
//! Nothing here adds behavior — the impls exist so `&mut World<M>`
//! coerces to `&mut dyn Runtime<M>` at call sites. Concrete-typed
//! callers (tests, DST, benches) keep hitting the inherent methods
//! directly; only `dyn`-typed callers dispatch through these.

use crate::traits::{Clock, Observe, RtMessage, RtTask, ServiceHost, Spawner, Transport, Wake};
use std::any::Any;
use weakset_sim::metrics::{Metrics, SpanId, TraceContext};
use weakset_sim::net::NetError;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::{ReplyToken, Service, Task, World};

impl<M: RtMessage> Clock for World<M> {
    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn sleep(&mut self, d: SimDuration) {
        World::sleep(self, d)
    }

    fn rng_for(&self, label: &str) -> SimRng {
        World::rng_for(self, label)
    }
}

impl<M: RtMessage> Observe for World<M> {
    fn metrics(&self) -> &Metrics {
        World::metrics(self)
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        World::metrics_mut(self)
    }

    fn span_enter(&mut self, kind: &str, detail: &dyn Fn() -> String) -> SpanId {
        World::span_enter(self, kind, detail)
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
        World::span_exit(self, id)
    }

    fn current_ctx(&self) -> Option<TraceContext> {
        World::current_ctx(self)
    }

    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String) {
        World::trace_event(self, kind, detail)
    }
}

impl<M: RtMessage> Transport<M> for World<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> ReplyToken {
        World::send(self, from, to, msg)
    }

    fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<M>) -> ReplyToken {
        World::send_batch(self, from, to, parts)
    }

    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<M, NetError>> {
        World::try_take_reply(self, token)
    }

    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        World::wait_any(self, tokens, deadline)
    }

    fn abandon(&mut self, token: ReplyToken) {
        World::abandon(self, token)
    }

    fn estimate_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        World::estimate_latency(self, a, b)
    }
}

impl<M: RtMessage> ServiceHost<M> for World<M> {
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<M> + Send>) {
        World::install_service(self, node, svc)
    }

    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn Any)) -> bool {
        match World::service_dyn(self, node) {
            Some(any) => {
                f(any);
                true
            }
            None => false,
        }
    }

    fn with_service_any_mut(&mut self, node: NodeId, f: &mut dyn FnMut(&mut dyn Any)) -> bool {
        match World::service_dyn_mut(self, node) {
            Some(any) => {
                f(any);
                true
            }
            None => false,
        }
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.topology().is_up(node)
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.topology().reachable(from, to)
    }
}

/// Bridges a backend-agnostic [`RtTask`] into the simulator's event
/// queue as a [`weakset_sim::world::Task`]. Boxed once, at
/// [`Spawner::spawn_in`]: each [`Wake`] re-queues the same box.
struct TaskAdapter<M: RtMessage>(Box<dyn RtTask<M>>);

impl<M: RtMessage> Task<M> for TaskAdapter<M> {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn run(mut self: Box<Self>, world: &mut World<M>) {
        match self.0.run(world) {
            Wake::Never => {}
            Wake::At(t) => world.spawn_boxed_at(t, self),
            Wake::Reply(token, deadline) => world.wake_on_reply(token, deadline, self),
        }
    }
}

impl<M: RtMessage> Spawner<M> for World<M> {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<M>>) {
        World::spawn_in(self, d, TaskAdapter(task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Runtime, RuntimeExt, TaskFn};
    use std::sync::{Arc, Mutex};
    use weakset_sim::net::BatchEnvelope;
    use weakset_sim::topology::Topology;
    use weakset_sim::world::ServiceCtx;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Val(u64),
        Batch(Vec<Msg>),
    }

    impl BatchEnvelope for Msg {
        fn wrap_batch(parts: Vec<Self>) -> Self {
            Msg::Batch(parts)
        }
        fn unwrap_batch(self) -> Result<Vec<Self>, Self> {
            match self {
                Msg::Batch(parts) => Ok(parts),
                other => Err(other),
            }
        }
    }

    struct Echo {
        hits: u64,
    }

    impl Service<Msg> for Echo {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
            self.hits += 1;
            match msg {
                Msg::Val(n) => Msg::Val(n + 1),
                batch => batch,
            }
        }
    }

    fn world() -> (World<Msg>, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a", 0);
        let b = t.add_node("b", 1);
        let mut w = World::new(
            0,
            t,
            weakset_sim::latency::LatencyModel::Constant(SimDuration::from_millis(1)),
        );
        w.install_service(b, Box::new(Echo { hits: 0 }));
        (w, a, b)
    }

    #[test]
    fn world_coerces_to_dyn_runtime() {
        let (mut w, a, b) = world();
        let rt: &mut dyn Runtime<Msg> = &mut w;
        let reply = rt.rpc(a, b, Msg::Val(1), SimDuration::from_millis(100));
        assert_eq!(reply, Ok(Msg::Val(2)));
        assert!(rt.now() > SimTime::ZERO);
        assert!(rt.is_up(b));
        assert!(rt.reachable(a, b));
    }

    #[test]
    fn typed_service_access_through_dyn() {
        let (mut w, _a, b) = world();
        let rt: &mut dyn Runtime<Msg> = &mut w;
        let hits = rt.with_service(b, |e: &Echo| e.hits);
        assert_eq!(hits, Some(0));
        let bumped = rt.with_service_mut(b, |e: &mut Echo| {
            e.hits += 7;
            e.hits
        });
        assert_eq!(bumped, Some(7));
        assert_eq!(rt.with_service(NodeId(99), |e: &Echo| e.hits), None);
    }

    #[test]
    fn spawned_rt_task_fires_on_sim_queue() {
        let (mut w, _a, b) = world();
        {
            let rt: &mut dyn Runtime<Msg> = &mut w;
            rt.spawn_in(
                SimDuration::from_millis(5),
                Box::new(TaskFn(move |rt: &mut (dyn Runtime<Msg> + 'static)| {
                    rt.with_service_mut(b, |e: &mut Echo| e.hits = 42);
                    Wake::Never
                })),
            );
            rt.sleep(SimDuration::from_millis(10));
        }
        assert_eq!(w.service::<Echo>(b).map(|e| e.hits), Some(42));
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
                    let token = rt.send(a, b, Msg::Val(1));
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
        let (mut w, a, b) = world();
        let seen = Seen::default();
        Spawner::spawn_in(&mut w, SimDuration::ZERO, pinger(a, b, &seen));
        w.sleep(SimDuration::from_millis(100));
        let (at, _, reply) = seen.lock().unwrap().take().expect("the task was woken");
        // One round trip over 1 ms links, not the 50 ms deadline.
        assert_eq!(at, SimTime::from_millis(2));
        assert_eq!(reply, Some(Ok(Msg::Val(2))));
        assert_eq!(w.metrics().counter("rpc.ok"), 1);
        // The sleep ran past the 50 ms deadline, which the reply cancelled.
        assert_eq!(w.metrics().counter("sim.dispatch.deadline"), 0);
    }

    #[test]
    fn a_task_whose_request_is_lost_runs_at_its_deadline() {
        let (mut w, a, b) = world();
        w.topology_mut()
            .set_link(a, b, weakset_sim::link::LinkState::lossy(1.0));
        let seen = Seen::default();
        Spawner::spawn_in(&mut w, SimDuration::ZERO, pinger(a, b, &seen));
        w.sleep(SimDuration::from_millis(100));
        let (at, token, reply) = seen.lock().unwrap().take().expect("the task was woken");
        assert_eq!(at, SimTime::from_millis(50));
        assert_eq!(reply, None);
        assert_eq!(w.metrics().counter("msg.dropped"), 1);
        assert_eq!(w.metrics().counter("rpc.failed"), 1);
        assert_eq!(w.try_take_reply(token), None, "nothing stays in completed");
    }
}
