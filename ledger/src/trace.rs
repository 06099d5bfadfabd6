//! The ledger's own tracing: spans recorded from outside the crates
//! under test, by decorators placed at their public boundaries.
//!
//! * [`TracedRt`] delegates the whole `Runtime<StoreMsg>` surface to a
//!   `ThreadedRuntime` and times `rpc`, `send` and `wait_any`.
//! * [`TracedService`] wraps a `StoreServer` and times `handle` per
//!   message kind, on the node's own thread.
//! * The harness opens one [`Kind::Op`] span around every operation.
//!
//! Every span carries its operation's id and the span that caused it
//! (`parent`), so a handler span on a node thread hangs under the rpc
//! span of the client that sent the request. That link needs no
//! propagation through the code under test: the load is one closed-loop
//! client, so "the client's innermost open span" is a single shared
//! cell. Spans stay in memory and are written as Chrome-trace JSON when
//! the run ends. A layer's self time is its spans minus their children.

use std::any::Any;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use weakset_runtime::prelude::*;
use weakset_sim::metrics::{Metrics, SpanId, TraceContext};
use weakset_sim::net::NetError;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::{ReplyToken, Service, ServiceCtx};
use weakset_store::msg::StoreMsg;
use weakset_store::prelude::StoreServer;

/// What a span measured. The order is the order of the report rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Kind {
    /// One whole operation, opened by the harness.
    Op,
    /// `Transport::rpc` on the client view.
    Rpc,
    /// `Transport::send` / `send_batch` on the client view.
    Send,
    /// `Transport::wait_any` on the client view.
    WaitAny,
    /// `StoreServer::handle` of a `ListMembers`.
    ListMembers,
    /// ... of an `AddMember`.
    AddMember,
    /// ... of a `RemoveMember`.
    RemoveMember,
    /// ... of a `SyncMembers`.
    SyncMembers,
    /// ... of a `PutObject`.
    PutObject,
    /// ... of any other request.
    OtherRequest,
    /// `dst::gen::generate*`.
    DstGenerate,
    /// `dst::run::execute`.
    DstExecute,
    /// `dst::oracle::check`, re-run from outside.
    SpecCheck,
}

/// Number of [`Kind`] variants.
pub const KINDS: usize = Kind::SpecCheck as usize + 1;

impl Kind {
    /// The span's name in the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Rpc => "runtime_threaded.rpc",
            Kind::Send => "runtime_threaded.send",
            Kind::WaitAny => "runtime_threaded.wait_any",
            Kind::ListMembers => "store_server.list_members",
            Kind::AddMember => "store_server.add_member",
            Kind::RemoveMember => "store_server.remove_member",
            Kind::SyncMembers => "store_server.sync_members",
            Kind::PutObject => "store_server.put_object",
            Kind::OtherRequest => "store_server.other",
            Kind::DstGenerate => "dst.generate",
            Kind::DstExecute => "dst.execute",
            Kind::SpecCheck => "spec_visibility.check",
        }
    }

    /// Whether the span is a server-side handler span.
    pub fn is_handler(self) -> bool {
        (Kind::ListMembers..=Kind::OtherRequest).contains(&self)
    }

    /// Whether the span is a client-side transport span.
    pub fn is_transport(self) -> bool {
        (Kind::Rpc..=Kind::WaitAny).contains(&self)
    }

    fn of_request(msg: &StoreMsg) -> Kind {
        match msg {
            StoreMsg::ListMembers(_) => Kind::ListMembers,
            StoreMsg::AddMember { .. } => Kind::AddMember,
            StoreMsg::RemoveMember { .. } => Kind::RemoveMember,
            StoreMsg::SyncMembers { .. } => Kind::SyncMembers,
            StoreMsg::PutObject(_) => Kind::PutObject,
            StoreMsg::WithSession { inner, .. } => Kind::of_request(inner),
            _ => Kind::OtherRequest,
        }
    }
}

/// Window id of spans recorded during set-up.
pub const SETUP_WINDOW: u16 = 0;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was measured.
    pub kind: Kind,
    /// 0 = the driver thread, 1.. = node threads in creation order.
    pub thread: u8,
    /// [`SETUP_WINDOW`], or 1 + the index of the timed window.
    pub window: u16,
    /// The operation it belongs to (0 outside any op).
    pub op: u32,
    /// This span's id (ids start at 1).
    pub id: u32,
    /// The span that caused it (0 for none).
    pub parent: u32,
    /// Start, in nanoseconds since the store was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
}

/// A client-side span that has been entered but not yet exited.
pub struct Open {
    kind: Kind,
    id: u32,
    parent: u32,
    start: Instant,
}

/// The in-memory span log plus the exact call counters the service
/// decorator keeps whether or not spans are being recorded.
pub struct SpanStore {
    epoch: Instant,
    recording: AtomicBool,
    window: AtomicU32,
    op: AtomicU32,
    /// Innermost open client-side span. `Relaxed` everywhere: it only
    /// labels spans, and a node thread reads it after receiving the
    /// request over the mailbox channel, which orders it after the
    /// client's store.
    current: AtomicU32,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Requests handled by the wrapped servers.
    pub server_calls: AtomicU64,
    /// Membership entries carried by their replies.
    pub reply_entries: AtomicU64,
}

impl SpanStore {
    /// An empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(SpanStore {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            window: AtomicU32::new(SETUP_WINDOW as u32),
            op: AtomicU32::new(0),
            current: AtomicU32::new(0),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            server_calls: AtomicU64::new(0),
            reply_entries: AtomicU64::new(0),
        })
    }

    /// Makes room for `spans` more spans, so that recording never has to
    /// grow the log inside a timed window.
    pub fn reserve(&self, spans: usize) {
        self.spans
            .lock()
            .expect("span log poisoned: a recording thread panicked")
            .reserve(spans);
    }

    /// Starts or stops recording; `window` tags the spans that follow.
    pub fn set_recording(&self, on: bool, window: u16) {
        self.window.store(window as u32, Relaxed);
        self.recording.store(on, Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Relaxed)
    }

    /// Opens a client-side span under the current one and makes it
    /// current. [`Kind::Op`] also starts a new operation id.
    pub fn enter(&self, kind: Kind) -> Open {
        if kind == Kind::Op {
            self.op.fetch_add(1, Relaxed);
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        let parent = self.current.swap(id, Relaxed);
        Open {
            kind,
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Closes a span opened by [`SpanStore::enter`]; returns its length
    /// in nanoseconds.
    pub fn exit(&self, open: Open) -> u64 {
        let dur = open.start.elapsed().as_nanos() as u64;
        self.current.store(open.parent, Relaxed);
        self.push(open.kind, 0, open.id, open.parent, open.start, dur);
        dur
    }

    fn push(&self, kind: Kind, thread: u8, id: u32, parent: u32, start: Instant, dur_ns: u64) {
        let span = Span {
            kind,
            thread,
            window: self.window.load(Relaxed) as u16,
            op: self.op.load(Relaxed),
            id,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur_ns.min(u32::MAX as u64) as u32,
        };
        self.spans
            .lock()
            .expect("span log poisoned: a recording thread panicked")
            .push(span);
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log poisoned: a recording thread panicked"),
        )
    }
}

/// Per-window sums over a span log: for every window and kind, the
/// number of spans and their total nanoseconds.
pub struct WindowSums {
    /// `[window][kind] -> (spans, total ns)`.
    pub by_window: Vec<[(u64, u64); KINDS]>,
}

impl WindowSums {
    /// Folds a span log; `windows` is the highest window id plus one.
    pub fn of(spans: &[Span], windows: usize) -> Self {
        let mut by_window = vec![[(0u64, 0u64); KINDS]; windows];
        for s in spans {
            let cell = &mut by_window[s.window as usize][s.kind as usize];
            cell.0 += 1;
            cell.1 += s.dur_ns as u64;
        }
        WindowSums { by_window }
    }

    /// Total nanoseconds of the kinds selected by `pick` in one window.
    pub fn ns(&self, window: usize, pick: impl Fn(Kind) -> bool) -> u64 {
        ALL_KINDS
            .iter()
            .filter(|&&k| pick(k))
            .map(|&k| self.by_window[window][k as usize].1)
            .sum()
    }

    /// `(spans, total ns)` of one kind in one window.
    pub fn cell(&self, window: usize, kind: Kind) -> (u64, u64) {
        self.by_window[window][kind as usize]
    }
}

/// Every kind, in declaration order.
pub const ALL_KINDS: [Kind; KINDS] = [
    Kind::Op,
    Kind::Rpc,
    Kind::Send,
    Kind::WaitAny,
    Kind::ListMembers,
    Kind::AddMember,
    Kind::RemoveMember,
    Kind::SyncMembers,
    Kind::PutObject,
    Kind::OtherRequest,
    Kind::DstGenerate,
    Kind::DstExecute,
    Kind::SpecCheck,
];

/// Spans written to the Chrome trace; the rest only feed the sums (a
/// full rt-read-fanout run records about a million and a half).
pub const CHROME_SPAN_LIMIT: usize = 50_000;

/// Renders the first [`CHROME_SPAN_LIMIT`] timed-window spans (and every
/// set-up span before them) as Chrome trace-event JSON: complete (`X`)
/// events, microsecond timestamps, `tid` = recording thread, and the
/// op / span / parent ids under `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(160 * spans.len().min(CHROME_SPAN_LIMIT) + 256);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().take(CHROME_SPAN_LIMIT).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{workload}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"op\": {}, \"span\": {}, \"parent\": {}, \"window\": {}}}}}",
            s.kind.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.thread,
            s.op,
            s.id,
            s.parent,
            s.window,
        )
        .unwrap();
    }
    out.push_str("\n]}\n");
    out
}

/// A `StoreServer` whose `handle` is timed per message kind. Counts
/// calls and reply entries always; reads the clock and records a span
/// only while the store is recording.
pub struct TracedService {
    inner: StoreServer,
    store: Arc<SpanStore>,
    thread: u8,
}

impl TracedService {
    /// Wraps a fresh server; `thread` numbers the node (1..).
    pub fn new(store: Arc<SpanStore>, thread: u8) -> Self {
        TracedService {
            inner: StoreServer::new(),
            store,
            thread,
        }
    }
}

impl Service<StoreMsg> for TracedService {
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
        let kind = Kind::of_request(&msg);
        let start = self.store.recording().then(Instant::now);
        let reply = self.inner.handle(ctx, from, msg);
        if let Some(start) = start {
            let dur = start.elapsed().as_nanos() as u64;
            let id = self.store.next_id.fetch_add(1, Relaxed);
            let parent = self.store.current.load(Relaxed);
            self.store.push(kind, self.thread, id, parent, start, dur);
        }
        self.store.server_calls.fetch_add(1, Relaxed);
        if let StoreMsg::Members { entries, .. } = &reply {
            self.store
                .reply_entries
                .fetch_add(entries.len() as u64, Relaxed);
        }
        reply
    }
}

/// A `Runtime<StoreMsg>` that delegates everything to a
/// `ThreadedRuntime` and, while its store is recording, times the
/// transport calls. Every workload drives its fleet through it: without
/// a store (untraced runs) or with recording off, a call costs one
/// `Option` match on top of the delegation.
pub struct TracedRt {
    inner: ThreadedRuntime<StoreMsg>,
    store: Option<Arc<SpanStore>>,
}

impl TracedRt {
    /// Wraps `inner`; with `None` the decorator only delegates.
    pub fn new(inner: ThreadedRuntime<StoreMsg>, store: Option<Arc<SpanStore>>) -> Self {
        TracedRt { inner, store }
    }

    /// `ThreadedRuntime::shutdown`: stops the node threads.
    pub fn shutdown(&mut self, timeout: Duration) -> Result<(), Vec<NodeId>> {
        self.inner.shutdown(timeout)
    }

    fn timed<R>(&mut self, kind: Kind, f: impl FnOnce(&mut ThreadedRuntime<StoreMsg>) -> R) -> R {
        match &self.store {
            Some(store) if store.recording() => {
                let open = store.enter(kind);
                let out = f(&mut self.inner);
                store.exit(open);
                out
            }
            _ => f(&mut self.inner),
        }
    }
}

impl Clock for TracedRt {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn sleep(&mut self, d: SimDuration) {
        self.inner.sleep(d)
    }
    fn rng_for(&self, label: &str) -> SimRng {
        self.inner.rng_for(label)
    }
}

impl Observe for TracedRt {
    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }
    fn metrics_mut(&mut self) -> &mut Metrics {
        self.inner.metrics_mut()
    }
    fn span_enter(&mut self, kind: &str, detail: &dyn Fn() -> String) -> SpanId {
        self.inner.span_enter(kind, detail)
    }
    fn span_enter_under(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: &dyn Fn() -> String,
    ) -> SpanId {
        self.inner.span_enter_under(parent, kind, detail)
    }
    fn span_exit(&mut self, id: SpanId) {
        self.inner.span_exit(id)
    }
    fn current_ctx(&self) -> Option<TraceContext> {
        self.inner.current_ctx()
    }
    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String) {
        self.inner.trace_event(kind, detail)
    }
}

impl Transport<StoreMsg> for TracedRt {
    fn rpc(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: StoreMsg,
        timeout: SimDuration,
    ) -> Result<StoreMsg, NetError> {
        self.timed(Kind::Rpc, |rt| rt.rpc(from, to, msg, timeout))
    }
    fn send(&mut self, from: NodeId, to: NodeId, msg: StoreMsg) -> ReplyToken {
        self.timed(Kind::Send, |rt| rt.send(from, to, msg))
    }
    fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<StoreMsg>) -> ReplyToken {
        self.timed(Kind::Send, |rt| rt.send_batch(from, to, parts))
    }
    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<StoreMsg, NetError>> {
        self.inner.try_take_reply(token)
    }
    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        self.timed(Kind::WaitAny, |rt| rt.wait_any(tokens, deadline))
    }
    fn estimate_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.inner.estimate_latency(a, b)
    }
}

impl ServiceHost<StoreMsg> for TracedRt {
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<StoreMsg> + Send>) {
        self.inner.install_service(node, svc)
    }
    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn Any)) -> bool {
        self.inner.with_service_any(node, f)
    }
    fn with_service_any_mut(&mut self, node: NodeId, f: &mut dyn FnMut(&mut dyn Any)) -> bool {
        self.inner.with_service_any_mut(node, f)
    }
    fn is_up(&self, node: NodeId) -> bool {
        self.inner.is_up(node)
    }
    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.inner.reachable(from, to)
    }
}

impl Spawner<StoreMsg> for TracedRt {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<StoreMsg>>) {
        self.inner.spawn_in(d, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_window() {
        let store = SpanStore::new();
        store.set_recording(true, 1);
        let op = store.enter(Kind::Op);
        let rpc = store.enter(Kind::Rpc);
        let rpc_id = rpc.id;
        // What the service decorator does on the node thread.
        let start = Instant::now();
        store.push(
            Kind::ListMembers,
            1,
            99,
            store.current.load(Relaxed),
            start,
            500,
        );
        store.exit(rpc);
        store.exit(op);
        store.set_recording(false, 1);
        let spans = store.take();
        assert_eq!(spans.len(), 3);
        let handler = spans.iter().find(|s| s.kind == Kind::ListMembers).unwrap();
        assert_eq!(handler.parent, rpc_id, "handler hangs under the rpc");
        let rpc = spans.iter().find(|s| s.kind == Kind::Rpc).unwrap();
        let op = spans.iter().find(|s| s.kind == Kind::Op).unwrap();
        assert_eq!(rpc.parent, op.id);
        assert_eq!(op.parent, 0);
        assert!(spans.iter().all(|s| s.op == 1 && s.window == 1));
        let sums = WindowSums::of(&spans, 2);
        assert_eq!(sums.cell(1, Kind::ListMembers), (1, 500));
        assert_eq!(sums.ns(1, Kind::is_handler), 500);
        assert_eq!(sums.ns(0, |_| true), 0);
        let json = chrome_trace(&spans, "unit");
        let doc = weakset_obs::Json::parse(&json).expect("chrome trace is valid JSON");
        assert!(doc.get("traceEvents").is_some());
    }

    #[test]
    fn kinds_are_listed_once_each_in_order() {
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        assert!(Kind::SyncMembers.is_handler() && !Kind::Rpc.is_handler());
        assert!(Kind::WaitAny.is_transport() && !Kind::Op.is_transport());
    }
}
