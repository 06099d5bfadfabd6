//! The real-clock backend: one OS thread per node, in-process mpsc
//! mailboxes, wall time reported in [`SimTime`] microseconds.
//!
//! ## Shape
//!
//! A [`ThreadedRuntime`] value is a *view* onto a shared node fleet.
//! [`ThreadedRuntime::add_node`] spawns a thread that drains that
//! node's mailbox and runs its installed [`Service`] — exactly the
//! handler type the simulator hosts, which is what makes server code
//! portable. Cloning a view (for concurrent client load) shares the
//! fleet but gives the clone its own completion channel, token space,
//! timer heap, metrics, and span stack, so views never contend.
//!
//! ## Idle hand-off
//!
//! An `rpc` and a `send` take one path (`ThreadedRuntime::launch`): a
//! request whose target is idle — empty mailbox, nobody inside the
//! handler — is first offered to [`Service::serve_inline`] on the
//! *calling* thread, under the node's own slot lock. A service whose
//! handlers are bounded state steps runs the request there, reads and
//! writes alike: the rpc returns its reply without a thread hand-off,
//! and the send leaves it waiting under its token. A service that hands
//! the request back, and any busy node, goes through the mailbox. The
//! slot lock, not the node's thread, is the node's serialisation point: see
//! `NodeHandle::serve_inline` for the two conditions and what each
//! guarantees. Both paths make one guarded call, `NodeSlot::serve`: one
//! [`ServiceCtx`], one `catch_unwind` around the `dyn Service` call, so
//! a handler that panics, on either path, crashes its node.
//!
//! ## Faults
//!
//! The fleet's only fault table is the simulator's own [`Topology`],
//! shared by every view and every node thread and changed only through
//! [`ThreadedRuntime::apply_fault`], `add_node` and a panicking
//! handler's crash: a fault means what it means on the simulator —
//! messages relay through up nodes, a new partition replaces the old
//! one. Each change bumps a fleet-wide fault epoch, `Release`, before
//! the table's lock is released. A view routes its rpcs and sends
//! through its own copy of the fleet and fault tables, tagged with the
//! epoch it was taken at: one `Acquire` load finds the copy current,
//! and a moved epoch re-copies both tables under their locks. So a
//! fault applied before an rpc or send begins, on any view or thread,
//! is always seen by it; a fault racing one may or may not be, as on
//! the simulator a fault racing a message in flight. Liveness queries
//! and a down node eating its mail read the shared table itself.
//!
//! ## Time and timers
//!
//! `now()` is `Instant::elapsed` since the runtime was created,
//! truncated to microseconds, so metrics and conformance checks are
//! unit-compatible with simulator runs. Deferred tasks
//! ([`Spawner::spawn_in`]) live on the *view's* timer heap and fire
//! only while that view is inside `sleep`, `rpc`, or `wait_any` — the
//! threaded analogue of the simulator firing tasks while the client
//! pumps the event loop. A task is woken and never waits itself: each
//! run returns its [`Wake`], and the view re-queues the same box on its
//! heap — at an instant, or on a reply token, whose completion moves the
//! task to the front of the heap and whose deadline, if it comes first,
//! ends the request as a timed-out `rpc` and fires the task. Every wait
//! of the view is one loop (`ThreadedRuntime::wait_until`), which
//! blocks on the completion channel until the next timer is due.
//!
//! ## Shutdown
//!
//! Node threads never spin: they block on `recv_timeout` and re-check
//! the fleet-wide stop flag every slice, so they exit within ~20ms of
//! either [`ThreadedRuntime::shutdown`] or the last view being dropped
//! (which disconnects every mailbox). `shutdown` polls with a hard
//! deadline and reports the nodes that failed to stop instead of
//! hanging the caller.
//!
//! ## Metrics and the black box
//!
//! Each view counts into its own registry, with the simulator's names
//! and meanings (`rpc.sent`, `rpc.ok`, `rpc.failed`, `rpc.latency`),
//! so views never share a metrics lock; a fleet-wide reading is the
//! views' registries folded with `MetricsRegistry::merge`. As there,
//! every request is accounted once, where it ends (`ThreadedRuntime::end`),
//! whether it was an rpc or a send, and `rpc.latency` times mailbox
//! crossings only: a request served in place reads no clock (its
//! caller's own histogram holds its time) and counts `rpc.shared`. Boundary
//! crossings (rpc outcomes with their causes, sends, waits, timer
//! fires) are noted in one place, the attached [`Recorder`]: its
//! recording is the black box, marked truncated when shutdown reports
//! hung nodes.

use crate::record::{hash_debug, RecEvent, RecOutcome, Recorder};
use crate::traits::{Clock, Observe, RtMessage, RtTask, ServiceHost, Spawner, Transport, Wake};
use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use weakset_obs::sink::UNCLOSED_SPANS;
use weakset_sim::fault::FaultAction;
use weakset_sim::idmap::IdMap;
use weakset_sim::metrics::{EventSink, Metrics, SpanId, TraceContext};
use weakset_sim::net::NetError;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::topology::Topology;
use weakset_sim::world::{ReplyToken, Service, ServiceCtx};

/// How long a node thread blocks on its mailbox before re-checking the
/// stop flag. Bounds both shutdown latency and idle wakeup rate.
const MAILBOX_SLICE: Duration = Duration::from_millis(20);

/// Drops a late reply out of line, off the path every reply takes:
/// dropped inside `complete`, it read ~3.5 % slower on `ledger`'s
/// `rt-read-fanout` (DESIGN.md §5, "A late reply is not kept").
#[cold]
#[inline(never)]
fn discard<T>(_: T) {}

/// What a node's thread sends back for a request: its reply or error,
/// or `None` when the request was dropped (a down node ate it, or no
/// service was installed). Its caller then times out; the notice only
/// ends a send's account.
type Completion<M> = (u64, Option<Result<M, NetError>>);

/// One request crossing a node's mailbox, with the channel its reply
/// should come back on.
struct Envelope<M> {
    from: NodeId,
    msg: M,
    token: u64,
    reply: Sender<Completion<M>>,
}

/// A node's lock-free mailbox occupancy cell, shared by the posting
/// views and the node's own thread: `depth` counts envelopes posted but
/// not yet finished (queued, plus the request currently inside the
/// handler). It gates the idle hand-off (`NodeHandle::serve_inline`).
#[derive(Clone, Default)]
struct MailboxStats {
    depth: Arc<AtomicU64>,
}

impl MailboxStats {
    /// An envelope entered the mailbox.
    fn posted(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// The envelope is fully disposed of (replied, eaten, or dropped).
    fn finished(&self) {
        saturating_dec(&self.depth);
    }
}

/// Decrements without wrapping below zero (posts and drains race by
/// design; a transient under-count must not underflow to u64::MAX).
fn saturating_dec(cell: &AtomicU64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while cur > 0 {
        match cell.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// What a node's slot lock guards: the installed service and the RNG
/// stream its handlers draw from — one stream, whichever thread runs
/// the handler.
struct NodeSlot<M> {
    node: NodeId,
    svc: Option<Box<dyn Service<M> + Send>>,
    rng: SimRng,
}

/// What one guarded handler run came to: a reply, the request handed
/// back for the mailbox (no service, or `serve_inline` declined it), or
/// a panic that crashed the node.
enum Served<M> {
    Reply(M),
    Declined(M),
    Crashed,
}

impl<M: 'static> NodeSlot<M> {
    /// Runs `msg` from `from` on the installed service — `serve_inline`
    /// when `inline`, else `handle` — with this node's context. The one
    /// panic guard of both paths: a panicking handler crashes the node
    /// in `faults`. The guard this runs under outlives the unwind, so
    /// the slot is not poisoned.
    fn serve(&mut self, faults: &Faults, from: NodeId, msg: M, inline: bool) -> Served<M> {
        let Some(svc) = self.svc.as_deref_mut() else {
            return Served::Declined(msg);
        };
        let mut ctx = ServiceCtx {
            node: self.node,
            rng: &mut self.rng,
        };
        match catch_unwind(AssertUnwindSafe(|| {
            if inline {
                svc.serve_inline(&mut ctx, from, msg)
            } else {
                Ok(svc.handle(&mut ctx, from, msg))
            }
        })) {
            Ok(Ok(reply)) => Served::Reply(reply),
            Ok(Err(msg)) => Served::Declined(msg),
            Err(_panic) => {
                faults.change(|topology| topology.crash(self.node));
                Served::Crashed
            }
        }
    }
}

/// The fleet's fault table and the epoch that counts its changes.
struct Faults {
    topology: Mutex<Topology>,
    /// Bumped by every change, under the topology lock, so the value
    /// read under that lock names the table's state exactly. Starts at
    /// 1: epoch 0 is [`Routes::stale`]'s, which no fleet ever has.
    epoch: AtomicU64,
}

impl Faults {
    /// Changes the topology, then bumps the epoch (`Release`) before the
    /// lock is released: a view whose `Acquire` load sees the new epoch
    /// re-copies the table, and one that began after the change returned
    /// cannot miss it.
    fn change<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        let mut topology = lock(&self.topology);
        let changed = f(&mut topology);
        self.epoch.fetch_add(1, Ordering::Release);
        changed
    }
}

/// The per-node state a view needs to reach a node, shared by the fleet
/// table and every view's copy of it. The pieces a node's own thread
/// needs (`slot`, the fault table, the stop flag) are `Arc`-cloned into
/// it at spawn time — the thread deliberately does NOT hold the
/// [`Shared`] fleet, so dropping the last view drops every mailbox
/// sender and the threads drain out on their own.
struct NodeHandle<M> {
    tx: Sender<Envelope<M>>,
    slot: Arc<Mutex<NodeSlot<M>>>,
    join: Mutex<Option<JoinHandle<()>>>,
    stats: MailboxStats,
}

impl<M: 'static> NodeHandle<M> {
    /// Runs a request on the *caller's* thread, without crossing the
    /// mailbox, when the node is idle and its service takes it; a
    /// declined request goes through the mailbox as usual.
    ///
    /// Two conditions, both required. `depth == 0`: nothing is posted
    /// and unfinished by anyone, so every earlier `send` of the calling
    /// view has already been applied (a view's own `posted` precedes
    /// this load on the same cell) and per-sender FIFO holds. The slot
    /// lock, taken without waiting: no handler is mid-flight, so the
    /// state is the one between two handler executions, and the lock is
    /// both what makes the last handler's writes visible here and what
    /// orders this one against every other — `depth` itself only gates,
    /// which is why `Relaxed` is enough for it. A busy, wedged or
    /// poisoned slot is simply not idle.
    fn serve_inline(&self, faults: &Faults, from: NodeId, msg: M) -> Served<M> {
        if self.stats.depth.load(Ordering::Relaxed) != 0 {
            return Served::Declined(msg);
        }
        let Ok(mut slot) = self.slot.try_lock() else {
            return Served::Declined(msg);
        };
        slot.serve(faults, from, msg, true)
    }

    /// Puts one envelope into the node's mailbox. `Err` when its thread
    /// is gone.
    fn post(&self, to: NodeId, env: Envelope<M>) -> Result<(), NetError> {
        // Count BEFORE sending: the node thread decrements when it is
        // done with the envelope, and a decrement racing ahead of its
        // increment would no-op at zero and leave a phantom +1 behind.
        self.stats.posted();
        self.tx.send(env).map_err(|_| {
            // The envelope never entered the mailbox.
            self.stats.finished();
            NetError::NodeDown(to)
        })
    }
}

/// Every node of the fleet, indexed by its id: ids are handed out
/// densely, in `add_node` order, and a node is never removed.
type Fleet<M> = Vec<Arc<NodeHandle<M>>>;

/// Fleet state shared by every view.
struct Shared<M> {
    seed: u64,
    start: Instant,
    stop: Arc<AtomicBool>,
    nodes: Mutex<Fleet<M>>,
    /// One topology node per fleet slot. It holds no mailbox sender, so
    /// node threads share it (see [`NodeHandle`]).
    faults: Arc<Faults>,
}

impl<M: 'static> Shared<M> {
    /// A share of `node`'s handle, so the caller can use it with the
    /// fleet table unlocked.
    fn handle(&self, node: NodeId) -> Option<Arc<NodeHandle<M>>> {
        lock(&self.nodes).get(node.index()).cloned()
    }
}

/// A view's own copy of the fleet table and the fault table, as both
/// stood at fault epoch `epoch`: what its rpcs and sends route through,
/// with no lock taken and no handle cloned.
struct Routes<M> {
    epoch: u64,
    nodes: Fleet<M>,
    topology: Topology,
}

impl<M> Routes<M> {
    /// A copy no fleet's epoch matches: the view's first rpc or send
    /// takes a real one.
    fn stale() -> Self {
        Routes {
            epoch: 0,
            nodes: Vec::new(),
            topology: Topology::new(),
        }
    }

    /// `to`'s handle when [`Topology::route`] lets a request from `from`
    /// through this copy, re-taken first if `shared`'s fault epoch has
    /// moved: one `Acquire` load while it stands still, else a copy of
    /// both tables under both locks (in `add_node`'s order),
    /// tagged with the epoch read under the topology lock. Debug builds
    /// re-derive the route from the live tables and insist the two agree
    /// whenever the epoch has not moved since the copy.
    fn route(
        &mut self,
        shared: &Shared<M>,
        from: NodeId,
        to: NodeId,
    ) -> Result<&NodeHandle<M>, NetError> {
        let faults = &shared.faults;
        if faults.epoch.load(Ordering::Acquire) != self.epoch {
            let nodes = lock(&shared.nodes);
            let topology = lock(&faults.topology);
            self.epoch = faults.epoch.load(Ordering::Relaxed);
            self.nodes.clone_from(&nodes);
            self.topology.clone_from(&topology);
        }
        // A routed id is one the topology issued, so the fleet holds it.
        let routed = self
            .topology
            .route(from, to)
            .map(|()| &*self.nodes[to.index()]);
        if cfg!(debug_assertions) {
            let nodes = lock(&shared.nodes);
            let topology = lock(&faults.topology);
            if faults.epoch.load(Ordering::Relaxed) == self.epoch {
                let live = topology.route(from, to).map(|()| &*nodes[to.index()]);
                let ptr = |r: Result<&NodeHandle<M>, NetError>| r.map(std::ptr::from_ref);
                debug_assert_eq!(ptr(routed), ptr(live), "{from}->{to} at {}", self.epoch);
            }
        }
        routed
    }
}

/// What a timer on a view's heap does when it comes due.
enum Timer<M> {
    /// Runs the task.
    Run(Box<dyn RtTask<M>>),
    /// The deadline of the task waiting on this token's reply: it ends
    /// the request as a timed-out rpc and fires the task, or finds the
    /// task already woken by the reply.
    Deadline(u64),
}

/// A timer on a view's heap; earliest `(at, seq)` pops first.
struct TimerEntry<M> {
    at: SimTime,
    seq: u64,
    timer: Timer<M>,
}

impl<M> PartialEq for TimerEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for TimerEntry<M> {}

impl<M> PartialOrd for TimerEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for TimerEntry<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// What a request's account needs when it ends.
struct OpenSend {
    from: NodeId,
    to: NodeId,
    /// When it was posted to a mailbox; `None` for one that never was.
    started: Option<Instant>,
    /// Its `net.rpc` span, open under the sender's context; only a
    /// recording sink gets one.
    span: Option<TraceContext>,
}

/// Where launching a request left it.
enum Launch<M> {
    /// Ended on the spot, accounted: served in place, or failed before
    /// it could leave.
    Ended(Result<M, NetError>),
    /// In its target's mailbox under this token, its account open.
    Posted(u64),
}

/// The OS-thread execution environment. See the module docs for the
/// view/fleet split.
pub struct ThreadedRuntime<M: RtMessage> {
    shared: Arc<Shared<M>>,
    routes: Routes<M>,
    comp_tx: Sender<Completion<M>>,
    comp_rx: Receiver<Completion<M>>,
    completed: IdMap<u64, Result<M, NetError>>,
    /// Requests posted to a mailbox that have not ended yet.
    sends: IdMap<u64, OpenSend>,
    next_token: u64,
    timers: BinaryHeap<TimerEntry<M>>,
    timer_seq: u64,
    /// Tasks waiting on a reply, by token, until it lands or their
    /// [`Timer::Deadline`] comes.
    woken: IdMap<u64, Box<dyn RtTask<M>>>,
    metrics: Metrics,
    events: EventSink,
    ctx: Vec<TraceContext>,
    recorder: Option<Recorder>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The body of one node's thread: drain the mailbox, run the installed
/// service, reply. Holds only the `Arc` pieces it needs, never the
/// fleet, so channel disconnection is a reliable exit signal.
fn node_loop<M: RtMessage>(
    rx: Receiver<Envelope<M>>,
    stop: Arc<AtomicBool>,
    faults: Arc<Faults>,
    slot: Arc<Mutex<NodeSlot<M>>>,
    node: NodeId,
    stats: MailboxStats,
) {
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match rx.recv_timeout(MAILBOX_SLICE) {
            Ok(env) => {
                if stop.load(Ordering::Relaxed) {
                    stats.finished();
                    break;
                }
                if !lock(&faults.topology).is_up(node) {
                    // A crashed node eats its mail; the caller times out,
                    // matching the simulator's crashed-node behavior.
                    stats.finished();
                    let _ = env.reply.send((env.token, None));
                    continue;
                }
                let Envelope {
                    from,
                    msg,
                    token,
                    reply,
                } = env;
                let served = lock(&slot).serve(&faults, from, msg, false);
                // The slot is free and the op out of the queue BEFORE
                // the reply goes out: a caller that sees the reply finds
                // the node idle again.
                stats.finished();
                let outcome = match served {
                    Served::Reply(m) => Some(Ok(m)),
                    // A panicking handler is a crashed node: this caller
                    // is told so, later ones fast-fail, and the thread
                    // lives on to eat the node's mail.
                    Served::Crashed => Some(Err(NetError::NodeDown(node))),
                    // No service installed yet: the request is dropped
                    // and the caller times out — same as the simulator's
                    // service-less node.
                    Served::Declined(_) => None,
                };
                // A dead receiver just means the requesting view is gone.
                let _ = reply.send((token, outcome));
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

impl<M: RtMessage> ThreadedRuntime<M> {
    /// A fresh fleet with no nodes. `seed` labels the deterministic RNG
    /// streams handed to services and clients (scheduling itself is
    /// real-concurrent, so runs are *not* reproducible — use the
    /// simulator for that).
    pub fn new(seed: u64) -> Self {
        let (comp_tx, comp_rx) = mpsc::channel();
        ThreadedRuntime {
            shared: Arc::new(Shared {
                seed,
                start: Instant::now(),
                stop: Arc::new(AtomicBool::new(false)),
                nodes: Mutex::new(Vec::new()),
                faults: Arc::new(Faults {
                    topology: Mutex::new(Topology::new()),
                    epoch: AtomicU64::new(1),
                }),
            }),
            routes: Routes::stale(),
            comp_tx,
            comp_rx,
            completed: IdMap::default(),
            sends: IdMap::default(),
            next_token: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            woken: IdMap::default(),
            metrics: Metrics::new(),
            events: EventSink::new(),
            ctx: Vec::new(),
            recorder: None,
        }
    }

    /// Hooks a [`Recorder`] into this view: from now on every boundary
    /// crossing (rpcs, sends, waits, timer fires) is appended to the
    /// shared log. Views cloned *after* this call inherit the same
    /// recorder; a shutdown that reports hung nodes marks the recording
    /// truncated.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.recorder = Some(rec);
    }

    /// The attached recorder, when one is hooked in.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Appends one event when a recorder is attached.
    fn note(&self, ev: RecEvent) {
        if let Some(rec) = &self.recorder {
            rec.note(Clock::now(self), ev);
        }
    }

    /// Closes every span still open on this view's sink (the
    /// [`EventSink::finish`] unclosed ledger), returning their names.
    /// Each unclosed span is logged with its kind, detail, and this
    /// view's owning thread, and counted into `trace.unclosed_spans` —
    /// report-only: unbalanced instrumentation is surfaced, never
    /// swallowed, but does not fail the run.
    pub fn finish_spans(&mut self) -> Vec<String> {
        let at = Clock::now(self).as_micros();
        let unclosed = self.events.finish(at);
        if unclosed.is_empty() {
            return Vec::new();
        }
        let names: Vec<String> = unclosed
            .iter()
            .map(|id| {
                self.events
                    .events()
                    .iter()
                    .find(|e| {
                        e.span == Some(*id) && e.kind != "span.end" && e.kind != "span.unclosed"
                    })
                    .map(|e| {
                        if e.detail.is_empty() {
                            e.kind.to_string()
                        } else {
                            format!("{} ({})", e.kind, e.detail)
                        }
                    })
                    .unwrap_or_else(|| id.to_string())
            })
            .collect();
        self.metrics.add(UNCLOSED_SPANS, names.len() as u64);
        let owner = thread::current().name().unwrap_or("?").to_string();
        for name in &names {
            eprintln!("unclosed span at shutdown on {owner}: {name}");
        }
        names
    }

    /// Adds a node and spawns its mailbox thread (with no service yet —
    /// install one with [`ServiceHost::install_service`]). Client-only
    /// nodes need this too: the transport refuses to send *from* an
    /// unknown node.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        // The table stays locked from taking the id to filling its place;
        // the topology issues the id, each node at a site of its own.
        let mut nodes = lock(&self.shared.nodes);
        let node = self.shared.faults.change(|topology| {
            let site = topology.next_site();
            topology.add_node(name.as_str(), site)
        });
        let (tx, rx) = mpsc::channel();
        let slot = Arc::new(Mutex::new(NodeSlot {
            node,
            svc: None,
            rng: SimRng::for_label(self.shared.seed, &format!("svc.{name}")),
        }));
        let stats = MailboxStats::default();
        let join = thread::Builder::new()
            .name(format!("weakset-node-{name}"))
            .spawn({
                let stop = Arc::clone(&self.shared.stop);
                let faults = Arc::clone(&self.shared.faults);
                let slot = Arc::clone(&slot);
                let stats = stats.clone();
                move || node_loop(rx, stop, faults, slot, node, stats)
            })
            .expect("spawn node thread");
        nodes.push(Arc::new(NodeHandle {
            tx,
            slot,
            join: Mutex::new(Some(join)),
            stats,
        }));
        drop(nodes);
        if let Some(rec) = &self.recorder {
            rec.note_add_node(Clock::now(self), &name);
        }
        node
    }

    /// Applies one fault to the fleet's topology — the same change
    /// [`weakset_sim::world::World::apply_fault`] makes to the
    /// simulator's. A down node eats incoming mail (callers time out);
    /// a request with no route fails fast, as on the simulator. Every
    /// view's next rpc or send sees the change. Panics, as the simulator
    /// does, on a node this fleet never added.
    pub fn apply_fault(&mut self, action: &FaultAction) {
        self.shared
            .faults
            .change(|topology| action.apply_to(topology));
    }

    /// Stops every node thread, waiting up to `timeout`. Returns the
    /// nodes that failed to exit in time (sorted), so a hung handler
    /// fails the test instead of hanging it.
    pub fn shutdown(&mut self, timeout: Duration) -> Result<(), Vec<NodeId>> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        loop {
            let hung: Vec<NodeId> = {
                let nodes = lock(&self.shared.nodes);
                (0u32..)
                    .zip(nodes.iter())
                    .filter(|(_, h)| lock(&h.join).as_ref().is_some_and(|j| !j.is_finished()))
                    .map(|(n, _)| NodeId(n))
                    .collect()
            };
            if hung.is_empty() {
                for h in lock(&self.shared.nodes).iter() {
                    if let Some(j) = lock(&h.join).take() {
                        let _ = j.join();
                    }
                }
                return Ok(());
            }
            if Instant::now() >= deadline {
                // The recording is the black box: a valid prefix, marked.
                if let Some(rec) = &self.recorder {
                    rec.mark_truncated();
                }
                return Err(hung);
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// The structured event sink (disabled by default).
    pub fn events(&self) -> &EventSink {
        &self.events
    }

    /// Mutable event sink (enable recording, drain events).
    pub fn events_mut(&mut self) -> &mut EventSink {
        &mut self.events
    }

    /// Moves any newly-arrived completions into the completed map
    /// without blocking.
    fn drain_completions(&mut self) {
        while let Ok((token, result)) = self.comp_rx.try_recv() {
            self.complete(token, result);
        }
    }

    /// Makes `result` the reply waiting under `token` and ends the
    /// request posted under it, if that request is still open: a late
    /// reply to an rpc that already timed out is dropped here, as the
    /// simulator drops one. `None` (the request was dropped) completes
    /// nothing and ends it as a timeout, as the simulator ends a lost
    /// one; its caller waits out its deadline. A task waiting on the
    /// reply moves to the front of the timer heap.
    fn complete(&mut self, token: u64, result: Option<Result<M, NetError>>) {
        let Some(open) = self.sends.remove(&token) else {
            discard(result);
            return;
        };
        let error = match &result {
            Some(Ok(_)) => None,
            Some(Err(e)) => Some(*e),
            None => Some(NetError::Timeout),
        };
        self.end(open, error);
        if let Some(result) = result {
            self.completed.insert(token, result);
            if let Some(task) = self.woken.remove(&token) {
                self.push_timer(SimTime::ZERO, Timer::Run(task));
            }
        }
    }

    /// The one account of every request, however it ended: `rpc.ok`,
    /// with an `rpc.latency` sample when it crossed a mailbox, or
    /// `rpc.failed` and a `net.rpc.failed` event; its span closes.
    fn end(&mut self, open: OpenSend, error: Option<NetError>) {
        match error {
            None => {
                self.metrics.incr("rpc.ok");
                if let Some(started) = open.started {
                    let took = started.elapsed().as_micros() as u64;
                    self.metrics.observe("rpc.latency", took);
                }
            }
            Some(_) => self.metrics.incr("rpc.failed"),
        }
        if let Some(span) = open.span {
            let at = Clock::now(self).as_micros();
            if let Some(e) = error {
                let detail = format!("{}->{}: {e}", open.from, open.to);
                self.events
                    .event_in(at, "net.rpc.failed", detail, Some(span));
            }
            self.events.end_span(at, span.span);
        }
    }

    /// The one path of `rpc` and `send`: routed through this view's
    /// tables, offered to [`NodeHandle::serve_inline`], else posted under
    /// an account `complete` closes. A down caller sends nothing; only a
    /// recording sink gets a span, and only a posted request a token.
    /// Out of line: inlined into `rpc`, an in-place rpc read ~8 ns slower
    /// (`tests/read_budget.rs`, DESIGN.md §6).
    #[inline(never)]
    fn launch(&mut self, from: NodeId, to: NodeId, msg: M) -> Launch<M> {
        let routed = match self.routes.route(&self.shared, from, to) {
            Err(NetError::NodeDown(n)) if n == from => {
                return Launch::Ended(Err(NetError::NodeDown(from)))
            }
            routed => routed,
        };
        self.metrics.incr("rpc.sent");
        let span = self.events.is_enabled().then(|| {
            let at = self.shared.start.elapsed().as_micros() as u64;
            let parent = self.ctx.last().copied();
            self.events
                .begin_span(at, "net.rpc", from.link_label(to), parent)
        });
        let mut open = OpenSend {
            from,
            to,
            started: None,
            span,
        };
        let outcome = match routed {
            Err(e) => Err(e),
            Ok(h) => match h.serve_inline(&self.shared.faults, from, msg) {
                Served::Reply(reply) => {
                    self.metrics.incr("rpc.shared");
                    Ok(reply)
                }
                Served::Crashed => Err(NetError::NodeDown(to)),
                Served::Declined(msg) => {
                    open.started = Some(Instant::now());
                    let token = self.next_token;
                    let env = Envelope {
                        from,
                        msg,
                        token,
                        reply: self.comp_tx.clone(),
                    };
                    match h.post(to, env) {
                        Ok(()) => {
                            self.next_token += 1;
                            self.sends.insert(token, open);
                            return Launch::Posted(token);
                        }
                        Err(e) => Err(e),
                    }
                }
            },
        };
        self.end(open, outcome.as_ref().err().copied());
        Launch::Ended(outcome)
    }

    fn push_timer(&mut self, at: SimTime, timer: Timer<M>) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(TimerEntry { at, seq, timer });
    }

    /// Fires every timer that is due as of the wall clock. Timers only
    /// run here — i.e. while this view sleeps or waits — mirroring the
    /// simulator firing tasks while the client pumps the event loop.
    fn run_due_timers(&mut self) {
        loop {
            let due = self.timers.peek().is_some_and(|e| e.at <= Clock::now(self));
            if !due {
                break;
            }
            let entry = self.timers.pop().expect("peeked timer vanished");
            let mut task = match entry.timer {
                Timer::Run(task) => task,
                Timer::Deadline(token) => match self.woken.remove(&token) {
                    Some(task) => {
                        self.complete(token, None);
                        task
                    }
                    None => continue,
                },
            };
            if self.recorder.is_some() {
                self.note(RecEvent::TimerFired {
                    label: task.label().to_string(),
                });
            }
            match task.run(self) {
                Wake::Never => {}
                Wake::At(at) => self.push_timer(at, Timer::Run(task)),
                Wake::Reply(token, _) if self.completed.contains_key(&token.raw()) => {
                    self.push_timer(SimTime::ZERO, Timer::Run(task));
                }
                Wake::Reply(token, deadline) => {
                    self.woken.insert(token.raw(), task);
                    self.push_timer(deadline, Timer::Deadline(token.raw()));
                }
            }
        }
    }

    /// Waits until one of `tokens` completes (its reply is left in
    /// `completed`) or `deadline` passes, firing due timers meanwhile:
    /// between them it blocks on the completion channel until the next
    /// timer is due.
    fn wait_until(&mut self, tokens: &[ReplyToken], deadline: Instant) -> Option<ReplyToken> {
        loop {
            self.drain_completions();
            if let Some(&t) = tokens
                .iter()
                .find(|t| self.completed.contains_key(&t.raw()))
            {
                return Some(t);
            }
            self.run_due_timers();
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let wake = match self.timers.peek() {
                Some(e) => {
                    let due = self.shared.start + Duration::from_micros(e.at.as_micros());
                    deadline.min(due)
                }
                None => deadline,
            };
            if let Ok((t, r)) = self
                .comp_rx
                .recv_timeout(wake.saturating_duration_since(now))
            {
                self.complete(t, r);
            }
        }
    }
}

impl<M: RtMessage> Clone for ThreadedRuntime<M> {
    /// A new view on the same fleet: shared nodes and fault table,
    /// private routes, completion channel, token space, timers, metrics,
    /// and spans.
    fn clone(&self) -> Self {
        let (comp_tx, comp_rx) = mpsc::channel();
        ThreadedRuntime {
            shared: Arc::clone(&self.shared),
            routes: Routes::stale(),
            comp_tx,
            comp_rx,
            completed: IdMap::default(),
            sends: IdMap::default(),
            next_token: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            woken: IdMap::default(),
            metrics: Metrics::new(),
            events: EventSink::new(),
            ctx: Vec::new(),
            recorder: self.recorder.clone(),
        }
    }
}

impl<M: RtMessage> Clock for ThreadedRuntime<M> {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.shared.start.elapsed().as_micros() as u64)
    }

    /// Sleeps wall time, firing due timers as they come up (so gossip
    /// rounds progress while a client waits between retries): a wait
    /// for no token.
    fn sleep(&mut self, d: SimDuration) {
        self.note(RecEvent::Sleep { us: d.as_micros() });
        self.wait_until(&[], Instant::now() + Duration::from_micros(d.as_micros()));
    }

    fn rng_for(&self, label: &str) -> SimRng {
        SimRng::for_label(self.shared.seed, label)
    }
}

impl<M: RtMessage> Observe for ThreadedRuntime<M> {
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn span_enter(&mut self, kind: &str, detail: &dyn Fn() -> String) -> SpanId {
        let parent = self.ctx.last().copied();
        Observe::span_enter_under(self, parent, kind, detail)
    }

    fn span_enter_under(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: &dyn Fn() -> String,
    ) -> SpanId {
        // A disabled sink hands out ids but stamps nothing: only a sink
        // that records reads the wall clock or builds the detail.
        let (at, d) = if self.events.is_enabled() {
            (Clock::now(self).as_micros(), detail())
        } else {
            (0, String::new())
        };
        let ctx = self.events.begin_span(at, kind, d, parent);
        self.ctx.push(ctx);
        ctx.span
    }

    fn span_exit(&mut self, id: SpanId) {
        let top = self.ctx.pop();
        debug_assert_eq!(top.map(|c| c.span), Some(id), "span_exit out of LIFO order");
        if self.events.is_enabled() {
            let at = Clock::now(self).as_micros();
            self.events.end_span(at, id);
        }
    }

    fn current_ctx(&self) -> Option<TraceContext> {
        self.ctx.last().copied()
    }

    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String) {
        if self.events.is_enabled() {
            let at = Clock::now(self).as_micros();
            let ctx = self.ctx.last().copied();
            self.events.event_in(at, kind, detail(), ctx);
        }
    }
}

impl<M: RtMessage> Transport<M> for ThreadedRuntime<M> {
    /// A `send` and a wait: served in place, its reply comes straight
    /// back; posted, it is waited for until `timeout`, which ends it.
    fn rpc(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        timeout: SimDuration,
    ) -> Result<M, NetError> {
        // Only the recorder reads the request hash and the elapsed time.
        let noted = self
            .recorder
            .as_ref()
            .map(|_| (hash_debug(&msg), Instant::now()));
        let result = match self.launch(from, to, msg) {
            Launch::Ended(result) => result,
            Launch::Posted(token) => {
                let deadline = Instant::now() + Duration::from_micros(timeout.as_micros());
                match self.wait_until(&[ReplyToken::from_raw(token)], deadline) {
                    Some(_) => self
                        .completed
                        .remove(&token)
                        .expect("a completed token has its reply"),
                    None => {
                        self.complete(token, None);
                        Err(NetError::Timeout)
                    }
                }
            }
        };
        if let Some((req_hash, started)) = noted {
            self.note(RecEvent::Rpc {
                from: from.0,
                to: to.0,
                req_hash,
                outcome: RecOutcome::of(&result),
                elapsed_us: started.elapsed().as_micros() as u64,
            });
        }
        result
    }

    /// Launched as an rpc is; a request that ended on the spot leaves
    /// its reply or error waiting under a token of its own.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> ReplyToken {
        let req_hash = self.recorder.as_ref().map(|_| hash_debug(&msg));
        let token = match self.launch(from, to, msg) {
            Launch::Posted(token) => token,
            Launch::Ended(result) => {
                let token = self.next_token;
                self.next_token += 1;
                self.completed.insert(token, result);
                token
            }
        };
        if let Some(req_hash) = req_hash {
            self.note(RecEvent::Send {
                from: from.0,
                to: to.0,
                req_hash,
                token,
            });
        }
        ReplyToken::from_raw(token)
    }

    fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<M>) -> ReplyToken {
        self.metrics.incr("net.batch.envelopes");
        self.metrics.add("net.batch.parts", parts.len() as u64);
        Transport::send(self, from, to, M::wrap_batch(parts))
    }

    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<M, NetError>> {
        self.drain_completions();
        let taken = self.completed.remove(&token.raw());
        if let Some(result) = &taken {
            if self.recorder.is_some() {
                self.note(RecEvent::TookReply {
                    token: token.raw(),
                    outcome: RecOutcome::of(result),
                });
            }
        }
        taken
    }

    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        // Only the recorder reads the elapsed time.
        let started = self.recorder.as_ref().map(|_| Instant::now());
        let wall_deadline = self.shared.start + Duration::from_micros(deadline.as_micros());
        let winner = self.wait_until(tokens, wall_deadline);
        if let Some(started) = started {
            self.note(RecEvent::WaitAny {
                winner: winner.map(ReplyToken::raw),
                elapsed_us: started.elapsed().as_micros() as u64,
            });
        }
        winner
    }

    /// Ends the request as a timed-out rpc's wait does, if it is still
    /// open; a reply already in is dropped.
    fn abandon(&mut self, token: ReplyToken) {
        self.drain_completions();
        if self.completed.remove(&token.raw()).is_none() {
            self.complete(token.raw(), None);
        }
    }

    /// No latency model on real threads: everything estimates to zero,
    /// and closest-first candidate ordering falls back to its
    /// deterministic element-id tie-break.
    fn estimate_latency(&self, _a: NodeId, _b: NodeId) -> SimDuration {
        SimDuration::ZERO
    }
}

impl<M: RtMessage> ServiceHost<M> for ThreadedRuntime<M> {
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<M> + Send>) {
        let h = self
            .shared
            .handle(node)
            .unwrap_or_else(|| panic!("install_service on unknown node {node:?}; add_node first"));
        lock(&h.slot).svc = Some(svc);
        self.note(RecEvent::InstallService { node: node.0 });
    }

    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn Any)) -> bool {
        // As in `launch`: the visit runs under the node's slot lock
        // only, never under the fleet table's.
        let Some(h) = self.shared.handle(node) else {
            return false;
        };
        let guard = lock(&h.slot);
        match guard.svc.as_ref() {
            Some(svc) => {
                f(svc.as_ref() as &dyn Any);
                true
            }
            None => false,
        }
    }

    fn with_service_any_mut(&mut self, node: NodeId, f: &mut dyn FnMut(&mut dyn Any)) -> bool {
        let Some(h) = self.shared.handle(node) else {
            return false;
        };
        let mut guard = lock(&h.slot);
        match guard.svc.as_mut() {
            Some(svc) => {
                f(svc.as_mut() as &mut dyn Any);
                true
            }
            None => false,
        }
    }

    fn is_up(&self, node: NodeId) -> bool {
        lock(&self.shared.faults.topology).is_up(node)
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        lock(&self.shared.faults.topology).reachable(from, to)
    }
}

impl<M: RtMessage> Spawner<M> for ThreadedRuntime<M> {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<M>>) {
        if self.recorder.is_some() {
            self.note(RecEvent::SpawnIn {
                delay_us: d.as_micros(),
                label: task.label().to_string(),
            });
        }
        let at = Clock::now(self) + d;
        self.push_timer(at, Timer::Run(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Runtime, RuntimeExt, TaskFn};
    use weakset_sim::link::LinkState;
    use weakset_sim::net::BatchEnvelope;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Val(u64),
        Get,
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

    struct Inc {
        hits: u64,
    }

    impl Service<Msg> for Inc {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
            self.hits += 1;
            match msg {
                Msg::Val(n) => Msg::Val(n + 1),
                Msg::Get => Msg::Get,
                Msg::Batch(parts) => Msg::Batch(
                    parts
                        .into_iter()
                        .map(|m| match m {
                            Msg::Val(n) => Msg::Val(n + 1),
                            other => other,
                        })
                        .collect(),
                ),
            }
        }
    }

    fn fleet() -> (ThreadedRuntime<Msg>, NodeId, NodeId) {
        let mut rt = ThreadedRuntime::new(7);
        let client = rt.add_node("client");
        let server = rt.add_node("server");
        rt.install_service(server, Box::new(Inc { hits: 0 }));
        (rt, client, server)
    }

    #[test]
    fn rpc_round_trip() {
        let (mut rt, c, s) = fleet();
        let reply = Transport::rpc(&mut rt, c, s, Msg::Val(41), SimDuration::from_secs(5));
        assert_eq!(reply, Ok(Msg::Val(42)));
        assert_eq!(rt.metrics.counter("rpc.ok"), 1);
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn rpc_to_down_node_fast_fails() {
        let (mut rt, c, s) = fleet();
        rt.apply_fault(&FaultAction::Crash(s));
        let reply = Transport::rpc(&mut rt, c, s, Msg::Val(1), SimDuration::from_secs(5));
        assert_eq!(reply, Err(NetError::NodeDown(s)));
        rt.apply_fault(&FaultAction::Restart(s));
        let reply = Transport::rpc(&mut rt, c, s, Msg::Val(1), SimDuration::from_secs(5));
        assert_eq!(reply, Ok(Msg::Val(2)));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn a_cut_link_is_routed_around_as_on_the_simulator() {
        let (mut rt, c, s) = fleet();
        let relay = rt.add_node("relay");
        rt.apply_fault(&FaultAction::SetLink(c, s, LinkState::down()));
        assert!(ServiceHost::reachable(&rt, c, s), "client-relay-server");
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Val(1), SECS5),
            Ok(Msg::Val(2))
        );
        rt.apply_fault(&FaultAction::Crash(relay));
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Val(1), SECS5),
            Err(NetError::Unreachable { from: c, to: s })
        );
        rt.apply_fault(&FaultAction::SetLink(c, s, LinkState::healthy()));
        assert!(ServiceHost::reachable(&rt, c, s));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn serviceless_node_times_out() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(1);
        let c = rt.add_node("c");
        let empty = rt.add_node("empty");
        let reply = Transport::rpc(&mut rt, c, empty, Msg::Val(1), SimDuration::from_millis(80));
        assert_eq!(reply, Err(NetError::Timeout));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn async_send_batch_and_wait_any() {
        let (mut rt, c, s) = fleet();
        let token = Transport::send_batch(&mut rt, c, s, vec![Msg::Val(1), Msg::Val(2)]);
        let deadline = Clock::now(&rt) + SimDuration::from_secs(5);
        let done = Transport::wait_any(&mut rt, &[token], deadline);
        assert_eq!(done, Some(token));
        let reply = Transport::try_take_reply(&mut rt, token).expect("reply present");
        assert_eq!(
            reply.unwrap().unwrap_batch().unwrap(),
            vec![Msg::Val(2), Msg::Val(3)]
        );
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn timers_fire_during_sleep() {
        let (mut rt, _c, s) = fleet();
        {
            let dynrt: &mut dyn Runtime<Msg> = &mut rt;
            dynrt.spawn_in(
                SimDuration::from_millis(5),
                Box::new(TaskFn(move |rt: &mut (dyn Runtime<Msg> + 'static)| {
                    rt.with_service_mut(s, |svc: &mut Inc| svc.hits = 99);
                    Wake::Never
                })),
            );
            dynrt.sleep(SimDuration::from_millis(30));
        }
        assert_eq!(rt.with_service(s, |svc: &Inc| svc.hits), Some(99));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    /// What a [`pinger`] saw when it was woken: how long after its send,
    /// its token, and what it found under the token.
    type Seen = Arc<Mutex<Option<(Duration, ReplyToken, Option<Result<Msg, NetError>>)>>>;

    /// A task that sends `Val(1)` from `c` to `s`, asks to be woken on
    /// the reply with a deadline `patience` away, and then records what
    /// it saw.
    fn pinger(c: NodeId, s: NodeId, patience: SimDuration, seen: &Seen) -> Box<dyn RtTask<Msg>> {
        let seen = Arc::clone(seen);
        let mut sent: Option<(ReplyToken, Instant)> = None;
        Box::new(TaskFn(
            move |rt: &mut (dyn Runtime<Msg> + 'static)| match sent {
                None => {
                    let token = rt.send(c, s, Msg::Val(1));
                    sent = Some((token, Instant::now()));
                    Wake::Reply(token, rt.now() + patience)
                }
                Some((token, at)) => {
                    let reply = rt.try_take_reply(token);
                    *lock(&seen) = Some((at.elapsed(), token, reply));
                    Wake::Never
                }
            },
        ))
    }

    #[test]
    fn a_task_woken_on_a_reply_runs_when_it_lands() {
        let (mut rt, c, s) = fleet();
        let seen = Seen::default();
        Spawner::spawn_in(&mut rt, SimDuration::ZERO, pinger(c, s, SECS5, &seen));
        // The sleep outlasts the mailbox round trip, not the deadline.
        Clock::sleep(&mut rt, SimDuration::from_millis(200));
        let (took, _, reply) = lock(&seen).take().expect("woken while the view slept");
        assert_eq!(reply, Some(Ok(Msg::Val(2))));
        assert!(
            took < Duration::from_secs(1),
            "woken {took:?} after its send"
        );
        assert_eq!(rt.metrics.counter("rpc.ok"), 1);
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn a_task_whose_request_is_dropped_runs_at_its_deadline() {
        let (mut rt, c, _s) = fleet();
        // No service: the node's thread drops the request.
        let bare = rt.add_node("bare");
        let seen = Seen::default();
        let patience = SimDuration::from_millis(50);
        Spawner::spawn_in(&mut rt, SimDuration::ZERO, pinger(c, bare, patience, &seen));
        Clock::sleep(&mut rt, SimDuration::from_millis(300));
        let (took, token, reply) = lock(&seen).take().expect("woken at its deadline");
        assert_eq!(reply, None);
        assert!(
            took >= Duration::from_millis(50),
            "woken {took:?} after its send"
        );
        assert_eq!(rt.metrics.counter("rpc.failed"), 1);
        assert_eq!(Transport::try_take_reply(&mut rt, token), None);
        assert!(rt.completed.is_empty(), "nothing stays in completed");
        assert!(rt.woken.is_empty());
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn cloned_views_share_the_fleet_but_not_tokens() {
        let (rt, c, s) = fleet();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let mut view = rt.clone();
            handles.push(thread::spawn(move || {
                Transport::rpc(&mut view, c, s, Msg::Val(i), SimDuration::from_secs(5))
            }));
        }
        let mut got: Vec<u64> = handles
            .into_iter()
            .map(|h| match h.join().unwrap() {
                Ok(Msg::Val(n)) => n,
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        got.sort();
        assert_eq!(got, vec![1, 2, 3, 4]);
        let mut rt = rt;
        assert_eq!(rt.with_service(s, |svc: &Inc| svc.hits), Some(4));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn shutdown_reports_rather_than_hangs() {
        let (mut rt, _c, _s) = fleet();
        assert_eq!(rt.shutdown(Duration::from_secs(2)), Ok(()));
        // Idempotent: already-stopped fleets stay stopped.
        assert_eq!(rt.shutdown(Duration::from_millis(50)), Ok(()));
    }

    /// A handler that wedges long enough to outlive a short shutdown
    /// deadline.
    struct Wedge;

    impl Service<Msg> for Wedge {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
            thread::sleep(Duration::from_secs(2));
            msg
        }
    }

    #[test]
    fn shutdown_names_the_wedged_node_and_truncates_the_recording() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(3);
        rt.attach_recorder(Recorder::new(3));
        let c = rt.add_node("client");
        let wedged = rt.add_node("wedged");
        rt.install_service(wedged, Box::new(Wedge));
        let _token = Transport::send(&mut rt, c, wedged, Msg::Val(1));
        // Let the node thread pick the envelope up and enter the handler.
        thread::sleep(Duration::from_millis(100));
        let hung = rt
            .shutdown(Duration::from_millis(200))
            .expect_err("wedged handler must be reported, not waited out");
        assert_eq!(hung, vec![wedged]);
        let rec = rt.recorder().expect("recorder attached").finish();
        assert!(rec.truncated, "failed shutdown must truncate the recording");
        // The completed prefix is still there: both nodes and the send.
        assert_eq!(rec.nodes, vec!["client".to_string(), "wedged".to_string()]);
        assert!(rec
            .entries
            .iter()
            .any(|e| matches!(&e.ev, RecEvent::Send { from: 0, to: 1, .. })));
        // Once the wedged handler finishes, the fleet drains normally.
        assert!(rt.shutdown(Duration::from_secs(5)).is_ok());
    }

    /// A one-word register: `Val(n)` writes (through `handle` only),
    /// `Get` reads — the one kind it also serves inline. With a gate, a
    /// write announces that it is inside `handle` and stays there until
    /// released, so a test can hold the node mid-handler without sleeps.
    struct Register {
        value: u64,
        gate: Option<(Sender<()>, Receiver<()>)>,
    }

    impl Service<Msg> for Register {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
            match msg {
                Msg::Val(n) => {
                    if let Some((entered, release)) = &self.gate {
                        let _ = entered.send(());
                        let _ = release.recv_timeout(Duration::from_secs(5));
                    }
                    self.value = n;
                    Msg::Val(n)
                }
                Msg::Get => Msg::Val(self.value),
                other => other,
            }
        }

        fn serve_inline(
            &mut self,
            _ctx: &mut ServiceCtx<'_>,
            _from: NodeId,
            msg: Msg,
        ) -> Result<Msg, Msg> {
            match msg {
                Msg::Get => Ok(Msg::Val(self.value)),
                other => Err(other),
            }
        }
    }

    /// What the test side of a gated [`Register`] holds: `entered`
    /// fires when a write is inside `handle`, `release` lets it finish.
    struct Gate {
        entered: Receiver<()>,
        release: Sender<()>,
    }

    fn register_fleet(value: u64, gated: bool) -> (ThreadedRuntime<Msg>, NodeId, NodeId, Gate) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let mut rt = ThreadedRuntime::new(29);
        let client = rt.add_node("client");
        let server = rt.add_node("server");
        let gate = gated.then_some((entered_tx, release_rx));
        rt.install_service(server, Box::new(Register { value, gate }));
        (rt, client, server, Gate { entered, release })
    }

    /// Lets a gated write finish from inside this view's next wait, i.e.
    /// strictly after whatever the caller does next has been posted.
    fn release_from_timer(rt: &mut ThreadedRuntime<Msg>, gate: &Gate) {
        let release = gate.release.clone();
        Spawner::spawn_in(
            rt,
            SimDuration::from_millis(10),
            Box::new(TaskFn(move |_: &mut (dyn Runtime<Msg> + 'static)| {
                let _ = release.send(());
                Wake::Never
            })),
        );
    }

    const SECS5: SimDuration = SimDuration::from_secs(5);

    /// A `send` and its collection: the reply or error that arrived
    /// within `timeout`, or `Timeout`.
    fn sent(
        rt: &mut ThreadedRuntime<Msg>,
        from: NodeId,
        to: NodeId,
        msg: Msg,
        timeout: SimDuration,
    ) -> Result<Msg, NetError> {
        let token = Transport::send(rt, from, to, msg);
        let deadline = Clock::now(rt) + timeout;
        Transport::wait_any(rt, &[token], deadline);
        Transport::try_take_reply(rt, token).unwrap_or(Err(NetError::Timeout))
    }

    /// What a view's requests left behind: its `rpc.*` counters, then
    /// its `rpc.latency` sample count.
    fn accounted(rt: &ThreadedRuntime<Msg>) -> (Vec<(&str, u64)>, usize) {
        let rpc = rt
            .metrics
            .counters()
            .filter(|(name, _)| name.starts_with("rpc."))
            .collect();
        let samples = rt.metrics.latency("rpc.latency").map_or(0, |l| l.len());
        (rpc, samples)
    }

    #[test]
    fn a_late_reply_to_a_timed_out_rpc_is_not_kept() {
        let (mut rt, c, s, gate) = register_fleet(0, true);
        let timeout = SimDuration::from_millis(50);
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Val(5), timeout),
            Err(NetError::Timeout)
        );
        // Open the gate for the stuck write and the next one: the late
        // reply reaches this view before the next write's.
        gate.release.send(()).expect("gate open");
        gate.release.send(()).expect("gate open");
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Val(6), SECS5),
            Ok(Msg::Val(6))
        );
        assert_eq!(rt.completed.len(), 0, "a late reply was kept");
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn idle_node_serves_reads_without_its_mailbox() {
        let (mut rt, c, s, _gate) = register_fleet(7, false);
        let n = 50;
        for i in 0..n {
            // An rpc and a send alike: each finds the node idle.
            let got = if i % 2 == 0 {
                Transport::rpc(&mut rt, c, s, Msg::Get, SECS5)
            } else {
                sent(&mut rt, c, s, Msg::Get, SECS5)
            };
            assert_eq!(got, Ok(Msg::Val(7)), "call {i}");
        }
        for name in ["rpc.sent", "rpc.ok", "rpc.shared"] {
            assert_eq!(rt.metrics.counter(name), n, "{name}");
        }
        // Nothing crossed a transport, so nothing was timed.
        assert_eq!(accounted(&rt).1, 0);
        // Only reads are served shared: a write goes through `handle`,
        // on either path.
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Val(9), SECS5),
            Ok(Msg::Val(9))
        );
        assert_eq!(sent(&mut rt, c, s, Msg::Val(10), SECS5), Ok(Msg::Val(10)));
        assert_eq!(rt.metrics.counter("rpc.shared"), n);
        // Both writes crossed the mailbox: both are timed.
        assert_eq!(accounted(&rt).1, 2);
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
            Ok(Msg::Val(10))
        );
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn a_read_never_overtakes_the_views_own_send() {
        let (mut rt, c, s, _gate) = register_fleet(0, false);
        for i in 1..=1000 {
            let _write = Transport::send(&mut rt, c, s, Msg::Val(i));
            assert_eq!(
                Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
                Ok(Msg::Val(i))
            );
        }
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn a_busy_node_is_never_waited_on() {
        let (mut rt, c, s, gate) = register_fleet(7, true);
        let short = SimDuration::from_millis(100);
        // Wedged inside `handle`: the read queues behind it and times out.
        let _write = Transport::send(&mut rt, c, s, Msg::Val(8));
        gate.entered.recv().expect("write reached the handler");
        let t0 = Instant::now();
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, short),
            Err(NetError::Timeout)
        );
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "honoured its timeout"
        );
        gate.release.send(()).unwrap();
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
            Ok(Msg::Val(8))
        );
        // Empty mailbox but the slot is held (as a concurrent shared
        // reader would hold it): fall back to the mailbox, do not wait.
        while lock(&rt.shared.nodes)[s.0 as usize]
            .stats
            .depth
            .load(Ordering::Relaxed)
            != 0
        {
            thread::yield_now();
        }
        let shared_before = rt.metrics.counter("rpc.shared");
        let slot = Arc::clone(&lock(&rt.shared.nodes)[s.0 as usize].slot);
        let held = slot.lock().unwrap();
        let t0 = Instant::now();
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, short),
            Err(NetError::Timeout)
        );
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "honoured its timeout"
        );
        assert_eq!(rt.metrics.counter("rpc.shared"), shared_before);
        drop(held);
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
            Ok(Msg::Val(8))
        );
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn reads_fail_exactly_like_any_other_rpc() {
        let (mut rt, c, s, _gate) = register_fleet(7, false);
        let empty = rt.add_node("empty");
        // Each read is asked twice, by an rpc and by a send.
        let get = |rt: &mut ThreadedRuntime<Msg>, from, to| {
            let short = SimDuration::from_millis(80);
            let by_rpc = Transport::rpc(rt, from, to, Msg::Get, short);
            assert_eq!(sent(rt, from, to, Msg::Get, short), by_rpc, "{from}->{to}");
            by_rpc
        };
        rt.apply_fault(&FaultAction::Crash(s));
        assert_eq!(get(&mut rt, c, s), Err(NetError::NodeDown(s)));
        rt.apply_fault(&FaultAction::Restart(s));
        // A partition, not a cut link: `empty` would relay around that.
        rt.apply_fault(&FaultAction::Partition(vec![s]));
        assert_eq!(
            get(&mut rt, c, s),
            Err(NetError::Unreachable { from: c, to: s })
        );
        rt.apply_fault(&FaultAction::HealPartition);
        assert_eq!(get(&mut rt, c, empty), Err(NetError::Timeout));
        assert_eq!(
            get(&mut rt, c, NodeId(99)),
            Err(NetError::NodeDown(NodeId(99)))
        );
        rt.apply_fault(&FaultAction::Crash(c));
        assert_eq!(get(&mut rt, c, s), Err(NetError::NodeDown(c)));
        assert_eq!(rt.metrics.counter("rpc.shared"), 0);
        assert_eq!(
            rt.metrics.counter("rpc.sent"),
            8,
            "a down caller sends nothing"
        );
        assert_eq!(rt.metrics.counter("rpc.failed"), 8);
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    /// An `rpc` is a `send` and a wait: on every path a request can take,
    /// both ways of asking leave the same reply and the same account,
    /// where only a reply that crossed the mailbox is timed.
    #[test]
    fn rpc_and_send_share_one_account() {
        // `register_fleet`'s client and server.
        let (c, s) = (NodeId(0), NodeId(1));
        let failed = &[("rpc.failed", 1), ("rpc.sent", 1)][..];
        let cut = Err(NetError::Unreachable { from: c, to: s });
        type Counters = &'static [(&'static str, u64)];
        let cases: [(&str, Msg, Result<Msg, NetError>, Counters); 6] = [
            (
                "in place",
                Msg::Get,
                Ok(Msg::Val(7)),
                &[("rpc.ok", 1), ("rpc.sent", 1), ("rpc.shared", 1)],
            ),
            (
                "mailbox",
                Msg::Val(8),
                Ok(Msg::Val(8)),
                &[("rpc.ok", 1), ("rpc.sent", 1)],
            ),
            ("unroutable", Msg::Get, cut, failed),
            ("down target", Msg::Get, Err(NetError::NodeDown(s)), failed),
            ("down caller", Msg::Get, Err(NetError::NodeDown(c)), &[]),
            ("timeout", Msg::Get, Err(NetError::Timeout), failed),
        ];
        for (case, msg, want, counters) in cases {
            for via_send in [false, true] {
                let (mut rt, _, _, _gate) = register_fleet(7, false);
                let mut to = s;
                match case {
                    "unroutable" => rt.apply_fault(&FaultAction::Partition(vec![s])),
                    "down target" => rt.apply_fault(&FaultAction::Crash(s)),
                    "down caller" => rt.apply_fault(&FaultAction::Crash(c)),
                    "timeout" => to = rt.add_node("empty"),
                    _ => {}
                }
                // A request that ends on the spot needs no wait at all.
                let waits = matches!(case, "mailbox" | "timeout");
                let short = SimDuration::from_millis(if waits { 80 } else { 0 });
                let msg = msg.clone();
                let got = if via_send {
                    sent(&mut rt, c, to, msg, short)
                } else {
                    Transport::rpc(&mut rt, c, to, msg, short)
                };
                assert_eq!(got, want, "{case}, send: {via_send}");
                let timed = usize::from(case == "mailbox");
                assert_eq!(
                    accounted(&rt),
                    (counters.to_vec(), timed),
                    "{case}, send: {via_send}"
                );
                assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
            }
        }
    }

    #[test]
    fn a_poisoned_slot_falls_back_to_the_mailbox() {
        let (mut rt, c, s, _gate) = register_fleet(7, false);
        let slot = Arc::clone(&lock(&rt.shared.nodes)[s.0 as usize].slot);
        let poisoner = thread::spawn(move || {
            let _held = slot.lock().unwrap();
            panic!("poison the slot (expected by the test)");
        });
        assert!(poisoner.join().is_err());
        // The node thread recovers the poisoned guard; the caller must
        // neither panic nor serve from it.
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
            Ok(Msg::Val(7))
        );
        assert_eq!(rt.metrics.counter("rpc.ok"), 1);
        assert_eq!(rt.metrics.counter("rpc.shared"), 0);
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    /// Echoes, except that `Val(13)` panics inside the handler — on the
    /// caller's thread when `inline`, on the node's otherwise.
    struct Fragile {
        inline: bool,
        handled: u64,
    }

    impl Service<Msg> for Fragile {
        fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
            assert_ne!(msg, Msg::Val(13), "unlucky request (expected by the test)");
            self.handled += 1;
            msg
        }

        fn serve_inline(
            &mut self,
            ctx: &mut ServiceCtx<'_>,
            from: NodeId,
            msg: Msg,
        ) -> Result<Msg, Msg> {
            if self.inline {
                Ok(self.handle(ctx, from, msg))
            } else {
                Err(msg)
            }
        }
    }

    #[test]
    fn a_panicking_handler_is_a_crashed_node_on_either_path() {
        for inline in [true, false] {
            let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(31);
            let c = rt.add_node("client");
            let s = rt.add_node("fragile");
            rt.install_service(s, Box::new(Fragile { inline, handled: 0 }));
            assert_eq!(
                Transport::rpc(&mut rt, c, s, Msg::Val(1), SECS5),
                Ok(Msg::Val(1))
            );
            assert_eq!(rt.metrics.counter("rpc.shared"), u64::from(inline));
            // The panic reaches neither this thread nor the timeout.
            let t0 = Instant::now();
            assert_eq!(
                Transport::rpc(&mut rt, c, s, Msg::Val(13), SECS5),
                Err(NetError::NodeDown(s)),
                "inline: {inline}"
            );
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "answered, not timed out"
            );
            assert!(!ServiceHost::is_up(&rt, s));
            // Later rpcs fast-fail like any rpc to a crashed node.
            assert_eq!(
                Transport::rpc(&mut rt, c, s, Msg::Val(2), SECS5),
                Err(NetError::NodeDown(s))
            );
            assert_eq!(rt.metrics.counter("rpc.failed"), 2);
            // The slot is neither poisoned nor wedged, and a restart
            // serves again. A `send` takes the path its `rpc` took: the
            // panic below is on the caller's thread when `inline`.
            assert_eq!(rt.with_service(s, |f: &Fragile| f.handled), Some(1));
            rt.apply_fault(&FaultAction::Restart(s));
            assert_eq!(
                Transport::rpc(&mut rt, c, s, Msg::Val(3), SECS5),
                Ok(Msg::Val(3))
            );
            let token = Transport::send(&mut rt, c, s, Msg::Val(13));
            let deadline = Clock::now(&rt) + SECS5;
            assert_eq!(
                Transport::wait_any(&mut rt, &[token], deadline),
                Some(token)
            );
            assert_eq!(
                Transport::try_take_reply(&mut rt, token),
                Some(Err(NetError::NodeDown(s)))
            );
            assert!(!ServiceHost::is_up(&rt, s));
            // The node thread survived its handler: nothing hangs.
            assert_eq!(rt.shutdown(Duration::from_secs(2)), Ok(()));
        }
    }

    /// Replies, in place or from its mailbox alike, with the node it runs
    /// on and one draw from its RNG stream. It serves `Get` in place and
    /// hands every other request to its mailbox.
    struct Draws;

    impl Service<Msg> for Draws {
        fn handle(&mut self, ctx: &mut ServiceCtx<'_>, _from: NodeId, _msg: Msg) -> Msg {
            let draw = ctx.rng.range_u64(0, u64::MAX);
            Msg::Batch(vec![Msg::Val(ctx.node.0.into()), Msg::Val(draw)])
        }

        fn serve_inline(
            &mut self,
            ctx: &mut ServiceCtx<'_>,
            from: NodeId,
            msg: Msg,
        ) -> Result<Msg, Msg> {
            match msg {
                Msg::Get => Ok(self.handle(ctx, from, msg)),
                other => Err(other),
            }
        }
    }

    #[test]
    fn a_handler_gets_one_context_on_either_path() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(37);
        let c = rt.add_node("client");
        let s = rt.add_node("draws");
        rt.install_service(s, Box::new(Draws));
        // The node's one stream, whichever thread runs the handler.
        let mut stream = SimRng::for_label(37, "svc.draws");
        for i in 0..32 {
            // An rpc or a send, of a `Get` (in place) or a `Val` (through
            // the mailbox).
            let msg = if i % 4 < 2 { Msg::Get } else { Msg::Val(i) };
            let reply = if i % 2 == 0 {
                Transport::rpc(&mut rt, c, s, msg, SECS5)
            } else {
                sent(&mut rt, c, s, msg, SECS5)
            };
            let want = vec![
                Msg::Val(s.0.into()),
                Msg::Val(stream.range_u64(0, u64::MAX)),
            ];
            assert_eq!(reply, Ok(Msg::Batch(want)), "call {i}");
        }
        // A reply leaves its node idle, so every `Get` ran in place and
        // only the `Val`s crossed the mailbox.
        assert_eq!(rt.metrics.counter("rpc.shared"), 16);
        assert_eq!(accounted(&rt).1, 16);
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    /// Two views of one fleet that only ever rpc and only ever send,
    /// respectively: `Get`s from `from`.
    struct NextCalls {
        rpcs: ThreadedRuntime<Msg>,
        sends: ThreadedRuntime<Msg>,
        from: NodeId,
    }

    impl NextCalls {
        /// Asserts that the next rpc and the next send to `to` both come
        /// back `want` (the send's reply within half a second: a stale
        /// route to a down node would post into a mailbox that eats it).
        fn see(&mut self, to: NodeId, want: Result<Msg, NetError>, after: &str) {
            let got = Transport::rpc(&mut self.rpcs, self.from, to, Msg::Get, SECS5);
            assert_eq!(got, want, "rpc after {after}");
            let sends = &mut self.sends;
            let token = Transport::send(sends, self.from, to, Msg::Get);
            let deadline = Clock::now(sends) + SimDuration::from_millis(500);
            Transport::wait_any(sends, &[token], deadline);
            let got = Transport::try_take_reply(sends, token);
            assert_eq!(got, Some(want), "send after {after}");
        }
    }

    #[test]
    fn a_change_through_one_view_reaches_every_views_next_rpc_and_send() {
        let (mut a, c, s, _gate) = register_fleet(7, false);
        // Views that have routed once: each holds routes from before
        // every change below and meets it with its very next call.
        let mut next = NextCalls {
            rpcs: a.clone(),
            sends: a.clone(),
            from: c,
        };
        next.see(s, Ok(Msg::Val(7)), "nothing");
        let cut = Err(NetError::Unreachable { from: c, to: s });
        for (fault, want) in [
            (FaultAction::Crash(s), Err(NetError::NodeDown(s))),
            (FaultAction::Restart(s), Ok(Msg::Val(7))),
            (FaultAction::Partition(vec![s]), cut),
            (FaultAction::HealPartition, Ok(Msg::Val(7))),
        ] {
            a.apply_fault(&fault);
            next.see(s, want, &format!("{fault:?}"));
        }
        let late = a.add_node("late");
        let register = Register {
            value: 3,
            gate: None,
        };
        a.install_service(late, Box::new(register));
        next.see(late, Ok(Msg::Val(3)), "add_node");
        let fragile = a.add_node("fragile");
        let inline = Fragile {
            inline: true,
            handled: 0,
        };
        a.install_service(fragile, Box::new(inline));
        next.see(fragile, Ok(Msg::Get), "add_node");
        // The node is idle, so the panic runs on `a`'s thread, inside its
        // inline hand-off: only the slot's crash tells the other views.
        assert_eq!(
            Transport::rpc(&mut a, c, fragile, Msg::Val(13), SECS5),
            Err(NetError::NodeDown(fragile))
        );
        next.see(fragile, Err(NetError::NodeDown(fragile)), "an inline panic");
        assert!(a.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn recorder_sees_a_shared_read_like_a_mailbox_read() {
        let (mut rt, c, s, gate) = register_fleet(7, true);
        rt.attach_recorder(Recorder::new(29));
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
            Ok(Msg::Val(7))
        );
        assert_eq!(rt.metrics.counter("rpc.shared"), 1);
        // Same read behind a write held in the handler: it must queue.
        let _write = Transport::send(&mut rt, c, s, Msg::Val(7));
        gate.entered.recv().expect("write reached the handler");
        release_from_timer(&mut rt, &gate);
        assert_eq!(
            Transport::rpc(&mut rt, c, s, Msg::Get, SECS5),
            Ok(Msg::Val(7))
        );
        assert_eq!(rt.metrics.counter("rpc.shared"), 1, "second read queued");
        // Only the write's send and the queued read are timed.
        assert_eq!(rt.metrics.latency("rpc.latency").map(|l| l.len()), Some(2));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());

        let rec = rt.recorder().unwrap().finish();
        let rpcs: Vec<(u64, RecOutcome)> = rec
            .entries
            .iter()
            .filter_map(|e| match &e.ev {
                RecEvent::Rpc {
                    req_hash, outcome, ..
                } => Some((*req_hash, *outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(rpcs.len(), 2, "one Rpc event per read, shared or not");
        assert!(matches!(rpcs[0].1, RecOutcome::Ok { .. }));
        assert_eq!(rpcs[0], rpcs[1], "same request hash, same reply hash");
    }

    #[test]
    fn every_failure_cause_counts_once_under_rpc_failed() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(9);
        let c = rt.add_node("client");
        let s = rt.add_node("server");
        rt.install_service(s, Box::new(Inc { hits: 0 }));
        let empty = rt.add_node("empty");

        rt.apply_fault(&FaultAction::Partition(vec![s]));
        let un = Transport::rpc(&mut rt, c, s, Msg::Val(1), SimDuration::from_secs(5));
        assert!(matches!(un, Err(NetError::Unreachable { .. })));
        rt.apply_fault(&FaultAction::HealPartition);

        rt.apply_fault(&FaultAction::Crash(s));
        let down = Transport::rpc(&mut rt, c, s, Msg::Val(1), SimDuration::from_secs(5));
        assert_eq!(down, Err(NetError::NodeDown(s)));
        rt.apply_fault(&FaultAction::Restart(s));

        let to = Transport::rpc(&mut rt, c, empty, Msg::Val(1), SimDuration::from_millis(60));
        assert_eq!(to, Err(NetError::Timeout));

        // A send that finds no route, or a crashed server, fails at once.
        rt.apply_fault(&FaultAction::Partition(vec![s]));
        let un = Transport::send(&mut rt, c, s, Msg::Val(1));
        assert!(matches!(
            Transport::try_take_reply(&mut rt, un),
            Some(Err(NetError::Unreachable { .. }))
        ));
        rt.apply_fault(&FaultAction::HealPartition);
        rt.apply_fault(&FaultAction::Crash(s));
        let down = Transport::send(&mut rt, c, s, Msg::Val(1));
        assert_eq!(
            Transport::try_take_reply(&mut rt, down),
            Some(Err(NetError::NodeDown(s)))
        );
        rt.apply_fault(&FaultAction::Restart(s));

        // As on the simulator: one name for every cause, which only the
        // recording (`RecOutcome`) tells apart.
        let rpc: Vec<(&str, u64)> = rt
            .metrics
            .counters()
            .filter(|(name, _)| name.starts_with("rpc."))
            .collect();
        assert_eq!(rpc, [("rpc.failed", 5), ("rpc.sent", 5)]);
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn finish_spans_surfaces_the_unclosed_ledger() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(21);
        *rt.events_mut() = EventSink::enabled();
        let _open = Observe::span_enter(&mut rt, "rt.read", &|| "leaked by test".to_string());
        let names = rt.finish_spans();
        assert_eq!(names, vec!["rt.read (leaked by test)".to_string()]);
        assert_eq!(rt.metrics.counter(UNCLOSED_SPANS), 1);
        // Balanced instrumentation reports nothing.
        let mut clean: ThreadedRuntime<Msg> = ThreadedRuntime::new(22);
        *clean.events_mut() = EventSink::enabled();
        let span = Observe::span_enter(&mut clean, "rt.read", &|| String::new());
        Observe::span_exit(&mut clean, span);
        assert!(clean.finish_spans().is_empty());
        assert_eq!(clean.metrics.counter(UNCLOSED_SPANS), 0);
    }

    /// A send is accounted as an rpc is, where it ends: a reply counts
    /// `rpc.ok` (and is timed when it crossed the mailbox) and closes the
    /// span it opened under the sender's context, whether it was served
    /// in place or not; a request a node drops (here: no service
    /// installed) ends as a timeout, while its caller still waits out its
    /// own deadline.
    #[test]
    fn a_send_is_accounted_where_it_ends() {
        let (mut rt, c, s, _gate) = register_fleet(7, false);
        let empty = rt.add_node("empty");
        rt.events_mut().set_enabled(true);
        let read = Observe::span_enter(&mut rt, "rt.read", &String::new);
        let in_place = Transport::send(&mut rt, c, s, Msg::Get);
        let posted = Transport::send(&mut rt, c, s, Msg::Val(8));
        Observe::span_exit(&mut rt, read);
        assert_eq!(
            Transport::try_take_reply(&mut rt, in_place),
            Some(Ok(Msg::Val(7)))
        );
        let deadline = Clock::now(&rt) + SECS5;
        assert_eq!(
            Transport::wait_any(&mut rt, &[posted], deadline),
            Some(posted)
        );
        let dropped = Transport::send(&mut rt, c, empty, Msg::Get);
        let deadline = Clock::now(&rt) + SimDuration::from_millis(200);
        assert_eq!(Transport::wait_any(&mut rt, &[dropped], deadline), None);
        let want = vec![
            ("rpc.failed", 1),
            ("rpc.ok", 2),
            ("rpc.sent", 3),
            ("rpc.shared", 1),
        ];
        // Only the write crossed a mailbox and came back: one sample.
        assert_eq!(accounted(&rt), (want, 1));
        let events = rt.events().events();
        let sends: Vec<_> = events.iter().filter(|e| e.kind == "net.rpc").collect();
        assert_eq!(sends.len(), 3);
        for send in &sends[..2] {
            assert_eq!(send.parent, Some(read), "under the sender's context");
        }
        assert_eq!(rt.events().count_kind("net.rpc.failed"), 1);
        assert!(rt.finish_spans().is_empty());
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn only_an_enabled_sink_reads_the_clock_for_span_edges() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(24);
        // Disabled: the id is handed out, the detail is never built and
        // nothing is recorded.
        let quiet = Observe::span_enter(&mut rt, "rt.read", &|| unreachable!("unrecorded"));
        Observe::span_exit(&mut rt, quiet);
        assert!(rt.events().is_empty());
        // Enabled: every edge carries the wall clock at the time it was
        // recorded, so stamps never run backwards and sit between two
        // readings taken around them.
        while Clock::now(&rt).as_micros() == 0 {
            std::hint::spin_loop();
        }
        rt.events_mut().set_enabled(true);
        let before = Clock::now(&rt).as_micros();
        let outer = Observe::span_enter(&mut rt, "rt.read", &|| "outer".to_string());
        let inner = Observe::span_enter(&mut rt, "net.rpc", &|| "inner".to_string());
        assert!(inner > outer && outer > quiet, "ids advance either way");
        Observe::span_exit(&mut rt, inner);
        Observe::span_exit(&mut rt, outer);
        let after = Clock::now(&rt).as_micros();
        let stamps: Vec<u64> = rt.events().events().iter().map(|e| e.at_us).collect();
        assert_eq!(stamps.len(), 4, "two begin edges, two end edges");
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        assert!(before > 0 && before <= stamps[0] && stamps[3] <= after);
        assert!(rt.finish_spans().is_empty());
    }

    #[test]
    fn recorder_captures_the_boundary_crossings() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(11);
        rt.attach_recorder(Recorder::new(11));
        let c = rt.add_node("client");
        let s = rt.add_node("server");
        rt.install_service(s, Box::new(Inc { hits: 0 }));
        let ok = Transport::rpc(&mut rt, c, s, Msg::Val(1), SimDuration::from_secs(5));
        assert_eq!(ok, Ok(Msg::Val(2)));
        rt.apply_fault(&FaultAction::Partition(vec![s]));
        let un = Transport::rpc(&mut rt, c, s, Msg::Val(1), SimDuration::from_secs(5));
        assert_eq!(un, Err(NetError::Unreachable { from: c, to: s }));
        rt.apply_fault(&FaultAction::HealPartition);
        let token = Transport::send(&mut rt, c, s, Msg::Val(5));
        let deadline = Clock::now(&rt) + SimDuration::from_secs(5);
        assert_eq!(
            Transport::wait_any(&mut rt, &[token], deadline),
            Some(token)
        );
        let reply = Transport::try_take_reply(&mut rt, token).expect("completed");
        assert_eq!(reply, Ok(Msg::Val(6)));
        assert!(rt.shutdown(Duration::from_secs(2)).is_ok());

        let rec = rt.recorder().unwrap().finish();
        assert!(!rec.truncated);
        assert_eq!(rec.nodes, vec!["client".to_string(), "server".to_string()]);
        let evs: Vec<&RecEvent> = rec.entries.iter().map(|e| &e.ev).collect();
        // Same request payload → same recorded hash, success then the
        // partition's failure; the fault itself is the driver's to record.
        let rpcs: Vec<(u64, RecOutcome)> = evs
            .iter()
            .filter_map(|e| match e {
                RecEvent::Rpc {
                    req_hash, outcome, ..
                } => Some((*req_hash, *outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(rpcs.len(), 2);
        assert_eq!(rpcs[0].0, rpcs[1].0);
        assert!(matches!(rpcs[0].1, RecOutcome::Ok { .. }));
        assert_eq!(rpcs[1].1, RecOutcome::Unreachable { from: 0, to: 1 });
        let sent_token = evs
            .iter()
            .find_map(|e| match e {
                RecEvent::Send { token, .. } => Some(*token),
                _ => None,
            })
            .expect("send recorded");
        assert!(evs
            .iter()
            .any(|e| matches!(e, RecEvent::WaitAny { winner: Some(w), .. } if *w == sent_token)));
        assert!(
            evs.iter()
                .any(|e| matches!(e, RecEvent::TookReply { token, .. } if *token == sent_token)),
            "collected reply recorded"
        );
        // The artifact form survives a round trip.
        assert_eq!(
            crate::record::Recording::from_ron(&rec.to_ron()).unwrap(),
            rec
        );
    }
}
