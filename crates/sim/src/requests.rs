//! One request life cycle for every backend. [`Requests`] mints each
//! request's [`ReplyToken`], holds its open [`Account`] while it is
//! pending, keeps its reply until its caller takes it, and parks the task
//! waiting on it. The rules, kept once:
//!
//! * a request is accounted once, where it ends ([`Account::end`]);
//! * a reply to a request that has already ended is dropped;
//! * [`Requests::abandon`] ends a pending request as a timeout, and drops
//!   a reply already in;
//! * a reply that wakes a task cancels the task's deadline: the backend
//!   drops the deadline's timer, which never fires.
//!
//! The simulator's `World` and the threaded runtime only deliver and wait.

use crate::idmap::IdMap;
use crate::metrics::{EventSink, Metrics, TraceContext};
use crate::net::NetError;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// Correlates a reply with the request waiting for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReplyToken(u64);

impl ReplyToken {
    /// The raw id behind this token, as a recording names it.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// What a request's account needs when it ends.
#[derive(Clone, Copy, Debug)]
pub struct Account {
    /// The calling node.
    pub from: NodeId,
    /// The target node.
    pub to: NodeId,
    /// When it left, if the backend times it.
    pub started: Option<SimTime>,
    /// Its `net.rpc` span, open under the sender's context.
    pub span: Option<TraceContext>,
}

/// Where an account is written, and the clock it reads when a latency
/// sample, a span edge or the fingerprint needs the time.
pub struct Books<'a, C> {
    metrics: &'a mut Metrics,
    events: &'a mut EventSink,
    /// The simulator's fingerprint; the threaded backend keeps none.
    trace: Option<&'a mut Trace>,
    now: C,
}

impl<'a, C: Fn() -> SimTime> Books<'a, C> {
    /// Books that keep no fingerprint.
    pub fn new(metrics: &'a mut Metrics, events: &'a mut EventSink, now: C) -> Self {
        Books {
            metrics,
            events,
            trace: None,
            now,
        }
    }

    /// The same books, folding each outcome into `trace` as well.
    pub(crate) fn traced(self, trace: &'a mut Trace) -> Self {
        Books {
            trace: Some(trace),
            ..self
        }
    }
}

impl Account {
    /// The one account of every request, however it ended: `rpc.ok`, and
    /// an `rpc.latency` sample when its start is known, or `rpc.failed`
    /// and a `net.rpc.failed` event. The fingerprint records the outcome,
    /// and the span closes.
    pub fn end<C: Fn() -> SimTime>(self, outcome: Result<(), NetError>, books: Books<'_, C>) {
        let Account { from, to, .. } = self;
        let timed = outcome.is_ok() && self.started.is_some();
        let at = if timed || self.span.is_some() || books.trace.is_some() {
            (books.now)()
        } else {
            SimTime::ZERO
        };
        let ev = match outcome {
            Ok(()) => {
                books.metrics.incr("rpc.ok");
                if let Some(started) = self.started {
                    let took = at.saturating_since(started);
                    books.metrics.observe("rpc.latency", took.as_micros());
                }
                TraceEvent::RpcOk { from, to }
            }
            Err(error) => {
                books.metrics.incr("rpc.failed");
                if let (Some(span), true) = (self.span, books.events.is_enabled()) {
                    let detail = format!("{from}->{to}: {error}");
                    let at = at.as_micros();
                    books
                        .events
                        .event_in(at, "net.rpc.failed", detail, Some(span));
                }
                TraceEvent::RpcFailed { from, to, error }
            }
        };
        if let Some(trace) = books.trace {
            trace.record(at, ev);
        }
        if let Some(span) = self.span {
            books.events.end_span(at.as_micros(), span.span);
        }
    }
}

/// Drops a late reply out of line, off the path every reply takes:
/// dropped inline, it read ~3.5 % slower on `ledger`'s `rt-read-fanout`
/// (DESIGN.md §5, "A late reply is not kept").
#[cold]
#[inline(never)]
fn discard<T>(_: T) {}

/// A backend's requests: pending ones with their accounts, replies not
/// yet taken, and the tasks (`T`) waiting on a reply.
pub struct Requests<M, T> {
    next: u64,
    pending: IdMap<ReplyToken, Account>,
    done: IdMap<ReplyToken, Result<M, NetError>>,
    waiters: IdMap<ReplyToken, T>,
}

impl<M, T> Default for Requests<M, T> {
    fn default() -> Self {
        Requests {
            next: 0,
            pending: IdMap::default(),
            done: IdMap::default(),
            waiters: IdMap::default(),
        }
    }
}

impl<M, T> Requests<M, T> {
    fn mint(&mut self) -> ReplyToken {
        self.next += 1;
        ReplyToken(self.next - 1)
    }

    /// Opens `account` for a request about to leave under the token
    /// returned.
    pub fn open(&mut self, account: Account) -> ReplyToken {
        let token = self.mint();
        self.pending.insert(token, account);
        token
    }

    /// Leaves `result` under a fresh token, for a request that ended as
    /// it was launched (accounted then, or never sent).
    pub fn park(&mut self, result: Result<M, NetError>) -> ReplyToken {
        let token = self.mint();
        self.done.insert(token, result);
        token
    }

    /// The request under `token` ends, with `Some` reply or error that
    /// waits for its caller, or as a timeout when its request or reply
    /// was lost (`None`). A request that has already ended stays as it
    /// is, and the reply is dropped. Returns the task the reply wakes,
    /// whose deadline the backend cancels.
    pub fn complete<C: Fn() -> SimTime>(
        &mut self,
        token: ReplyToken,
        result: Option<Result<M, NetError>>,
        books: Books<'_, C>,
    ) -> Option<T> {
        let Some(account) = self.pending.remove(&token) else {
            discard(result);
            return None;
        };
        let outcome = match &result {
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(*e),
            None => Err(NetError::Timeout),
        };
        account.end(outcome, books);
        self.done.insert(token, result?);
        self.waiters.remove(&token)
    }

    /// Whether the reply under `token` is in and not yet taken.
    pub fn is_done(&self, token: ReplyToken) -> bool {
        self.done.contains_key(&token)
    }

    /// Takes the reply under `token`, if it is in.
    pub fn take(&mut self, token: ReplyToken) -> Option<Result<M, NetError>> {
        self.done.remove(&token)
    }

    /// Gives up on the request under `token`: it ends now as a timeout,
    /// if it is still pending, and a reply already in is dropped.
    pub fn abandon<C: Fn() -> SimTime>(&mut self, token: ReplyToken, books: Books<'_, C>) {
        self.time_out(token, books);
        self.done.remove(&token);
    }

    /// Parks `task` until the reply under `token` lands, and the backend
    /// arms its deadline ([`Requests::deadline`]); hands it back when the
    /// reply is in already, to run at once.
    pub fn wake_on_reply(&mut self, token: ReplyToken, task: T) -> Option<T> {
        if self.is_done(token) {
            return Some(task);
        }
        self.waiters.insert(token, task);
        None
    }

    /// The deadline of the task waiting on `token` has come: the request
    /// ends as a timeout, if it is still pending, and the task is handed
    /// back to run.
    pub fn deadline<C: Fn() -> SimTime>(&mut self, token: ReplyToken, books: Books<'_, C>) -> T {
        let task = self.waiters.remove(&token);
        self.time_out(token, books);
        task.expect("a reply that wakes its task cancels the deadline")
    }

    /// Ends the request under `token` as a timeout, if it is pending.
    fn time_out<C: Fn() -> SimTime>(&mut self, token: ReplyToken, books: Books<'_, C>) {
        if let Some(account) = self.pending.remove(&token) {
            account.end(Err(NetError::Timeout), books);
        }
    }

    /// How many replies are in and not yet taken, and how many tasks wait.
    pub fn held(&self) -> (usize, usize) {
        (self.done.len(), self.waiters.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request from node 0 to node 1 that left at 1 ms.
    fn account(span: Option<TraceContext>) -> Account {
        Account {
            from: NodeId(0),
            to: NodeId(1),
            started: Some(SimTime::from_millis(1)),
            span,
        }
    }

    /// The `rpc.*` counters.
    fn counters(m: &Metrics) -> Vec<(&str, u64)> {
        m.counters()
            .filter(|(n, _)| n.starts_with("rpc."))
            .collect()
    }

    /// How many `rpc.latency` samples there are, and their median.
    fn timed(m: &Metrics) -> (usize, Option<u64>) {
        m.latency("rpc.latency")
            .map_or((0, None), |l| (l.len(), l.p50()))
    }

    /// Every rule of the table, on one metrics registry and one recording
    /// sink, with the clock at 5 ms: one account per request where it
    /// ends, late replies dropped, abandon as a timeout, and a woken task
    /// handed back exactly once.
    #[test]
    fn every_request_is_accounted_once_where_it_ends() {
        let (mut m, mut e) = (Metrics::new(), EventSink::enabled());
        let mut t: Requests<u64, &str> = Requests::default();
        let now = || SimTime::from_millis(5);
        let span = e.begin_span(1_000, "net.rpc", "n0->n1", None);

        // A reply: counted and timed once, its span closed; a second
        // reply to the same request is dropped.
        let replied = t.open(account(Some(span)));
        assert_eq!(t.wake_on_reply(replied, "woken"), None);
        let woken = t.complete(replied, Some(Ok(7)), Books::new(&mut m, &mut e, now));
        assert_eq!(woken, Some("woken"), "the reply hands its task back");
        assert_eq!(
            t.complete(replied, Some(Ok(8)), Books::new(&mut m, &mut e, now)),
            None
        );
        assert_eq!(t.take(replied), Some(Ok(7)));
        assert_eq!(counters(&m), [("rpc.ok", 1)]);
        assert_eq!(timed(&m), (1, Some(4_000)));

        // An error, and a lost message (`None`): failed, nothing timed,
        // and only the error waits for its caller.
        let refused = t.open(account(None));
        let lost = t.open(account(None));
        let down = Err(NetError::NodeDown(NodeId(1)));
        t.complete(refused, Some(down), Books::new(&mut m, &mut e, now));
        t.complete(lost, None, Books::new(&mut m, &mut e, now));
        assert!(t.is_done(refused) && !t.is_done(lost));
        assert_eq!(t.take(refused), Some(down));
        let failed = vec![("rpc.failed", 2), ("rpc.ok", 1)];
        assert_eq!((counters(&m), timed(&m)), (failed, (1, Some(4_000))));

        // Abandoned while pending: a timeout, and its late reply is
        // dropped. Abandoned with its reply in: the reply goes, and the
        // account it already has stands.
        let given_up = t.open(account(None));
        t.abandon(given_up, Books::new(&mut m, &mut e, now));
        t.complete(given_up, Some(Ok(9)), Books::new(&mut m, &mut e, now));
        assert_eq!(t.take(given_up), None);
        let answered = t.open(account(None));
        t.complete(answered, Some(Ok(3)), Books::new(&mut m, &mut e, now));
        t.abandon(answered, Books::new(&mut m, &mut e, now));
        assert_eq!(t.take(answered), None);
        assert_eq!(counters(&m), vec![("rpc.failed", 3), ("rpc.ok", 2)]);

        // A deadline that comes first ends the request as a timeout and
        // hands the task back; a reply already in hands it back at once.
        let slow = t.open(account(None));
        assert_eq!(t.wake_on_reply(slow, "deadline"), None);
        assert_eq!(
            t.deadline(slow, Books::new(&mut m, &mut e, now)),
            "deadline"
        );
        let parked = t.park(Err(NetError::NodeDown(NodeId(0))));
        assert_eq!(t.wake_on_reply(parked, "at once"), Some("at once"));
        // A parked result was never sent: it is in, but unaccounted.
        assert_eq!(t.take(parked), Some(Err(NetError::NodeDown(NodeId(0)))));
        assert_eq!(counters(&m), vec![("rpc.failed", 4), ("rpc.ok", 2)]);
        assert_eq!(t.held(), (0, 0), "nothing held, nobody waiting");

        // Only the spanned request recorded edges: its begin and end.
        assert!(e.finish(6_000).is_empty(), "every span closed");
        assert_eq!(e.count_kind("net.rpc.failed"), 0);
    }

    /// A failure whose request had a span records `net.rpc.failed` under
    /// it, at the time it ended, naming both ends and the cause.
    #[test]
    fn a_failure_is_recorded_under_its_span() {
        let (mut m, mut e) = (Metrics::new(), EventSink::enabled());
        let mut t: Requests<u64, ()> = Requests::default();
        let span = e.begin_span(1_000, "net.rpc", "n0->n1", None);
        let token = t.open(account(Some(span)));
        t.abandon(
            token,
            Books::new(&mut m, &mut e, || SimTime::from_millis(3)),
        );
        let failed: Vec<_> = e
            .events()
            .iter()
            .filter(|ev| ev.kind == "net.rpc.failed")
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            (failed[0].at_us, failed[0].parent),
            (3_000, Some(span.span))
        );
        assert_eq!(failed[0].detail.as_str(), "n0->n1: request timed out");
        assert!(e.finish(4_000).is_empty(), "its span closed");
    }
}
