//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties in simulated time are
//! broken by insertion order, which makes every run deterministic. The
//! threaded runtime keeps its timers in the same [`Queue`].

use crate::fault::FaultAction;
use crate::metrics::TraceContext;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::traits::{RtMessage, RtTask};
use crate::world::ReplyToken;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
pub(crate) enum EventKind<M: RtMessage> {
    /// A request message reaches the server node. Carries the causal
    /// context of the span that launched it, so server-side handling
    /// parents under the caller's trace.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        token: ReplyToken,
        ctx: Option<TraceContext>,
    },
    /// A reply message reaches the client node.
    ReplyArrive {
        from: NodeId,
        to: NodeId,
        msg: M,
        token: ReplyToken,
        ctx: Option<TraceContext>,
    },
    /// An asynchronously-sent request completes with a local error
    /// (fast failure detection).
    CompleteError {
        token: ReplyToken,
        error: crate::net::NetError,
    },
    /// A fault-plan action takes effect.
    Fault(FaultAction),
    /// A task's next step (background mutator, concurrent client, gossip
    /// round).
    Task(Box<dyn RtTask<M>>),
    /// The deadline of a task waiting on this token's reply; cancelled
    /// when the reply wakes the task first.
    Deadline(ReplyToken),
}

/// The world's event queue.
pub(crate) type EventQueue<M> = Queue<EventKind<M>>;

/// One queued `K`, due at `at`.
struct Queued<K> {
    at: SimTime,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Queued<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<K> Eq for Queued<K> {}

impl<K> PartialOrd for Queued<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Queued<K> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* one.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-queue of `K`s keyed by `(time, seq)`: the world's events, and
/// the threaded runtime's timers.
pub struct Queue<K> {
    heap: BinaryHeap<Queued<K>>,
    next_seq: u64,
}

impl<K> Default for Queue<K> {
    fn default() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<K> Queue<K> {
    /// Queues `kind` at `at`, after everything already queued at `at`.
    pub fn push(&mut self, at: SimTime, kind: K) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Queued { at, seq, kind });
    }

    /// Time of the earliest entry.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Takes the earliest entry, with its time.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        self.heap.pop().map(|e| (e.at, e.kind))
    }

    /// Drops every entry `keep` refuses; the rest keep their order,
    /// which `(at, seq)` alone decides.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.heap.retain(|e| keep(&e.kind));
    }

    /// How many entries are queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = Queue::default();
        for us in [30, 10, 20] {
            q.push(SimTime::from_micros(us), us);
        }
        let kinds: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(kinds, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = Queue::default();
        let t = SimTime::from_micros(5);
        for i in 0..4 {
            q.push(t, i);
        }
        let kinds: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(kinds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = Queue::default();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(9), ());
        q.push(SimTime::from_micros(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn retain_drops_only_what_it_refuses() {
        let mut q = Queue::default();
        for i in 0..6 {
            q.push(SimTime::from_micros(6 - i), i);
        }
        q.retain(|&k| k % 2 == 0);
        let kinds: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(kinds, vec![4, 2, 0]);
    }
}
