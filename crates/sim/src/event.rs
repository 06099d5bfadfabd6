//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties in simulated time are
//! broken by insertion order, which makes every run deterministic.

use crate::fault::FaultAction;
use crate::metrics::TraceContext;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::world::{ReplyToken, Task, World};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
pub(crate) enum EventKind<M> {
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
    /// An arbitrary scheduled task (background mutator, concurrent client).
    Task(Box<dyn Task<M>>),
    /// The deadline of a task waiting on this token's reply.
    Deadline(ReplyToken),
}

pub(crate) struct QueuedEvent<M> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}

impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for QueuedEvent<M> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-queue of events keyed by `(time, seq)`.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<QueuedEvent<M>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { at, seq, kind });
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn pop(&mut self) -> Option<QueuedEvent<M>> {
        self.heap.pop()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)] // symmetry with len(); used by tests
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Run a boxed task against the world. Lives here so `EventKind` can stay
/// private while `World` dispatches it.
pub(crate) fn run_task<M>(task: Box<dyn Task<M>>, world: &mut World<M>) {
    task.run(world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultAction;

    fn fault_event(_us: u64) -> EventKind<()> {
        // Any payload works for ordering tests; reuse a fault action.
        EventKind::Fault(FaultAction::HealPartition)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::default();
        q.push(SimTime::from_micros(30), fault_event(30));
        q.push(SimTime::from_micros(10), fault_event(10));
        q.push(SimTime::from_micros(20), fault_event(20));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::default();
        let t = SimTime::from_micros(5);
        for _ in 0..4 {
            q.push(t, fault_event(5));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(9), fault_event(9));
        q.push(SimTime::from_micros(2), fault_event(2));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
