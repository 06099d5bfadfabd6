//! Network-level failures and message coalescing.
//!
//! The paper writes `fails` for "the operation terminates with a special
//! 'failure' exception, denoting any kind of failure, e.g., a timeout, node
//! crash, or link down". [`NetError`] is that exception, with the cause kept
//! for diagnostics.
//!
//! This module also carries the wire-level *batch envelope*: a message
//! type that implements [`BatchEnvelope`] can coalesce several sibling
//! requests for one destination into a single envelope message, which
//! crosses the network as ONE message — one latency sample, one
//! transfer-delay charge, one delivery event. [`BatchBuffer`] is the
//! scheduler-level flush queue that does the grouping.

use crate::node::NodeId;
use crate::world::{ReplyToken, World};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A message type whose values can be coalesced into one wire-level
/// envelope.
///
/// Implementations add a `Batch(Vec<M>)`-style variant to their protocol
/// enum; servers answer an envelope with an envelope of replies in
/// request order. The simulator charges the envelope as a single
/// message, so a quorum round-trip can carry reads for every key
/// co-located on the destination.
pub trait BatchEnvelope: Sized {
    /// Wraps sibling requests into one envelope message.
    fn wrap_batch(parts: Vec<Self>) -> Self;
    /// Recovers an envelope's parts, or gives the message back when it
    /// is not an envelope (a plain unbatched reply).
    fn unwrap_batch(self) -> Result<Vec<Self>, Self>;
}

/// A scheduler-level flush queue for batched sends.
///
/// Client code pushes individual requests keyed by destination; a
/// [`BatchBuffer::flush`] then launches ONE envelope per destination
/// (in deterministic `NodeId` order) via [`World::send_batch`] and
/// returns the in-flight tokens. The buffer never advances simulated
/// time — pushes are free, and the flush only *launches* messages, so
/// requests queued in the same scheduling step genuinely share their
/// round trips.
#[derive(Debug)]
pub struct BatchBuffer<M> {
    from: NodeId,
    pending: BTreeMap<NodeId, Vec<M>>,
}

impl<M: Clone + fmt::Debug + BatchEnvelope + 'static> BatchBuffer<M> {
    /// An empty buffer for requests originating at `from`.
    pub fn new(from: NodeId) -> Self {
        BatchBuffer {
            from,
            pending: BTreeMap::new(),
        }
    }

    /// Queues one request for `to`. Nothing is sent until
    /// [`BatchBuffer::flush`].
    pub fn push(&mut self, to: NodeId, msg: M) {
        self.pending.entry(to).or_default().push(msg);
    }

    /// Total queued requests across all destinations.
    pub fn pending_parts(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Sends every queued request, one envelope per destination, and
    /// returns `(destination, token, parts)` per envelope in `NodeId`
    /// order. Replies arrive as envelopes; unwrap them with
    /// [`BatchEnvelope::unwrap_batch`] after
    /// [`World::try_take_reply`].
    pub fn flush(&mut self, world: &mut World<M>) -> Vec<(NodeId, ReplyToken, usize)> {
        let pending = std::mem::take(&mut self.pending);
        pending
            .into_iter()
            .map(|(to, parts)| {
                let n = parts.len();
                let token = world.send_batch(self.from, to, parts);
                (to, token, n)
            })
            .collect()
    }

    /// Takes every queued request, grouped per destination in `NodeId`
    /// order, without sending anything. Runtime-agnostic callers drain
    /// the buffer and launch one envelope per group through whichever
    /// transport they run on (`weakset-runtime`'s `Transport::send_batch`).
    pub fn drain(&mut self) -> Vec<(NodeId, Vec<M>)> {
        std::mem::take(&mut self.pending).into_iter().collect()
    }
}

/// Why a remote operation failed.
///
/// Every variant corresponds to a failure the paper's model assumes is
/// *detectable* ("signaled from the lower network and transport layers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetError {
    /// No reply arrived within the caller's timeout.
    Timeout,
    /// The local or remote node is known to be crashed.
    NodeDown(NodeId),
    /// Failure detection reported no route between the two nodes
    /// (partition or down links).
    Unreachable {
        /// The calling node.
        from: NodeId,
        /// The target node.
        to: NodeId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout => write!(f, "request timed out"),
            NetError::NodeDown(n) => write!(f, "node {n} is down"),
            NetError::Unreachable { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(NetError::Timeout.to_string(), "request timed out");
        assert_eq!(NetError::NodeDown(NodeId(2)).to_string(), "node n2 is down");
        assert_eq!(
            NetError::Unreachable {
                from: NodeId(0),
                to: NodeId(1)
            }
            .to_string(),
            "no route from n0 to n1"
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(NetError::Timeout);
        assert!(e.source().is_none());
    }
}
