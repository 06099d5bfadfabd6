//! The simulator's determinism fingerprint, and the FNV-1a hashes
//! recordings and hashed `$DST_SEED`s use.
//!
//! A run's histories are kept elsewhere: the spec crate's `Computation`
//! for the oracles and the `EventSink` causal log. The world only needs
//! a run's *name*, so every RPC, fault action and task firing is folded,
//! with its simulated time, into a running 64-bit digest as it happens
//! ([`crate::world::World::trace_hash`]); no record of it is kept.

use crate::net::NetError;
use crate::node::{decimal_digits, NodeId};
use crate::time::SimTime;
use std::fmt::{self, Write as _};

/// One occurrence folded into a run's fingerprint.
///
/// `from`/`to` fields name the client and server nodes of the RPC or
/// message concerned. Its `Debug` text is part of the digest's
/// definition, so it must not change; that text is the only reader of
/// most fields, which dead-code analysis ignores.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum TraceEvent<'a> {
    /// A client issued an RPC.
    RpcSend { from: NodeId, to: NodeId },
    /// The request reached the server and was handled.
    RpcHandled { from: NodeId, to: NodeId },
    /// The reply reached the client.
    RpcOk { from: NodeId, to: NodeId },
    /// The RPC failed.
    RpcFailed {
        from: NodeId,
        to: NodeId,
        error: NetError,
    },
    /// A message was lost in flight (state changed mid-flight or link loss).
    MessageLost { from: NodeId, to: NodeId },
    /// A node crashed.
    NodeCrashed(NodeId),
    /// A node restarted.
    NodeRestarted(NodeId),
    /// A partition was imposed isolating these nodes.
    PartitionImposed(&'a [NodeId]),
    /// All partitions healed.
    PartitionHealed,
    /// A link's state changed.
    LinkChanged(NodeId, NodeId),
    /// A node's partition group changed.
    GroupChanged(NodeId),
    /// A scheduled task ran.
    TaskRan {
        /// The task's label.
        label: &'a str,
    },
}

/// FNV-1a (64-bit) of `bytes`: hashed `$DST_SEED`s and, through
/// [`hash_debug`], recorded payloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::<FNV1A_PRIME>::new();
    h.fold(bytes);
    h.0
}

/// [`fnv1a`] of a value's `Debug` rendering, streamed: the rendering
/// never exists as a `String`. Stable across backends because message
/// `Debug` output depends only on message content (node ids match when
/// nodes are created in the same order).
pub fn hash_debug<T: fmt::Debug>(v: &T) -> u64 {
    let mut h = Fnv::<FNV1A_PRIME>::new();
    let _ = write!(h, "{v:?}");
    h.0
}

/// The 64-bit FNV prime, 2^40 + 0x1b3.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The prime [`Trace::hash`] was first defined with, 2^44 + 0x1b3 — not
/// FNV's, but checked-in repro artifacts and the pinned corpus constants
/// hold values of it, so the trace digest keeps it.
const TRACE_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a-style state over `PRIME` that takes its bytes as they are
/// produced: it is a [`fmt::Write`], so a `Debug` rendering is folded
/// piece by piece and never exists as a `String`.
struct Fnv<const PRIME: u64>(u64);

impl<const PRIME: u64> Fnv<PRIME> {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds the decimal digits of `v`, as `Display` would print them.
    fn fold_decimal(&mut self, v: u32) {
        self.fold(decimal_digits(u64::from(v), &mut [0; 20]));
    }
}

impl<const PRIME: u64> fmt::Write for Fnv<PRIME> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.fold(s.as_bytes());
        Ok(())
    }
}

impl TraceEvent<'_> {
    /// Folds exactly the bytes of `format!("{self:?}")` into `h`.
    ///
    /// The four `{ from, to }` variants are most of every trace (one
    /// send, one handled, one ok per rpc), so their text is written out
    /// by hand instead of through the `Debug` machinery; a unit test
    /// holds both routes to `format!`'s bytes.
    fn fold_debug(&self, h: &mut Fnv<TRACE_PRIME>) {
        let (name, from, to) = match self {
            TraceEvent::RpcSend { from, to } => ("RpcSend", from, to),
            TraceEvent::RpcHandled { from, to } => ("RpcHandled", from, to),
            TraceEvent::RpcOk { from, to } => ("RpcOk", from, to),
            TraceEvent::MessageLost { from, to } => ("MessageLost", from, to),
            other => {
                write!(h, "{other:?}").expect("folding into a hash cannot fail");
                return;
            }
        };
        h.fold(name.as_bytes());
        h.fold(b" { from: n");
        h.fold_decimal(from.0);
        h.fold(b", to: n");
        h.fold_decimal(to.0);
        h.fold(b" }");
    }
}

/// A run's determinism fingerprint: a 64-bit FNV-1a-style digest of
/// every event's time and `Debug` text, folded as the event happens.
///
/// Two runs have equal digests exactly when they recorded the same
/// events in the same order at the same simulated times. This is the
/// fingerprint `weakset-dst` compares across replays: any stray system
/// entropy or iteration-order dependence in the simulator shows up as a
/// digest mismatch for a fixed seed.
///
/// The digest is *defined* over `format!("{ev:?}")` — checked-in repro
/// artifacts and the pinned corpus constants in `weakset-dst` hold
/// values of it — but computed without building that string: the
/// rendering is streamed into the hash.
pub(crate) struct Trace(Fnv<TRACE_PRIME>);

impl Trace {
    /// The digest of a run in which nothing has happened yet.
    pub(crate) fn new() -> Self {
        Trace(Fnv::new())
    }

    /// Folds one event, at simulated time `at`, into the digest.
    pub(crate) fn record(&mut self, at: SimTime, event: TraceEvent<'_>) {
        self.0.fold(&at.as_micros().to_le_bytes());
        event.fold_debug(&mut self.0);
    }

    /// The digest of everything recorded so far.
    pub(crate) fn hash(&self) -> u64 {
        self.0 .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest as it was first defined: one `String` per event.
    fn hash_by_definition(events: &[(SimTime, TraceEvent<'_>)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (at, ev) in events {
            fold(&at.as_micros().to_le_bytes());
            fold(format!("{ev:?}").as_bytes());
        }
        h
    }

    #[test]
    fn streamed_hash_is_the_defined_hash_for_every_variant() {
        let ids = [0, 7, 10, 4_096, 999_999, u32::MAX].map(NodeId);
        let mut every = Vec::new();
        for &from in &ids {
            for &to in &ids {
                every.extend([
                    TraceEvent::RpcSend { from, to },
                    TraceEvent::RpcHandled { from, to },
                    TraceEvent::RpcOk { from, to },
                    TraceEvent::MessageLost { from, to },
                    TraceEvent::LinkChanged(from, to),
                ]);
                for error in [
                    NetError::Timeout,
                    NetError::NodeDown(to),
                    NetError::Unreachable { from, to },
                ] {
                    every.push(TraceEvent::RpcFailed { from, to, error });
                }
            }
            every.extend([
                TraceEvent::NodeCrashed(from),
                TraceEvent::NodeRestarted(from),
                TraceEvent::GroupChanged(from),
            ]);
        }
        every.extend([
            TraceEvent::PartitionImposed(&[]),
            TraceEvent::PartitionImposed(&ids),
            TraceEvent::PartitionHealed,
        ]);
        for label in [
            "",
            "gossip.round",
            "say \"hi\"",
            "back\\slash\n\ttab",
            "naïve – 集合 \u{7f}",
        ] {
            every.push(TraceEvent::TaskRan { label });
        }

        for (i, &ev) in every.iter().enumerate() {
            // One event at a time, so a wrong byte names its variant.
            let at = SimTime::from_micros(i as u64);
            let mut one = Trace::new();
            one.record(at, ev);
            assert_eq!(one.hash(), hash_by_definition(&[(at, ev)]), "{ev:?}");
        }
        let run: Vec<_> = (0..)
            .zip(&every)
            .map(|(i, &ev)| (SimTime::from_micros(i * 1_000_003), ev))
            .collect();
        let mut t = Trace::new();
        for &(at, ev) in &run {
            t.record(at, ev);
        }
        assert_eq!(t.hash(), hash_by_definition(&run));
        assert_eq!(
            Trace::new().hash(),
            hash_by_definition(&[]),
            "nothing recorded, nothing folded"
        );
    }

    #[test]
    fn fnv1a_is_the_published_hash() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(hash_debug(&"a"), fnv1a(b"\"a\""));
    }

    #[test]
    fn debug_text_names_the_event_variant() {
        let failed = TraceEvent::RpcFailed {
            from: NodeId(0),
            to: NodeId(1),
            error: NetError::Timeout,
        };
        assert!(format!("{failed:?}").contains("RpcFailed"));
    }
}
