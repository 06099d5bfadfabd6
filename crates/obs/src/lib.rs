//! # weakset-obs
//!
//! The workspace-wide observability layer for the weak-sets
//! reproduction: a zero-dependency metrics registry, a structured event
//! sink keyed by simulated time, and machine-readable benchmark
//! snapshots.
//!
//! The paper's iterator semantics are defined by *observable* run
//! behaviour — which elements are yielded, when an invocation returns,
//! suspends, or fails, and what was reachable at each step. This crate
//! makes that behaviour (and the cost of producing it) first-class
//! data instead of ad-hoc prints:
//!
//! * [`MetricsRegistry`] — named counters, high-water gauges, and
//!   latency recorders. Every layer of the stack (simulator, store,
//!   gossip, iterators, DST) records here; the simulator's `World`
//!   carries one per run.
//! * [`EventSink`] — structured events and spans keyed by simulated
//!   microseconds, disabled by default so quiescent runs pay nothing.
//! * [`ObsSnapshot`] — a frozen, serializable view of a registry plus
//!   named perf *objectives* (each tagged lower- or higher-is-better),
//!   written to `BENCH_<id>.json` by `experiments snapshot`; the
//!   checked-in baselines must regenerate byte-identically.
//!
//! Everything here is deterministic given deterministic inputs: maps
//! are ordered, serialization is canonical, and no wall-clock time is
//! ever recorded — two runs with the same seed produce byte-identical
//! snapshots. That holds by construction: the crate reads no clock,
//! opens no socket and spawns no thread. A wall-clock backend stamps
//! times itself and hands them in; a fleet-wide reading is its views'
//! registries folded with [`MetricsRegistry::merge`].
//!
//! ## Example
//!
//! ```
//! use weakset_obs::{Direction, MetricsRegistry};
//!
//! let mut m = MetricsRegistry::new();
//! m.incr("rpc.sent");
//! m.observe("rpc.latency", 1_500);
//! m.gauge_max("queue.depth", 7);
//!
//! let snap = m
//!     .snapshot("demo", 42)
//!     .with_objective("p50_rpc_us", 1_500.0, Direction::LowerIsBetter);
//! let json = snap.to_json();
//! assert_eq!(weakset_obs::Json::parse(&json).unwrap().to_pretty(), json);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod causal;
pub mod export;
pub mod gossip;
pub mod json;
pub mod latency;
pub mod registry;
pub mod replay;
pub mod ron;
pub mod session;
pub mod sink;
pub mod snapshot;
pub mod store_health;

pub use causal::{
    critical_path, critical_path_of, CausalDag, CriticalPath, PathCategory, SpanNode, TraceContext,
    TraceId,
};
pub use export::chrome_trace;
pub use json::Json;
pub use latency::{LatencyRecorder, LatencySummary};
pub use registry::MetricsRegistry;
pub use sink::{EventSink, Label, ObsEvent, ObsKind, SpanId};
pub use snapshot::{Direction, Objective, ObsSnapshot};

/// One-stop imports for observability users.
pub mod prelude {
    pub use crate::causal::{
        critical_path, critical_path_of, CausalDag, CriticalPath, PathCategory, SpanNode,
        TraceContext, TraceId,
    };
    pub use crate::export::chrome_trace;
    pub use crate::json::Json;
    pub use crate::latency::{LatencyRecorder, LatencySummary};
    pub use crate::registry::MetricsRegistry;
    pub use crate::sink::{EventSink, Label, ObsEvent, ObsKind, SpanId};
    pub use crate::snapshot::{Direction, Objective, ObsSnapshot};
}
