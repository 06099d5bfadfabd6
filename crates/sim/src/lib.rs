//! # weakset-sim
//!
//! A deterministic discrete-event simulator for wide-area distributed
//! systems, built as the substrate for the *weak sets* reproduction
//! (Wing & Steere, *Specifying Weak Sets*, ICDCS 1995).
//!
//! The paper's model of computation assumes a set of connected nodes where
//! "nodes may crash and communication links may fail", failures are
//! detectable, and clients talk to servers via RPC. This crate provides
//! exactly that world, deterministically:
//!
//! * [`topology::Topology`] — nodes, links, partitions, and the transitive
//!   reachability relation that grounds the paper's `reachable` construct.
//! * [`world::World`] — the event loop: a client's wait for its replies
//!   pumps scheduled background work (mutators, fault actions) in
//!   timestamp order.
//! * [`traits`] — the runtime boundary ([`traits::Runtime`] and its
//!   parts) that the store client, iterators and gossip run against.
//!   `World` implements it; so does `weakset-runtime`'s threaded backend,
//!   which re-exports it.
//! * [`requests::Requests`] — a request's life cycle (token, account,
//!   reply, the task waiting on it), kept once for every backend.
//! * [`fault::FaultPlan`] — scripted crashes, outages, partitions, heals,
//!   and flapping links.
//! * [`latency::LatencyModel`] — constant/uniform/exponential/site-distance
//!   latency, the last enabling "fetch closer files first".
//! * [`idmap::IdMap`] — the hash map every id-keyed table on the message
//!   path uses: one keyed multiply per id instead of SipHash.
//! * [`rng::SimRng`] — labelled deterministic random streams; a run is a
//!   pure function of `(seed, workload, fault plan)`.
//!
//! ## Example
//!
//! ```
//! use weakset_sim::prelude::*;
//!
//! // A message crosses the boundary when it can travel in a batch.
//! #[derive(Clone, Debug, PartialEq)]
//! enum Msg {
//!     Hi(String),
//!     Batch(Vec<Msg>),
//! }
//! impl BatchEnvelope for Msg {
//!     fn wrap_batch(parts: Vec<Self>) -> Self {
//!         Msg::Batch(parts)
//!     }
//!     fn unwrap_batch(self) -> Result<Vec<Self>, Self> {
//!         match self {
//!             Msg::Batch(parts) => Ok(parts),
//!             other => Err(other),
//!         }
//!     }
//! }
//!
//! struct Echo;
//! impl Service<Msg> for Echo {
//!     fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: Msg) -> Msg {
//!         msg
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let client = topo.add_node("client", 0);
//! let server = topo.add_node("server", 1);
//! let mut world = World::new(7, topo, LatencyModel::default());
//! world.install_service(server, Box::new(Echo));
//! let hi = Msg::Hi("hi".to_string());
//! let reply = world.rpc(client, server, hi.clone(), SimDuration::from_millis(100))?;
//! assert_eq!(reply, hi);
//! # Ok::<(), weakset_sim::net::NetError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod fault;
pub mod idmap;
pub mod latency;
pub mod link;
pub mod metrics;
pub mod net;
pub mod node;
pub mod requests;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;
pub mod traits;
pub mod world;

/// One-stop imports for simulator users.
pub mod prelude {
    pub use crate::fault::{FaultAction, FaultPlan};
    pub use crate::latency::LatencyModel;
    pub use crate::link::LinkState;
    pub use crate::metrics::{EventSink, LatencyRecorder, LatencySummary, Metrics, ObsSnapshot};
    pub use crate::net::{BatchBuffer, BatchEnvelope, NetError};
    pub use crate::node::{Node, NodeId, NodeStatus};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{PartitionGroup, Topology};
    pub use crate::traits::{
        Clock, Observe, RtMessage, RtTask, Runtime, RuntimeExt, ServiceHost, Spawner, TaskFn,
        Transport, Wake,
    };
    pub use crate::world::{ReplyToken, Service, ServiceCtx, World};
}
