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
//! * [`world::World`] — the event loop: synchronous client RPC that pumps
//!   scheduled background work (mutators, fault actions) in timestamp order.
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
//! struct Echo;
//! impl Service<String> for Echo {
//!     fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: String) -> String {
//!         msg
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let client = topo.add_node("client", 0);
//! let server = topo.add_node("server", 1);
//! let mut world = World::new(7, topo, LatencyModel::default());
//! world.install_service(server, Box::new(Echo));
//! let reply = world.rpc(client, server, "hi".to_string(), SimDuration::from_millis(100))?;
//! assert_eq!(reply, "hi");
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
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;
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
    pub use crate::world::{ReplyToken, Service, ServiceCtx, Task, World};
}
