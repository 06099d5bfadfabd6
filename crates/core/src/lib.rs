//! # weakset
//!
//! Weak sets and dynamic sets — a full implementation of the design space
//! in Wing & Steere, *Specifying Weak Sets* (ICDCS 1995), over a simulated
//! wide-area object repository.
//!
//! A *weak set* is a set abstraction for wide-area systems (the Web, a
//! distributed file system) where strong consistency is neither expected
//! nor affordable: membership is determined *during* the query, order does
//! not matter, elements may appear or vanish concurrently, and some
//! members may be unreachable because of node or network failures.
//!
//! ## The design space
//!
//! The paper specifies four semantics for the `elements` iterator; this
//! crate implements all of them plus the strongly-consistent baseline the
//! paper argues against. One engine, [`iter::Elements`], runs every row;
//! a [`semantics::Semantics`] variant selects the row:
//!
//! | [`Semantics`](semantics::Semantics) | Figure | Membership consulted | Held while running | Nothing reachable |
//! |---|---|---|---|---|
//! | `Locked` | 3 (+§3.1 lock discussion) | the first invocation's | read lock | fail |
//! | `Snapshot` | 1/3/4 | the first invocation's | nothing | fail |
//! | `GrowOnly` | 5 | current, every invocation | §3.3 grow guard, if [`iter::IterConfig::guard_growth`] | fail fast |
//! | `Optimistic` | 6 | current, every invocation | nothing | block & retry |
//!
//! Every iterator can carry a [`conformance::RunObserver`] that records
//! the run as a `weakset-spec` computation, machine-checked against the
//! corresponding figure.
//!
//! The paper's target system, dynamic sets — parallel prefetching,
//! closest-first fetching, partial results under failures — is the same
//! engine: [`iter::IterConfig::window`] keeps fetches in flight in
//! [`iter::IterConfig::fetch_order`], and [`iter::Elements::pinned`]
//! lists a membership read at open as a Figure 4 run, which an observer
//! records and the checker judges like any other.
//!
//! ## Quickstart
//!
//! ```
//! use weakset_sim::prelude::*;
//! use weakset_store::prelude::*;
//! use weakset::prelude::*;
//!
//! // A 3-node world: one client, two servers.
//! let mut topo = Topology::new();
//! let me = topo.add_node("laptop", 0);
//! let s1 = topo.add_node("server-1", 1);
//! let s2 = topo.add_node("server-2", 2);
//! let mut world = StoreWorld::new(42, topo, LatencyModel::default());
//! world.install_service(s1, Box::new(StoreServer::new()));
//! world.install_service(s2, Box::new(StoreServer::new()));
//!
//! // A weak set whose membership list lives on s1.
//! let client = StoreClient::new(me, SimDuration::from_millis(100));
//! let cref = CollectionRef::unreplicated(CollectionId(1), s1);
//! client.create_collection(&mut world, &cref)?;
//! let set = WeakSet::new(client, cref);
//! set.add(&mut world, ObjectRecord::new(ObjectId(1), "menu-1", &b"dim sum"[..]), s1)?;
//! set.add(&mut world, ObjectRecord::new(ObjectId(2), "menu-2", &b"noodles"[..]), s2)?;
//!
//! // Iterate optimistically (Figure 6).
//! let mut it = set.elements(Semantics::Optimistic);
//! let mut names = Vec::new();
//! loop {
//!     match it.next(&mut world) {
//!         IterStep::Yielded(rec) => names.push(rec.name),
//!         IterStep::Done => break,
//!         other => panic!("unexpected: {other:?}"),
//!     }
//! }
//! names.sort();
//! assert_eq!(names, ["menu-1", "menu-2"]);
//! # Ok::<(), weakset::error::Failure>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;
pub mod error;
pub mod handle;
pub mod iter;
pub mod semantics;
pub mod shard;

/// One-stop imports for weak-set users.
pub mod prelude {
    pub use crate::conformance::{HistorySource, RunObserver, StepEvidence};
    pub use crate::error::{Failure, IterStep};
    pub use crate::handle::WeakSet;
    pub use crate::iter::{Elements, FetchOrder, IterConfig};
    pub use crate::semantics::Semantics;
    pub use crate::shard::{ShardGroup, ShardRouter, ShardedWeakSet};
}
