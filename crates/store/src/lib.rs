//! # weakset-store
//!
//! A distributed object repository over [`weakset_sim`]: the "wide-area
//! information system" substrate that weak sets iterate over.
//!
//! The model matches the paper's Figure 2 and Section 3: a *collection*
//! object is logically one object whose membership list lives on a home
//! node (optionally with secondary replicas that can go stale), while the
//! member *objects* are scattered across other nodes. An element can
//! therefore exist (be listed) yet be inaccessible (its home node
//! partitioned away) — exactly the existence/accessibility split the
//! paper's `reachable` construct captures.
//!
//! * [`object`] — object/collection identities and records.
//! * [`server`] — the per-node store service (objects, collection
//!   replicas, read locks).
//! * [`client`] — typed client operations: primary-serialized mutations
//!   with best-effort replica sync, and [`client::ReadPolicy`] for
//!   primary/any/quorum membership reads.
//! * [`collection`] — versioned membership state with a full mutation log
//!   (the omniscient history that conformance checking replays), and
//!   [`collection::Membership`], the copy-on-write sorted array every
//!   version is held and shipped as.
//! * [`dotted`] — dots, version vectors, and membership deltas: the wire
//!   data for the `weakset-gossip` anti-entropy protocol.
//! * [`query`] — predicate queries ("all Chinese restaurant menus").
//! * [`cache`] — client-side TTL object cache.
//! * [`wire`] — compact encodings (varint + dot-list dedup) and the
//!   Merkle-range reconciliation message payloads.
//!
//! ## Example
//!
//! ```
//! use weakset_sim::prelude::*;
//! use weakset_store::prelude::*;
//!
//! let mut topo = Topology::new();
//! let me = topo.add_node("client", 0);
//! let srv = topo.add_node("server", 1);
//! let mut world = StoreWorld::new(1, topo, LatencyModel::default());
//! world.install_service(srv, Box::new(StoreServer::new()));
//!
//! let client = StoreClient::new(me, SimDuration::from_millis(100));
//! let cref = CollectionRef::unreplicated(CollectionId(1), srv);
//! client.create_collection(&mut world, &cref)?;
//! client.put_object(&mut world, srv, ObjectRecord::new(ObjectId(1), "menu", &b"dim sum"[..]))?;
//! client.add_member(&mut world, &cref, MemberEntry { elem: ObjectId(1), home: srv })?;
//! let read = client.read_members(&mut world, &cref, ReadPolicy::Primary)?;
//! assert_eq!(read.entries.len(), 1);
//! # Ok::<(), weakset_store::client::StoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod collection;
pub mod dotted;
pub mod msg;
pub mod object;
pub mod query;
pub mod server;
pub mod session;
pub mod wire;

/// One-stop imports for store users.
pub mod prelude {
    pub use crate::cache::ObjectCache;
    pub use crate::client::{
        CollectionRef, MembershipRead, ReadPolicy, StoreClient, StoreError, StoreRt, StoreWorld,
    };
    pub use crate::collection::{
        Change, CollectionState, MemberEntry, Membership, MembershipVersion, Rewrite, SyncStep,
    };
    pub use crate::dotted::{Dot, DottedEntry, MembershipDelta, VersionVector};
    pub use crate::msg::StoreMsg;
    pub use crate::object::{CollectionId, ObjectId, ObjectRecord};
    pub use crate::query::Query;
    pub use crate::server::StoreServer;
    pub use crate::session::SessionToken;
    pub use crate::wire::{DeltaBatch, RangeKey, RangeReply, RangeSummary};
}
