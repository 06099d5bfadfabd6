//! # weakset-gossip
//!
//! Anti-entropy gossip replication for weak-set membership: collection
//! membership becomes a *delta-state CRDT* and replicas converge by
//! periodic pairwise exchanges instead of primary-serialized sync.
//!
//! "Specifying Weak Sets" specifies collection membership twice: Figure 5
//! gives a grow-only weak set (`s_i ⊆ s_j` for successive observations)
//! and Figure 6 a grow-and-shrink one (every yielded element was a member
//! at some point of the run). Both `ensures` clauses are *join-friendly*:
//! they constrain each observation against the history, not against a
//! single authoritative replica. This crate exploits that latitude:
//!
//! * [`crdt::MembershipCrdt`] — one dotted set for both figures, built
//!   with the [`crdt::GossipSemantics`] it enforces. Grow-only: the join
//!   is union, so Figure 5's monotonicity survives any exchange order.
//!   Grow-and-shrink: observed-remove with per-replica dotted version
//!   vectors; every element a replica ever reports was added at some
//!   point, which is Figure 6's guarantee.
//! * [`replica::GossipNode`] — a drop-in store service wrapping
//!   [`weakset_store::server::StoreServer`]: object traffic delegates,
//!   membership mutations mirror into the CRDT, membership reads answer
//!   from it, and the anti-entropy messages
//!   ([`weakset_store::msg::StoreMsg::GossipDeltaReq`] and friends) are
//!   served.
//! * [`engine`] — periodic anti-entropy rounds, woken by their own
//!   replies on either runtime: configurable fan-out and interval, and
//!   push-pull exchanges that ship only the missing dots.
//! * [`reconcile`] — Merkle-range reconciliation over the live-dot
//!   space, selected by [`engine::DigestMode::MerkleRange`]: replicas
//!   locate their symmetric difference by descending mismatched hash
//!   ranges and exchange bytes proportional to the *difference*, which
//!   is what keeps anti-entropy affordable at 10^6 elements.
//!
//! Combined with [`weakset_store::client::ReadPolicy::Leaderless`], a
//! weak-set iterator can make progress from *any reachable converged
//! replica* while the primary is partitioned away — the leaderless
//! availability mode the paper's weak consistency permits.
//!
//! ## Example
//!
//! ```
//! use weakset_gossip::prelude::*;
//! use weakset_sim::prelude::*;
//! use weakset_store::prelude::*;
//!
//! let mut topo = Topology::new();
//! let client = topo.add_node("client", 0);
//! let a = topo.add_node("a", 1);
//! let b = topo.add_node("b", 2);
//! let mut world = StoreWorld::new(7, topo, LatencyModel::default());
//! world.install_service(a, Box::new(GossipNode::new(a)));
//! world.install_service(b, Box::new(GossipNode::new(b)));
//!
//! let cl = StoreClient::new(client, SimDuration::from_millis(100));
//! let cref = CollectionRef { id: CollectionId(1), home: a, replicas: vec![b] };
//! cl.create_collection(&mut world, &cref)?;
//! cl.add_member(&mut world, &cref, MemberEntry { elem: ObjectId(1), home: a })?;
//!
//! // Anti-entropy rounds every 10 ms until stopped.
//! let gossip = engine::install(&mut world, cref.id, cref.all_nodes(), GossipConfig {
//!     interval: SimDuration::from_millis(10),
//!     ..GossipConfig::default()
//! });
//! world.run_until(SimTime::from_millis(50));
//! assert!(engine::converged(&world, cref.id, &cref.all_nodes()));
//! gossip.stop();
//! # Ok::<(), weakset_store::client::StoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crdt;
pub mod engine;
pub mod reconcile;
pub mod replica;

/// One-stop imports for gossip deployments.
pub mod prelude {
    pub use crate::crdt::{GossipSemantics, MembershipCrdt};
    pub use crate::engine::{self, DigestMode, GossipConfig, GossipHandle};
    pub use crate::reconcile::RangeTree;
    pub use crate::replica::GossipNode;
}
