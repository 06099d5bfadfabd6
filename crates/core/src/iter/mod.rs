//! The `elements` iterator: one engine, one plan per design point.
//!
//! Every semantics shares one skeleton: read the membership list (when
//! its plan says to), pick an unyielded member, fetch its object from its
//! home node, and yield it. The design points differ exactly where the
//! paper's figures differ, and each difference is a column of the plan
//! table (`Semantics::plan` in `elements.rs`), not a copy of the loop:
//!
//! | [`Semantics`](crate::semantics::Semantics) | figure | membership consulted | held while running | nothing reachable |
//! |---|---|---|---|---|
//! | `Locked` | 3 (+§3.1) | the first invocation's | read lock | `fails` |
//! | `Snapshot` | 1/3/4 | the first invocation's | nothing | `fails` |
//! | `GrowOnly` | 5 | the current one | §3.3 grow guard, if [`IterConfig::guard_growth`] | `fails` |
//! | `Optimistic` | 6 | the current one | nothing | block and retry |
//!
//! This module holds what every plan shares: the tunables
//! ([`IterConfig`]), candidate ordering, and the cache-aware fetch
//! through a `Window` of fetches in flight, one at a time at window 1.

mod elements;
mod window;

pub use elements::Elements;
pub(crate) use elements::COLLECT_MAX_BLOCKS;
pub(crate) use window::Window;

use crate::error::IterStep;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_spec::prelude::Outcome;
use weakset_spec::value::ElemId;
use weakset_store::collection::MemberEntry;
use weakset_store::prelude::{ReadPolicy, StoreRt};

/// The order in which unyielded members are attempted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FetchOrder {
    /// Lowest estimated latency first ("fetching closer files first").
    #[default]
    ClosestFirst,
    /// Ascending element id (deterministic, locality-blind baseline).
    IdOrder,
}

/// Tunables shared by every iterator.
#[derive(Clone, Debug, PartialEq)]
pub struct IterConfig {
    /// How membership reads pick replicas.
    pub read_policy: ReadPolicy,
    /// Candidate ordering for fetches.
    pub fetch_order: FetchOrder,
    /// Optimistic semantics: membership-read/fetch rounds attempted before
    /// reporting [`IterStep::Blocked`].
    pub block_attempts: usize,
    /// Optimistic semantics: simulated pause between those rounds.
    pub retry_interval: SimDuration,
    /// Grow-only semantics: hold a §3.3 grow guard for the duration of
    /// the run, so concurrent removals are deferred ("ghosts") and the
    /// grow-only constraint holds even against churning writers.
    pub guard_growth: bool,
    /// Client-side object cache TTL. `Some(ttl)` lets iterators serve
    /// member objects from copies fetched earlier (the paper's "cached
    /// version ... is a way to implement a history object"): reruns get
    /// cheaper and a locally-held copy counts as accessible. `None`
    /// disables caching.
    pub cache_ttl: Option<SimDuration>,
    /// Fetches an invocation keeps in flight ("fetching files in
    /// parallel", §1.1), each bounded by the client's timeout; at 1 it
    /// fetches one member at a time.
    pub window: usize,
}

impl Default for IterConfig {
    fn default() -> Self {
        IterConfig {
            read_policy: ReadPolicy::Primary,
            fetch_order: FetchOrder::ClosestFirst,
            block_attempts: 3,
            retry_interval: SimDuration::from_millis(20),
            guard_growth: false,
            cache_ttl: None,
            window: 1,
        }
    }
}

impl IterConfig {
    /// Defaults with [`ReadPolicy::Leaderless`] membership reads: the
    /// iterator progresses from any reachable replica — intended for
    /// deployments whose replicas converge by `weakset-gossip`
    /// anti-entropy, where the union of reachable replicas is itself a
    /// valid weak-set observation.
    pub fn leaderless() -> Self {
        IterConfig {
            read_policy: ReadPolicy::Leaderless,
            ..IterConfig::default()
        }
    }
}

/// Orders fetch candidates per the configured [`FetchOrder`].
pub(crate) fn order_candidates(
    world: &StoreRt,
    client_node: NodeId,
    candidates: &mut [MemberEntry],
    order: FetchOrder,
) {
    match order {
        FetchOrder::IdOrder => candidates.sort_by_key(|m| m.elem),
        FetchOrder::ClosestFirst => {
            candidates.sort_by_key(|m| (world.estimate_latency(client_node, m.home), m.elem));
        }
    }
}

/// Converts an [`IterStep`] into the spec-level [`Outcome`].
pub(crate) fn outcome_of(step: &IterStep) -> Outcome {
    match step {
        IterStep::Yielded(rec) => Outcome::Yielded(ElemId(rec.id.0)),
        IterStep::Done => Outcome::Returned,
        IterStep::Failed(_) => Outcome::Failed,
        IterStep::Blocked => Outcome::Blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::topology::Topology;
    use weakset_store::object::ObjectId;
    use weakset_store::prelude::StoreWorld;

    #[test]
    fn closest_first_orders_by_estimated_latency() {
        let mut t = Topology::new();
        let client = t.add_node("c", 0);
        let near = t.add_node("near", 1);
        let far = t.add_node("far", 9);
        let w = StoreWorld::new(
            0,
            t,
            LatencyModel::SiteDistance {
                base: SimDuration::from_millis(1),
                per_hop: SimDuration::from_millis(5),
            },
        );
        let mut cands = vec![
            MemberEntry {
                elem: ObjectId(1),
                home: far,
            },
            MemberEntry {
                elem: ObjectId(2),
                home: near,
            },
        ];
        order_candidates(&w, client, &mut cands, FetchOrder::ClosestFirst);
        assert_eq!(cands[0].home, near);
        order_candidates(&w, client, &mut cands, FetchOrder::IdOrder);
        assert_eq!(cands[0].elem, ObjectId(1));
    }

    #[test]
    fn default_config_is_sensible() {
        let c = IterConfig::default();
        assert_eq!(c.read_policy, ReadPolicy::Primary);
        assert_eq!(c.fetch_order, FetchOrder::ClosestFirst);
        assert!(c.block_attempts >= 1);
    }

    #[test]
    fn outcome_mapping() {
        assert_eq!(outcome_of(&IterStep::Done), Outcome::Returned);
        assert_eq!(outcome_of(&IterStep::Blocked), Outcome::Blocked);
        assert_eq!(
            outcome_of(&IterStep::Failed(
                crate::error::Failure::MembersUnreachable { remaining: 1 }
            )),
            Outcome::Failed
        );
    }
}
