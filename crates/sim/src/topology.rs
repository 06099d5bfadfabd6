//! The network graph: nodes, links, partitions, and reachability.
//!
//! The paper's `reachable` construct bottoms out here: an object is
//! accessible exactly when the node holding it is reachable from the client's
//! node *in the current state*. Reachability accounts for crashed nodes,
//! administratively-down links, and network partitions, and is transitive
//! (messages route through intermediate up nodes).
//!
//! The question is asked three times per simulated message and the graph
//! changes only when a fault fires, so the answer is kept, not searched
//! for: every mutator leaves a connected-component label per node behind
//! and `reachable` compares two labels.

use crate::idmap::IdMap;
use crate::link::LinkState;
use crate::net::NetError;
use crate::node::{Node, NodeId, NodeStatus};

/// A partition group id. Nodes in different groups cannot exchange messages
/// while the partition is in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionGroup(pub u32);

/// The simulated network graph.
///
/// By default the graph is a fully-connected clique of healthy links; tests
/// and fault plans then crash nodes, take links down, or impose partitions.
///
/// Invariant: for up nodes `a` and `b`, `comp[a] == comp[b]` exactly when
/// a path of [open edges](Topology::edge_open) joins them. The seven
/// mutators keep it: [`add_node`](Topology::add_node) merges the
/// newcomer's neighbours in O(n); [`crash`](Topology::crash),
/// [`restart`](Topology::restart), [`set_link`](Topology::set_link),
/// [`set_group`](Topology::set_group), [`partition`](Topology::partition)
/// and [`heal_partition`](Topology::heal_partition) relabel the graph
/// (O(n²), once per fault). [`reachable`](Topology::reachable) and
/// [`reachable_set`](Topology::reachable_set) only read labels: no
/// search, no allocation, no hashing per query.
///
/// ```
/// use weakset_sim::prelude::*;
/// let mut topo = Topology::new();
/// let a = topo.add_node("a", 0);
/// let b = topo.add_node("b", 1);
/// let c = topo.add_node("c", 2);
/// assert!(topo.reachable(a, c));
/// topo.partition(&[c]);
/// assert!(!topo.reachable(a, c));
/// assert_eq!(topo.reachable_set(a), vec![a, b]);
/// topo.heal_partition();
/// assert!(topo.reachable(a, c));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    /// Sparse overrides; absent pairs are healthy links.
    links: IdMap<(NodeId, NodeId), LinkState>,
    /// Partition group per node; `None` means the default (connected) group.
    groups: Vec<Option<PartitionGroup>>,
    /// Connected-component label per node: the lowest index among the up
    /// nodes it can exchange messages with. A crashed node is alone under
    /// its own index.
    comp: Vec<u32>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at the given site, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>, site: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, name, site));
        self.groups.push(None);
        self.comp.push(id.0);
        // The newcomer joins every component it has an open edge into,
        // which fuses them under the lowest label (all are below `id`).
        let mut joined = vec![false; self.nodes.len()];
        let mut label = id.0;
        for other in self.node_ids() {
            if self.edge_open(id, other) {
                let c = self.comp[other.index()];
                joined[c as usize] = true;
                label = label.min(c);
            }
        }
        joined[id.index()] = true;
        for c in &mut self.comp {
            if joined[*c as usize] {
                *c = label;
            }
        }
        id
    }

    /// Adds `n` nodes named `prefix-i`, all at distinct sites `0..n`.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}-{i}"), i as u32))
            .collect()
    }

    /// One site past the highest site currently in use (0 when empty).
    pub fn next_site(&self) -> u32 {
        self.nodes
            .iter()
            .map(|n| n.site().saturating_add(1))
            .max()
            .unwrap_or(0)
    }

    /// Adds `n` server nodes named `prefix{i}`, each at the next unused
    /// site, returning their ids. This is THE way to stand up a server
    /// fleet after the client node: ids and sites both come from the
    /// topology's own counters, so no caller hand-assigns either (the
    /// old `i as u32 + 1` convention collided once deployments grew
    /// several node sets).
    pub fn add_servers(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        let base = self.next_site();
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}"), base + i as u32))
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this topology.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Crashes a node: it stops sending, receiving, and serving.
    pub fn crash(&mut self, id: NodeId) {
        self.nodes[id.index()].set_status(NodeStatus::Crashed);
        self.relabel();
    }

    /// Restarts a crashed node.
    pub fn restart(&mut self, id: NodeId) {
        self.nodes[id.index()].set_status(NodeStatus::Up);
        self.relabel();
    }

    /// True when the node is up; false for an id this topology never
    /// issued.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(Node::is_up)
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Current state of the link between `a` and `b` (healthy by default).
    pub fn link(&self, a: NodeId, b: NodeId) -> LinkState {
        if self.links.is_empty() {
            return LinkState::default();
        }
        self.links
            .get(&Self::key(a, b))
            .copied()
            .unwrap_or_default()
    }

    /// Overrides the link between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, state: LinkState) {
        self.links.insert(Self::key(a, b), state);
        self.relabel();
    }

    /// Places a node into a partition group. Nodes in different groups are
    /// mutually unreachable; nodes in the same group (or both ungrouped)
    /// communicate normally.
    pub fn set_group(&mut self, id: NodeId, group: Option<PartitionGroup>) {
        self.groups[id.index()] = group;
        self.relabel();
    }

    /// Imposes a two-sided partition: every node in `side` goes to group 1,
    /// everyone else to group 0.
    pub fn partition(&mut self, side: &[NodeId]) {
        self.groups.fill(Some(PartitionGroup(0)));
        for id in side {
            if let Some(g) = self.groups.get_mut(id.index()) {
                *g = Some(PartitionGroup(1));
            }
        }
        self.relabel();
    }

    /// Removes all partition groups, reconnecting the network (links and
    /// node statuses are unaffected).
    pub fn heal_partition(&mut self) {
        self.groups.fill(None);
        self.relabel();
    }

    /// The partition group of a node, if any.
    pub fn group(&self, id: NodeId) -> Option<PartitionGroup> {
        self.groups[id.index()]
    }

    fn same_group(&self, a: NodeId, b: NodeId) -> bool {
        self.groups[a.index()] == self.groups[b.index()]
    }

    /// True when a *single hop* from `a` to `b` is currently possible:
    /// both nodes up, link up, same partition group.
    pub fn edge_open(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.is_up(a) && self.is_up(b) && self.link(a, b).up && self.same_group(a, b)
    }

    /// Recomputes every component label from the current statuses, links
    /// and groups: a flood from each still-unlabelled up node, in index
    /// order, so a component is named after its lowest member.
    fn relabel(&mut self) {
        let n = self.nodes.len() as u32;
        self.comp.clear();
        self.comp.extend(0..n);
        let mut frontier = Vec::new();
        for root in 0..n {
            // Labelled by an earlier flood, or crashed (stays alone).
            if self.comp[root as usize] != root || !self.is_up(NodeId(root)) {
                continue;
            }
            frontier.push(root);
            while let Some(cur) = frontier.pop() {
                // Everything below `root` is already labelled; above it,
                // a node still under its own index has not been reached.
                for next in root + 1..n {
                    if self.comp[next as usize] == next && self.edge_open(NodeId(cur), NodeId(next))
                    {
                        self.comp[next as usize] = root;
                        frontier.push(next);
                    }
                }
            }
        }
    }

    /// True when messages can currently get from `a` to `b`, routing through
    /// intermediate up nodes if necessary. Reflexive for up nodes.
    ///
    /// O(1): two status checks and one label comparison.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.is_up(a) && self.is_up(b) && self.comp[a.index()] == self.comp[b.index()]
    }

    /// Whether a request from `from` may be delivered to `to` now: the one
    /// failure rule both runtimes apply. `NodeDown(from)` for a down
    /// caller; with no route, `Unreachable` for a live target and
    /// `NodeDown(to)` for a down one or an id never issued.
    ///
    /// # Errors
    ///
    /// The [`NetError`] the request fails with.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<(), NetError> {
        if self.reachable(from, to) {
            Ok(())
        } else if !self.is_up(from) {
            Err(NetError::NodeDown(from))
        } else {
            Err(self.unroutable(from, to))
        }
    }

    /// How a request with no route to `to` fails: `Unreachable` for a
    /// live target, `NodeDown(to)` for a down one or an id never issued.
    pub(crate) fn unroutable(&self, from: NodeId, to: NodeId) -> NetError {
        if self.is_up(to) {
            NetError::Unreachable { from, to }
        } else {
            NetError::NodeDown(to)
        }
    }

    /// The set of nodes currently reachable from `from` (including itself,
    /// if up), ascending. This is the state-σ footprint that the paper's
    /// `reachable(x)` function projects collections through.
    pub fn reachable_set(&self, from: NodeId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.reachable(from, id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The definition the labels must agree with: breadth-first search
    /// over open edges, as `reachable` itself did before it kept labels.
    fn reachable_by_search(t: &Topology, a: NodeId, b: NodeId) -> bool {
        if !t.is_up(a) || !t.is_up(b) {
            return false;
        }
        let mut seen = vec![false; t.len()];
        let mut q = VecDeque::from([a]);
        seen[a.index()] = true;
        while let Some(cur) = q.pop_front() {
            if cur == b {
                return true;
            }
            for id in t.node_ids() {
                if !seen[id.index()] && t.edge_open(cur, id) {
                    seen[id.index()] = true;
                    q.push_back(id);
                }
            }
        }
        false
    }

    /// Every ordered pair answers as the search does, and `reachable_set`
    /// is the ascending row of `reachable`.
    fn assert_labels_match_search(t: &Topology) -> Result<(), TestCaseError> {
        for a in t.node_ids() {
            prop_assert_eq!(t.reachable(a, a), t.is_up(a));
            let mut row = Vec::new();
            for b in t.node_ids() {
                let r = t.reachable(a, b);
                prop_assert_eq!(r, reachable_by_search(t, a, b), "{} -> {} in {:?}", a, b, t);
                prop_assert!(!r || (t.is_up(a) && t.is_up(b)));
                if r {
                    row.push(b);
                }
            }
            prop_assert_eq!(t.reachable_set(a), row);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of all seven mutators over 1–12 nodes: after
        /// every step the labels answer exactly as a fresh search would.
        #[test]
        fn labels_track_every_mutator(
            n in 1usize..=12,
            steps in proptest::collection::vec(
                (0u8..7, 0usize..12, 0usize..12, any::<bool>(), proptest::collection::vec(0usize..12, 0..5)),
                0..24,
            ),
        ) {
            let mut t = Topology::new();
            t.add_nodes("n", n);
            assert_labels_match_search(&t)?;
            for (op, a, b, flag, side) in steps {
                let len = t.len();
                let (a, b) = (NodeId((a % len) as u32), NodeId((b % len) as u32));
                match op {
                    0 if len < 12 => {
                        t.add_node("late", 0);
                    }
                    0 | 1 => t.crash(a),
                    2 => t.restart(a),
                    3 => t.set_link(a, b, if flag { LinkState::healthy() } else { LinkState::down() }),
                    4 => t.set_group(a, flag.then_some(PartitionGroup(b.0 % 3))),
                    5 => {
                        let side: Vec<NodeId> =
                            side.iter().map(|&i| NodeId((i % len) as u32)).collect();
                        t.partition(&side);
                    }
                    _ => t.heal_partition(),
                }
                assert_labels_match_search(&t)?;
            }
        }
    }

    #[test]
    fn chain_with_the_end_to_end_link_down_is_still_reachable() {
        let (mut t, a, b, c) = three();
        t.set_link(a, c, LinkState::down());
        assert!(!t.edge_open(a, c));
        assert!(t.reachable(a, c), "a-b-c routes around the down a-c link");
        assert_eq!(t.reachable_set(a), vec![a, b, c]);
        t.crash(b);
        assert!(!t.reachable(a, c), "the only relay is down");
    }

    #[test]
    fn a_late_node_fuses_the_components_it_touches() {
        let mut t = Topology::new();
        let a = t.add_node("a", 0);
        let b = t.add_node("b", 1);
        t.set_link(a, b, LinkState::down());
        assert!(!t.reachable(a, b));
        let c = t.add_node("c", 2);
        assert!(t.reachable(a, b), "c relays between a and b");
        assert_eq!(t.reachable_set(c), vec![a, b, c]);
    }

    fn three() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a", 0);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 2);
        (t, a, b, c)
    }

    #[test]
    fn clique_by_default() {
        let (t, a, b, c) = three();
        assert!(t.reachable(a, b));
        assert!(t.reachable(b, c));
        assert!(t.reachable(a, c));
        assert!(t.reachable(a, a));
    }

    #[test]
    fn crashed_node_is_unreachable() {
        let (mut t, a, b, _c) = three();
        t.crash(b);
        assert!(!t.reachable(a, b));
        assert!(!t.reachable(b, a));
        assert!(!t.reachable(b, b));
        t.restart(b);
        assert!(t.reachable(a, b));
    }

    #[test]
    fn down_link_routes_around() {
        let (mut t, a, b, c) = three();
        t.set_link(a, b, LinkState::down());
        // Direct edge is closed but the path a-c-b remains.
        assert!(!t.edge_open(a, b));
        assert!(t.reachable(a, b));
        // Cutting both legs isolates b.
        t.set_link(c, b, LinkState::down());
        assert!(!t.reachable(a, b));
    }

    #[test]
    fn partition_blocks_across_groups() {
        let (mut t, a, b, c) = three();
        t.partition(&[c]);
        assert!(t.reachable(a, b));
        assert!(!t.reachable(a, c));
        assert!(!t.reachable(b, c));
        t.heal_partition();
        assert!(t.reachable(a, c));
    }

    #[test]
    fn reachable_set_lists_component() {
        let (mut t, a, b, c) = three();
        t.partition(&[c]);
        assert_eq!(t.reachable_set(a), vec![a, b]);
        assert_eq!(t.reachable_set(c), vec![c]);
        t.crash(a);
        assert!(t.reachable_set(a).is_empty());
    }

    #[test]
    fn set_group_is_per_node() {
        let (mut t, a, b, c) = three();
        t.set_group(a, Some(PartitionGroup(5)));
        assert!(!t.reachable(a, b));
        assert!(t.reachable(b, c));
        assert_eq!(t.group(a), Some(PartitionGroup(5)));
        assert_eq!(t.group(b), None);
    }

    #[test]
    fn add_nodes_assigns_distinct_sites() {
        let mut t = Topology::new();
        let ids = t.add_nodes("srv", 4);
        assert_eq!(ids.len(), 4);
        assert_eq!(t.node(ids[2]).name(), "srv-2");
        assert_eq!(t.node(ids[2]).site(), 2);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn add_servers_continues_site_numbering() {
        let mut t = Topology::new();
        assert_eq!(t.next_site(), 0);
        let client = t.add_node("client", 0);
        let servers = t.add_servers("s", 3);
        assert_eq!(t.node(servers[0]).site(), 1);
        assert_eq!(t.node(servers[2]).site(), 3);
        assert_eq!(t.node(servers[2]).name(), "s2");
        // A second fleet lands on fresh sites and fresh ids.
        let more = t.add_servers("shard", 2);
        assert_eq!(t.node(more[0]).site(), 4);
        let mut all = vec![client];
        all.extend(&servers);
        all.extend(&more);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "no NodeId collisions");
    }

    #[test]
    fn route_fails_by_one_rule() {
        let (mut t, a, b, c) = three();
        let never = NodeId(9);
        t.partition(&[c]);
        let mut down = t.clone();
        down.crash(b);
        let rows = [
            (&t, a, b, Ok(())),
            (&down, b, a, Err(NetError::NodeDown(b))),
            (&down, a, b, Err(NetError::NodeDown(b))),
            (&t, a, c, Err(NetError::Unreachable { from: a, to: c })),
            (&t, a, never, Err(NetError::NodeDown(never))),
        ];
        for (topo, from, to, want) in rows {
            assert_eq!(topo.route(from, to), want, "{from} -> {to}");
        }
        assert!(!t.is_up(never) && !t.reachable(a, never));
    }

    #[test]
    fn link_state_is_symmetric() {
        let (mut t, a, b, _c) = three();
        t.set_link(b, a, LinkState::lossy(0.5));
        assert_eq!(t.link(a, b).drop_prob, 0.5);
        assert_eq!(t.link(b, a).drop_prob, 0.5);
    }
}
