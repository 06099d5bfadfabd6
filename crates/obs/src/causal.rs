//! Causal tracing: trace contexts, the happens-before DAG, and
//! deterministic critical-path analysis.
//!
//! The paper specifies each iterator semantics over *histories* —
//! which invocation yielded, suspended, or failed depends on what was
//! reachable when. A flat metric can say *that* a Figure 3 run failed;
//! only the causal structure can say *why* (which partition made which
//! member's home unreachable at which invocation). This module turns
//! the [`EventSink`](crate::EventSink) log into that structure:
//!
//! * [`TraceContext`] — a trace id plus parent span, carried on every
//!   simulated message so server-side work parents under the client
//!   span that caused it.
//! * [`CausalDag`] — the span forest reconstructed from begin/end
//!   edges, with point events attributed to their enclosing span.
//! * [`critical_path`] — a deterministic decomposition of each trace's
//!   wall-clock (simulated) latency into network / queue / quorum-wait
//!   / gossip segments.
//!
//! ## Critical-path definition
//!
//! Every span has a category derived from its kind prefix (`net.*` →
//! network, `gossip.*` → gossip, `store.read.quorum*` and
//! `store.read.batched*` → quorum-wait, everything else → queue). A
//! span's interval is charged as follows, recursively from each trace
//! root:
//!
//! 1. Time not covered by any child span is charged to the span's own
//!    category.
//! 2. Overlapping children are merged into maximal groups. In each
//!    group the *dominant* child — the last to finish, i.e. the one the
//!    parent was actually blocked on — is decomposed recursively; the
//!    rest of the group's union interval is charged to the parent's
//!    category.
//! 3. Quorum-category spans invert the choice for all but the first
//!    group: the first contact is real work (recursed), while every
//!    subsequent contact interval is, by definition, time spent waiting
//!    on replicas beyond the first — charged whole to quorum-wait.
//!
//! All inputs are simulated times and ordered collections, so the same
//! seed always produces the same decomposition, byte for byte.

use crate::sink::{Label, ObsEvent, SpanId};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one trace: a computation-rooted tree of spans, possibly
/// crossing nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace#{}", self.0)
    }
}

/// The causal context carried across boundaries (sim messages, batch
/// envelopes, gossip exchanges): which trace we are in and which span
/// caused the work about to happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceContext {
    /// The trace this work belongs to.
    pub trace: TraceId,
    /// The span that caused this work; children open under it.
    pub span: SpanId,
}

/// One reconstructed span: a begin/end pair plus its place in the DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's id (shared by its begin and end edges).
    pub id: SpanId,
    /// The span it opened under, if any.
    pub parent: Option<SpanId>,
    /// The trace it belongs to, when recorded with one.
    pub trace: Option<TraceId>,
    /// Dotted span kind, e.g. `"net.rpc"` or `"iter.fig4.invocation"`.
    pub kind: String,
    /// Free-form detail from the begin edge.
    pub detail: Label,
    /// Begin time, simulated microseconds.
    pub begin_us: u64,
    /// End time, simulated microseconds. Equals `begin_us` when the
    /// span was never closed (see `EventSink::finish`).
    pub end_us: u64,
    /// Child spans, in begin order.
    pub children: Vec<SpanId>,
}

impl SpanNode {
    /// The span's duration in simulated microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.begin_us)
    }
}

/// The happens-before DAG reconstructed from an event log: a forest of
/// span trees (one per trace root) plus the point events attributed to
/// them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalDag {
    spans: BTreeMap<SpanId, SpanNode>,
    roots: Vec<SpanId>,
    points: Vec<ObsEvent>,
}

impl CausalDag {
    /// Builds the DAG from a recorded event log (as drained by
    /// `EventSink::take_events`). Span-end edges close spans; spans
    /// with a missing or unknown parent become roots; point events are
    /// kept in recording order.
    pub fn from_events(events: &[ObsEvent]) -> Self {
        let mut spans: BTreeMap<SpanId, SpanNode> = BTreeMap::new();
        let mut begin_order: Vec<SpanId> = Vec::new();
        let mut points: Vec<ObsEvent> = Vec::new();
        for e in events {
            match e.span {
                None => points.push(e.clone()),
                Some(id) if e.kind == "span.end" || e.kind == "span.unclosed" => {
                    if let Some(node) = spans.get_mut(&id) {
                        node.end_us = e.at_us;
                    }
                }
                Some(id) => {
                    begin_order.push(id);
                    spans.insert(
                        id,
                        SpanNode {
                            id,
                            parent: e.parent,
                            trace: e.trace,
                            kind: e.kind.to_string(),
                            detail: e.detail.clone(),
                            begin_us: e.at_us,
                            end_us: e.at_us,
                            children: Vec::new(),
                        },
                    );
                }
            }
        }
        let mut roots = Vec::new();
        for &id in &begin_order {
            let parent = spans.get(&id).and_then(|n| n.parent);
            match parent.filter(|p| spans.contains_key(p)) {
                Some(p) => spans.get_mut(&p).expect("parent checked").children.push(id),
                None => roots.push(id),
            }
        }
        CausalDag {
            spans,
            roots,
            points,
        }
    }

    /// The span with the given id, if present.
    pub fn span(&self, id: SpanId) -> Option<&SpanNode> {
        self.spans.get(&id)
    }

    /// Every span, in span-id order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanNode> {
        self.spans.values()
    }

    /// Root spans (no parent, or parent outside the log), in begin
    /// order.
    pub fn roots(&self) -> &[SpanId] {
        &self.roots
    }

    /// Point events (non-span-edge), in recording order.
    pub fn points(&self) -> &[ObsEvent] {
        &self.points
    }

    /// Number of reconstructed spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the log contained no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The chain of ancestors of `id`, nearest first (excluding `id`
    /// itself).
    pub fn ancestors(&self, id: SpanId) -> Vec<SpanId> {
        let mut out = Vec::new();
        let mut cur = self.spans.get(&id).and_then(|n| n.parent);
        while let Some(p) = cur {
            if out.contains(&p) {
                break; // defensive: a cyclic log must not hang us
            }
            out.push(p);
            cur = self.spans.get(&p).and_then(|n| n.parent);
        }
        out
    }

    /// `id` plus every span beneath it, preorder (parents before
    /// children, siblings in begin order).
    pub fn descendants(&self, id: SpanId) -> Vec<SpanId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(s) = stack.pop() {
            if !self.spans.contains_key(&s) || out.contains(&s) {
                continue;
            }
            out.push(s);
            if let Some(node) = self.spans.get(&s) {
                for &c in node.children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Point events attributed (via their parent span) to `id` or any
    /// of its descendants, in recording order.
    pub fn points_under(&self, id: SpanId) -> Vec<&ObsEvent> {
        let under = self.descendants(id);
        self.points
            .iter()
            .filter(|e| e.parent.is_some_and(|p| under.contains(&p)))
            .collect()
    }
}

/// Where a slice of simulated time on the critical path was spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathCategory {
    /// In flight on the simulated network (`net.*` spans).
    Network,
    /// Client-side work and scheduling between network activity
    /// (the default for iterator/store spans).
    Queue,
    /// Waiting on replica replies beyond the first (`store.read.quorum*`
    /// and `store.read.batched*` spans).
    QuorumWait,
    /// Anti-entropy rounds and exchanges (`gossip.*` spans).
    Gossip,
}

/// The category a span's kind maps to.
fn category_of(kind: &str) -> PathCategory {
    if kind.starts_with("net.") {
        PathCategory::Network
    } else if kind.starts_with("gossip.") {
        PathCategory::Gossip
    } else if kind.starts_with("store.read.quorum") || kind.starts_with("store.read.batched") {
        PathCategory::QuorumWait
    } else {
        PathCategory::Queue
    }
}

/// A critical-path decomposition: simulated microseconds charged to
/// each category. Summed over trace roots by [`critical_path`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Time in flight on the network.
    pub network_us: u64,
    /// Client-side work and scheduling.
    pub queue_us: u64,
    /// Waiting on replicas beyond the first.
    pub quorum_wait_us: u64,
    /// Time inside gossip rounds and exchanges.
    pub gossip_us: u64,
}

impl CriticalPath {
    /// Total charged time across all categories.
    pub fn total_us(&self) -> u64 {
        self.network_us + self.queue_us + self.quorum_wait_us + self.gossip_us
    }

    fn charge(&mut self, cat: PathCategory, us: u64) {
        match cat {
            PathCategory::Network => self.network_us += us,
            PathCategory::Queue => self.queue_us += us,
            PathCategory::QuorumWait => self.quorum_wait_us += us,
            PathCategory::Gossip => self.gossip_us += us,
        }
    }

    /// Adds another decomposition into this one, category-wise.
    pub fn absorb(&mut self, other: &CriticalPath) {
        self.network_us += other.network_us;
        self.queue_us += other.queue_us;
        self.quorum_wait_us += other.quorum_wait_us;
        self.gossip_us += other.gossip_us;
    }
}

/// Critical-path decomposition of one root span's subtree.
pub fn critical_path_of(dag: &CausalDag, root: SpanId) -> CriticalPath {
    let mut cp = CriticalPath::default();
    if let Some(node) = dag.span(root) {
        decompose(dag, node, &mut cp);
    }
    cp
}

/// Critical-path decomposition summed over every trace root in the
/// DAG. Deterministic: same event log, same result.
pub fn critical_path(dag: &CausalDag) -> CriticalPath {
    let mut cp = CriticalPath::default();
    for &root in dag.roots() {
        cp.absorb(&critical_path_of(dag, root));
    }
    cp
}

fn decompose(dag: &CausalDag, node: &SpanNode, cp: &mut CriticalPath) {
    let cat = category_of(&node.kind);
    let quorum = cat == PathCategory::QuorumWait;
    // Children clamped to the parent interval, in begin order. Children
    // beginning after the parent ended are *continuations* — later
    // invocations of the same computation parented under its trace root
    // — and are decomposed as their own segments below: the computation's
    // path is the sum of its invocation windows, with the client's think
    // time between invocations charged to nothing.
    let (children, continuations): (Vec<&SpanNode>, Vec<&SpanNode>) = node
        .children
        .iter()
        .filter_map(|&c| dag.span(c))
        .partition(|c| c.begin_us < node.end_us || node.duration_us() == 0);
    for c in continuations {
        decompose(dag, c, cp);
    }

    let mut cursor = node.begin_us;
    let mut idx = 0;
    let mut group_no = 0;
    while idx < children.len() {
        // A maximal group of overlapping children.
        let group_begin = children[idx].begin_us.max(node.begin_us);
        let mut group_end = children[idx].end_us.min(node.end_us).max(group_begin);
        let mut dominant = idx;
        idx += 1;
        while idx < children.len() && children[idx].begin_us < group_end {
            let child_end = children[idx].end_us.min(node.end_us);
            let better = if quorum {
                // Fastest reply is the real work; the rest is waiting.
                child_end < children[dominant].end_us.min(node.end_us)
            } else {
                // The last child to finish is what blocked the parent.
                child_end > children[dominant].end_us.min(node.end_us)
            };
            if better {
                dominant = idx;
            }
            group_end = group_end.max(child_end);
            idx += 1;
        }

        // Gap before the group: the parent's own time.
        cp.charge(cat, group_begin.saturating_sub(cursor));

        if quorum && group_no > 0 {
            // Contacts after the first are pure quorum waiting.
            cp.charge(
                PathCategory::QuorumWait,
                group_end.saturating_sub(group_begin),
            );
        } else {
            let d = children[dominant];
            decompose(dag, d, cp);
            let covered = d.duration_us().min(group_end.saturating_sub(group_begin));
            cp.charge(
                cat,
                group_end
                    .saturating_sub(group_begin)
                    .saturating_sub(covered),
            );
        }
        cursor = cursor.max(group_end);
        group_no += 1;
    }
    cp.charge(cat, node.end_us.saturating_sub(cursor));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EventSink;

    fn dag_of(build: impl FnOnce(&mut EventSink)) -> CausalDag {
        let mut s = EventSink::enabled();
        build(&mut s);
        assert!(s.finish(u64::MAX).is_empty(), "test left spans open");
        CausalDag::from_events(&s.take_events())
    }

    #[test]
    fn builds_forest_with_parents_and_points() {
        let dag = dag_of(|s| {
            let root = s.begin_span(0, "iter.fig4.invocation", "fig4", None);
            let rpc = s.begin_span(2, "net.rpc", "n0->n1", Some(root));
            s.event_in(4, "net.rpc.failed", "timeout", Some(rpc));
            s.end_span(6, rpc.span);
            s.end_span(10, root.span);
            let g = s.begin_span(20, "gossip.round", "", None);
            s.end_span(25, g.span);
        });
        assert_eq!(dag.roots().len(), 2);
        assert_eq!(dag.len(), 3);
        let root = dag.span(dag.roots()[0]).unwrap();
        assert_eq!(root.kind, "iter.fig4.invocation");
        assert_eq!(root.children.len(), 1);
        let rpc = dag.span(root.children[0]).unwrap();
        assert_eq!(rpc.duration_us(), 4);
        assert_eq!(dag.ancestors(rpc.id), vec![root.id]);
        assert_eq!(dag.descendants(root.id), vec![root.id, rpc.id]);
        let pts = dag.points_under(root.id);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].kind, "net.rpc.failed");
        // The two roots are distinct traces.
        assert_ne!(root.trace, dag.span(dag.roots()[1]).unwrap().trace);
    }

    #[test]
    fn critical_path_charges_gaps_to_parent_and_recurses_dominant() {
        let dag = dag_of(|s| {
            let root = s.begin_span(0, "iter.fig4.invocation", "", None);
            let a = s.begin_span(2, "net.rpc", "", Some(root));
            s.end_span(8, a.span);
            s.end_span(10, root.span);
        });
        let cp = critical_path(&dag);
        // 0..2 gap + 8..10 tail = 4us queue; 2..8 = 6us network.
        assert_eq!(cp.queue_us, 4);
        assert_eq!(cp.network_us, 6);
        assert_eq!(cp.total_us(), 10);
    }

    #[test]
    fn overlapping_children_charge_only_the_dominant() {
        let dag = dag_of(|s| {
            let root = s.begin_span(0, "iter.fig4.invocation", "", None);
            let a = s.begin_span(0, "net.rpc", "", Some(root));
            let b = s.begin_span(1, "net.rpc", "", Some(root));
            s.end_span(4, a.span);
            s.end_span(9, b.span);
            s.end_span(10, root.span);
        });
        let cp = critical_path(&dag);
        // Group 0..9: dominant is b (8us network); remainder 1us to
        // queue (parent); tail 9..10 queue.
        assert_eq!(cp.network_us, 8);
        assert_eq!(cp.queue_us, 2);
        assert_eq!(cp.total_us(), 10);
    }

    #[test]
    fn quorum_spans_charge_later_contacts_to_quorum_wait() {
        let dag = dag_of(|s| {
            let q = s.begin_span(0, "store.read.quorum", "", None);
            let a = s.begin_span(0, "net.rpc", "", Some(q));
            s.end_span(3, a.span);
            let b = s.begin_span(3, "net.rpc", "", Some(q));
            s.end_span(7, b.span);
            let c = s.begin_span(7, "net.rpc", "", Some(q));
            s.end_span(12, c.span);
            s.end_span(12, q.span);
        });
        let cp = critical_path(&dag);
        // First contact (3us) is network; contacts two and three
        // (4us + 5us) are quorum waiting.
        assert_eq!(cp.network_us, 3);
        assert_eq!(cp.quorum_wait_us, 9);
        assert_eq!(cp.total_us(), 12);
    }

    #[test]
    fn quorum_overlapping_group_recurses_fastest_reply() {
        let dag = dag_of(|s| {
            let q = s.begin_span(0, "store.read.batched", "", None);
            let a = s.begin_span(0, "net.rpc", "", Some(q));
            let b = s.begin_span(0, "net.rpc", "", Some(q));
            let c = s.begin_span(0, "net.rpc", "", Some(q));
            s.end_span(4, a.span);
            s.end_span(6, b.span);
            s.end_span(9, c.span);
            s.end_span(9, q.span);
        });
        let cp = critical_path(&dag);
        // One overlapping group 0..9: fastest reply a (4us) is network;
        // the remaining 5us of the group is quorum waiting.
        assert_eq!(cp.network_us, 4);
        assert_eq!(cp.quorum_wait_us, 5);
        assert_eq!(cp.total_us(), 9);
    }

    #[test]
    fn later_invocations_continue_the_roots_path() {
        let dag = dag_of(|s| {
            // First invocation roots the computation: 0..10 with a 6us rpc.
            let root = s.begin_span(0, "iter.fig4.invocation", "", None);
            let a = s.begin_span(2, "net.rpc", "", Some(root));
            s.end_span(8, a.span);
            s.end_span(10, root.span);
            // Second invocation begins after the root ended (client think
            // time 10..20 is charged to nothing): 20..30 with a 4us rpc.
            let inv2 = s.begin_span(20, "iter.fig4.invocation", "", Some(root));
            let b = s.begin_span(21, "net.rpc", "", Some(inv2));
            s.end_span(25, b.span);
            s.end_span(30, inv2.span);
        });
        let cp = critical_path(&dag);
        // Invocation 1: 4us queue + 6us network. Invocation 2: 6us queue
        // + 4us network. The 10us between invocations is uncharged.
        assert_eq!(cp.network_us, 10);
        assert_eq!(cp.queue_us, 10);
        assert_eq!(cp.total_us(), 20);
    }

    #[test]
    fn gossip_and_multiple_roots_sum() {
        let dag = dag_of(|s| {
            let g = s.begin_span(0, "gossip.round", "", None);
            let x = s.begin_span(1, "gossip.exchange", "n0->n1", Some(g));
            let r = s.begin_span(1, "net.rpc", "", Some(x));
            s.end_span(3, r.span);
            s.end_span(4, x.span);
            s.end_span(5, g.span);
            let lone = s.begin_span(10, "iter.fig5.invocation", "", None);
            s.end_span(12, lone.span);
        });
        let cp = critical_path(&dag);
        assert_eq!(cp.network_us, 2); // the rpc inside the exchange
        assert_eq!(cp.gossip_us, 3); // 0..1 + 3..4 + 4..5
        assert_eq!(cp.queue_us, 2); // the lone invocation
        assert_eq!(cp.total_us(), 7);
    }

    #[test]
    fn same_log_same_decomposition() {
        let build = |s: &mut EventSink| {
            let root = s.begin_span(0, "iter.fig6.invocation", "", None);
            let q = s.begin_span(1, "store.read.quorum", "", Some(root));
            let a = s.begin_span(1, "net.rpc", "", Some(q));
            s.end_span(5, a.span);
            let b = s.begin_span(5, "net.rpc", "", Some(q));
            s.end_span(11, b.span);
            s.end_span(11, q.span);
            s.end_span(12, root.span);
        };
        let (a, b) = (dag_of(build), dag_of(build));
        assert_eq!(a, b);
        assert_eq!(critical_path(&a), critical_path(&b));
    }
}
