//! Fault plans: scripted failures and repairs.
//!
//! A [`FaultPlan`] is a time-ordered script of [`FaultAction`]s (crashes,
//! restarts, link changes, partitions, heals). Plans are data, so an
//! experiment is fully described by `(seed, workload, plan)` and can be
//! replayed exactly.

use crate::link::LinkState;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::topology::{PartitionGroup, Topology};

/// A single state change applied to the topology at a scheduled time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Crash a node.
    Crash(NodeId),
    /// Restart a crashed node.
    Restart(NodeId),
    /// Override the state of one link.
    SetLink(NodeId, NodeId, LinkState),
    /// Impose a two-sided partition isolating `side` from everyone else.
    Partition(Vec<NodeId>),
    /// Remove all partition groups.
    HealPartition,
    /// Assign one node to a partition group (or back to the default).
    SetGroup(NodeId, Option<PartitionGroup>),
}

impl FaultAction {
    /// Applies the change to `topology`: what a fault *is*, on every
    /// backend that keeps a [`Topology`].
    pub fn apply_to(&self, topology: &mut Topology) {
        match self {
            FaultAction::Crash(n) => topology.crash(*n),
            FaultAction::Restart(n) => topology.restart(*n),
            FaultAction::SetLink(a, b, state) => topology.set_link(*a, *b, *state),
            FaultAction::Partition(side) => topology.partition(side),
            FaultAction::HealPartition => topology.heal_partition(),
            FaultAction::SetGroup(n, group) => topology.set_group(*n, *group),
        }
    }
}

/// A time-ordered script of fault actions.
///
/// ```
/// use weakset_sim::prelude::*;
/// let laptop = NodeId(0);
/// let server = NodeId(1);
/// let plan = FaultPlan::none()
///     .outage(SimTime::from_millis(10), server, SimDuration::from_millis(5))
///     .partition_at(SimTime::from_millis(40), &[laptop])
///     .heal_at(SimTime::from_millis(60))
///     .flap_link(SimTime::from_millis(100), laptop, server,
///                SimDuration::from_millis(2), SimDuration::from_millis(8), 3);
/// assert_eq!(plan.len(), 2 + 2 + 6);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (fault-free run).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an arbitrary action at an absolute time.
    pub fn at(mut self, t: SimTime, action: FaultAction) -> Self {
        self.actions.push((t, action));
        self
    }

    /// Crashes `node` at time `t`.
    pub fn crash_at(self, t: SimTime, node: NodeId) -> Self {
        self.at(t, FaultAction::Crash(node))
    }

    /// Restarts `node` at time `t`.
    pub fn restart_at(self, t: SimTime, node: NodeId) -> Self {
        self.at(t, FaultAction::Restart(node))
    }

    /// Crashes `node` at `t` and restarts it `downtime` later.
    pub fn outage(self, t: SimTime, node: NodeId, downtime: SimDuration) -> Self {
        self.crash_at(t, node).restart_at(t + downtime, node)
    }

    /// Partitions `side` away from the rest at `t`.
    pub fn partition_at(self, t: SimTime, side: &[NodeId]) -> Self {
        self.at(t, FaultAction::Partition(side.to_vec()))
    }

    /// Heals all partitions at `t`.
    pub fn heal_at(self, t: SimTime) -> Self {
        self.at(t, FaultAction::HealPartition)
    }

    /// Takes the link between `a` and `b` down at `t`.
    fn link_down_at(self, t: SimTime, a: NodeId, b: NodeId) -> Self {
        self.at(t, FaultAction::SetLink(a, b, LinkState::down()))
    }

    /// Brings the link between `a` and `b` back up at `t`.
    fn link_up_at(self, t: SimTime, a: NodeId, b: NodeId) -> Self {
        self.at(t, FaultAction::SetLink(a, b, LinkState::healthy()))
    }

    /// Repeatedly takes a link down for `down` then up for `up`, starting at
    /// `start`, for `cycles` cycles ("flapping" link).
    pub fn flap_link(
        mut self,
        start: SimTime,
        a: NodeId,
        b: NodeId,
        down: SimDuration,
        up: SimDuration,
        cycles: usize,
    ) -> Self {
        let mut t = start;
        for _ in 0..cycles {
            self = self.link_down_at(t, a, b);
            t += down;
            self = self.link_up_at(t, a, b);
            t += up;
        }
        self
    }

    /// The scheduled actions in insertion order (the event queue orders them
    /// by time when the plan is installed).
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.actions
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Merges another plan's actions into this one.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.actions.extend(other.actions);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_actions() {
        let plan = FaultPlan::none()
            .crash_at(SimTime::from_millis(5), NodeId(1))
            .restart_at(SimTime::from_millis(9), NodeId(1));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.actions()[0],
            (SimTime::from_millis(5), FaultAction::Crash(NodeId(1)))
        );
    }

    #[test]
    fn outage_is_crash_plus_restart() {
        let plan = FaultPlan::none().outage(
            SimTime::from_millis(10),
            NodeId(0),
            SimDuration::from_millis(4),
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.actions()[1],
            (SimTime::from_millis(14), FaultAction::Restart(NodeId(0)))
        );
    }

    #[test]
    fn flap_link_alternates() {
        let plan = FaultPlan::none().flap_link(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            2,
        );
        assert_eq!(plan.len(), 4);
        let times: Vec<u64> = plan.actions().iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![0, 1, 3, 4]);
    }

    #[test]
    fn merge_concatenates() {
        let a = FaultPlan::none().heal_at(SimTime::from_millis(1));
        let b = FaultPlan::none().heal_at(SimTime::from_millis(2));
        let m = a.merge(b);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
