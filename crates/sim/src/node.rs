//! Simulated nodes (workstations/servers) and their lifecycle.

use std::fmt;
use weakset_obs::Label;

/// Identifies a node in the simulated system.
///
/// Node ids are dense indices assigned by [`crate::topology::Topology`] in
/// creation order, which keeps per-node tables cheap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// This id's `Display` text (`n7`), built in place without going
    /// through `fmt`: span details are written once per simulated
    /// message.
    pub fn label(self) -> Label {
        id_label('n', u64::from(self.0))
    }

    /// `format!("{self}->{to}")`, the detail of every per-link span and
    /// event, built in place (the widest pair, 24 bytes, is boxed).
    pub fn link_label(self, to: NodeId) -> Label {
        let (mut from_buf, mut to_buf) = ([0; 20], [0; 20]);
        Label::concat(&[
            "n",
            digits(u64::from(self.0), &mut from_buf),
            "->n",
            digits(u64::from(to.0), &mut to_buf),
        ])
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// `format!("{prefix}{v}")`, built in place without going through
/// `fmt`: how a one-letter id type writes its `Display` text
/// ([`NodeId::label`]; `weakset-store`'s `CollectionId::label`).
pub fn id_label(prefix: char, v: u64) -> Label {
    let mut buf = [0; 20];
    Label::concat(&[prefix.encode_utf8(&mut [0; 4]), digits(v, &mut buf)])
}

/// [`decimal_digits`] as text.
fn digits(v: u64, buf: &mut [u8; 20]) -> &str {
    std::str::from_utf8(decimal_digits(v, buf)).expect("decimal digits are ASCII")
}

/// The decimal digits of `v`, as `Display` prints them, written into the
/// tail of `buf`.
pub(crate) fn decimal_digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[at..]
}

/// Whether a node is currently able to send, receive, and serve requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// The node is running normally.
    Up,
    /// The node has crashed: it drops all traffic until restarted.
    Crashed,
}

/// A simulated node: a name, a status, and a coarse "site" coordinate used
/// by distance-based latency models ("fetch closer files first").
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    id: NodeId,
    name: String,
    status: NodeStatus,
    site: u32,
}

impl Node {
    pub(crate) fn new(id: NodeId, name: impl Into<String>, site: u32) -> Self {
        Node {
            id,
            name: name.into(),
            status: NodeStatus::Up,
            site,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name, e.g. `"server-pittsburgh"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// True when the node can participate in communication.
    pub fn is_up(&self) -> bool {
        self.status == NodeStatus::Up
    }

    /// Coarse location used by distance-based latency models. Nodes with the
    /// same site are "near" each other.
    pub fn site(&self) -> u32 {
        self.site
    }

    pub(crate) fn set_status(&mut self, status: NodeStatus) {
        self.status = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_is_up() {
        let n = Node::new(NodeId(3), "srv", 1);
        assert!(n.is_up());
        assert_eq!(n.status(), NodeStatus::Up);
        assert_eq!(n.id(), NodeId(3));
        assert_eq!(n.name(), "srv");
        assert_eq!(n.site(), 1);
    }

    #[test]
    fn crash_and_restart_cycle() {
        let mut n = Node::new(NodeId(0), "a", 0);
        n.set_status(NodeStatus::Crashed);
        assert!(!n.is_up());
        n.set_status(NodeStatus::Up);
        assert!(n.is_up());
    }

    #[test]
    fn labels_are_the_display_text() {
        for v in [0, 9, 10, 4_096, u32::MAX] {
            let id = NodeId(v);
            assert_eq!(id.label(), id.to_string());
            for w in [0, 9, 10, 4_096, u32::MAX] {
                let link = id.link_label(NodeId(w));
                assert_eq!(link, format!("{id}->{}", NodeId(w)));
            }
        }
        let widest = NodeId(u32::MAX).link_label(NodeId(u32::MAX));
        assert_eq!(widest.len(), 24, "boxed, past the 22 inline bytes");
        assert_eq!(widest, "n4294967295->n4294967295");
        assert_eq!(id_label('c', u64::MAX), format!("c{}", u64::MAX));
    }

    #[test]
    fn node_id_formats_compactly() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }
}
