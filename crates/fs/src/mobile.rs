//! Mobile clients: voluntary disconnection and reconnection.
//!
//! The paper's target environment is "a network of (possibly mobile)
//! workstations" where "disconnecting a mobile client from the network
//! while traveling is an induced failure". A [`MobileClient`] wraps a node
//! and toggles it in and out of an isolated partition group.

use weakset_sim::node::NodeId;
use weakset_sim::topology::PartitionGroup;
use weakset_store::prelude::StoreWorld;

/// The partition group used to isolate disconnected mobile nodes. One
/// shared group is fine: disconnected laptops cannot talk to each other
/// either... unless they could, so each client gets `BASE + node id`.
const BASE: u32 = 1_000_000;

/// A mobile workstation that can deliberately leave and rejoin the
/// network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MobileClient {
    node: NodeId,
    connected: bool,
}

impl MobileClient {
    /// Wraps a node, initially connected.
    pub fn new(node: NodeId) -> Self {
        MobileClient {
            node,
            connected: true,
        }
    }

    /// The underlying node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Disconnects from the network (no-op if already disconnected).
    pub fn disconnect(&mut self, world: &mut StoreWorld) {
        if self.connected {
            world
                .topology_mut()
                .set_group(self.node, Some(PartitionGroup(BASE + self.node.0)));
            self.connected = false;
        }
    }

    /// Reconnects to the network (no-op if already connected).
    ///
    /// Note: reconnection clears only this node's group; a network-wide
    /// partition imposed while away still applies to everyone else.
    pub fn reconnect(&mut self, world: &mut StoreWorld) {
        if !self.connected {
            world.topology_mut().set_group(self.node, None);
            self.connected = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_store::msg::StoreMsg;
    use weakset_store::object::ObjectId;
    use weakset_store::prelude::{StoreClient, StoreServer};

    #[test]
    fn disconnect_isolates_and_reconnect_restores() {
        let mut t = Topology::new();
        let laptop = t.add_node("laptop", 0);
        let server = t.add_node("server", 1);
        let mut w: StoreWorld =
            StoreWorld::new(1, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(server, Box::new(StoreServer::new()));
        let client = StoreClient::new(laptop, SimDuration::from_millis(20));
        let mut mc = MobileClient::new(laptop);
        assert!(mc.connected);
        assert!(client
            .fetch_object(&mut w, server, ObjectId(1))
            .is_err_and(|e| !matches!(e, weakset_store::prelude::StoreError::Net(_))));
        mc.disconnect(&mut w);
        assert!(!mc.connected);
        assert!(matches!(
            client.fetch_object(&mut w, server, ObjectId(1)),
            Err(weakset_store::prelude::StoreError::Net(_))
        ));
        mc.disconnect(&mut w); // idempotent
        mc.reconnect(&mut w);
        assert!(mc.connected);
        // Reachable again (NotFound is a server answer, not a net error).
        let r = w.rpc(
            laptop,
            server,
            StoreMsg::GetObject(ObjectId(1)),
            SimDuration::from_millis(100),
        );
        assert!(matches!(r, Ok(StoreMsg::NotFound(_))));
    }

    #[test]
    fn two_disconnected_laptops_cannot_talk() {
        let mut t = Topology::new();
        let a = t.add_node("a", 0);
        let b = t.add_node("b", 1);
        let mut w: StoreWorld =
            StoreWorld::new(1, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        let mut ma = MobileClient::new(a);
        let mut mb = MobileClient::new(b);
        ma.disconnect(&mut w);
        mb.disconnect(&mut w);
        assert!(!w.topology().reachable(a, b));
        ma.reconnect(&mut w);
        mb.reconnect(&mut w);
        assert!(w.topology().reachable(a, b));
    }
}
