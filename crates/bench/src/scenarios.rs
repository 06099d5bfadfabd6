//! The worlds of the experiments that build their own (E9b, E10a, E10d
//! and E11): E1–E9a, E10b, E10c and E12 are fuzzer scenarios
//! (`experiments::rows`).

use weakset::prelude::*;
use weakset_gossip::prelude::GossipNode;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_sim::topology::Topology;
use weakset_sim::world::Service;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreServer, StoreWorld};

/// A deployment: one client plus servers at distinct sites.
pub struct Wan {
    /// The world.
    pub world: StoreWorld,
    /// The client's node.
    pub client_node: NodeId,
    /// Server nodes in site order.
    pub servers: Vec<NodeId>,
}

/// Builds `n_servers` store servers behind constant one-way latency,
/// with the causal event sink on: every snapshot carries per-kind event
/// counts and critical-path objectives.
pub fn wan(seed: u64, n_servers: usize, one_way: SimDuration) -> Wan {
    let latency = LatencyModel::Constant(one_way);
    let mut wan = fleet(seed, n_servers, latency, |_| Box::new(StoreServer::new()));
    wan.world.events_mut().set_enabled(true);
    wan
}

/// Builds `n_replicas` gossip replicas behind constant one-way latency.
pub fn gossip_fleet(seed: u64, n_replicas: usize, one_way: SimDuration) -> Wan {
    fleet(seed, n_replicas, LatencyModel::Constant(one_way), |node| {
        Box::new(GossipNode::new(node))
    })
}

/// The one world builder: a client at site 0 and `n_servers` servers at
/// the sites after it, each running what `service` makes for it. The
/// determinism trace is off (experiment runs can be long).
fn fleet(
    seed: u64,
    n_servers: usize,
    latency: LatencyModel,
    service: impl Fn(NodeId) -> Box<dyn Service<StoreMsg>>,
) -> Wan {
    let mut topo = Topology::new();
    let client_node = topo.add_node("client", 0);
    let servers: Vec<NodeId> = topo.add_servers("server-", n_servers);
    let mut world = StoreWorld::new(seed, topo, latency);
    for &s in &servers {
        world.install_service(s, service(s));
    }
    Wan {
        world,
        client_node,
        servers,
    }
}

/// Collection 1 with its primary on the first of `servers` and a replica
/// on each of the others.
pub fn replicated(servers: &[NodeId]) -> CollectionRef {
    CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    }
}

/// Creates a weak set of `n` elements spread round-robin over the
/// servers, returning the set handle.
pub fn populated_set(wan: &mut Wan, n: usize, timeout: SimDuration) -> WeakSet {
    let client = StoreClient::new(wan.client_node, timeout);
    let cref = CollectionRef::unreplicated(CollectionId(1), wan.servers[0]);
    client
        .create_collection(&mut wan.world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(client, cref);
    for i in 0..n {
        let home = wan.servers[i % wan.servers.len()];
        set.add(
            &mut wan.world,
            ObjectRecord::new(ObjectId(i as u64 + 1), format!("obj-{i}"), vec![b'x'; 64]),
            home,
        )
        .expect("healthy world at setup");
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_and_population_build() {
        let mut w = wan(1, 4, SimDuration::from_millis(5));
        let set = populated_set(&mut w, 12, SimDuration::from_millis(100));
        assert_eq!(set.size(&mut w.world).unwrap(), 12);
    }
}
