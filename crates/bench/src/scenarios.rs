//! Shared world/workload builders for the experiments.

use weakset::prelude::*;
use weakset_gossip::prelude::GossipNode;
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
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

/// Builds a WAN world with constant one-way latency.
pub fn wan(seed: u64, n_servers: usize, one_way: SimDuration) -> Wan {
    wan_with_model(seed, n_servers, LatencyModel::Constant(one_way))
}

/// Builds a WAN world with an arbitrary latency model and the causal
/// event sink on: every snapshot carries per-kind event counts and
/// critical-path objectives.
pub fn wan_with_model(seed: u64, n_servers: usize, latency: LatencyModel) -> Wan {
    let mut wan = store_fleet(seed, n_servers, latency);
    wan.world.events_mut().set_enabled(true);
    wan
}

/// Builds `n_servers` store servers, event sink off (the E6/E7 tables
/// record nothing).
pub fn store_fleet(seed: u64, n_servers: usize, latency: LatencyModel) -> Wan {
    fleet(seed, n_servers, latency, |_| Box::new(StoreServer::new()))
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

/// Schedules `count` membership mutations, evenly spaced `interval`
/// apart starting at `start`: with probability `add_fraction` an add of a
/// fresh element, otherwise a remove of a random element among ids
/// `1..=existing` (the initial population).
#[allow(clippy::too_many_arguments)]
pub fn schedule_churn_over(
    wan: &mut Wan,
    set: &WeakSet,
    start: SimTime,
    interval: SimDuration,
    count: usize,
    add_fraction: f64,
    existing: u64,
    seed: u64,
) {
    let mut rng = wan.world.rng_for(&format!("churn-{seed}"));
    let cref = set.cref().clone();
    let n_existing = existing.max(1);
    for k in 0..count {
        let at = start + interval.saturating_mul(k as u64 + 1);
        let cref = cref.clone();
        let is_add = rng.chance(add_fraction);
        let fresh = 10_000 + k as u64;
        let victim = rng.range_u64(1, n_existing + 1);
        let home = wan.servers[k % wan.servers.len()];
        // Environment actions apply at the servers directly (loopback):
        // realistic interleaving in time without recursing through the
        // event loop for long mutation streams.
        wan.world.spawn_at(at, move |w: &mut StoreWorld| {
            if is_add {
                let rec =
                    ObjectRecord::new(ObjectId(fresh), format!("fresh-{fresh}"), vec![b'y'; 64]);
                if let Some(srv) = w.service_mut::<StoreServer>(home) {
                    srv.apply(weakset_store::msg::StoreMsg::PutObject(rec));
                }
                if let Some(primary) = w.service_mut::<StoreServer>(cref.home) {
                    primary.apply(weakset_store::msg::StoreMsg::AddMember {
                        coll: cref.id,
                        entry: weakset_store::collection::MemberEntry {
                            elem: ObjectId(fresh),
                            home,
                        },
                    });
                }
            } else if let Some(primary) = w.service_mut::<StoreServer>(cref.home) {
                primary.apply(weakset_store::msg::StoreMsg::RemoveMember {
                    coll: cref.id,
                    elem: ObjectId(victim),
                });
            }
        });
    }
}

/// [`schedule_churn_over`] with a default population of 1000.
#[allow(clippy::too_many_arguments)]
pub fn schedule_churn(
    wan: &mut Wan,
    set: &WeakSet,
    start: SimTime,
    interval: SimDuration,
    count: usize,
    add_fraction: f64,
    seed: u64,
) {
    schedule_churn_over(wan, set, start, interval, count, add_fraction, 1_000, seed);
}

/// Schedules `count` pure additions (grow-only churn).
pub fn schedule_growth(
    wan: &mut Wan,
    set: &WeakSet,
    start: SimTime,
    interval: SimDuration,
    count: usize,
) {
    schedule_churn(wan, set, start, interval, count, 1.1, 0);
}

/// Drives an iterator to its terminal step (bounded), returning
/// `(yield count, final step, blocked invocations)`.
pub fn drive(
    world: &mut StoreWorld,
    it: &mut Elements,
    max_blocks: usize,
    wait: SimDuration,
) -> (usize, IterStep, usize) {
    let mut yields = 0;
    let mut blocks = 0;
    let mut consecutive = 0;
    loop {
        match it.next(world) {
            IterStep::Yielded(_) => {
                consecutive = 0;
                yields += 1;
            }
            IterStep::Blocked => {
                blocks += 1;
                consecutive += 1;
                if consecutive >= max_blocks {
                    return (yields, IterStep::Blocked, blocks);
                }
                world.sleep(wait);
            }
            step => return (yields, step, blocks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset::semantics::Semantics;

    #[test]
    fn wan_and_population_build() {
        let mut w = wan(1, 4, SimDuration::from_millis(5));
        let set = populated_set(&mut w, 12, SimDuration::from_millis(100));
        assert_eq!(set.size(&mut w.world).unwrap(), 12);
    }

    #[test]
    fn drive_completes_a_simple_run() {
        let mut w = wan(2, 3, SimDuration::from_millis(2));
        let set = populated_set(&mut w, 9, SimDuration::from_millis(100));
        let mut it = set.elements(Semantics::Optimistic);
        let (yields, step, blocks) = drive(&mut w.world, &mut it, 3, SimDuration::from_millis(10));
        assert_eq!(yields, 9);
        assert_eq!(step, IterStep::Done);
        assert_eq!(blocks, 0);
    }

    #[test]
    fn churn_mutates_during_sleep() {
        let mut w = wan(3, 2, SimDuration::from_millis(1));
        let set = populated_set(&mut w, 5, SimDuration::from_millis(100));
        let now = w.world.now();
        schedule_churn(
            &mut w,
            &set,
            now,
            SimDuration::from_millis(5),
            10,
            1.1, // all adds
            0,
        );
        w.world.sleep(SimDuration::from_millis(200));
        assert_eq!(set.size(&mut w.world).unwrap(), 15);
    }
}
