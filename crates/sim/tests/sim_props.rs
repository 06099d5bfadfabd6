//! Property tests for the simulator: determinism, reachability sanity,
//! and fault-plan round trips under randomized topologies and schedules.

use proptest::prelude::*;
use weakset_sim::prelude::*;

/// A randomized world script: nodes, link cuts, partitions, rpc schedule.
#[derive(Clone, Debug)]
struct WorldScript {
    seed: u64,
    n_nodes: usize,
    /// (from, to) rpc attempts, indices mod n_nodes.
    rpcs: Vec<(usize, usize)>,
    /// Link cuts: (a, b) indices.
    cuts: Vec<(usize, usize)>,
    /// Nodes to crash.
    crashes: Vec<usize>,
}

fn world_script() -> impl Strategy<Value = WorldScript> {
    (
        0u64..5000,
        3usize..8,
        proptest::collection::vec((0usize..8, 0usize..8), 1..20),
        proptest::collection::vec((0usize..8, 0usize..8), 0..6),
        proptest::collection::vec(0usize..8, 0..3),
    )
        .prop_map(|(seed, n_nodes, rpcs, cuts, crashes)| WorldScript {
            seed,
            n_nodes,
            rpcs,
            cuts,
            crashes,
        })
}

struct Echo;
impl Service<u64> for Echo {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, msg: u64) -> u64 {
        msg.wrapping_mul(3)
    }
}

fn run_script(s: &WorldScript) -> (u64, u64, Vec<Result<u64, NetError>>) {
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = (0..s.n_nodes)
        .map(|i| topo.add_node(format!("n{i}"), i as u32))
        .collect();
    for &(a, b) in &s.cuts {
        let (a, b) = (nodes[a % s.n_nodes], nodes[b % s.n_nodes]);
        if a != b {
            topo.set_link(a, b, LinkState::down());
        }
    }
    for &c in &s.crashes {
        topo.crash(nodes[c % s.n_nodes]);
    }
    let mut world: World<u64> = World::new(
        s.seed,
        topo,
        LatencyModel::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(9),
        },
    );
    for &n in &nodes {
        world.install_service(n, Box::new(Echo));
    }
    let mut outs = Vec::new();
    for &(f, t) in &s.rpcs {
        let (f, t) = (nodes[f % s.n_nodes], nodes[t % s.n_nodes]);
        if f == t {
            continue;
        }
        outs.push(world.rpc(
            f,
            t,
            (f.0 as u64) << 8 | t.0 as u64,
            SimDuration::from_millis(40),
        ));
    }
    (world.now().as_micros(), world.trace_hash(), outs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same script ⇒ byte-identical run (final clock, full trace hash,
    /// and every result).
    #[test]
    fn runs_are_deterministic(s in world_script()) {
        prop_assert_eq!(run_script(&s), run_script(&s));
    }

    /// The trace hash is a faithful determinism witness: replaying the
    /// same script twice hashes equal, and perturbing the seed perturbs
    /// the trace (latency draws differ even for an identical schedule).
    #[test]
    fn trace_hash_tracks_the_schedule(s in world_script()) {
        let (_, h1, outs) = run_script(&s);
        let (_, h2, _) = run_script(&s);
        prop_assert_eq!(h1, h2);
        // A reseeded replay only diverges when the run actually drew
        // latencies — i.e. at least one message was delivered.
        if outs.iter().any(|r| r.is_ok()) {
            let mut reseeded = s.clone();
            reseeded.seed = s.seed.wrapping_add(1);
            let (_, h3, _) = run_script(&reseeded);
            prop_assert_ne!(h1, h3);
        }
    }

    /// Reachability is symmetric and reflexive-for-up-nodes under any
    /// combination of cuts, crashes, and partitions.
    #[test]
    fn reachability_is_symmetric(s in world_script(), part in proptest::collection::vec(0usize..8, 0..4)) {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..s.n_nodes)
            .map(|i| topo.add_node(format!("n{i}"), i as u32))
            .collect();
        for &(a, b) in &s.cuts {
            let (a, b) = (nodes[a % s.n_nodes], nodes[b % s.n_nodes]);
            if a != b {
                topo.set_link(a, b, LinkState::down());
            }
        }
        for &c in &s.crashes {
            topo.crash(nodes[c % s.n_nodes]);
        }
        let side: Vec<NodeId> = part.iter().map(|&i| nodes[i % s.n_nodes]).collect();
        if !side.is_empty() {
            topo.partition(&side);
        }
        for &a in &nodes {
            prop_assert_eq!(topo.reachable(a, a), topo.is_up(a));
            for &b in &nodes {
                prop_assert_eq!(topo.reachable(a, b), topo.reachable(b, a));
            }
        }
    }

    /// reachable_set agrees with pairwise reachability.
    #[test]
    fn reachable_set_matches_pairwise(s in world_script()) {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..s.n_nodes)
            .map(|i| topo.add_node(format!("n{i}"), i as u32))
            .collect();
        for &(a, b) in &s.cuts {
            let (a, b) = (nodes[a % s.n_nodes], nodes[b % s.n_nodes]);
            if a != b {
                topo.set_link(a, b, LinkState::down());
            }
        }
        for &c in &s.crashes {
            topo.crash(nodes[c % s.n_nodes]);
        }
        for &a in &nodes {
            let set = topo.reachable_set(a);
            for &b in &nodes {
                prop_assert_eq!(set.contains(&b), topo.reachable(a, b), "{} -> {}", a, b);
            }
        }
    }

    /// Healing a partition restores exactly the pre-partition
    /// reachability (crashes and cuts unaffected).
    #[test]
    fn heal_restores_reachability(s in world_script(), part in proptest::collection::vec(0usize..8, 1..4)) {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..s.n_nodes)
            .map(|i| topo.add_node(format!("n{i}"), i as u32))
            .collect();
        for &(a, b) in &s.cuts {
            let (a, b) = (nodes[a % s.n_nodes], nodes[b % s.n_nodes]);
            if a != b {
                topo.set_link(a, b, LinkState::down());
            }
        }
        for &c in &s.crashes {
            topo.crash(nodes[c % s.n_nodes]);
        }
        let before: Vec<Vec<bool>> = nodes
            .iter()
            .map(|&a| nodes.iter().map(|&b| topo.reachable(a, b)).collect())
            .collect();
        let side: Vec<NodeId> = part.iter().map(|&i| nodes[i % s.n_nodes]).collect();
        topo.partition(&side);
        topo.heal_partition();
        let after: Vec<Vec<bool>> = nodes
            .iter()
            .map(|&a| nodes.iter().map(|&b| topo.reachable(a, b)).collect())
            .collect();
        prop_assert_eq!(before, after);
    }

    /// RPC to a crashed or fully cut-off node never succeeds; RPC over a
    /// healthy clique always succeeds.
    #[test]
    fn rpc_outcomes_match_reachability(seed in 0u64..1000, n in 3usize..6) {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| topo.add_node(format!("n{i}"), i as u32)).collect();
        let dead = nodes[n - 1];
        topo.crash(dead);
        let mut world: World<u64> = World::new(
            seed,
            topo,
            LatencyModel::Constant(SimDuration::from_millis(2)),
        );
        for &nd in &nodes {
            world.install_service(nd, Box::new(Echo));
        }
        for &to in &nodes[1..] {
            let r = world.rpc(nodes[0], to, 7, SimDuration::from_millis(50));
            if to == dead {
                prop_assert!(r.is_err());
            } else {
                prop_assert_eq!(r, Ok(21));
            }
        }
    }
}
