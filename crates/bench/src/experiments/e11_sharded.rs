//! E11 — sharded membership reads: batched quorum rounds vs the
//! unsharded-style sequential baseline.
//!
//! A `ShardedWeakSet` splits one logical set into `S` sub-collections
//! co-located on a single three-node replica group. Reading membership
//! shard by shard (what a client without the batch envelope would do)
//! costs `S` quorum round-trips and `3·S` RPCs; the batched path folds
//! all co-located shard reads into one envelope per node — three RPCs
//! and ONE round-trip, no matter how many shards the set has. The sweep
//! shows the gap growing linearly with the shard count.

use crate::report::{ms, Table};
use crate::scenarios::{wan, Wan};
use crate::snapshot::{counter, snapshot_with_trace, with_common_objectives};
use weakset::prelude::*;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_sim::time::SimDuration;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{ReadPolicy, StoreClient, StoreWorld};

/// Read rounds measured per mode (applies to both timing fields below).
const ROUNDS: usize = 4;

/// One sweep point.
pub struct Point {
    /// Shard count.
    pub shards: usize,
    /// Members spread over the shards.
    pub members: usize,
    /// Simulated time for the sequential per-shard read rounds.
    pub sequential_time: SimDuration,
    /// RPCs sent by the sequential rounds.
    pub sequential_rpcs: u64,
    /// Simulated time for the batched read rounds.
    pub batched_time: SimDuration,
    /// RPCs sent by the batched rounds.
    pub batched_rpcs: u64,
}

impl Point {
    /// Sequential-over-batched time ratio (higher = batching wins more).
    fn speedup(&self) -> f64 {
        let b = self.batched_time.as_micros().max(1);
        self.sequential_time.as_micros() as f64 / b as f64
    }
}

fn build_sharded(w: &mut Wan, shards: usize, members: usize) -> (ShardedWeakSet, StoreClient) {
    let client = StoreClient::new(w.client_node, SimDuration::from_millis(200));
    // Every shard lives on the SAME three-node group: that is the
    // co-location the batch envelope exploits.
    let groups: Vec<ShardGroup> = (0..shards)
        .map(|_| ShardGroup {
            home: w.servers[0],
            replicas: w.servers[1..].to_vec(),
        })
        .collect();
    let config = IterConfig {
        read_policy: ReadPolicy::Quorum,
        ..IterConfig::default()
    };
    let set = ShardedWeakSet::create(
        &mut w.world,
        CollectionId(1),
        client.clone(),
        &groups,
        config,
    )
    .expect("healthy world at setup");
    for i in 0..members {
        set.add(
            &mut w.world,
            ObjectRecord::new(ObjectId(i as u64 + 1), format!("obj-{i}"), vec![b'x'; 64]),
            w.servers[i % w.servers.len()],
        )
        .expect("healthy world at setup");
    }
    (set, client)
}

/// `ROUNDS` whole-set reads, one quorum round-trip per shard per
/// round (the pre-batching client behavior).
fn sequential_rounds(w: &mut StoreWorld, set: &ShardedWeakSet, client: &StoreClient) {
    for _ in 0..ROUNDS {
        for i in 0..set.shard_count() {
            client
                .read_members(w, set.shard(i).cref(), ReadPolicy::Quorum)
                .expect("healthy world");
        }
    }
}

/// `ROUNDS` whole-set reads through the batch envelope.
fn batched_rounds(w: &mut StoreWorld, set: &ShardedWeakSet) {
    for _ in 0..ROUNDS {
        for r in set.read_all_batched(w) {
            r.expect("healthy world");
        }
    }
}

/// One point: `shards` shards of six members each on a three-node
/// group, read sequentially and then batched. Returns the world too, for
/// the snapshot to freeze.
fn measure(seed: u64, shards: usize) -> (Wan, Point) {
    let members = shards * 6;
    let mut w = wan(seed, 3, SimDuration::from_millis(5));
    let (set, client) = build_sharded(&mut w, shards, members);

    let rpc0 = w.world.metrics().counter("rpc.sent");
    let t0 = w.world.now();
    sequential_rounds(&mut w.world, &set, &client);
    let sequential_time = w.world.now().saturating_since(t0);
    let rpc1 = w.world.metrics().counter("rpc.sent");
    let t1 = w.world.now();
    batched_rounds(&mut w.world, &set);
    let batched_time = w.world.now().saturating_since(t1);
    let rpc2 = w.world.metrics().counter("rpc.sent");

    let point = Point {
        shards,
        members,
        sequential_time,
        sequential_rpcs: rpc1 - rpc0,
        batched_time,
        batched_rpcs: rpc2 - rpc1,
    };
    (w, point)
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    [2usize, 4, 8]
        .into_iter()
        .map(|shards| measure(300 + shards as u64, shards).1)
        .collect()
}

/// Formats the sweep as the E11 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E11: sharded membership reads — batched envelope vs sequential per-shard quorum",
        &[
            "shards",
            "members",
            "seq time (ms)",
            "seq RPCs",
            "batched time (ms)",
            "batched RPCs",
            "speedup",
        ],
    );
    for p in points() {
        t.row(&[
            p.shards.to_string(),
            p.members.to_string(),
            ms(p.sequential_time),
            p.sequential_rpcs.to_string(),
            ms(p.batched_time),
            p.batched_rpcs.to_string(),
            format!("{:.1}x", p.speedup()),
        ]);
    }
    t.note("expected: batched time flat (~1 RTT/round) while sequential grows with shards; batched RPCs stay at 3/round");
    vec![t]
}

/// `BENCH_e11.json`: the sweep's four-shard point. The objective is the
/// batched path's speedup over the sequential rounds.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let (mut w, point) = measure(seed, 4);
    let snap = snapshot_with_trace(&mut w.world, "e11", seed);
    let envelopes = counter(&snap, "net.batch.envelopes");
    with_common_objectives(snap)
        .with_objective(
            "sharded_read_speedup",
            point.speedup(),
            Direction::HigherIsBetter,
        )
        .with_objective("batch_envelopes", envelopes, Direction::LowerIsBetter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_beats_sequential_and_the_gap_grows() {
        let ps = points();
        for p in &ps {
            assert!(
                p.speedup() > 1.5,
                "shards={}: speedup {:.2}",
                p.shards,
                p.speedup()
            );
            assert!(
                p.batched_rpcs < p.sequential_rpcs,
                "shards={}: batching must send fewer RPCs",
                p.shards
            );
        }
        assert!(
            ps.last().unwrap().speedup() > ps.first().unwrap().speedup(),
            "the win grows with shard count"
        );
    }

    #[test]
    fn batched_rpc_count_is_per_node_not_per_shard() {
        for p in points() {
            // 3 replica nodes, one envelope each per round.
            assert_eq!(p.batched_rpcs, (3 * ROUNDS) as u64, "shards={}", p.shards);
            assert_eq!(
                p.sequential_rpcs,
                (3 * p.shards * ROUNDS) as u64,
                "shards={}",
                p.shards
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = &run()[0];
        assert_eq!(t.len(), 3);
        assert!(t.to_string().contains("E11"));
    }
}
