//! E12 — causal-session reads: wait latency vs staleness (snapshot only;
//! no table).
//!
//! Three gossip replicas; a session client keeps adding members
//! (secondaries lag — no anti-entropy yet) while the primary is
//! repeatedly partitioned away at read time. A plain `Leaderless` union
//! read serves whatever the laggard secondaries hold (stale); the
//! `CausalSession` read parks until the partition heals and never misses
//! a session write. After anti-entropy converges the replicas, the same
//! partitioned read is served by the secondaries instantly — the wait
//! cost decays to zero as convergence catches up.

use super::e10_gossip::gossip_to_quiescence;
use crate::scenarios::{gossip_fleet, replicated, Wan};
use crate::snapshot::{counter, snapshot_with_trace, with_common_objectives, world_events};
use weakset::prelude::WeakSet;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{ReadPolicy, StoreClient, StoreWorld};

const ROUNDS: u64 = 4;

/// Counts one read as fresh or stale against the session's writes so far.
fn note_read(world: &mut StoreWorld, label: &str, entries: &[MemberEntry], expected: &[u64]) {
    let missing = expected
        .iter()
        .filter(|e| !entries.iter().any(|m| m.elem.0 == **e))
        .count() as u64;
    if missing > 0 {
        world.metrics_mut().incr(&format!("e12.read.{label}.stale"));
        world
            .metrics_mut()
            .add(&format!("e12.read.{label}.missing"), missing);
    } else {
        world.metrics_mut().incr(&format!("e12.read.{label}.fresh"));
    }
}

/// `BENCH_e12.json`. The session must stay perfectly fresh
/// (`session_stale_reads` is zero) and pays for it in parked wait time
/// (`session_wait_p50_us`).
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let Wan {
        mut world,
        client_node,
        servers,
    } = gossip_fleet(seed, 3, SimDuration::from_millis(3));
    world.events_mut().set_enabled(true);
    let session = StoreClient::new(client_node, SimDuration::from_millis(200)).with_session();
    let plain = StoreClient::new(client_node, SimDuration::from_millis(200));
    let cref = replicated(&servers);
    session
        .create_collection(&mut world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(session.clone(), cref.clone());
    let mut expected: Vec<u64> = Vec::new();

    // Phase 1: the secondaries lag (anti-entropy not running yet) and
    // the primary vanishes right when the client reads.
    for r in 0..ROUNDS {
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(r + 1), format!("obj-{r}"), vec![b'x'; 64]),
            servers[0],
        )
        .expect("healthy world between partitions");
        expected.push(r + 1);
        world.topology_mut().partition(&[servers[0]]);
        if let Ok(read) = plain.read_members(&mut world, &cref, ReadPolicy::Leaderless) {
            note_read(&mut world, "leaderless", &read.entries, &expected);
        }
        world.spawn_in(SimDuration::from_millis(20), |w: &mut StoreWorld| {
            w.topology_mut().heal_partition();
        });
        let read = session
            .read_members(&mut world, &cref, ReadPolicy::CausalSession)
            .expect("session read completes once the partition heals");
        note_read(&mut world, "session", &read.entries, &expected);
        world.run_to_quiescence();
    }

    // Phase 2: let anti-entropy converge the replicas, then partition
    // the primary again — both reads are fresh now, and the session
    // read is served by the secondaries with no wait at all.
    gossip_to_quiescence(&mut world, &cref);
    world.topology_mut().partition(&[servers[0]]);
    if let Ok(read) = plain.read_members(&mut world, &cref, ReadPolicy::Leaderless) {
        note_read(&mut world, "leaderless", &read.entries, &expected);
    }
    let read = session
        .read_members(&mut world, &cref, ReadPolicy::CausalSession)
        .expect("converged secondaries satisfy the session");
    note_read(&mut world, "session", &read.entries, &expected);
    world.topology_mut().heal_partition();
    world.run_to_quiescence();

    let events = world_events(&mut world);
    let snap = snapshot_with_trace(world.metrics_mut(), &events, "e12", seed);
    let wait_p50 = snap
        .latencies
        .get(weakset_obs::session::READ_WAIT_US)
        .map_or(0.0, |s| s.p50_us as f64);
    let stale = counter(&snap, "e12.read.session.stale");
    let fresh = counter(&snap, "e12.read.session.fresh");
    with_common_objectives(snap)
        .with_objective("session_stale_reads", stale, Direction::LowerIsBetter)
        .with_objective("session_fresh_reads", fresh, Direction::HigherIsBetter)
        .with_objective("session_wait_p50_us", wait_p50, Direction::LowerIsBetter)
}
