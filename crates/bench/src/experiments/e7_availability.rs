//! E7 — the availability claim (§1.1): partial results despite failures.
//!
//! Under a partition, the strict `ls` collapses (all-or-nothing) while
//! the dynamic-set listing returns everything reachable and resumes after
//! repair. Includes the paper's signature mobile scenario: a laptop that
//! disconnects mid-listing keeps what it has and finishes after
//! reconnecting.

use crate::report::{pct, Table};
use crate::scenarios::{replicated, store_fleet, wan, Wan};
use crate::snapshot::{snapshot_with_trace, sum_suffix, with_common_objectives, world_events};
use weakset::prelude::WeakSet;
use weakset_fs::prelude::*;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_sim::latency::LatencyModel;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{ReadPolicy, StoreClient, StoreWorld};

const N_FILES: usize = 64;
const N_VOLUMES: usize = 8;

fn fs_world(seed: u64) -> (StoreWorld, FileSystem, Vec<NodeId>, NodeId) {
    let Wan {
        mut world,
        client_node: client,
        servers: vols,
    } = store_fleet(
        seed,
        N_VOLUMES,
        LatencyModel::Constant(SimDuration::from_millis(5)),
    );
    let mut fs = FileSystem::format(&mut world, client, vols[0], SimDuration::from_millis(300))
        .expect("healthy world");
    flat_dir(&mut world, &mut fs, &FsPath::root(), N_FILES, 64, &vols).expect("healthy world");
    (world, fs, vols, client)
}

/// One partition-sweep point.
pub struct Point {
    /// Volumes partitioned away (of 8; never the membership home).
    pub cut: usize,
    /// Whether strict `ls` succeeded.
    pub ls_ok: bool,
    /// Entries strict `ls` returned (0 on failure — it is
    /// all-or-nothing).
    pub ls_entries: usize,
    /// Entries `dynls` listed immediately.
    pub dynls_entries: usize,
    /// Entries `dynls` reported pending (unreachable).
    pub dynls_pending: usize,
}

/// Runs the partition sweep.
pub fn points() -> Vec<Point> {
    [0usize, 2, 4, 6]
        .into_iter()
        .map(|cut| {
            let (mut w, fs, vols, _client) = fs_world(700 + cut as u64);
            if cut > 0 {
                let side: Vec<_> = vols[N_VOLUMES - cut..].to_vec();
                w.topology_mut().partition(&side);
            }
            let (ls_ok, ls_entries) = match fs.ls(&mut w, &FsPath::root()) {
                Ok(entries) => (true, entries.len()),
                Err(_) => (false, 0),
            };
            let mut listing = fs
                .dynls(&mut w, &FsPath::root(), 8)
                .expect("membership home reachable");
            let (entries, end) = listing.drain_available(&mut w);
            let pending = match end {
                DynLsStep::Complete => 0,
                DynLsStep::Partial { unreachable } => unreachable,
                DynLsStep::Entry(_) => unreachable!(),
            };
            Point {
                cut,
                ls_ok,
                ls_entries,
                dynls_entries: entries.len(),
                dynls_pending: pending,
            }
        })
        .collect()
}

/// Result of the mobile-disconnection scenario.
pub struct MobileOutcome {
    /// Entries fetched before the laptop disconnected.
    pub before: usize,
    /// Entries that arrived while disconnected (must be 0).
    pub while_disconnected: usize,
    /// Entries fetched after reconnection.
    pub after: usize,
}

/// Runs the mobile scenario: disconnect after ~a third of the listing,
/// reconnect later, finish.
fn mobile() -> MobileOutcome {
    let (mut w, fs, _vols, client) = fs_world(710);
    let mut mc = MobileClient::new(client);
    let mut listing = fs
        .dynls(&mut w, &FsPath::root(), 4)
        .expect("connected at open");
    let mut before = 0;
    for _ in 0..N_FILES / 3 {
        match listing.next(&mut w) {
            DynLsStep::Entry(_) => before += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    mc.disconnect(&mut w);
    let (got, _end) = listing.drain_available(&mut w);
    let while_disconnected = got.len();
    mc.reconnect(&mut w);
    listing.retry();
    let mut after = 0;
    loop {
        match listing.next(&mut w) {
            DynLsStep::Entry(_) => after += 1,
            DynLsStep::Complete => break,
            DynLsStep::Partial { .. } => {
                listing.retry();
            }
        }
    }
    MobileOutcome {
        before,
        while_disconnected,
        after,
    }
}

/// Formats the sweep + mobile scenario as the E7 tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E7a: availability under partition — strict ls vs dynls",
        &[
            "volumes cut (of 8)",
            "ls outcome",
            "ls entries",
            "dynls listed",
            "dynls pending",
            "dynls availability",
        ],
    );
    for p in points() {
        t.row(&[
            p.cut.to_string(),
            if p.ls_ok { "ok" } else { "FAILED" }.to_string(),
            p.ls_entries.to_string(),
            p.dynls_entries.to_string(),
            p.dynls_pending.to_string(),
            pct(p.dynls_entries, N_FILES),
        ]);
    }
    t.note("expected: ls is all-or-nothing (fails at any cut); dynls lists the reachable");
    t.note("fraction ≈ (8-cut)/8 and reports the rest pending");

    let m = mobile();
    let mut t2 = Table::new(
        "E7b: mobile client disconnects mid-listing, reconnects, finishes",
        &["phase", "entries fetched"],
    );
    t2.row(&["before disconnect".to_string(), m.before.to_string()]);
    t2.row(&[
        "while disconnected".to_string(),
        m.while_disconnected.to_string(),
    ]);
    t2.row(&["after reconnect".to_string(), m.after.to_string()]);
    t2.note("expected: at most the already-in-flight window drains after disconnect;");
    t2.note("the listing completes after reconnection, nothing lost or duplicated");
    vec![t, t2]
}

/// `BENCH_e7.json`: the same availability question one layer down —
/// membership reads under four policies against a three-replica
/// collection whose primary is partitioned away.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, SimDuration::from_millis(5));
    let client = StoreClient::new(w.client_node, SimDuration::from_millis(100));
    let cref = replicated(&w.servers);
    client
        .create_collection(&mut w.world, &cref)
        .expect("healthy world at setup");
    let set = WeakSet::new(client.clone(), cref.clone());
    for i in 0..9u64 {
        set.add(
            &mut w.world,
            ObjectRecord::new(ObjectId(i + 1), format!("obj-{i}"), vec![b'x'; 64]),
            w.servers[(i % 3) as usize],
        )
        .expect("healthy world at setup");
    }
    // Partition the primary away; quorum and leaderless keep answering.
    w.world.topology_mut().partition(&[cref.home]);
    for _ in 0..4 {
        for policy in [
            ReadPolicy::Primary,
            ReadPolicy::Any,
            ReadPolicy::Quorum,
            ReadPolicy::Leaderless,
        ] {
            let _ = client.read_members(&mut w.world, &cref, policy);
        }
    }
    w.world.topology_mut().heal_partition();
    let events = world_events(&mut w.world);
    let snap = snapshot_with_trace(w.world.metrics_mut(), &events, "e7", seed);
    let ok = sum_suffix(&snap, ".ok");
    with_common_objectives(snap).with_objective("reads_ok", ok, Direction::HigherIsBetter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_is_all_or_nothing() {
        for p in points() {
            if p.cut == 0 {
                assert!(p.ls_ok);
                assert_eq!(p.ls_entries, N_FILES);
            } else {
                assert!(!p.ls_ok, "cut={}", p.cut);
                assert_eq!(p.ls_entries, 0);
            }
        }
    }

    #[test]
    fn dynls_availability_tracks_reachable_fraction() {
        for p in points() {
            let expected = N_FILES * (N_VOLUMES - p.cut) / N_VOLUMES;
            assert_eq!(p.dynls_entries, expected, "cut={}", p.cut);
            assert_eq!(p.dynls_pending, N_FILES - expected);
        }
    }

    #[test]
    fn mobile_listing_survives_disconnection() {
        let m = mobile();
        assert!(m.before > 0);
        // Replies already in flight when the link dropped may still
        // drain, but nothing beyond the window of 4 can.
        assert!(m.while_disconnected <= 4, "{}", m.while_disconnected);
        assert_eq!(m.before + m.while_disconnected + m.after, N_FILES);
        assert!(m.after > 0);
    }
}
