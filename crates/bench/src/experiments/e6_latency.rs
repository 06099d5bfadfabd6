//! E6 — the paper's promised performance claim (§1.1/§5): weak semantics
//! buy latency.
//!
//! Compares directory enumeration strategies over the simulated
//! distributed file system:
//!
//! * `ls` (strict baseline) — sequential, all-or-nothing, alphabetical:
//!   time-to-first-entry equals total time.
//! * `dynls w=k` — dynamic-set listing with a prefetch window of `k`:
//!   entries stream back as they arrive; total wall time ≈ `n/k` round
//!   trips and time-to-first ≈ one round trip.
//!
//! Expected shape: dynls wins total latency by roughly the window factor
//! and wins time-to-first by roughly a factor of `n`.
//!
//! E6c prices the writes under the listings: building a directory whose
//! membership is replicated on two more volumes, over 1 MB/s links. Each
//! new file's entry reaches the replicas as one step, so a sync's bytes
//! do not grow with the directory.

use crate::report::{ms, Table};
use crate::scenarios::{populated_set, store_fleet, wan_with_model, Wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective, world_events};
use weakset::prelude::Semantics;
use weakset_fs::prelude::*;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_sim::latency::LatencyModel;
use weakset_sim::time::SimDuration;
use weakset_store::prelude::{StoreMsg, StoreWorld};

const N_VOLUMES: usize = 8;

fn fs_world_sized(
    seed: u64,
    one_way_ms: u64,
    n_files: usize,
    file_size: usize,
    bandwidth_bytes_per_ms: Option<u64>,
) -> (StoreWorld, FileSystem) {
    let one_way = SimDuration::from_millis(one_way_ms);
    let Wan {
        mut world,
        client_node,
        servers: vols,
    } = store_fleet(seed, N_VOLUMES, LatencyModel::Constant(one_way));
    if let Some(bpm) = bandwidth_bytes_per_ms {
        world.set_bandwidth(bpm, weakset_store::msg::StoreMsg::wire_size);
    }
    let timeout = SimDuration::from_millis(2_000);
    let mut fs =
        FileSystem::format(&mut world, client_node, vols[0], timeout).expect("healthy world");
    flat_dir(
        &mut world,
        &mut fs,
        &FsPath::root(),
        n_files,
        file_size,
        &vols,
    )
    .expect("healthy world");
    (world, fs)
}

fn fs_world(seed: u64, one_way_ms: u64, n_files: usize) -> (StoreWorld, FileSystem) {
    fs_world_sized(seed, one_way_ms, n_files, 64, None)
}

/// One measurement.
pub struct Point {
    /// Files in the directory.
    pub n: usize,
    /// One-way WAN latency in ms.
    pub latency_ms: u64,
    /// Strategy label.
    pub method: &'static str,
    /// Simulated time until the first entry was available.
    pub time_to_first: SimDuration,
    /// Simulated time until the listing completed.
    pub total: SimDuration,
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for &(n, latency_ms) in &[(16usize, 5u64), (64, 5), (256, 5), (64, 20)] {
        // Strict ls.
        {
            let (mut w, fs) = fs_world(600, latency_ms, n);
            let start = w.now();
            let listing = fs.ls(&mut w, &FsPath::root()).expect("healthy world");
            assert_eq!(listing.len(), n);
            let total = w.now().saturating_since(start);
            out.push(Point {
                n,
                latency_ms,
                method: "ls (strict)",
                time_to_first: total,
                total,
            });
        }
        // dynls with window sweep.
        for &window in &[1usize, 4, 16] {
            let (mut w, fs) = fs_world(601, latency_ms, n);
            let start = w.now();
            let mut listing = fs
                .dynls(&mut w, &FsPath::root(), window)
                .expect("healthy world");
            let mut first: Option<SimDuration> = None;
            let mut count = 0;
            loop {
                match listing.next(&mut w) {
                    DynLsStep::Entry(_) => {
                        count += 1;
                        first.get_or_insert_with(|| w.now().saturating_since(start));
                    }
                    DynLsStep::Complete => break,
                    DynLsStep::Partial { .. } => panic!("healthy world cannot be partial"),
                }
            }
            assert_eq!(count, n);
            let method: &'static str = match window {
                1 => "dynls w=1",
                4 => "dynls w=4",
                16 => "dynls w=16",
                _ => unreachable!(),
            };
            out.push(Point {
                n,
                latency_ms,
                method,
                time_to_first: first.expect("at least one entry"),
                total: w.now().saturating_since(start),
            });
        }
    }
    out
}

/// One file-size measurement under finite bandwidth.
pub struct SizePoint {
    /// Payload bytes per file.
    pub file_size: usize,
    /// Strategy label.
    pub method: &'static str,
    /// Simulated completion time.
    pub total: SimDuration,
}

/// File-size sweep over 1 MB/s links: transfer time dominates as files
/// grow; parallel prefetching overlaps the transfers.
fn size_points() -> Vec<SizePoint> {
    let mut out = Vec::new();
    const N: usize = 32;
    const BPM: u64 = 1_000; // 1 MB/s
    for &file_size in &[1_024usize, 16 * 1_024, 64 * 1_024] {
        {
            let (mut w, fs) = fs_world_sized(610, 5, N, file_size, Some(BPM));
            let start = w.now();
            let listing = fs.ls(&mut w, &FsPath::root()).expect("healthy world");
            assert_eq!(listing.len(), N);
            out.push(SizePoint {
                file_size,
                method: "ls (strict)",
                total: w.now().saturating_since(start),
            });
        }
        {
            let (mut w, fs) = fs_world_sized(611, 5, N, file_size, Some(BPM));
            let start = w.now();
            let mut listing = fs.dynls(&mut w, &FsPath::root(), 8).expect("healthy world");
            let (entries, end) = listing.drain_available(&mut w);
            assert_eq!(end, DynLsStep::Complete);
            assert_eq!(entries.len(), N);
            out.push(SizePoint {
                file_size,
                method: "dynls w=8",
                total: w.now().saturating_since(start),
            });
        }
    }
    out
}

/// One replicated-directory build under finite bandwidth.
pub struct BuildPoint {
    /// Files created.
    pub n: usize,
    /// Simulated time to create them all.
    pub total: SimDuration,
    /// Replica syncs sent.
    pub syncs: usize,
    /// Wire bytes of those syncs.
    pub sync_bytes: usize,
}

/// Creates `n` 64-byte files in a directory replicated on two more
/// volumes, over 1 MB/s links, for each `n`.
fn build_points() -> Vec<BuildPoint> {
    use std::cell::Cell;
    use std::rc::Rc;
    [16usize, 64, 256]
        .into_iter()
        .map(|n| {
            let Wan {
                mut world,
                client_node,
                servers: vols,
            } = store_fleet(
                612,
                N_VOLUMES,
                LatencyModel::Constant(SimDuration::from_millis(5)),
            );
            // (syncs, their bytes), noted as the bandwidth model sizes
            // each message.
            let sent = Rc::new(Cell::new((0, 0)));
            let noted = Rc::clone(&sent);
            world.set_bandwidth(1_000, move |msg: &StoreMsg| {
                let bytes = msg.wire_size();
                if let StoreMsg::SyncMembers { .. } = msg {
                    let (syncs, total) = noted.get();
                    noted.set((syncs + 1, total + bytes));
                }
                bytes
            });
            let timeout = SimDuration::from_millis(2_000);
            let mut fs = FileSystem::format(&mut world, client_node, vols[0], timeout)
                .expect("healthy world")
                .with_dir_replicas(vec![vols[1], vols[2]]);
            let dir = FsPath::parse("/shared").expect("a valid path");
            fs.mkdir(&mut world, &dir, vols[0]).expect("healthy world");
            let start = world.now();
            flat_dir(&mut world, &mut fs, &dir, n, 64, &vols).expect("healthy world");
            let (syncs, sync_bytes) = sent.get();
            BuildPoint {
                n,
                total: world.now().saturating_since(start),
                syncs,
                sync_bytes,
            }
        })
        .collect()
}

/// Formats the sweep as the E6 table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E6: directory enumeration latency — strict ls vs dynamic-set ls",
        &[
            "files",
            "one-way (ms)",
            "method",
            "time-to-first (ms)",
            "total (ms)",
        ],
    );
    for p in points() {
        t.row(&[
            p.n.to_string(),
            p.latency_ms.to_string(),
            p.method.to_string(),
            ms(p.time_to_first),
            ms(p.total),
        ]);
    }
    t.note("expected: dynls total ≈ ls/(window); dynls time-to-first ≈ one RTT regardless of n");

    let mut t2 = Table::new(
        "E6b: file-size sweep over 1 MB/s links (32 files)",
        &["file size (KB)", "method", "total (ms)"],
    );
    for p in size_points() {
        t2.row(&[
            (p.file_size / 1024).to_string(),
            p.method.to_string(),
            ms(p.total),
        ]);
    }
    t2.note("expected: totals scale with transfer time; the prefetch window overlaps");
    t2.note("transfers so dynls keeps its advantage as files grow");

    let mut t3 = Table::new(
        "E6c: building a directory replicated on 2 more volumes, over 1 MB/s links",
        &["files", "total (ms)", "replica syncs", "bytes per sync"],
    );
    for p in build_points() {
        t3.row(&[
            p.n.to_string(),
            ms(p.total),
            p.syncs.to_string(),
            format!("{:.1}", p.sync_bytes as f64 / p.syncs.max(1) as f64),
        ]);
    }
    t3.note("expected: each file's entry reaches a replica as one step, so bytes per");
    t3.note("sync stay flat and the build time grows linearly in the files");
    vec![t, t2, t3]
}

/// `BENCH_e6.json`: not a directory listing but the layer under it — one
/// snapshot iteration of 20 elements over a distance-graded WAN, where
/// closest-first fetch ordering keeps per-invocation latency down.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan_with_model(
        seed,
        5,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(1),
            per_hop: SimDuration::from_millis(8),
        },
    );
    let set = populated_set(&mut w, 20, SimDuration::from_millis(400));
    let mut it = set.elements(Semantics::Snapshot);
    it.drain(&mut w.world, 3, SimDuration::from_millis(10));
    let events = world_events(&mut w.world);
    let snap = snapshot_with_trace(w.world.metrics_mut(), &events, "e6", seed);
    let p50 = snap
        .latencies
        .get("iter.fig4.invocation_us")
        .map_or(0.0, |s| s.p50_us as f64);
    with_yield_objective(snap).with_objective("invocation_p50_us", p50, Direction::LowerIsBetter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(ps: &'a [Point], n: usize, l: u64, m: &str) -> &'a Point {
        ps.iter()
            .find(|p| p.n == n && p.latency_ms == l && p.method == m)
            .expect("point exists")
    }

    #[test]
    fn dynls_total_beats_ls_by_roughly_the_window() {
        let ps = points();
        let ls = find(&ps, 256, 5, "ls (strict)");
        let w16 = find(&ps, 256, 5, "dynls w=16");
        let speedup = ls.total.as_micros() as f64 / w16.total.as_micros() as f64;
        assert!(speedup > 8.0, "speedup = {speedup}");
    }

    #[test]
    fn dynls_time_to_first_is_one_rtt_scale() {
        let ps = points();
        let w16 = find(&ps, 256, 5, "dynls w=16");
        // Open (membership RTT, 10ms) + first fetch (RTT, 10ms).
        assert!(
            w16.time_to_first <= SimDuration::from_millis(25),
            "{}",
            w16.time_to_first
        );
        let ls = find(&ps, 256, 5, "ls (strict)");
        let ratio = ls.time_to_first.as_micros() as f64 / w16.time_to_first.as_micros() as f64;
        assert!(ratio > 100.0, "time-to-first ratio = {ratio}");
    }

    #[test]
    fn serial_dynls_matches_ls_shape() {
        // Window 1 has no parallelism: totals are comparable (same RPC
        // count, unordered vs sorted makes no latency difference here).
        let ps = points();
        let ls = find(&ps, 64, 5, "ls (strict)");
        let w1 = find(&ps, 64, 5, "dynls w=1");
        let ratio = w1.total.as_micros() as f64 / ls.total.as_micros() as f64;
        assert!((0.5..=1.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn a_replica_sync_costs_the_same_bytes_in_any_directory() {
        let ps = build_points();
        let per_sync = |p: &BuildPoint| p.sync_bytes as f64 / p.syncs as f64;
        for p in &ps {
            assert_eq!(p.syncs, 2 * p.n, "one step per file per replica");
            assert_eq!(per_sync(p), per_sync(&ps[0]), "{} files", p.n);
        }
        // Linear in the files: 16x the files, at most 17x the time.
        let (small, large) = (&ps[0], &ps[2]);
        assert!(large.total.as_micros() <= 17 * small.total.as_micros());
    }

    #[test]
    fn size_sweep_shapes_hold() {
        let ps = size_points();
        let ls_1k = ps
            .iter()
            .find(|p| p.file_size == 1_024 && p.method == "ls (strict)")
            .unwrap();
        let ls_64k = ps
            .iter()
            .find(|p| p.file_size == 65_536 && p.method == "ls (strict)")
            .unwrap();
        // Strict ls pays every transfer serially: 64x the bytes is much
        // slower. The 10ms-per-fetch latency floor dampens the ratio
        // (1KB ≈ 11ms/fetch, 64KB ≈ 76ms/fetch → ~6.8x).
        assert!(
            ls_64k.total.as_micros() > ls_1k.total.as_micros() * 5,
            "{} vs {}",
            ls_64k.total,
            ls_1k.total
        );
        for &size in &[1_024usize, 16_384, 65_536] {
            let ls = ps
                .iter()
                .find(|p| p.file_size == size && p.method == "ls (strict)")
                .unwrap();
            let dy = ps
                .iter()
                .find(|p| p.file_size == size && p.method == "dynls w=8")
                .unwrap();
            let speedup = ls.total.as_micros() as f64 / dy.total.as_micros() as f64;
            assert!(speedup > 4.0, "size={size}: speedup {speedup}");
        }
    }

    #[test]
    fn latency_scales_everything_linearly() {
        let ps = points();
        let a = find(&ps, 64, 5, "ls (strict)");
        let b = find(&ps, 64, 20, "ls (strict)");
        let ratio = b.total.as_micros() as f64 / a.total.as_micros() as f64;
        assert!((3.0..=5.0).contains(&ratio), "ratio = {ratio}");
    }
}
