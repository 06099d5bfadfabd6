//! E6 — the paper's promised performance claim (§1.1/§5): weak semantics
//! buy latency.
//!
//! Compares two ways to enumerate a directory of files homed
//! round-robin over eight servers, each row a listing scenario
//! (`rows::listing`) judged by the fuzzer's driver:
//!
//! * `ls` (strict baseline) — one fetch at a time, all-or-nothing: the
//!   window-1 run read so that nothing shows before it completes, so its
//!   time-to-first-entry is its total.
//! * `dynls w=k` — the same Snapshot run with `k` fetches in flight:
//!   entries stream back as they arrive; the total is ≈ `n/k` round
//!   trips and the time-to-first ≈ one round trip.
//!
//! Expected shape: dynls wins total latency by roughly the window factor
//! and wins time-to-first by roughly a factor of `n`.

use super::rows::{base, judged, listing, run_ms};
use crate::report::Table;
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::{Link, Scenario};
use weakset_obs::{Direction, ObsSnapshot};

/// E6's directory sizes and one-way latencies.
const SWEEP: [(u64, u64); 4] = [(16, 5), (64, 5), (256, 5), (64, 20)];
/// E6b's file sizes, over 1 MB/s links.
const FILE_SIZES: [u64; 3] = [1_024, 16 * 1_024, 64 * 1_024];

/// One measurement.
struct Point {
    /// Files in the directory.
    n: u64,
    /// One-way latency in ms.
    latency_ms: u64,
    /// Strategy label.
    method: String,
    /// Simulated ms until the first entry was available.
    time_to_first: f64,
    /// Simulated ms until the listing completed.
    total: f64,
}

/// The row listing `n` files behind `one_way_ms` links with `window`.
pub(crate) fn row(n: u64, one_way_ms: u64, window: usize) -> Scenario {
    Scenario {
        link: Link::Constant { one_way_ms },
        ..listing(600, n, window)
    }
}

/// The row listing 32 files of `file_size` bytes over 1 MB/s links.
pub(crate) fn size_row(file_size: u64, window: usize) -> Scenario {
    Scenario {
        bandwidth: Some(1_000),
        file_size: Some(file_size),
        ..listing(610, 32, window)
    }
}

/// `ls` and `dynls w=1` read off one window-1 run, then one run per
/// wider window.
fn measure(windows: &[usize], row: impl Fn(usize) -> Scenario) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for &window in windows {
        let (first, total) = run_ms(&judged(&row(window)));
        if window == 1 {
            // All-or-nothing: nothing shows before the listing completes.
            out.push(("ls (strict)".to_string(), total, total));
        }
        out.push((format!("dynls w={window}"), first, total));
    }
    out
}

/// Runs the sweep.
fn points() -> Vec<Point> {
    SWEEP
        .into_iter()
        .flat_map(|(n, latency_ms)| {
            measure(&[1, 4, 16], |w| row(n, latency_ms, w))
                .into_iter()
                .map(move |(method, time_to_first, total)| Point {
                    n,
                    latency_ms,
                    method,
                    time_to_first,
                    total,
                })
        })
        .collect()
}

/// The file-size sweep: `(file size, method, total ms)`.
fn size_points() -> Vec<(u64, String, f64)> {
    FILE_SIZES
        .into_iter()
        .flat_map(|size| {
            measure(&[1, 8], |w| size_row(size, w))
                .into_iter()
                .filter(|(method, ..)| method != "dynls w=1")
                .map(move |(method, _, total)| (size, method, total))
        })
        .collect()
}

/// Formats the sweeps as the E6 tables.
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
            p.method,
            format!("{:.2}", p.time_to_first),
            format!("{:.2}", p.total),
        ]);
    }
    t.note("expected: dynls total ≈ ls/(window); dynls time-to-first ≈ one RTT regardless of n");

    let mut t2 = Table::new(
        "E6b: file-size sweep over 1 MB/s links (32 files)",
        &["file size (KB)", "method", "total (ms)"],
    );
    for (size, method, total) in size_points() {
        t2.row(&[(size / 1024).to_string(), method, format!("{total:.2}")]);
    }
    t2.note("expected: totals scale with transfer time; the prefetch window overlaps");
    t2.note("transfers so dynls keeps its advantage as files grow");
    vec![t, t2]
}

/// `BENCH_e6.json`: not a directory listing but the run under one — a
/// Snapshot row of 20 members over five servers at graded distances,
/// where closest-first fetch ordering keeps per-invocation latency down.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario {
        link: Link::SiteDistance {
            base_ms: 1,
            per_hop_ms: 8,
        },
        ..base(seed, 5, Semantics::Snapshot, 20)
    });
    let snap = snapshot_with_trace(&mut report.metrics, &report.events, "e6", seed);
    let p50 = snap
        .latencies
        .get("iter.fig4.invocation_us")
        .map_or(0.0, |s| s.p50_us as f64);
    with_yield_objective(snap).with_objective("invocation_p50_us", p50, Direction::LowerIsBetter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_dst::prelude::Chaos;

    #[test]
    #[should_panic(expected = "an experiment row violates its figure")]
    fn a_sabotaged_listing_is_refused() {
        judged(&Scenario {
            chaos: Chaos::PhantomYield,
            ..row(16, 5, 4)
        });
    }

    fn find<'a>(ps: &'a [Point], n: u64, l: u64, m: &str) -> &'a Point {
        ps.iter()
            .find(|p| p.n == n && p.latency_ms == l && p.method == m)
            .expect("point exists")
    }

    #[test]
    fn dynls_divides_the_total_by_the_window_and_answers_in_one_rtt() {
        let ps = points();
        for (n, l) in SWEEP {
            let ls = find(&ps, n, l, "ls (strict)");
            let rtt = 2.0 * l as f64;
            for w in [1u64, 4, 16] {
                let dynls = find(&ps, n, l, &format!("dynls w={w}"));
                // One round trip reads the membership, one fetches.
                assert_eq!(dynls.time_to_first, 2.0 * rtt, "n={n} w={w}");
                let rounds = n.div_ceil(w) as f64;
                assert_eq!(dynls.total, (1.0 + rounds) * rtt, "n={n} w={w}");
            }
            assert_eq!(ls.time_to_first, ls.total, "n={n}");
            assert_eq!(ls.total, (1.0 + n as f64) * rtt, "n={n}");
        }
        // The 20 ms links take four times the 5 ms links' time.
        for m in ["ls (strict)", "dynls w=1", "dynls w=4", "dynls w=16"] {
            let (slow, fast) = (find(&ps, 64, 20, m), find(&ps, 64, 5, m));
            assert_eq!(slow.total, 4.0 * fast.total, "{m}");
        }
    }

    #[test]
    fn a_window_of_8_beats_ls_at_every_file_size() {
        let ps = size_points();
        let total = |size, m: &str| {
            let p = ps.iter().find(|(s, method, _)| *s == size && method == m);
            p.expect("point exists").2
        };
        for size in FILE_SIZES {
            let speedup = total(size, "ls (strict)") / total(size, "dynls w=8");
            assert!(speedup > 4.0, "size={size}: speedup {speedup}");
        }
        // Strict ls pays every transfer serially: 64x the bytes is much
        // slower, though the 10 ms round trip per fetch damps the ratio.
        assert!(total(65_536, "ls (strict)") > 5.0 * total(1_024, "ls (strict)"));
    }
}
