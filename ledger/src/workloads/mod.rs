//! The four workloads, their sizes, and the seeded input generator they
//! share. The seed drives member ids, homes, payload bytes, write
//! victims and the dst corpus; the code under test sees only those
//! inputs, never the seed or the workload's name.

pub mod dst;
pub mod rt;

use crate::harness::Workload;
use crate::trace::SpanStore;
use std::sync::Arc;

/// Full size (what the catalogue describes) or a seconds-long smoke size
/// for the unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The catalogued sizes.
    Full,
    /// Few members, few ops: shape checks only.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Timed windows a workload runs in `run_seconds` seconds: 200 windows
/// of ~0.1 s where an op is tens of microseconds, 150 of ~0.13 s where
/// it is hundreds (so that a window still has 30 ops beyond its p90).
pub fn windows_per_run(name: &str) -> usize {
    match name {
        "rt-read-fanout" | "rt-mixed-rw" => 200,
        _ => 150,
    }
}

/// Builds a workload by name. `store` switches the tracing decorators
/// in (traced runs only).
pub fn build(
    name: &str,
    seed: u64,
    size: Size,
    store: Option<Arc<SpanStore>>,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "rt-read-fanout" => Box::new(rt::RtWorkload::read_fanout(seed, size, store)),
        "rt-read-large" => Box::new(rt::RtWorkload::read_large(seed, size, store)),
        "rt-mixed-rw" => Box::new(rt::RtWorkload::mixed_rw(seed, size, store)),
        "sim-dst" => Box::new(dst::DstWorkload::new(seed, size, store)),
        _ => return None,
    })
}

/// splitmix64: the ledger's only source of pseudo-randomness.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }
}

/// The splitmix64 finalizer: a stateless hash of `z`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{self, END_TO_END, PER_LAYER, WORKLOADS};
    use crate::harness::{run_end_to_end, run_traced};
    use crate::stats;

    const WINDOWS: usize = 4;

    /// On-path metrics that may still read 0: a count that is 0 when
    /// every scanned seed conforms, a share clamped at 0, a ratio minus
    /// one, and an RSS delta that a smoke run's few dozen 16-member
    /// writes do not move by a page.
    const MAY_BE_ZERO: [&str; 4] = [
        "dst.corpus.skipped",
        "trace.unattributed_share",
        "trace.overhead_share",
        "store_collection.log_kb_per_write",
    ];

    #[test]
    fn every_catalogued_workload_builds_and_nothing_else() {
        for w in WORKLOADS {
            assert!(build(w.name, 1, Size::Smoke, None).is_some(), "{}", w.name);
            assert!(windows_per_run(w.name) >= 150, "{}", w.name);
        }
        assert!(build("no-such-workload", 1, Size::Smoke, None).is_none());
    }

    #[test]
    fn full_size_windows_support_p90() {
        for w in WORKLOADS {
            let built = build(w.name, 1, Size::Full, None).unwrap();
            assert!(
                stats::percentile_supported(built.ops_per_window(), 0.9),
                "{}: {} ops per window",
                w.name,
                built.ops_per_window()
            );
        }
    }

    /// The printed metrics and the catalogue agree, both ways, on every
    /// workload: an untraced run prints exactly the end-to-end metrics,
    /// a traced run exactly the per-layer ones — measured (non-zero)
    /// where the catalogue puts the layer on the workload's path, 0
    /// where it does not.
    #[test]
    fn printed_metrics_are_exactly_the_catalogue() {
        // As `prepare_process` does: the client-side allocation rows
        // count what this thread requests.
        crate::alloc::mark_driver_thread();
        for w in WORKLOADS {
            let mut untraced = build(w.name, 7, Size::Smoke, None).unwrap();
            let report = run_end_to_end(untraced.as_mut(), WINDOWS);
            let printed: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            let wanted: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(printed, wanted, "{} untraced", w.name);
            assert_eq!(report.failed, 0, "{} untraced", w.name);
            for m in END_TO_END {
                assert!(
                    report.get(m.name).unwrap() > 0.0,
                    "{} {} is 0",
                    w.name,
                    m.name
                );
            }

            let store = SpanStore::new();
            let mut traced = build(w.name, 7, Size::Smoke, Some(store.clone())).unwrap();
            let (report, spans) = run_traced(w.name, traced.as_mut(), WINDOWS, &store);
            let printed: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            let wanted: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(printed, wanted, "{} traced", w.name);
            assert_eq!(report.failed, 0, "{} traced", w.name);
            assert!(!spans.is_empty(), "{} recorded no spans", w.name);
            for m in PER_LAYER {
                let value = report.get(m.name).unwrap();
                if !m.on.contains(&w.name) {
                    assert_eq!(value, 0.0, "{} {} is off the path", w.name, m.name);
                } else if !MAY_BE_ZERO.contains(&m.name) {
                    assert!(value != 0.0, "{} {} was not measured", w.name, m.name);
                }
            }
            for line in report.render().lines() {
                let name = line.split(' ').next().unwrap();
                assert!(
                    catalogue::unit_of(name).is_some() || name.starts_with("ops."),
                    "{name} printed but not catalogued"
                );
            }
        }
    }

    /// Same seed, same message counts and op tally; the timings are
    /// free to move. (Allocation counts repeat too, but only when nothing
    /// else allocates in the process — which a parallel test run cannot
    /// promise; the A/A table in the README covers them.)
    #[test]
    fn exact_counts_repeat() {
        for w in WORKLOADS {
            let run = |seed| {
                let mut built = build(w.name, seed, Size::Smoke, None).unwrap();
                let r = run_end_to_end(built.as_mut(), WINDOWS);
                assert!(r.get("allocs_per_op").unwrap() > 0.0);
                (r.get("msgs_per_op").unwrap(), r.attempted)
            };
            assert_eq!(run(11), run(11), "{}", w.name);
        }
    }
}
