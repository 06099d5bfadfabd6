//! Run metrics, re-exported from the workspace-wide observability
//! layer.
//!
//! The original ad-hoc counter/latency implementation that lived here
//! was absorbed into [`weakset_obs`] and generalized (gauges, merge,
//! snapshots, a single de-duplicated sort guard in
//! [`LatencyRecorder`]). The simulator keeps this module as the
//! canonical import path — `World` still owns a [`Metrics`] per run —
//! and all latencies are recorded in integer microseconds
//! (`SimDuration::as_micros`), the simulator's native resolution.

pub use weakset_obs::{
    chrome_trace, critical_path, critical_path_of, CausalDag, CriticalPath, Direction, EventSink,
    Label, LatencyRecorder, LatencySummary, Objective, ObsEvent, ObsKind, ObsSnapshot,
    PathCategory, SpanId, SpanNode, TraceContext, TraceId,
};

/// Named counters, gauges, and latency recorders for a run.
///
/// An alias for [`weakset_obs::MetricsRegistry`]; see its docs for the
/// full API. Latency observations are plain `u64` microseconds — use
/// `SimDuration::as_micros()` at the call site.
pub type Metrics = weakset_obs::MetricsRegistry;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("rpc");
        m.add("rpc", 2);
        assert_eq!(m.counter("rpc"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn sim_durations_observe_as_micros() {
        let mut m = Metrics::new();
        m.observe("fetch", SimDuration::from_millis(2).as_micros());
        assert_eq!(m.latency_mut("fetch").p50(), Some(2_000));
        assert_eq!(m.latency("fetch").map(LatencyRecorder::len), Some(1));
        assert!(m.latency("other").is_none());
    }

    #[test]
    fn quantiles_match_previous_nearest_rank_behaviour() {
        let mut r = LatencyRecorder::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.record(us);
        }
        assert_eq!(r.p50(), Some(50));
        assert_eq!(r.quantile(0.0), Some(10));
        assert_eq!(r.quantile(1.0), Some(100));
    }
}
