//! Frozen, machine-readable benchmark snapshots.
//!
//! An [`ObsSnapshot`] is what `weakset-bench`'s `experiments snapshot`
//! writes to `BENCH_<scenario>.json`; CI regenerates the checked-in
//! baselines and fails on any byte of difference. Serialization is
//! canonical (sorted keys, integer microseconds, fixed-precision
//! objective values), so two runs with the same seed produce
//! byte-identical files.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::latency::LatencySummary;

/// Whether a smaller or larger objective value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, bytes on the wire, retries).
    LowerIsBetter,
    /// Larger is better (throughput, cache hits, yields).
    HigherIsBetter,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
        }
    }
}

/// A named performance objective: the headline numbers a PR that moves
/// a baseline quotes old → new (every byte of the file is gated; these
/// are the ones with a direction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objective {
    /// The measured value.
    pub value: f64,
    /// Which way improvement points.
    pub direction: Direction,
}

/// A frozen, serializable view of one scenario's metrics plus named
/// perf objectives.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsSnapshot {
    /// Scenario id (`"e1"`..`"e12"`, `"fuzz"`).
    pub scenario: String,
    /// The seed that produced this run.
    pub seed: u64,
    /// Schema version; bumped when the JSON layout changes.
    pub schema_version: u32,
    /// All counters at end of run.
    pub counters: BTreeMap<String, u64>,
    /// All gauges (high-water marks) at end of run.
    pub gauges: BTreeMap<String, u64>,
    /// Latency summaries, in microseconds.
    pub latencies: BTreeMap<String, LatencySummary>,
    /// The gated headline numbers.
    pub objectives: BTreeMap<String, Objective>,
}

impl ObsSnapshot {
    /// Current snapshot schema version.
    pub const SCHEMA_VERSION: u32 = 1;

    /// Attaches (or replaces) a named objective; builder-style.
    pub fn with_objective(mut self, name: &str, value: f64, direction: Direction) -> Self {
        self.objectives
            .insert(name.to_string(), Objective { value, direction });
        self
    }

    /// The canonical file name for this snapshot:
    /// `BENCH_<scenario>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario)
    }

    /// Renders as canonical pretty JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::u64(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::u64(*v)))
                .collect(),
        );
        let latencies = Json::Obj(
            self.latencies
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::u64(s.count)),
                            ("min_us".into(), Json::u64(s.min_us)),
                            ("p50_us".into(), Json::u64(s.p50_us)),
                            ("p99_us".into(), Json::u64(s.p99_us)),
                            ("max_us".into(), Json::u64(s.max_us)),
                            ("mean_us".into(), Json::u64(s.mean_us)),
                        ]),
                    )
                })
                .collect(),
        );
        let objectives = Json::Obj(
            self.objectives
                .iter()
                .map(|(k, o)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(o.value)),
                            ("direction".into(), Json::Str(o.direction.as_str().into())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("seed".into(), Json::u64(self.seed)),
            (
                "schema_version".into(),
                Json::u64(self.schema_version as u64),
            ),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("latencies".into(), latencies),
            ("objectives".into(), objectives),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample() -> ObsSnapshot {
        let mut m = MetricsRegistry::new();
        m.add("rpc.sent", 12);
        m.add("rpc.ok", 11);
        m.gauge_max("sim.queue.depth.max", 9);
        for us in [100, 250, 900] {
            m.observe("rpc.latency", us);
        }
        m.snapshot("e1", 42)
            .with_objective("p50_rpc_us", 250.0, Direction::LowerIsBetter)
            .with_objective("yield_rate", 0.9167, Direction::HigherIsBetter)
    }

    #[test]
    fn json_is_canonical() {
        let json = sample().to_json();
        assert_eq!(Json::parse(&json).unwrap().to_pretty(), json);
    }

    #[test]
    fn same_registry_serializes_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn file_name_embeds_scenario() {
        assert_eq!(sample().file_name(), "BENCH_e1.json");
    }

    #[test]
    fn empty_snapshot_is_canonical() {
        let json = MetricsRegistry::new().snapshot("empty", 0).to_json();
        assert_eq!(Json::parse(&json).unwrap().to_pretty(), json);
    }
}
