//! Frozen, machine-readable benchmark snapshots.
//!
//! An [`ObsSnapshot`] is what `weakset-bench`'s `experiments snapshot`
//! writes to `BENCH_<scenario>.json`; CI regenerates the checked-in
//! baselines and fails on any byte of difference. Serialization is
//! canonical (sorted keys, integer microseconds, fixed-precision
//! objective values), so two runs with the same seed produce
//! byte-identical files.

use std::collections::BTreeMap;
use std::fmt;

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

    fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower_is_better" => Some(Direction::LowerIsBetter),
            "higher_is_better" => Some(Direction::HigherIsBetter),
            _ => None,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
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

    /// Parses a snapshot previously produced by [`ObsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// A descriptive message on malformed JSON, a missing field, or an
    /// unknown schema version.
    pub fn from_json(input: &str) -> Result<ObsSnapshot, String> {
        let root = Json::parse(input)?;
        let scenario = root
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("missing field: scenario")?
            .to_string();
        let seed = root
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing field: seed")?;
        let schema_version = root
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing field: schema_version")?;
        let schema_version = u32::try_from(schema_version)
            .map_err(|_| format!("schema_version {schema_version} out of range for u32"))?;
        if schema_version != Self::SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {schema_version} (expected {})",
                Self::SCHEMA_VERSION
            ));
        }
        let counters = u64_map(&root, "counters")?;
        let gauges = u64_map(&root, "gauges")?;

        let mut latencies = BTreeMap::new();
        for (name, value) in obj_fields(&root, "latencies")? {
            let field = |f: &str| -> Result<u64, String> {
                value
                    .get(f)
                    .and_then(Json::as_u64)
                    .ok_or(format!("latency {name:?}: missing field {f}"))
            };
            latencies.insert(
                name.clone(),
                LatencySummary {
                    count: field("count")?,
                    min_us: field("min_us")?,
                    p50_us: field("p50_us")?,
                    p99_us: field("p99_us")?,
                    max_us: field("max_us")?,
                    mean_us: field("mean_us")?,
                },
            );
        }

        let mut objectives = BTreeMap::new();
        for (name, value) in obj_fields(&root, "objectives")? {
            let raw = value
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("objective {name:?}: missing value"))?;
            let direction = value
                .get("direction")
                .and_then(Json::as_str)
                .and_then(Direction::parse)
                .ok_or(format!("objective {name:?}: bad direction"))?;
            objectives.insert(
                name.clone(),
                Objective {
                    value: raw,
                    direction,
                },
            );
        }

        Ok(ObsSnapshot {
            scenario,
            seed,
            schema_version,
            counters,
            gauges,
            latencies,
            objectives,
        })
    }
}

fn obj_fields<'a>(root: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    root.get(key)
        .and_then(Json::fields)
        .ok_or(format!("missing object field: {key}"))
}

fn u64_map(root: &Json, key: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (name, value) in obj_fields(root, key)? {
        let v = value
            .as_u64()
            .ok_or(format!("{key}.{name}: expected unsigned integer"))?;
        out.insert(name.clone(), v);
    }
    Ok(out)
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
    fn json_round_trips_byte_identically() {
        let snap = sample();
        let json = snap.to_json();
        let back = ObsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
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
    fn empty_snapshot_round_trips() {
        let snap = MetricsRegistry::new().snapshot("empty", 0);
        let back = ObsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(ObsSnapshot::from_json("not json").is_err());
        assert!(ObsSnapshot::from_json("{}").is_err());
        let wrong_version = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(ObsSnapshot::from_json(&wrong_version).is_err());
    }

    #[test]
    fn from_json_rejects_non_u32_schema_versions() {
        // Out of u32 range: must be a parse error, not a silent
        // truncation to some in-range value.
        let too_big = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 4294967297");
        let err = ObsSnapshot::from_json(&too_big).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Fractional and negative versions are not unsigned integers.
        for bad in ["1.5", "-1"] {
            let text = sample().to_json().replace(
                "\"schema_version\": 1",
                &format!("\"schema_version\": {bad}"),
            );
            assert!(ObsSnapshot::from_json(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn directions_parse_and_display() {
        for d in [Direction::LowerIsBetter, Direction::HigherIsBetter] {
            assert_eq!(Direction::parse(&d.to_string()), Some(d));
        }
        assert_eq!(Direction::parse("sideways"), None);
    }
}
