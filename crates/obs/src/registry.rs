//! The workspace-wide metrics registry: named counters, high-water
//! gauges, and latency recorders, all in ordered maps so iteration and
//! serialization are deterministic.

use std::collections::BTreeMap;
use std::fmt;

use crate::latency::{LatencyRecorder, LatencySummary};
use crate::snapshot::ObsSnapshot;

/// Named counters, gauges, and latency recorders for one run.
///
/// Every layer of the stack records into a shared registry (the
/// simulator's `World` owns one). Names are dotted paths
/// (`"store.read.quorum.us"`); maps are `BTreeMap`s so display and
/// snapshot order is stable across runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    latencies: BTreeMap<String, LatencyRecorder>,
}

/// Applies `f` to the slot for `name`, created (default) on first use.
/// A name is hit far more often than it is introduced, so the lookup
/// borrows the `&str`; only the first insert allocates the owned key.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(slot) => f(slot),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (saturating).
    pub fn add(&mut self, name: &str, delta: u64) {
        upsert(&mut self.counters, name, |slot| {
            *slot = slot.saturating_add(delta);
        });
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sets the named gauge to `value` unconditionally.
    pub fn gauge_set(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, |slot| *slot = value);
    }

    /// Raises the named gauge to `value` if it is higher than the
    /// current reading (high-water mark, e.g. peak queue depth).
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, |slot| *slot = (*slot).max(value));
    }

    /// Current value of a gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Records one latency observation, in microseconds.
    pub fn observe(&mut self, name: &str, us: u64) {
        upsert(&mut self.latencies, name, |rec| rec.record(us));
    }

    /// Read access to a latency recorder, if it exists.
    pub fn latency(&self, name: &str) -> Option<&LatencyRecorder> {
        self.latencies.get(name)
    }

    /// The recorder for `name`, created on first use.
    pub fn latency_mut(&mut self, name: &str) -> &mut LatencyRecorder {
        // Returning the borrow rules out `upsert`'s single lookup
        // (the borrow checker keeps `get_mut`'s borrow alive across the
        // miss arm), so a hit here looks the name up twice.
        if !self.latencies.contains_key(name) {
            self.latencies
                .insert(name.to_string(), LatencyRecorder::default());
        }
        self.latencies
            .get_mut(name)
            .expect("recorder inserted above")
    }

    /// All latency recorders, in name order.
    pub fn latencies(&self) -> impl Iterator<Item = (&str, &LatencyRecorder)> {
        self.latencies.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.latencies.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the max, latency populations concatenate. Used to aggregate
    /// across DST iterations.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            self.add(name, *value);
        }
        for (name, value) in &other.gauges {
            self.gauge_max(name, *value);
        }
        for (name, rec) in &other.latencies {
            upsert(&mut self.latencies, name, |mine| mine.merge(rec));
        }
    }

    /// Freezes the registry into an [`ObsSnapshot`] tagged with a
    /// scenario name and the seed that produced it. Latency populations
    /// are summarized; objectives start empty — attach them with
    /// [`ObsSnapshot::with_objective`].
    pub fn snapshot(&self, scenario: &str, seed: u64) -> ObsSnapshot {
        let latencies: BTreeMap<String, LatencySummary> = self
            .latencies
            .iter()
            .map(|(name, rec)| (name.clone(), rec.clone().summary()))
            .collect();
        ObsSnapshot {
            scenario: scenario.to_string(),
            seed,
            schema_version: ObsSnapshot::SCHEMA_VERSION,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            latencies,
            objectives: BTreeMap::new(),
        }
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, value) in &self.gauges {
            writeln!(f, "{name} (gauge) = {value}")?;
        }
        for (name, rec) in &self.latencies {
            writeln!(f, "{name}: {}", rec.clone().summary())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        m.add("x", u64::MAX);
        assert_eq!(m.counter("x"), u64::MAX, "saturates");
    }

    #[test]
    fn gauges_track_high_water_and_set() {
        let mut m = MetricsRegistry::new();
        m.gauge_max("depth", 3);
        m.gauge_max("depth", 1);
        assert_eq!(m.gauge("depth"), 3);
        m.gauge_set("depth", 1);
        assert_eq!(m.gauge("depth"), 1);
    }

    #[test]
    fn latencies_record_and_summarize() {
        let mut m = MetricsRegistry::new();
        m.observe("rpc", 30);
        m.observe("rpc", 10);
        assert_eq!(m.latency_mut("rpc").p50(), Some(10));
        assert_eq!(m.latency("rpc").map(LatencyRecorder::len), Some(2));
        assert!(m.latency("missing").is_none());
    }

    #[test]
    fn merge_combines_all_three_kinds() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.gauge_max("g", 5);
        a.observe("l", 10);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.gauge_max("g", 3);
        b.observe("l", 20);
        b.observe("only_b", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 5);
        assert_eq!(a.latency_mut("l").max(), Some(20));
        assert_eq!(a.latency_mut("only_b").len(), 1);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.incr("b");
        m.incr("a");
        m.incr("c");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn snapshot_freezes_registry() {
        let mut m = MetricsRegistry::new();
        m.add("ops", 9);
        m.gauge_max("peak", 4);
        m.observe("lat", 100);
        let snap = m.snapshot("demo", 7);
        assert_eq!(snap.scenario, "demo");
        assert_eq!(snap.seed, 7);
        assert_eq!(snap.counters.get("ops"), Some(&9));
        assert_eq!(snap.gauges.get("peak"), Some(&4));
        assert_eq!(snap.latencies.get("lat").map(|s| s.count), Some(1));
        assert!(snap.objectives.is_empty());
    }

    #[test]
    fn display_lists_everything() {
        let mut m = MetricsRegistry::new();
        m.incr("hits");
        m.gauge_set("depth", 2);
        m.observe("lat", 5);
        let text = m.to_string();
        assert!(text.contains("hits = 1"));
        assert!(text.contains("depth (gauge) = 2"));
        assert!(text.contains("lat: n=1"));
    }
}
