//! The workspace-wide metrics registry: named counters, high-water
//! gauges, and latency recorders, iterated and serialized in name order
//! so output is deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::latency::{LatencyRecorder, LatencySummary};
use crate::snapshot::ObsSnapshot;

/// Named counters, gauges, and latency recorders for one run.
///
/// Every layer of the stack records into a shared registry (the
/// simulator's `World` owns one). Names are dotted paths
/// (`"store.read.quorum.us"`); display, snapshot and iteration order is
/// name order, stable across runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Named<u64>,
    gauges: Named<u64>,
    latencies: Named<LatencyRecorder>,
}

/// Lines in a table's memo (a power of two). A DST scenario records
/// under two dozen names and a `ThreadedRuntime` view under a dozen.
const MEMO_LINES: usize = 32;

/// One kind's values by name.
///
/// A name is recorded under thousands of times for every time it is
/// introduced, from a handful of call sites that each pass the same
/// `&'static str`. So values live in dense slots, an ordered index maps
/// names to slots, and a direct-mapped memo remembers which slot the
/// `&str` at a given address and length resolved to last time. The memo
/// only *suggests* a slot: it is used when its name equals the text asked
/// for (a `String` buffer can carry another name at the same address next
/// time), and otherwise the index decides. Everything that reads the
/// table out — iteration, `==`, `Debug` — walks the index, so tables with
/// the same contents are indistinguishable however they were built.
#[derive(Clone, Default)]
struct Named<V> {
    index: BTreeMap<Arc<str>, u32>,
    /// In first-use order and never removed, so a slot number stays valid
    /// for the life of the table and of its clones.
    slots: Vec<(Arc<str>, V)>,
    /// Slot number plus one per line; zero is an empty line, so a fresh
    /// table has nothing to warm up beyond one record under each name.
    memo: [u32; MEMO_LINES],
}

impl<V: Default> Named<V> {
    /// The value for `name`, created (default) on first use. Only the
    /// memo hit is inlined; everything else is [`Named::resolve`].
    #[inline]
    fn slot(&mut self, name: &str) -> &mut V {
        // Fibonacci hashing of where the caller's text lives and how
        // long it is; the top bits pick the line.
        let key = (name.as_ptr() as u64) ^ ((name.len() as u64) << 32);
        let line = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_LINES.ilog2())) as usize;
        let suggested = (self.memo[line] as usize).wrapping_sub(1);
        if self
            .slots
            .get(suggested)
            .is_some_and(|(known, _)| **known == *name)
        {
            return &mut self.slots[suggested].1;
        }
        self.resolve(name, line)
    }

    /// A memo miss: the index decides, creating the slot on first use,
    /// and memo line `line` remembers the answer.
    #[cold]
    fn resolve(&mut self, name: &str, line: usize) -> &mut V {
        let slot = match self.index.get(name) {
            Some(&slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 names");
                let name: Arc<str> = name.into();
                self.slots.push((Arc::clone(&name), V::default()));
                self.index.insert(name, slot);
                slot
            }
        };
        self.memo[line] = slot.wrapping_add(1);
        &mut self.slots[slot as usize].1
    }
}

impl<V> Named<V> {
    fn get(&self, name: &str) -> Option<&V> {
        let &slot = self.index.get(name)?;
        Some(&self.slots[slot as usize].1)
    }

    /// `(name, value)` pairs in name order.
    fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.index
            .iter()
            .map(|(name, &slot)| (&**name, &self.slots[slot as usize].1))
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<V: PartialEq> PartialEq for Named<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for Named<V> {}

/// Prints as the ordered map it stands for.
impl<V: fmt::Debug> fmt::Debug for Named<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (saturating).
    #[inline]
    pub fn add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.slot(name);
        *slot = slot.saturating_add(delta);
    }

    /// Increments the named counter by one.
    #[inline]
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Sets the named gauge to `value` unconditionally.
    pub fn gauge_set(&mut self, name: &str, value: u64) {
        *self.gauges.slot(name) = value;
    }

    /// Raises the named gauge to `value` if it is higher than the
    /// current reading (high-water mark, e.g. peak queue depth).
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let slot = self.gauges.slot(name);
        *slot = (*slot).max(value);
    }

    /// Current value of a gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Records one latency observation, in microseconds.
    pub fn observe(&mut self, name: &str, us: u64) {
        self.latencies.slot(name).record(us);
    }

    /// Read access to a latency recorder, if it exists.
    pub fn latency(&self, name: &str) -> Option<&LatencyRecorder> {
        self.latencies.get(name)
    }

    /// The recorder for `name`, created on first use.
    pub fn latency_mut(&mut self, name: &str) -> &mut LatencyRecorder {
        self.latencies.slot(name)
    }

    /// All latency recorders, in name order.
    pub fn latencies(&self) -> impl Iterator<Item = (&str, &LatencyRecorder)> {
        self.latencies.iter()
    }

    /// True when nothing has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.latencies.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the max, latency populations add up as multisets. Used to aggregate
    /// across DST iterations.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (name, value) in other.gauges() {
            self.gauge_max(name, value);
        }
        for (name, rec) in other.latencies() {
            self.latencies.slot(name).merge(rec);
        }
    }

    /// Freezes the registry into an [`ObsSnapshot`] tagged with a
    /// scenario name and the seed that produced it. Latency populations
    /// are summarized; objectives start empty — attach them with
    /// [`ObsSnapshot::with_objective`].
    pub fn snapshot(&self, scenario: &str, seed: u64) -> ObsSnapshot {
        let latencies: BTreeMap<String, LatencySummary> = self
            .latencies()
            .map(|(name, rec)| (name.to_string(), rec.summary()))
            .collect();
        let owned = |(name, value): (&str, u64)| (name.to_string(), value);
        ObsSnapshot {
            scenario: scenario.to_string(),
            seed,
            schema_version: ObsSnapshot::SCHEMA_VERSION,
            counters: self.counters().map(owned).collect(),
            gauges: self.gauges().map(owned).collect(),
            latencies,
            objectives: BTreeMap::new(),
        }
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counters() {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, value) in self.gauges() {
            writeln!(f, "{name} (gauge) = {value}")?;
        }
        for (name, rec) in self.latencies() {
            writeln!(f, "{name}: {}", rec.summary())?;
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
        assert_eq!(m.latency("rpc").and_then(LatencyRecorder::p50), Some(10));
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
        assert_eq!(a.latency("l").and_then(LatencyRecorder::max), Some(20));
        assert_eq!(a.latency("only_b").map(LatencyRecorder::len), Some(1));
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
