//! The registry against its own old definition.
//!
//! `MetricsRegistry` resolves names through dense slots, an ordered
//! index and a memo keyed by where the caller's `&str` lives. None of
//! that may show: whatever sequence of calls, addresses, clones and moves
//! built a registry, everything it can be asked must read exactly as the
//! three `BTreeMap<String, _>` it used to be. [`Model`] *is* those three
//! maps, with the methods as they were; the property drives both through
//! the same random sequence and compares after every step.
//!
//! Names arrive the three ways that matter to a memo keyed by address:
//! one text from two different addresses, two different texts of equal
//! length at the *same* address (a reused `String` buffer — the case a
//! memo that trusts the address gets wrong), and more names than the
//! memo has lines.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use weakset_obs::{LatencyRecorder, LatencySummary, MetricsRegistry, ObsSnapshot};

/// The registry as it was: three ordered maps keyed by owned names.
#[derive(Clone, Default, PartialEq)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    latencies: BTreeMap<String, LatencyRecorder>,
}

fn upsert<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(slot) => f(slot),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

impl Model {
    fn add(&mut self, name: &str, delta: u64) {
        upsert(&mut self.counters, name, |slot| {
            *slot = slot.saturating_add(delta);
        });
    }

    fn gauge_set(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, |slot| *slot = value);
    }

    fn gauge_max(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, |slot| *slot = (*slot).max(value));
    }

    fn observe(&mut self, name: &str, us: u64) {
        upsert(&mut self.latencies, name, |rec| rec.record(us));
    }

    fn merge(&mut self, other: &Model) {
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

    fn snapshot(&self, scenario: &str, seed: u64) -> ObsSnapshot {
        let latencies: BTreeMap<String, LatencySummary> = self
            .latencies
            .iter()
            .map(|(name, rec)| (name.clone(), rec.summary()))
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

    fn display(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            writeln!(out, "{name} = {value}").unwrap();
        }
        for (name, value) in &self.gauges {
            writeln!(out, "{name} (gauge) = {value}").unwrap();
        }
        for (name, rec) in &self.latencies {
            writeln!(out, "{name}: {}", rec.summary()).unwrap();
        }
        out
    }

    /// A registry holding what the model holds, introduced in reverse
    /// name order so its slots are numbered differently from any
    /// registry the sequence under test built.
    fn to_registry(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (name, value) in self.counters.iter().rev() {
            m.add(name, *value);
        }
        for (name, value) in self.gauges.iter().rev() {
            m.gauge_set(name, *value);
        }
        for (name, rec) in self.latencies.iter().rev() {
            *m.latency_mut(name) = rec.clone();
        }
        m
    }
}

/// Names of one length, more of them than a memo has lines.
const POOL: usize = 200;

fn pool_name(i: u16) -> String {
    format!("layer.metric.{:03}", i as usize % POOL)
}

/// One step: `(what, which name, how the name arrives, value)`.
type Step = (u8, u16, u8, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        // A skewed name draw: a few hot names (hits) and a long tail
        // (evictions, first inserts).
        (
            any::<u8>(),
            prop_oneof![0u16..6, 0u16..POOL as u16],
            any::<u8>(),
            0u64..1_000,
        ),
        1..80,
    )
}

/// Everything a registry can be asked, against the model.
fn assert_reads_as(m: &MetricsRegistry, model: &Model, probe: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.to_string(), model.display());
    prop_assert_eq!(m.snapshot("s", 1), model.snapshot("s", 1));
    let counters: Vec<(String, u64)> = m.counters().map(|(k, v)| (k.to_string(), v)).collect();
    prop_assert_eq!(
        counters,
        model.counters.clone().into_iter().collect::<Vec<_>>()
    );
    let gauges: Vec<(String, u64)> = m.gauges().map(|(k, v)| (k.to_string(), v)).collect();
    prop_assert_eq!(gauges, model.gauges.clone().into_iter().collect::<Vec<_>>());
    let latencies: Vec<(String, LatencyRecorder)> = m
        .latencies()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    prop_assert_eq!(
        latencies,
        model.latencies.clone().into_iter().collect::<Vec<_>>()
    );
    for name in [probe, "never.recorded"] {
        prop_assert_eq!(
            m.counter(name),
            model.counters.get(name).copied().unwrap_or(0)
        );
        prop_assert_eq!(m.gauge(name), model.gauges.get(name).copied().unwrap_or(0));
        prop_assert_eq!(m.latency(name), model.latencies.get(name));
    }
    let empty = model.counters.is_empty() && model.gauges.is_empty() && model.latencies.is_empty();
    prop_assert_eq!(m.is_empty(), empty);
    // `Debug` is the derived text of the three maps; `==` sees
    // contents, not slot numbers or memo state.
    let Model {
        counters,
        gauges,
        latencies,
    } = model;
    prop_assert_eq!(
        format!("{m:?}"),
        format!(
            "MetricsRegistry {{ counters: {counters:?}, gauges: {gauges:?}, latencies: {latencies:?} }}"
        )
    );
    prop_assert!(*m == model.to_registry());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn registry_reads_as_three_ordered_maps(steps in steps()) {
        let mut m = MetricsRegistry::new();
        let mut model = Model::default();
        // Set aside by `take` and `clone`, folded back in by `merge`.
        let mut spare = MetricsRegistry::new();
        let mut spare_model = Model::default();
        // Two long-lived copies of every name: one text, two addresses.
        let here: Vec<String> = (0..POOL as u16).map(pool_name).collect();
        let there: Vec<String> = here.clone();
        // One buffer every "reused" name is written into: equal lengths,
        // so one address and one length carry many texts.
        let mut buffer = String::with_capacity(32);

        for (what, which, route, value) in steps {
            let fresh;
            let name: &str = match route % 4 {
                0 => &here[which as usize % POOL],
                1 => &there[which as usize % POOL],
                2 => {
                    buffer.clear();
                    buffer.push_str(&pool_name(which));
                    &buffer
                }
                _ => {
                    fresh = pool_name(which);
                    &fresh
                }
            };
            match what % 10 {
                0 => {
                    m.add(name, value);
                    model.add(name, value);
                }
                1 => {
                    m.incr(name);
                    model.add(name, 1);
                }
                2 => {
                    // Saturation is part of the definition.
                    m.add(name, u64::MAX - value);
                    model.add(name, u64::MAX - value);
                }
                3 => {
                    m.gauge_set(name, value);
                    model.gauge_set(name, value);
                }
                4 => {
                    m.gauge_max(name, value);
                    model.gauge_max(name, value);
                }
                5 => {
                    m.observe(name, value);
                    model.observe(name, value);
                }
                6 => {
                    m.latency_mut(name).record(value);
                    model.observe(name, value);
                }
                7 => {
                    m.merge(&spare);
                    model.merge(&spare_model);
                }
                8 => {
                    // Carry on with the copy; the original becomes the
                    // spare. A memo that did not survive the copy intact
                    // would steer the next records wrong.
                    let copy = m.clone();
                    spare = std::mem::replace(&mut m, copy);
                    spare_model = model.clone();
                }
                _ => {
                    spare = std::mem::take(&mut m);
                    spare_model = std::mem::take(&mut model);
                    prop_assert!(m.is_empty() && m == MetricsRegistry::new());
                }
            }
            assert_reads_as(&m, &model, name)?;
            assert_reads_as(&spare, &spare_model, name)?;
            prop_assert_eq!(m == spare, model == spare_model);
        }
    }
}
