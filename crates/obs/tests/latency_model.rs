//! The latency recorder against its own old definition.
//!
//! `LatencyRecorder` keeps one count per distinct value. None of that may
//! show: whatever sequence of records and merges built a recorder, every
//! query must read exactly as the plain sample list it used to be, sorted
//! on demand. [`Model`] *is* that list, with the methods as they were;
//! the property drives both through the same random sequence and compares
//! after every step.
//!
//! Values arrive the ways that matter to a sorted run list: zero,
//! repeats (one run bumped), strictly ascending runs (appends at the
//! maximum), strictly descending runs (inserts at the front) and values
//! at `u64::MAX`, whose sum saturates.

use proptest::prelude::*;
use weakset_obs::{LatencyRecorder, LatencySummary};

/// The recorder as it was: every sample, sorted lazily.
#[derive(Clone, Default)]
struct Model {
    samples: Vec<u64>,
    dirty: bool,
}

impl Model {
    fn record(&mut self, us: u64) {
        self.samples.push(us);
        self.dirty = true;
    }

    fn sorted(&mut self) -> &[u64] {
        if self.dirty {
            self.samples.sort_unstable();
            self.dirty = false;
        }
        &self.samples
    }

    fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted()[rank.min(n - 1)])
    }

    fn min(&mut self) -> Option<u64> {
        self.sorted().first().copied()
    }

    fn max(&mut self) -> Option<u64> {
        self.sorted().last().copied()
    }

    fn mean(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        Some((sum / self.samples.len() as u128) as u64)
    }

    fn sum(&self) -> u64 {
        self.samples
            .iter()
            .fold(0u64, |acc, &s| acc.saturating_add(s))
    }

    fn merge(&mut self, other: &Model) {
        self.samples.extend_from_slice(&other.samples);
        self.dirty = self.dirty || !other.samples.is_empty();
    }

    fn summary(&mut self) -> LatencySummary {
        LatencySummary {
            count: self.samples.len() as u64,
            min_us: self.min().unwrap_or(0),
            p50_us: self.quantile(0.50).unwrap_or(0),
            p99_us: self.quantile(0.99).unwrap_or(0),
            max_us: self.max().unwrap_or(0),
            mean_us: self.mean().unwrap_or(0),
        }
    }
}

/// Everything a recorder can be asked, against the model.
fn assert_reads_as(r: &LatencyRecorder, model: &mut Model, q: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(r.len(), model.samples.len());
    prop_assert_eq!(r.is_empty(), model.samples.is_empty());
    for q in [q, -1.0, 0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0, 2.0] {
        prop_assert_eq!(r.quantile(q), model.quantile(q), "q={}", q);
    }
    prop_assert_eq!(r.p50(), model.quantile(0.50));
    prop_assert_eq!(r.p99(), model.quantile(0.99));
    prop_assert_eq!(r.min(), model.min());
    prop_assert_eq!(r.max(), model.max());
    prop_assert_eq!(r.mean(), model.mean());
    prop_assert_eq!(r.sum(), model.sum());
    prop_assert_eq!(r.summary(), model.summary());
    Ok(())
}

/// A value that is zero, small (so it repeats), anywhere, or at the top.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..16,
        any::<u64>(),
        (u64::MAX - 8)..=u64::MAX,
    ]
}

/// One step: `(what, which recorder, value, run length, q in thousandths)`.
type Step = (u8, bool, u64, u8, u16);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<u8>(), any::<bool>(), value(), 0u8..24, 0u16..=1_000),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recorder_reads_as_a_sorted_sample_list(steps in steps()) {
        let mut recs = [LatencyRecorder::new(), LatencyRecorder::new()];
        let mut models = [Model::default(), Model::default()];
        for (what, which, v, len, q) in steps {
            let (me, other) = if which { (0, 1) } else { (1, 0) };
            let mut record = |us: u64| {
                recs[me].record(us);
                models[me].record(us);
            };
            match what % 5 {
                0 => record(v),
                1 => (0..u64::from(len)).for_each(|i| record(v.saturating_add(i))),
                2 => (0..u64::from(len)).rev().for_each(|i| record(v.saturating_add(i))),
                3 => (0..len).for_each(|_| record(v)),
                _ => {
                    let theirs = recs[other].clone();
                    recs[me].merge(&theirs);
                    let theirs = models[other].clone();
                    models[me].merge(&theirs);
                }
            }
            for (rec, model) in recs.iter().zip(&mut models) {
                assert_reads_as(rec, model, f64::from(q) / 1_000.0)?;
            }
            // `==` is multiset equality, however each was built.
            let same = models[0].sorted().to_vec() == models[1].sorted();
            prop_assert_eq!(recs[0] == recs[1], same);
        }
    }
}
