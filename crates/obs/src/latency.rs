//! Latency recording, generalized from the simulator's original
//! `metrics.rs`: a population of microsecond samples with nearest-rank
//! quantiles.
//!
//! A population is kept as one count per distinct value, in ascending
//! value order, plus its total count and exact sum. Latencies measured
//! in whole microseconds repeat heavily, so memory is 16 bytes per
//! distinct value however long the run — an all-distinct population
//! costs 16 bytes a sample, twice a plain sample list. Every query is
//! exact (the population is still all there, only run-length encoded)
//! and reads through `&self`: there is no sort to defer, so a summary
//! never copies the population. A record that repeats the previous
//! record's value or sets a new maximum is O(1); any other is a binary
//! search, plus a shift when the value is new.

use std::cmp::Ordering;
use std::fmt;

/// Records a population of latencies (microseconds) and answers summary
/// queries.
///
/// ```
/// use weakset_obs::LatencyRecorder;
/// let mut r = LatencyRecorder::new();
/// for us in [30, 10, 20] {
///     r.record(us);
/// }
/// assert_eq!(r.p50(), Some(20));
/// assert_eq!(r.min(), Some(10));
/// assert_eq!(r.max(), Some(30));
/// ```
#[derive(Clone, Default)]
pub struct LatencyRecorder {
    /// `(value, count)` runs: values strictly ascending, counts ≥ 1.
    runs: Vec<(u64, u64)>,
    /// Sum of the runs' counts.
    count: u64,
    /// Exact sum of every observation.
    total: u128,
    /// The run the last record landed in, checked first: a latency
    /// stream repeats its last value more often than not, wherever that
    /// value sits in the runs. Only a hint (a merge leaves it stale), so
    /// `==` and `Debug` ignore it.
    last: usize,
}

/// Equal populations, however they were recorded or merged.
impl PartialEq for LatencyRecorder {
    fn eq(&self, other: &Self) -> bool {
        // The count and the sum are functions of the runs.
        self.runs == other.runs
    }
}

impl Eq for LatencyRecorder {}

impl fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyRecorder")
            .field("runs", &self.runs)
            .field("count", &self.count)
            .field("total", &self.total)
            .finish()
    }
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation, in microseconds.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.total += u128::from(us);
        if let Some((value, count)) = self.runs.get_mut(self.last) {
            if *value == us {
                *count += 1;
                return;
            }
        }
        self.last = match self.runs.last() {
            Some(&(max, _)) if us <= max => {
                match self.runs.binary_search_by_key(&us, |&(value, _)| value) {
                    Ok(i) => {
                        self.runs[i].1 += 1;
                        i
                    }
                    Err(i) => {
                        self.runs.insert(i, (us, 1));
                        i
                    }
                }
            }
            _ => {
                self.runs.push((us, 1));
                self.runs.len() - 1
            }
        };
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) by nearest-rank, or `None` if
    /// empty. `q` is clamped: `quantile(0.0)` is the minimum,
    /// `quantile(1.0)` the maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let n = self.count;
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).max(1) - 1;
        let rank = rank.min(n - 1);
        let mut below = 0;
        self.runs.iter().find_map(|&(value, count)| {
            below += count;
            (rank < below).then_some(value)
        })
    }

    /// Median, in microseconds.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile, in microseconds.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<u64> {
        self.runs.first().map(|&(value, _)| value)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<u64> {
        self.runs.last().map(|&(value, _)| value)
    }

    /// Arithmetic mean (truncated), or `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        Some((self.total / u128::from(self.count)) as u64)
    }

    /// Sum of all observations, saturating at `u64::MAX`.
    pub fn sum(&self) -> u64 {
        u64::try_from(self.total).unwrap_or(u64::MAX)
    }

    /// Adds every observation of `other` (aggregation across runs): a
    /// linear merge of the two run lists.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.is_empty() {
            return;
        }
        self.count += other.count;
        self.total += other.total;
        let (mine, theirs) = (std::mem::take(&mut self.runs), &other.runs);
        let mut runs = Vec::with_capacity(mine.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, n)), Some(&(b, m))) = (mine.get(i), theirs.get(j)) {
            match a.cmp(&b) {
                Ordering::Less => {
                    runs.push((a, n));
                    i += 1;
                }
                Ordering::Greater => {
                    runs.push((b, m));
                    j += 1;
                }
                Ordering::Equal => {
                    runs.push((a, n + m));
                    i += 1;
                    j += 1;
                }
            }
        }
        runs.extend_from_slice(&mine[i..]);
        runs.extend_from_slice(&theirs[j..]);
        self.runs = runs;
    }

    /// Freezes the population into a [`LatencySummary`].
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            min_us: self.min().unwrap_or(0),
            p50_us: self.p50().unwrap_or(0),
            p99_us: self.p99().unwrap_or(0),
            max_us: self.max().unwrap_or(0),
            mean_us: self.mean().unwrap_or(0),
        }
    }
}

/// A frozen summary of a latency population, in microseconds. All
/// fields are zero when `count` is zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min_us: u64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Largest observation.
    pub max_us: u64,
    /// Truncated arithmetic mean.
    pub mean_us: u64,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={}us p99={}us max={}us",
            self.count, self.p50_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_returns_none() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.p50(), None);
        assert_eq!(r.p99(), None);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
        assert_eq!(r.mean(), None);
        assert_eq!(r.sum(), 0);
        assert_eq!(r.summary(), LatencySummary::default());
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let mut r = LatencyRecorder::new();
        r.record(7);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(r.quantile(q), Some(7), "q={q}");
        }
        assert_eq!(r.min(), Some(7));
        assert_eq!(r.max(), Some(7));
        assert_eq!(r.mean(), Some(7));
    }

    #[test]
    fn extreme_quantiles_are_min_and_max() {
        let mut r = LatencyRecorder::new();
        for us in [50, 10, 40, 20, 30] {
            r.record(us);
        }
        assert_eq!(r.quantile(0.0), Some(10));
        assert_eq!(r.quantile(1.0), Some(50));
        // Out-of-range values clamp rather than panic.
        assert_eq!(r.quantile(-3.0), Some(10));
        assert_eq!(r.quantile(9.0), Some(50));
    }

    #[test]
    fn nearest_rank_matches_reference() {
        let mut r = LatencyRecorder::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.record(us);
        }
        assert_eq!(r.p50(), Some(50));
        assert_eq!(r.p99(), Some(100));
        assert_eq!(r.quantile(0.1), Some(10));
        assert_eq!(r.mean(), Some(55));
        assert_eq!(r.sum(), 550);
    }

    #[test]
    fn recording_after_query_is_seen() {
        let mut r = LatencyRecorder::new();
        r.record(30);
        assert_eq!(r.max(), Some(30));
        r.record(10);
        assert_eq!(r.min(), Some(10));
        assert_eq!(r.max(), Some(30));
    }

    #[test]
    fn merge_unions_populations() {
        let mut a = LatencyRecorder::new();
        a.record(10);
        let mut b = LatencyRecorder::new();
        b.record(30);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.p50(), Some(20));
        let before = a.clone();
        a.merge(&LatencyRecorder::new());
        assert_eq!(a, before, "an empty recorder is the merge identity");
    }

    #[test]
    fn repeated_values_share_one_run() {
        let mut r = LatencyRecorder::new();
        for i in 0..1_000_000u64 {
            r.record([40, 7, 1_000][(i % 3) as usize]);
        }
        assert_eq!(r.runs, [(7, 333_333), (40, 333_334), (1_000, 333_333)]);
        assert_eq!(r.len(), 1_000_000);
        assert_eq!(r.p50(), Some(40));
    }

    #[test]
    fn equal_multisets_are_equal_whatever_the_order() {
        let mut ascending = LatencyRecorder::new();
        let mut shuffled = LatencyRecorder::new();
        for us in [5, 10, 10, 20] {
            ascending.record(us);
        }
        for us in [10, 20, 5, 10] {
            shuffled.record(us);
        }
        assert_eq!(ascending, shuffled);
        let mut merged = LatencyRecorder::new();
        merged.record(20);
        merged.record(10);
        let mut rest = LatencyRecorder::new();
        rest.record(10);
        rest.record(5);
        merged.merge(&rest);
        assert_eq!(merged, ascending);
    }

    #[test]
    fn summary_freezes_everything() {
        let mut r = LatencyRecorder::new();
        for us in [10, 20, 30] {
            r.record(us);
        }
        let s = r.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min_us, 10);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.max_us, 30);
        assert_eq!(s.mean_us, 20);
        assert!(s.to_string().contains("n=3"));
    }

    #[test]
    fn sum_saturates() {
        let mut r = LatencyRecorder::new();
        r.record(u64::MAX);
        r.record(5);
        assert_eq!(r.sum(), u64::MAX);
        assert_eq!(
            r.mean(),
            Some((1 << 63) + 2),
            "the mean divides the exact sum"
        );
    }
}
