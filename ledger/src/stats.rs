//! The ledger's estimators: percentiles, the p90 sample-count rule, and
//! the host-normalised window statistic every timing is reported as.
//!
//! A run is a sequence of windows, each flanked by two timings of the
//! frozen reference kernel (`host::reference_ms`). A window's value is
//! scaled by `REF_NOMINAL_MS / mean(flanks)` — "what it would have cost
//! on the quiet host" — and the run reports the 25th percentile of the
//! scaled values (the 75th for rates). The low quartile, not the median,
//! because what the reference flanks miss (a disturbance that starts and
//! ends inside one window, a corrupted flank) only ever makes a window
//! look slower.

use crate::host::REF_NOMINAL_MS;

/// Samples that must lie beyond a percentile before it is reported.
/// (The choosing-metrics guide asks for ten; windows here are sized for
/// thirty and more beyond p90.)
pub const MIN_TAIL_SAMPLES: usize = 30;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it. `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`-th
/// percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether a window of `n` samples may report percentile `q`.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Scale factor of a window flanked by two reference-kernel timings.
pub fn host_factor(ref_before_ms: f64, ref_after_ms: f64) -> f64 {
    REF_NOMINAL_MS / ((ref_before_ms + ref_after_ms) / 2.0)
}

/// Which way a quantity gets worse when the host slows down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A duration: slower host, larger value. Scaled by the factor,
    /// reported as the 25th percentile.
    Time,
    /// A rate: slower host, smaller value. Divided by the factor,
    /// reported as the 75th percentile.
    Rate,
}

/// The reported value of one per-window quantity: each window's value
/// scaled by that window's [`host_factor`], then the low quartile over
/// all windows (the high one for a rate). No window is dropped.
pub fn normalised(values: &[f64], factors: &[f64], kind: Kind) -> f64 {
    assert_eq!(values.len(), factors.len(), "one factor per window");
    let scaled: Vec<f64> = values
        .iter()
        .zip(factors)
        .map(|(v, f)| match kind {
            Kind::Time => v * f,
            Kind::Rate => v / f,
        })
        .collect();
    percentile(
        &scaled,
        match kind {
            Kind::Time => 0.25,
            Kind::Rate => 0.75,
        },
    )
}

/// Mean of the `k` smallest samples — the un-normalised cross-check
/// reported as `host.raw_best5_us_per_op`.
pub fn mean_of_smallest(samples: &[f64], k: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = k.clamp(1, sorted.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Median as Python's `statistics.median` computes it: the middle
/// sample, or the mean of the two middle ones.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method) — the spread the benchmark driver
/// applies to a set of runs.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::workloads::SplitMix;

    /// Uniform in `[0, 1)`.
    fn unit(rng: &mut SplitMix) -> f64 {
        (rng.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn percentiles_match_a_sorted_reference() {
        let mut rng = SplitMix(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 600] {
            let samples: Vec<f64> = (0..n).map(|_| unit(&mut rng) * 1e3).collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let got = percentile(&samples, q);
                // Definition check: at least q of the samples are <= got,
                // and fewer than q are strictly below it.
                let at_or_below = sorted.iter().filter(|&&v| v <= got).count();
                let below = sorted.iter().filter(|&&v| v < got).count();
                assert!(at_or_below as f64 >= q * n as f64, "n={n} q={q}");
                assert!((below as f64) < (q * n as f64).max(1.0), "n={n} q={q}");
                assert_eq!(got, percentile_sorted(&sorted, q));
            }
            assert_eq!(percentile(&samples, 0.0), sorted[0]);
            assert_eq!(percentile(&samples, 1.0), sorted[n - 1]);
        }
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_sample_count_rule() {
        // 10 % of the window must be at least MIN_TAIL_SAMPLES ops.
        assert_eq!(samples_beyond(600, 0.9), 60);
        assert_eq!(samples_beyond(300, 0.9), 30);
        assert!(percentile_supported(300, 0.9));
        assert!(!percentile_supported(299, 0.9));
        assert!(!percentile_supported(0, 0.9));
        // p99 needs a hundred times the tail, which no window here has.
        assert!(!percentile_supported(2999, 0.99));
        assert!(percentile_supported(3000, 0.99));
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn quartiles_agree_with_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    /// A synthetic run: `windows` windows of true value `truth`, a
    /// two-state host (1.0x / 1.6x) that is slow for `slow_share` of the
    /// run in a few contiguous phases, 1 % multiplicative noise on both
    /// the window and the reference, and 5 % of reference samples
    /// corrupted (doubled — a timer interrupt or a steal inside the
    /// 3.5 ms kernel).
    fn synthetic(windows: usize, truth: f64, slow_share: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix(seed);
        // Phases: split the run into 8 blocks, mark the first
        // round(8 * share) of a seeded shuffle slow.
        let blocks = 8usize;
        let mut order: Vec<usize> = (0..blocks).collect();
        for i in (1..blocks).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let slow_blocks = &order[..(slow_share * blocks as f64).round() as usize];
        let state = |i: usize| {
            let block = (i * blocks / (windows + 1)).min(blocks - 1);
            if slow_blocks.contains(&block) {
                1.6
            } else {
                1.0
            }
        };
        let noise = |rng: &mut SplitMix| 1.0 + (unit(rng) - 0.5) * 0.02;
        let refs: Vec<f64> = (0..=windows)
            .map(|i| {
                let corrupt = if unit(&mut rng) < 0.05 { 2.0 } else { 1.0 };
                REF_NOMINAL_MS * state(i) * noise(&mut rng) * corrupt
            })
            .collect();
        let values: Vec<f64> = (0..windows)
            .map(|i| truth * state(i) * noise(&mut rng))
            .collect();
        (values, refs)
    }

    /// Factors of adjacent windows sharing their flanks: `refs[i]` ran
    /// before window `i`, `refs[i + 1]` after it.
    fn factors(refs: &[f64]) -> Vec<f64> {
        refs.windows(2).map(|f| host_factor(f[0], f[1])).collect()
    }

    #[test]
    fn normalised_p25_recovers_truth_under_a_two_state_host() {
        let truth = 28.0;
        for (k, share) in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7].into_iter().enumerate() {
            for seed in 0..8u64 {
                let (values, refs) = synthetic(200, truth, share, 100 * k as u64 + seed);
                let got = normalised(&values, &factors(&refs), Kind::Time);
                assert!(
                    (got / truth - 1.0).abs() < 0.02,
                    "share {share} seed {seed}: normalised p25 {got} vs {truth}"
                );
                // The same run as a rate.
                let rates: Vec<f64> = values.iter().map(|v| 1e6 / v).collect();
                let rate = normalised(&rates, &factors(&refs), Kind::Rate);
                assert!(
                    (rate / (1e6 / truth) - 1.0).abs() < 0.02,
                    "share {share} seed {seed}: normalised p75 rate {rate}"
                );
            }
        }
    }

    #[test]
    fn plain_median_does_not() {
        let truth = 28.0;
        // Slow for most of the run: the median sits on the slow plateau.
        let (values, refs) = synthetic(200, truth, 0.7, 42);
        assert!(median(&values) / truth > 1.5);
        assert!((normalised(&values, &factors(&refs), Kind::Time) / truth - 1.0).abs() < 0.02);
        // And it moves with the share, which the normalised value does
        // not: two runs of one program disagree by the full 1.6x.
        let (quiet, _) = synthetic(200, truth, 0.2, 43);
        assert!(median(&values) / median(&quiet) > 1.5);
    }

    #[test]
    fn every_window_counts() {
        // No window is dropped: the statistic is a plain percentile over
        // all of them, so a run that is slow throughout (flanks included)
        // still normalises back, and one whose flanks are blind reports
        // the slowdown.
        let values = vec![16.0; 40];
        let slow_refs = vec![REF_NOMINAL_MS * 1.6; 41];
        assert!((normalised(&values, &factors(&slow_refs), Kind::Time) - 10.0).abs() < 1e-9);
        let blind_refs = vec![REF_NOMINAL_MS; 41];
        assert!((normalised(&values, &factors(&blind_refs), Kind::Time) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn best_five_mean() {
        assert_eq!(
            mean_of_smallest(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0], 5),
            3.0
        );
        assert_eq!(mean_of_smallest(&[2.0, 4.0], 5), 3.0);
    }
}
