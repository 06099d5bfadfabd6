//! `ledger compare A.json B.json`: applies the catalogue's bounds to two
//! result sets (as written by `ledger sweep`) and prints one row per
//! workload x end-to-end metric.
//!
//! Verdicts, with A the parent and B the change:
//!
//! * `better`     — every run of B reads better than every run of A, or
//!   B's median is better by more than the bound;
//! * `unresolved` — the sets' own spread (interquartile range over
//!   median, the larger of the two) exceeds the bound, so the bound
//!   cannot be applied;
//! * `worse`      — B's median is worse than A's by more than the bound;
//! * `same`       — anything else.
//!
//! `--aa` is for two sets of one commit: it additionally fails when any
//! single run lies further than the bound from its own set's median, or
//! when a metric the catalogue calls exact differs between a run of A
//! and a run of B that had the same seed.

use crate::catalogue::{self, Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use weakset_obs::Json;

/// One workload's runs in a set: the seed of each run and, per metric,
/// the value of each run, in the same order.
#[derive(Debug, Default)]
pub struct Runs {
    /// Seed of run `i`.
    pub seeds: Vec<u64>,
    /// Metric -> value in run `i`.
    pub metrics: BTreeMap<String, Vec<f64>>,
}

/// A result set: workload -> its runs.
pub type Samples = BTreeMap<String, Runs>;

/// Reads a result set as `ledger sweep` writes it.
pub fn parse_set(text: &str) -> Result<Samples, String> {
    let doc = Json::parse(text)?;
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err("result set has no \"runs\" array".into());
    };
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let seed = run
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("run without a seed")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::fields)
            .ok_or("run without result.metrics")?;
        let runs = out.entry(workload.to_string()).or_default();
        runs.seeds.push(seed);
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name} has no numeric value"))?;
            runs.metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// The verdict on one workload x metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// B worse than A by more than the bound.
    Worse,
    /// B better than A.
    Better,
    /// The sets' own spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over median, quartiles as the driver takes them.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = stats::quartiles(values);
    let median = stats::median(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// By how much of A's median B's median is worse (negative = better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match metric.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Medians of A and B.
    pub medians: (f64, f64),
    /// Spreads of A and B.
    pub spreads: (f64, f64),
    /// Worsening of the median, as a share of A's.
    pub worse_by: f64,
    /// Largest distance of a single run from its set's median, as a
    /// share of that median.
    pub farthest_run: f64,
    /// Exact metrics only: `(pairs, unequal)` over the pairs of one run
    /// of A and one of B that had the same seed.
    pub seed_pairs: Option<(usize, usize)>,
    /// The verdict.
    pub verdict: Verdict,
}

fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let worse_by = worsening(metric, stats::median(a), stats::median(b));
    let b_beats_a = a.iter().all(|&x| {
        b.iter().all(|&y| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if b_beats_a {
        Verdict::Better
    } else if spread(a).max(spread(b)) > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn farthest(values: &[f64]) -> f64 {
    let median = stats::median(values);
    values
        .iter()
        .map(|v| (v - median).abs() / median.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// `(pairs, unequal)` over every run of A and run of B with one seed.
fn same_seed_pairs(a: (&[u64], &[f64]), b: (&[u64], &[f64])) -> (usize, usize) {
    let (mut pairs, mut unequal) = (0, 0);
    for (seed_a, value_a) in a.0.iter().zip(a.1) {
        for (seed_b, value_b) in b.0.iter().zip(b.1) {
            if seed_a == seed_b {
                pairs += 1;
                unequal += usize::from(value_a != value_b);
            }
        }
    }
    (pairs, unequal)
}

/// The seeds and values of one workload x metric: one of each per run.
fn runs_of<'a>(set: &'a Samples, workload: &str, metric: &str) -> Option<(&'a [u64], &'a [f64])> {
    let runs = set.get(workload)?;
    let values = runs.metrics.get(metric)?;
    (!values.is_empty() && values.len() == runs.seeds.len())
        .then_some((runs.seeds.as_slice(), values.as_slice()))
}

/// Compares two sets. Missing workloads or metrics are errors: a set
/// that lacks a number cannot vouch for it.
pub fn compare(a: &Samples, b: &Samples) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let pick = |set, which: &str| {
                runs_of(set, w.name, m.name)
                    .ok_or_else(|| format!("set {which} has no {}/{}", w.name, m.name))
            };
            let (ra, rb) = (pick(a, "A")?, pick(b, "B")?);
            let (va, vb) = (ra.1, rb.1);
            let (verdict, worse_by) = judge(m, va, vb);
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                medians: (stats::median(va), stats::median(vb)),
                spreads: (spread(va), spread(vb)),
                worse_by,
                farthest_run: farthest(va).max(farthest(vb)),
                seed_pairs: m.exact.then(|| same_seed_pairs(ra, rb)),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Whether the comparison passes. Without `aa`: no row is `worse`.
/// With `aa` (two sets of one commit): every row resolves, the medians
/// agree within the bound in either direction, no single run lies
/// further than the bound from its own set's median, and the exact
/// metrics are equal wherever A and B ran the same seed.
pub fn passes(rows: &[Row], aa: bool) -> bool {
    rows.iter().all(|r| {
        let bound = bound_of(r.metric);
        if aa {
            r.verdict != Verdict::Unresolved
                && r.worse_by.abs() <= bound
                && r.farthest_run <= bound
                && r.seed_pairs.is_none_or(|(_, unequal)| unequal == 0)
        } else {
            r.verdict != Verdict::Worse
        }
    })
}

fn bound_of(metric: &str) -> f64 {
    catalogue::end_to_end(metric).map_or(0.0, |m| m.bound)
}

/// The table `compare` prints.
pub fn render(rows: &[Row], aa: bool) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<15} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "worse by",
        "spread A",
        "spread B",
        "far run",
        "bound",
        "seed pairs"
    )
    .unwrap();
    for r in rows {
        // Exact metrics: "equal/compared" over same-seed pairs of runs.
        let seed_pairs = r.seed_pairs.map_or("-".to_string(), |(pairs, unequal)| {
            format!("{}/{pairs}", pairs - unequal)
        });
        writeln!(
            out,
            "{:<15} {:<16} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>6.1}% {:>9}  {}",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            r.worse_by * 100.0,
            r.spreads.0 * 100.0,
            r.spreads.1 * 100.0,
            r.farthest_run * 100.0,
            bound_of(r.metric) * 100.0,
            seed_pairs,
            r.verdict.label(),
        )
        .unwrap();
    }
    let verdict = if passes(rows, aa) { "PASS" } else { "FAIL" };
    let mode = if aa { " (--aa)" } else { "" };
    writeln!(out, "{verdict}{mode}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five runs per workload, seeds 0..5.
    fn set(scale: impl Fn(&str, &str, usize) -> f64) -> Samples {
        let mut s = Samples::new();
        for w in WORKLOADS {
            let runs = s.entry(w.name.into()).or_default();
            runs.seeds = (0..5).collect();
            for m in END_TO_END {
                let values = (0..5).map(|run| scale(w.name, m.name, run)).collect();
                runs.metrics.insert(m.name.into(), values);
            }
        }
        s
    }

    /// 100 with a +-0.04 % wobble across the five runs: inside even the
    /// 0.1 % bound of `success_share`.
    fn steady(_: &str, _: &str, run: usize) -> f64 {
        100.0 + (run as f64 - 2.0) * 0.02
    }

    fn row<'a>(rows: &'a [Row], w: &str, m: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .unwrap()
    }

    #[test]
    fn identical_sets_are_same_and_pass_aa() {
        let rows = compare(&set(steady), &set(steady)).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(passes(&rows, true));
        assert!(render(&rows, true).ends_with("PASS (--aa)\n"));
    }

    #[test]
    fn direction_decides_worse_and_better() {
        let slower = set(|w, m, run| {
            let base = steady(w, m, run);
            if w == "rt-read-large" && (m == "op_p50_us" || m == "ops_per_s") {
                base * 1.2
            } else {
                base
            }
        });
        let rows = compare(&set(steady), &slower).unwrap();
        // Latency up 20 % is worse; throughput up 20 % is better.
        assert_eq!(
            row(&rows, "rt-read-large", "op_p50_us").verdict,
            Verdict::Worse
        );
        assert_eq!(
            row(&rows, "rt-read-large", "ops_per_s").verdict,
            Verdict::Better
        );
        assert_eq!(
            row(&rows, "rt-read-fanout", "op_p50_us").verdict,
            Verdict::Same
        );
        assert!(!passes(&rows, false));
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let noisy = set(|w, m, run| {
            if w == "sim-dst" && m == "op_p90_us" {
                [80.0, 95.0, 100.0, 120.0, 140.0][run]
            } else {
                steady(w, m, run)
            }
        });
        let rows = compare(&noisy, &noisy).unwrap();
        assert_eq!(
            row(&rows, "sim-dst", "op_p90_us").verdict,
            Verdict::Unresolved
        );
        assert!(passes(&rows, false), "unresolved is not a regression");
        assert!(!passes(&rows, true), "but an A/A check must resolve");
    }

    #[test]
    fn aa_fails_on_one_far_run() {
        // One run in five sits 1.1 bounds off the median: too far for an
        // A/A check, yet not enough to widen the quartiles past the bound.
        let far = 100.0 * (1.0 + 1.1 * bound_of("peak_rss_mb"));
        let outlier = set(|w, m, run| {
            if w == "rt-mixed-rw" && m == "peak_rss_mb" && run == 4 {
                far
            } else {
                steady(w, m, run)
            }
        });
        let rows = compare(&set(steady), &outlier).unwrap();
        assert_eq!(
            row(&rows, "rt-mixed-rw", "peak_rss_mb").verdict,
            Verdict::Same
        );
        assert!(passes(&rows, false));
        assert!(!passes(&rows, true));
    }

    #[test]
    fn aa_fails_when_an_exact_count_differs_at_one_seed() {
        // Far inside the 5 % bound, but an exact count: same seed, same
        // program, so the two runs must agree to the last digit.
        let off = set(|w, m, run| {
            let base = steady(w, m, run);
            if w == "sim-dst" && m == "msgs_per_op" && run == 3 {
                base + 1e-9
            } else {
                base
            }
        });
        let rows = compare(&set(steady), &off).unwrap();
        assert_eq!(
            row(&rows, "sim-dst", "msgs_per_op").seed_pairs,
            Some((5, 1))
        );
        assert_eq!(row(&rows, "sim-dst", "op_p50_us").seed_pairs, None);
        assert!(passes(&rows, false));
        assert!(!passes(&rows, true));
        // Sets that share no seed have no pair to disagree.
        let mut elsewhere = off;
        for runs in elsewhere.values_mut() {
            runs.seeds = (100..105).collect();
        }
        let rows = compare(&set(steady), &elsewhere).unwrap();
        assert_eq!(
            row(&rows, "sim-dst", "msgs_per_op").seed_pairs,
            Some((0, 0))
        );
        assert!(passes(&rows, true));
    }

    #[test]
    fn every_b_run_beating_every_a_run_is_better_whatever_the_spread() {
        let a = set(|_, _, run| [80.0, 95.0, 100.0, 120.0, 140.0][run]);
        let b = set(|_, m, run| {
            let lower_is_better =
                END_TO_END.iter().find(|e| e.name == m).unwrap().better == Better::Lower;
            if lower_is_better {
                [40.0, 50.0, 60.0, 70.0, 79.0][run]
            } else {
                [141.0, 150.0, 160.0, 170.0, 180.0][run]
            }
        });
        let rows = compare(&a, &b).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Better));
    }

    #[test]
    fn parse_reads_what_sweep_writes() {
        let text = r#"{"runs": [
            {"workload": "sim-dst", "seed": 7,
             "result": {"correct": true, "attempted": 5, "failed": 0,
                        "metrics": {"op_p50_us": {"value": 12.5, "unit": "us"}}}},
            {"workload": "sim-dst", "seed": 8,
             "result": {"correct": true, "attempted": 5, "failed": 0,
                        "metrics": {"op_p50_us": {"value": 13.0, "unit": "us"}}}}
        ]}"#;
        let set = parse_set(text).unwrap();
        assert_eq!(set["sim-dst"].seeds, vec![7, 8]);
        assert_eq!(set["sim-dst"].metrics["op_p50_us"], vec![12.5, 13.0]);
        assert!(
            compare(&set, &set).is_err(),
            "a set missing metrics cannot vouch"
        );
        assert!(parse_set("{}").is_err());
    }
}
