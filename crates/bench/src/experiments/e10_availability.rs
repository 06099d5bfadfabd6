//! E10b and E10c — membership availability through a primary-isolating
//! cut, the paper's §1.1 claim on replicated membership.
//!
//! Every row is a Fig. 6 [`Scenario`] on gossip replicas
//! (`rows::gossip_cut`) judged by the fuzzer's driver: the cut starts
//! once anti-entropy has spread the members to every replica, and the
//! members are homed on the hosts it spares. "During the cut" counts the
//! yields that landed before the heal, read off the run's events.
//!
//! * **E10b** — the primary plus a majority are cut away: a run reading
//!   `Primary` or `Quorum` blocks until the heal, one reading
//!   `Leaderless` serves every member from the survivors.
//! * **E10c** — only the primary is cut, for a sweep of outage lengths:
//!   the leaderless run keeps yielding through the outage, the
//!   primary-read run blocks until the heal; both finish.

use super::e10_gossip::N_MEMBERS;
use super::rows::{first_step, gossip_cut, judged, yields_around_cut};
use crate::report::{pct, Table};
use weakset_dst::prelude::Scenario;
use weakset_store::prelude::ReadPolicy;

/// When a row's cut starts: long after the rows' anti-entropy (5 ms
/// rounds) has spread the setup to every replica.
const CONVERGED_MS: u64 = 100;
/// E10b's cut: long enough for a leaderless run to drain all
/// `N_MEMBERS` while five of nine hosts time out on every read, and
/// well inside the driver's patience for the runs that block.
const CUT_MS: u64 = 10_000;
/// E10b's replica counts, and the read policy of each row per count.
const REPLICAS: [usize; 3] = [3, 5, 9];
const POLICIES: [ReadPolicy; 3] = [
    ReadPolicy::Primary,
    ReadPolicy::Quorum,
    ReadPolicy::Leaderless,
];
/// E10c's outage lengths, each with a primary-read and a leaderless row.
const OUTAGES_MS: [u64; 3] = [100, 400, 1600];

/// Every row of the E10b table: per replica count, the primary plus a
/// majority cut away for `CUT_MS`, one row per read policy in
/// `POLICIES` order.
pub fn cut_rows() -> Vec<Scenario> {
    let row = |n: usize, p| {
        let (seed, cut) = (2000 + n as u64, n / 2 + 1);
        gossip_cut(seed, n, cut, p, N_MEMBERS, CONVERGED_MS, CUT_MS)
    };
    REPLICAS
        .into_iter()
        .flat_map(|n| POLICIES.map(|p| row(n, p)))
        .collect()
}

/// Every row of the E10c table: per outage, five hosts with the primary
/// cut away, a primary-read row then a leaderless one.
pub fn outage_rows() -> Vec<Scenario> {
    let row = |ms, p| gossip_cut(3000 + ms, 5, 1, p, N_MEMBERS, CONVERGED_MS, ms);
    OUTAGES_MS
        .into_iter()
        .flat_map(|ms| [ReadPolicy::Primary, ReadPolicy::Leaderless].map(|p| row(ms, p)))
        .collect()
}

/// The E10b table.
pub(crate) fn cut_table() -> Table {
    let mut t = Table::new(
        "E10b: membership reads during a primary-isolating partition",
        &[
            "replicas",
            "hosts cut",
            "Primary",
            "Quorum",
            "Leaderless",
            "served during cut (P / Q / L)",
        ],
    );
    for (n, rows) in REPLICAS.into_iter().zip(cut_rows().chunks(POLICIES.len())) {
        let reports: Vec<_> = rows.iter().map(judged).collect();
        let served: Vec<String> = reports
            .iter()
            .map(|r| pct(yields_around_cut(r)[1], N_MEMBERS as usize))
            .collect();
        t.row(&[
            n.to_string(),
            (n / 2 + 1).to_string(),
            first_step(&reports[0]).to_string(),
            first_step(&reports[1]).to_string(),
            first_step(&reports[2]).to_string(),
            served.join(" / "),
        ]);
    }
    t.note("expected: the first invocation reading Primary or Quorum blocks, and so");
    t.note("does every one until the heal; the Leaderless run serves 100% from the");
    t.note("converged survivors while the cut lasts");
    t
}

/// The E10c table.
pub(crate) fn outage_table() -> Table {
    let mut t = Table::new(
        "E10c: optimistic-iterator progress through the outage (24 members)",
        &[
            "partition (ms)",
            "primary-read yields during",
            "leaderless yields during",
            "primary total",
            "leaderless total",
        ],
    );
    for (ms, rows) in OUTAGES_MS.into_iter().zip(outage_rows().chunks(2)) {
        let primary = judged(&rows[0]);
        let leaderless = judged(&rows[1]);
        t.row(&[
            ms.to_string(),
            yields_around_cut(&primary)[1].to_string(),
            yields_around_cut(&leaderless)[1].to_string(),
            primary.yielded.len().to_string(),
            leaderless.yielded.len().to_string(),
        ]);
    }
    t.note("expected: the primary-read iterator blocks for the whole window (0 yields)");
    t.note("while the leaderless one keeps yielding; both complete after heal");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_dst::prelude::Chaos;

    #[test]
    fn only_leaderless_survives_the_partition() {
        for (n, rows) in REPLICAS.into_iter().zip(cut_rows().chunks(POLICIES.len())) {
            for (policy, row) in POLICIES.into_iter().zip(rows) {
                let report = judged(row);
                let (first, served) = if policy == ReadPolicy::Leaderless {
                    ("yielded", N_MEMBERS as usize)
                } else {
                    ("blocked", 0)
                };
                assert_eq!(first_step(&report), first, "n={n} {policy:?}");
                assert_eq!(yields_around_cut(&report)[1], served, "n={n} {policy:?}");
                assert_eq!(report.yielded.len(), N_MEMBERS as usize, "n={n} {policy:?}");
            }
        }
    }

    #[test]
    fn leaderless_iterator_finishes_during_long_outages() {
        let during: Vec<usize> = outage_rows()
            .chunks(2)
            .map(|rows| {
                let primary = judged(&rows[0]);
                let leaderless = judged(&rows[1]);
                assert_eq!(yields_around_cut(&primary)[1], 0, "primary reads block");
                assert_eq!(primary.yielded.len(), N_MEMBERS as usize);
                assert_eq!(leaderless.yielded.len(), N_MEMBERS as usize);
                yields_around_cut(&leaderless)[1]
            })
            .collect();
        // Leaderless progress is real in every window and grows with the
        // outage; primary-read progress is identically zero throughout.
        assert!(during.iter().all(|&d| d > 0), "{during:?}");
        assert!(
            during[2] > during[0],
            "longer outage, more leaderless yields"
        );
    }

    #[test]
    #[should_panic(expected = "an experiment row violates its figure")]
    fn a_sabotaged_outage_row_is_refused() {
        judged(&Scenario {
            chaos: Chaos::PhantomYield,
            ..outage_rows().swap_remove(1)
        });
    }
}
