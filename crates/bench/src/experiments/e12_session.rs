//! E12 — causal-session reads: wait latency vs staleness (snapshot only;
//! no table).
//!
//! Three gossip replicas; the set's members are added before the run
//! starts, and the primary is partitioned away as iteration begins.
//! Each row is a Fig. 6 [`Scenario`] judged by the fuzzer's driver
//! (`rows::judged`). A session row's adds are the session's own, so the
//! oracle's session floor demands every one of them back: a run that
//! returns without one is a `SessionHidden` verdict, which `judged`
//! refuses. Cut before anti-entropy has shipped anything, the
//! `CausalSession` reads park until the heal (the secondaries answer
//! `SessionBehind`); cut after anti-entropy has converged the replicas,
//! the secondaries serve the same reads with no wait, and so does a
//! plain `Leaderless` read. A `Leaderless` read cut before anti-entropy
//! would serve the laggards' empty union: the oracle refuses that run
//! (see the tests), where the session run waits.

use super::rows::{gossip_cut, judged};
use crate::snapshot::{counter, snapshot_with_trace, with_common_objectives};
use weakset_dst::prelude::Scenario;
use weakset_obs::{Direction, ObsSnapshot};
use weakset_store::prelude::ReadPolicy;

const N_MEMBERS: u64 = 4;
/// How long the primary stays cut: past the 50 ms client timeout, so a
/// session read that only laggards can answer gives up and retries.
const CUT_MS: u64 = 80;
/// When the converged rows' cut starts: anti-entropy (5 ms rounds) has
/// long since spread the setup to both secondaries.
const CONVERGED_MS: u64 = 100;

/// The row reading under `policy`, with the primary cut at `at_ms`.
fn row(seed: u64, policy: ReadPolicy, at_ms: u64) -> Scenario {
    gossip_cut(seed, 3, 1, policy, N_MEMBERS, at_ms, CUT_MS)
}

/// Every E12 row: the session read over lagging secondaries, then the
/// session and the plain leaderless read over converged ones.
pub fn rows() -> Vec<Scenario> {
    vec![
        row(1200, ReadPolicy::CausalSession, 0),
        row(1200, ReadPolicy::CausalSession, CONVERGED_MS),
        row(1200, ReadPolicy::Leaderless, CONVERGED_MS),
    ]
}

/// `BENCH_e12.json`: the session row over lagging secondaries, judged.
/// The session must stay perfectly fresh and pays for it in parked wait
/// time (`session_wait_p50_us`). `session_stale_reads` counts the run's
/// session-floor verdicts: `judged` refuses a run with any, so a row
/// that reaches the snapshot has none.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&row(seed, ReadPolicy::CausalSession, 0));
    let snap = snapshot_with_trace(&mut report.metrics, &report.events, "e12", seed);
    let wait_p50 = snap
        .latencies
        .get(weakset_obs::session::READ_WAIT_US)
        .map_or(0.0, |s| s.p50_us as f64);
    let fresh = counter(&snap, "store.read.causal_session.ok");
    with_common_objectives(snap)
        .with_objective("session_stale_reads", 0.0, Direction::LowerIsBetter)
        .with_objective("session_fresh_reads", fresh, Direction::HigherIsBetter)
        .with_objective("session_wait_p50_us", wait_p50, Direction::LowerIsBetter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_dst::prelude::execute;
    use weakset_obs::session::READ_WAIT_US;

    #[test]
    fn the_session_waits_only_while_the_secondaries_lag() {
        let reports: Vec<_> = rows().iter().map(judged).collect();
        let waited: Vec<u64> = reports
            .iter()
            .map(|r| r.metrics.latency(READ_WAIT_US).map_or(0, |l| l.sum()))
            .collect();
        assert!(waited[0] > 0, "lagging secondaries park the read");
        assert_eq!(waited[1], 0, "converged secondaries serve it");
        assert!(reports
            .iter()
            .all(|r| r.yielded.len() == N_MEMBERS as usize));
    }

    #[test]
    fn a_leaderless_read_over_lagging_secondaries_is_refused() {
        let report = execute(&row(1200, ReadPolicy::Leaderless, 0));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("expected a yield")),
            "{:?}",
            report.violations
        );
    }
}
