//! E9 — §3.1's warning made measurable: what strong consistency costs.
//!
//! While a locked iteration runs, writers are refused. E9a sweeps the set
//! size (which stretches the lock hold time) and compares writer success
//! against the same workload under snapshot iteration (no locks): its
//! rows are scenarios the fuzzer's driver runs and the oracle judges,
//! whose writes the iterating client issues between its invocations.
//! E9b reproduces the disconnection hazard: a client that vanishes
//! mid-run leaves the lock stuck until repair. It needs a second client
//! that writes while the reader is cut off, and a scenario has one
//! client, so E9b is the one world this module builds itself.

use super::rows::{base, churn, iteration_ms, judged};
use crate::report::{pct, Table};
use crate::scenarios::{populated_set, wan, Wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::*;
use weakset_dst::prelude::{Link, RunReport, Scenario};
use weakset_obs::store_health::{WRITE_ERR, WRITE_OK};
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::object::ObjectId;
use weakset_store::prelude::{StoreClient, StoreError};

const SIZES: [u64; 3] = [8, 32, 128];
const SEMANTICS: [Semantics; 2] = [Semantics::Locked, Semantics::Snapshot];

/// The row for `n` members on four servers behind 5 ms links, iterated
/// under `semantics`, with one write per member 10 ms apart (about one
/// per yield), so every write lands while the run is still going.
fn row(n: u64, semantics: Semantics) -> Scenario {
    Scenario {
        link: Link::Constant { one_way_ms: 5 },
        ops: churn(4, 10, n, false),
        ..base(900 + n, 4, semantics, n)
    }
}

/// Every row of the E9a table, in table order.
pub fn rows() -> Vec<Scenario> {
    SIZES
        .into_iter()
        .flat_map(|n| SEMANTICS.map(|semantics| row(n, semantics)))
        .collect()
}

/// The run's writes after setup, and how many of them the primary
/// refused.
fn writes(row: &Scenario, report: &RunReport) -> (u64, u64) {
    let (ok, err) = (
        report.metrics.counter(WRITE_OK),
        report.metrics.counter(WRITE_ERR),
    );
    (ok + err - row.setup.len() as u64, err)
}

/// The §3.1 hazard: a reader's disconnection extends the lock
/// indefinitely. Returns what a writer elsewhere met while the lock was
/// stuck, then after the reconnected reader released it: `stalled` or
/// `ok`.
fn hazard() -> [&'static str; 2] {
    let mut w = wan(910, 3, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 8, SimDuration::from_millis(200));
    let mut it = set.elements(Semantics::Locked);
    // Take the lock and yield a couple of elements.
    assert!(matches!(it.next(&mut w.world), IterStep::Yielded(_)));
    assert!(matches!(it.next(&mut w.world), IterStep::Yielded(_)));
    // The reader's laptop drops off the network mid-run.
    let reader_node = set.client().node();
    w.world.topology_mut().partition(&[reader_node]);
    // Its next invocation fails and its release RPC is lost silently.
    let step = it.next(&mut w.world);
    assert!(matches!(step, IterStep::Failed(_)));
    // A writer elsewhere in the connected majority.
    let writer = StoreClient::new(w.servers[1], SimDuration::from_millis(100));
    let entry = MemberEntry {
        elem: ObjectId(99_999),
        home: w.servers[0],
    };
    let write = |w: &mut Wan| match writer.add_member(&mut w.world, set.cref(), entry) {
        Err(StoreError::Locked) => "stalled",
        _ => "ok",
    };
    let stuck = write(&mut w);
    // The laptop reconnects and releases (modelled by re-running release
    // through a reconnected abort).
    w.world.topology_mut().heal_partition();
    let releaser = StoreClient::new(reader_node, SimDuration::from_millis(100));
    releaser
        .release_read_lock(&mut w.world, set.cref())
        .expect("release after reconnect");
    [stuck, write(&mut w)]
}

/// Formats the sweep + hazard as the E9 tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E9a (§3.1): writer stalls under locked vs snapshot iteration",
        &[
            "n",
            "semantics",
            "iteration time (ms)",
            "writer attempts",
            "stalled",
            "stall rate",
        ],
    );
    for row in rows() {
        let report = judged(&row);
        let (attempts, stalled) = writes(&row, &report);
        t.row(&[
            row.setup.len().to_string(),
            row.semantics.to_string(),
            format!("{:.2}", iteration_ms(&report)),
            attempts.to_string(),
            stalled.to_string(),
            pct(stalled as usize, attempts as usize),
        ]);
    }
    t.note("expected: locked iteration stalls ~all concurrent writers, and the stall");
    t.note("window grows linearly with n; snapshot iteration stalls none");

    let mut t2 = Table::new(
        "E9b (§3.1): disconnection extends the lock indefinitely",
        &["phase", "writer outcome"],
    );
    let phases = [
        "reader disconnected, lock stuck",
        "reader reconnected, lock released",
    ];
    for (phase, outcome) in phases.into_iter().zip(hazard()) {
        t2.row(&[phase.to_string(), outcome.to_string()]);
    }
    vec![t, t2]
}

/// `BENCH_e9.json`: a locked iteration of 10 members on two servers
/// behind 5 ms links, judged, and ten client adds 10 ms apart from the
/// run origin: every one bounces off the read lock (`store.write.err`)
/// until the iterator returns.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario {
        link: Link::Constant { one_way_ms: 5 },
        ops: churn(2, 10, 10, false),
        ..base(seed, 2, Semantics::Locked, 10)
    });
    with_yield_objective(snapshot_with_trace(
        &mut report.metrics,
        &report.events,
        "e9",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_iteration_stalls_writers_snapshot_does_not() {
        let mut hold_ms = Vec::new();
        for row in rows() {
            let report = judged(&row);
            let (attempts, stalled) = writes(&row, &report);
            assert_eq!(attempts, row.ops.len() as u64, "{}", row.semantics);
            match row.semantics {
                Semantics::Locked => {
                    assert_eq!(stalled, attempts, "n={}", row.setup.len());
                    hold_ms.push(iteration_ms(&report));
                }
                _ => assert_eq!(stalled, 0, "n={}", row.setup.len()),
            }
        }
        // The lock is held longer the larger the set.
        assert!(hold_ms.windows(2).all(|w| w[0] < w[1]), "{hold_ms:?}");
    }

    #[test]
    fn disconnection_hazard_reproduces() {
        assert_eq!(hazard(), ["stalled", "ok"]);
    }
}
