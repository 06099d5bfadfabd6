//! E7 — the availability claim (§1.1): partial results despite failures.
//!
//! Every row is a listing scenario (`rows::listing`) judged by the
//! fuzzer's driver. Under a partition the strict `ls` collapses
//! (all-or-nothing) while the dynamic-set listing returns everything
//! reachable. Includes the paper's signature mobile scenario: a laptop
//! that disconnects mid-listing keeps what it has and finishes after
//! reconnecting.

use super::rows::{iter_run, judged, listing, yields_around_cut, NEVER_HEALS_MS};
use crate::report::{pct, Table};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::Semantics;
use weakset_dst::prelude::{FaultSpec, RunReport, Scenario};
use weakset_obs::{Direction, ObsSnapshot};

const N_FILES: u64 = 64;
const N_SERVERS: usize = 8;
const CUTS: [usize; 4] = [0, 2, 4, 6];
/// When E7b's laptop disconnects: a third into the 660 ms its listing
/// takes undisturbed (20 ms to the first entry, 10 ms to each next).
const DISCONNECT_MS: u64 = 220;
/// How long it stays disconnected, well inside the driver's patience.
const DISCONNECTED_MS: u64 = 300;

/// The E7a row listing with `window` fetches in flight while the last
/// `cut` servers are partitioned away from the run origin for good
/// (never the directory's home, server 0).
pub(crate) fn cut_row(cut: usize, window: usize) -> Scenario {
    let mut s = listing(700 + cut as u64, N_FILES, window);
    if cut > 0 {
        s.faults.push(FaultSpec::Partition {
            at_ms: 0,
            side: (N_SERVERS - cut..N_SERVERS).collect(),
            for_ms: NEVER_HEALS_MS,
        });
    }
    s
}

/// The E7b row: a Fig. 6 listing with four fetches in flight whose
/// client is cut off from every server for a while, mid-listing.
pub(crate) fn mobile_row() -> Scenario {
    Scenario {
        semantics: Semantics::Optimistic,
        faults: vec![FaultSpec::Partition {
            at_ms: DISCONNECT_MS,
            side: (0..N_SERVERS).collect(),
            for_ms: DISCONNECTED_MS,
        }],
        ..listing(710, N_FILES, 4)
    }
}

/// The object fetches a Snapshot listing sent: every request of its run
/// but the one membership read.
fn fetches(report: &RunReport) -> u64 {
    report.iter_sent - 1
}

/// Formats the sweep and the mobile scenario as the E7 tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E7a: availability under partition — strict ls vs dynls",
        &[
            "volumes cut (of 8)",
            "ls outcome",
            "ls entries",
            "dynls listed",
            "dynls pending",
            "dynls availability",
            "dynls fetches",
        ],
    );
    for cut in CUTS {
        let ls = judged(&cut_row(cut, 1));
        let complete = iter_run(&ls).returned();
        let dynls = judged(&cut_row(cut, 8));
        let listed = dynls.yielded.len();
        t.row(&[
            cut.to_string(),
            if complete { "ok" } else { "FAILED" }.to_string(),
            if complete { ls.yielded.len() } else { 0 }.to_string(),
            listed.to_string(),
            (N_FILES as usize - listed).to_string(),
            pct(listed, N_FILES as usize),
            fetches(&dynls).to_string(),
        ]);
    }
    t.note("expected: ls is all-or-nothing (fails at any cut); dynls lists the reachable");
    t.note("fraction ≈ (8-cut)/8 and reports the rest pending");

    let [before, during, after] = yields_around_cut(&judged(&mobile_row()));
    let mut t2 = Table::new(
        "E7b: mobile client disconnects mid-listing, reconnects, finishes",
        &["phase", "entries fetched"],
    );
    t2.row(&["before disconnect".to_string(), before.to_string()]);
    t2.row(&["while disconnected".to_string(), during.to_string()]);
    t2.row(&["after reconnect".to_string(), after.to_string()]);
    t2.note("expected: nothing arrives while the client is disconnected;");
    t2.note("the listing completes after reconnection, nothing lost or duplicated");
    vec![t, t2]
}

/// `BENCH_e7.json`: the E7a row listing with a window of 8 while 2 of
/// the 8 servers are cut away.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut report = judged(&Scenario {
        seed,
        ..cut_row(2, 8)
    });
    let sent = fetches(&report) as f64;
    let snap = snapshot_with_trace(&mut report.metrics, &report.events, "e7", seed);
    with_yield_objective(snap).with_objective("fetches", sent, Direction::LowerIsBetter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_is_all_or_nothing_and_dynls_lists_what_it_can_reach() {
        for cut in CUTS {
            assert_eq!(iter_run(&judged(&cut_row(cut, 1))).returned(), cut == 0);
            let dynls = judged(&cut_row(cut, 8));
            let reachable = N_FILES as usize * (N_SERVERS - cut) / N_SERVERS;
            assert_eq!(dynls.yielded.len(), reachable, "cut={cut}");
            assert_eq!(iter_run(&dynls).returned(), cut == 0, "cut={cut}");
        }
    }

    #[test]
    fn a_disconnected_listing_finishes_after_reconnecting() {
        let report = judged(&mobile_row());
        let [before, during, after] = yields_around_cut(&report);
        assert!(before > 0 && after > 0, "{before} {after}");
        assert_eq!(during, 0);
        let mut listed = report.yielded.clone();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(listed.len(), N_FILES as usize, "nothing lost or duplicated");
        assert_eq!(before + after, N_FILES as usize);
    }
}
