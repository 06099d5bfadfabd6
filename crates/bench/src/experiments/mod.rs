//! The experiment registry: one row per experiment id, one module per
//! row (E10's judged tables, E10b and E10c, in a second one; see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for results).
//!
//! A row's two views run the same module's code: `tables` prints the
//! paper-shaped sweep, `snapshot` freezes one small instrumented run of
//! it into the `BENCH_<id>.json` the CI gate regenerates. Both are pure
//! functions of their seeds.

pub mod e10_availability;
pub mod e10_gossip;
pub mod e11_sharded;
pub mod e12_session;
pub mod e1_immutable;
pub mod e2_immutable_failures;
pub mod e3_snapshot_loss;
pub mod e4_growonly;
pub mod e5_optimistic;
pub mod e6_latency;
pub mod e7_availability;
pub mod e8_taxonomy;
pub mod e9_locking;
pub mod fuzz;
mod rows;

use crate::report::Table;
use weakset_obs::ObsSnapshot;

/// One registry row.
pub struct Experiment {
    /// The id on the command line and in `BENCH_<id>.json`.
    pub id: &'static str,
    /// The experiment's tables, for the ids that have any.
    pub tables: Option<fn() -> Vec<Table>>,
    /// The experiment's perf snapshot for a seed.
    pub snapshot: fn(u64) -> ObsSnapshot,
}

const fn row(
    id: &'static str,
    tables: Option<fn() -> Vec<Table>>,
    snapshot: fn(u64) -> ObsSnapshot,
) -> Experiment {
    Experiment {
        id,
        tables,
        snapshot,
    }
}

/// Every experiment, in paper order.
pub static ALL: [Experiment; 13] = [
    row("e1", Some(e1_immutable::run), e1_immutable::snapshot),
    row(
        "e2",
        Some(e2_immutable_failures::run),
        e2_immutable_failures::snapshot,
    ),
    row(
        "e3",
        Some(e3_snapshot_loss::run),
        e3_snapshot_loss::snapshot,
    ),
    row("e4", Some(e4_growonly::run), e4_growonly::snapshot),
    row("e5", Some(e5_optimistic::run), e5_optimistic::snapshot),
    row("e6", Some(e6_latency::run), e6_latency::snapshot),
    row("e7", Some(e7_availability::run), e7_availability::snapshot),
    row("e8", Some(e8_taxonomy::run), e8_taxonomy::snapshot),
    row("e9", Some(e9_locking::run), e9_locking::snapshot),
    row("e10", Some(e10_gossip::run), e10_gossip::snapshot),
    row("e11", Some(e11_sharded::run), e11_sharded::snapshot),
    row("e12", None, e12_session::snapshot),
    row("fuzz", None, fuzz::snapshot),
];

/// The row for `id`, if there is one.
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}
