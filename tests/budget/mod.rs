//! The timing loop the report-only budgets (`read_budget.rs`,
//! `write_budget.rs`) share.

use std::time::Instant;

/// Timed rounds per row, after one warm-up round.
const ROUNDS: usize = 21;

/// Fastest-round mean wall time of one call of `step(row, i, false)`
/// for every row, in nanoseconds: on a shared host the fastest round is
/// the one least disturbed by other work. A round times `batch` calls,
/// `i` in `0..batch`, then makes the untimed calls `step(row, i, true)`
/// that undo them, where a row needs that. Rounds interleave the rows,
/// so a drift of the host during the run lands on all of them alike.
pub fn ns_per_call<const ROWS: usize>(
    batch: u32,
    mut step: impl FnMut(usize, u32, bool),
) -> [f64; ROWS] {
    let mut rounds = [[0.0; ROUNDS]; ROWS];
    for round in 0..=ROUNDS {
        for (row, samples) in rounds.iter_mut().enumerate() {
            let t0 = Instant::now();
            for i in 0..batch {
                step(row, i, false);
            }
            // Round 0 is the warm-up.
            if round > 0 {
                samples[round - 1] = t0.elapsed().as_nanos() as f64 / f64::from(batch);
            }
            for i in 0..batch {
                step(row, i, true);
            }
        }
    }
    rounds.map(|samples| samples.into_iter().fold(f64::INFINITY, f64::min))
}
