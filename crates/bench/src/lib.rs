//! # weakset-bench
//!
//! The experiment harness for the weak-sets reproduction: ten
//! deterministic experiments (E1-E10) mapping the paper's figures and
//! claims to regenerable tables (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Run all tables with `cargo run -p weakset-bench --bin experiments`,
//! or a subset with e.g. `... --bin experiments e5 e6`.
//!
//! Machine-readable perf snapshots come from `--bin snapshot` (one
//! `BENCH_<scenario>.json` per experiment plus fuzz throughput) and are
//! gated against checked-in baselines by `--bin compare`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod scenarios;
pub mod snapshot;
