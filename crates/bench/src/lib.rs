//! # weakset-bench
//!
//! The experiment harness for the weak-sets reproduction: one registry
//! ([`experiments::ALL`]) of deterministic experiments mapping the
//! paper's figures and claims to regenerable tables (see DESIGN.md §4
//! and EXPERIMENTS.md) and to the machine-readable `BENCH_<id>.json`
//! snapshots CI holds byte-for-byte.
//!
//! One binary, two subcommands: `cargo run -p weakset-bench --bin
//! experiments [id…]` prints tables, `… --bin experiments -- snapshot
//! [--out DIR] [--seed N] [id…]` writes snapshots.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod scenarios;
pub mod snapshot;
