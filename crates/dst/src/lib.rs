//! # weakset-dst — deterministic simulation fuzzer
//!
//! Randomized end-to-end testing for the weak-set stack: a seeded
//! generator ([`gen`]) picks a topology, a deployment (plain store,
//! gossip replication, or a hash-ring-sharded set iterated as one run
//! over the union of its shards), an iterator design point (all four semantics × read
//! policies), a mutation workload, and an adversarial fault
//! schedule; a deterministic executor ([`run`]) drives the run inside
//! `weakset-sim`; and a conformance oracle ([`oracle`]) machine-checks
//! the recorded history against the matching figure of *Specifying Weak
//! Sets* (Wing & Steere, ICDCS 1995), plus cross-run invariants (gossip
//! replicas converge after every heal, optimistic iterators never fail).
//!
//! Because a scenario fully determines its run, a violation shrinks
//! ([`shrink`]) to a locally minimal scenario and ships as a
//! self-contained artifact ([`repro`]) that replays as an ordinary test
//! — together with a causal post-mortem ([`explain`]) walking the run's
//! happens-before DAG from the failed invocation back to the fault that
//! caused it.
//!
//! The bridge to reality is [`replay`]: record a scenario running on
//! the *threaded* runtime (capturing every observable source of
//! nondeterminism at the `Runtime` boundary), then re-drive the exact
//! interleaving through the simulator, where the same oracles, shrinker
//! (over the *recording*), and causal explainer apply.
//!
//! A fuzz leg is one row of [`gen::LEGS`] — a named generator — and
//! [`run::campaign`] runs one leg from one seed. The `weakset-dst`
//! binary is the CI gate around it:
//!
//! ```text
//! cargo run -p weakset-dst -- --leg plain --iters 500 --seed 42
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drive;
pub mod explain;
pub mod gen;
pub mod oracle;
pub mod replay;
pub mod repro;
pub mod run;
pub mod scenario;
pub mod shrink;

/// One-stop imports for fuzzer tests and harnesses.
pub mod prelude {
    pub use crate::explain::explain;
    pub use crate::gen::{
        generate, generate_causal, generate_merkle, generate_sharded, mix, Leg, LEGS,
    };
    pub use crate::oracle::{axioms_for, check, check_with_session, spec_for};
    pub use crate::replay::{
        load_recording, record_scenario, replay_recording, shrink_recording, write_recording,
        RecordedRun, ReplayReport,
    };
    pub use crate::repro::{load, replay, write_artifact};
    pub use crate::run::{campaign, execute, Failure, RunReport, COLL};
    pub use crate::scenario::{Chaos, Deployment, FaultSpec, Link, Op, Scenario};
    pub use crate::shrink::shrink;
}
