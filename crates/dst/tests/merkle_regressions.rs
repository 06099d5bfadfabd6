//! Regressions the `merkle` fuzz leg found in the
//! Merkle-range exchange, pinned as replayable scenarios.

use weakset_dst::prelude::*;

/// Regression (mid-exchange vector skew): the push leg used to re-read
/// the origin's *live* digest after the descent. An add landing between
/// the exchange's tree snapshot and that re-read produced a batch whose
/// vector covered the fresh dot while its entry was in neither half of
/// the diff — the receiver joined the vector, then refused the entry
/// forever as already-seen (`apply_batch` treats covered-but-absent as
/// removed). The fuzzer shrank it to two adds on a three-node grow-only
/// deployment; the pair diverged permanently with zero faults.
#[test]
fn concurrent_add_during_merkle_exchange_converges() {
    let scenario = Scenario::from_ron(
        "Scenario(
    seed: 8346079845500723674,
    servers: 3,
    deployment: Gossip(grow_only: true, merkle: true),
    semantics: Optimistic,
    read_policy: Primary,
    guard_growth: false,
    fetch_order: IdOrder,
    think_ms: 4,
    budget: 36,
    start_ms: 72,
    setup: [],
    ops: [Add(at_ms: 10, elem: 100, home: 1), Add(at_ms: 15, elem: 101, home: 1)],
    faults: [],
    chaos: None,
)",
    )
    .expect("pinned artifact must parse");
    let report = execute(&scenario);
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "merkle gossip must converge under adds racing the exchange"
    );
}

/// The merkle generator's seed stream stays violation-free across both
/// digest modes (a slice of the fuzz leg, pinned so `cargo test` alone
/// catches a reintroduction).
#[test]
fn merkle_seed_stream_stays_clean() {
    for i in 0..12 {
        let scenario = generate_merkle(mix(7, i));
        let report = execute(&scenario);
        assert_eq!(
            report.violations,
            Vec::<String>::new(),
            "seed {} (iter {i})",
            scenario.seed
        );
    }
}
