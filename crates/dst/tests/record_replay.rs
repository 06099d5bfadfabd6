//! End-to-end tests for the record/replay bridge: scenarios run live on
//! the threaded runtime with a recorder attached, then replay through
//! the deterministic simulator where the conformance oracles, shrinker,
//! and explainer re-judge them.

use weakset::prelude::{FetchOrder, Semantics};
use weakset_dst::prelude::*;
use weakset_runtime::record::RecEvent;
use weakset_sim::metrics::ObsEvent;
use weakset_store::prelude::ReadPolicy;

fn base_scenario(seed: u64) -> Scenario {
    Scenario {
        seed,
        servers: 2,
        deployment: Deployment::Plain,
        semantics: Semantics::Snapshot,
        read_policy: ReadPolicy::Primary,
        guard_growth: false,
        fetch_order: FetchOrder::IdOrder,
        window: 1,
        link: Link::DEFAULT,
        bandwidth: None,
        file_size: None,
        think_ms: 1,
        budget: 16,
        start_ms: 10,
        setup: vec![(1, 0), (2, 1), (3, 0)],
        ops: vec![
            Op::Add {
                at_ms: 5,
                elem: 4,
                home: 1,
            },
            Op::Remove { at_ms: 8, elem: 2 },
        ],
        faults: vec![],
        chaos: Chaos::None,
    }
}

/// Satellite 1: one threaded run, recorded; two independent replays must
/// be byte-identical (equal sim trace hashes) and match the live run's
/// observable outcome.
#[test]
fn replaying_a_recording_is_deterministic() {
    let s = base_scenario(0xD57);
    let live = record_scenario(&s).expect("record");
    assert!(
        live.report.violations.is_empty(),
        "live violations: {:?}",
        live.report.violations
    );
    assert!(!live.recording.truncated, "clean run must not truncate");
    assert!(!live.recording.entries.is_empty());

    let a = replay_recording(&live.recording).expect("replay a");
    let b = replay_recording(&live.recording).expect("replay b");
    assert_eq!(a.divergences, Vec::<String>::new());
    assert_eq!(b.divergences, Vec::<String>::new());
    assert_eq!(
        a.report.trace_hash, b.report.trace_hash,
        "two replays of one recording must produce identical sim traces"
    );
    assert_ne!(a.report.trace_hash, 0, "replay carries a real trace hash");
    assert_eq!(a.report.yielded, b.report.yielded);
    assert_eq!(a.report.violations, b.report.violations);
    assert_eq!(a.membership, b.membership);

    // And the replay reproduces the live run's observable outcome.
    assert_eq!(a.report.yielded, live.report.yielded);
    assert_eq!(a.membership, live.membership);
    assert!(a.report.violations.is_empty(), "{:?}", a.report.violations);
    assert!(a.report.metrics.counter("replay.divergence") == 0);
    assert!(a.report.metrics.counter("replay.rpc.replayed") > 0);
}

/// Satellite 3: a partition plus a link flap during the live run. The
/// recording must bracket every fault edge in a region, and the replay
/// must re-apply each one through the simulator — its `sim.fault.*`
/// events are exactly a simulated run's — and reproduce the outcome
/// divergence-free, including any blocked-then-healed behaviour the
/// optimistic iterator saw.
#[test]
fn faulted_threaded_run_replays_deterministically() {
    let mut s = base_scenario(0xFA17);
    s.semantics = Semantics::Optimistic;
    s.read_policy = ReadPolicy::Primary;
    s.setup = vec![(1, 0), (2, 1)];
    s.ops = vec![];
    s.faults = vec![
        FaultSpec::Partition {
            at_ms: 15,
            side: vec![1],
            for_ms: 40,
        },
        FaultSpec::Flap {
            at_ms: 20,
            a: 0,
            b: 1,
            down_ms: 4,
            up_ms: 4,
            cycles: 2,
        },
    ];

    let live = record_scenario(&s).expect("record");
    assert!(
        live.report.violations.is_empty(),
        "optimistic + self-healing faults must pass live: {:?}",
        live.report.violations
    );

    let fault_regions = |phases: [&str; 2]| {
        live.recording
            .entries
            .iter()
            .filter(|e| {
                matches!(&e.ev, RecEvent::Region { label }
                    if label.starts_with("fault.") && phases.iter().any(|p| label.ends_with(p)))
            })
            .count()
    };
    let cuts = fault_regions([".cut", ".down"]);
    let heals = fault_regions([".heal", ".up"]);
    assert_eq!(cuts, 3, "one partition and two flap cycles");
    assert_eq!(cuts, heals, "every recorded cut must record its heal");

    let a = replay_recording(&live.recording).expect("replay a");
    let b = replay_recording(&live.recording).expect("replay b");
    assert_eq!(a.divergences, Vec::<String>::new());
    assert_eq!(a.report.trace_hash, b.report.trace_hash);
    assert_eq!(a.report.yielded, live.report.yielded);
    assert_eq!(a.membership, live.membership);
    assert!(a.report.violations.is_empty(), "{:?}", a.report.violations);
    assert_eq!(
        a.report.metrics.counter("replay.fault.applied"),
        (cuts + heals) as u64,
        "replay must re-apply every recorded fault region"
    );
    let faults = |events: &[ObsEvent]| -> Vec<(String, String)> {
        events
            .iter()
            .filter(|e| e.kind.starts_with("sim.fault."))
            .map(|e| (e.kind.to_string(), e.detail.to_string()))
            .collect()
    };
    assert_eq!(faults(&a.report.events), faults(&execute(&s).events));
}

/// Satellite 4 (b): a hand-truncated recording — as a hung shutdown
/// would leave behind — replays its completed prefix without panicking
/// or reporting divergences, and the prefix replay is deterministic.
#[test]
fn truncated_recording_replays_its_prefix() {
    let s = base_scenario(0x7C); // Snapshot: any prefix is a legal run
    let live = record_scenario(&s).expect("record");
    assert!(live.report.violations.is_empty());

    // Cut the log at the second iterator invocation, as if the run had
    // died there, and mark it the way ThreadedRuntime::shutdown does.
    let mut cut = live.recording.clone();
    let cut_at = cut
        .entries
        .iter()
        .position(|e| matches!(&e.ev, RecEvent::Region { label } if label == "inv.2"))
        .expect("run long enough to have a second invocation");
    cut.entries.truncate(cut_at);
    cut.truncated = true;

    let a = replay_recording(&cut).expect("truncated replay");
    let b = replay_recording(&cut).expect("truncated replay");
    assert_eq!(
        a.divergences,
        Vec::<String>::new(),
        "a truncated log's missing tail is expected, not a divergence"
    );
    assert_eq!(a.report.trace_hash, b.report.trace_hash);
    // Exactly the first invocation completed before the cut.
    assert_eq!(a.report.steps, 1);
    assert_eq!(a.report.yielded.len(), 1);
    assert_eq!(a.report.yielded, live.report.yielded[..1].to_vec());
}

/// Tampering with a recorded payload must surface as a divergence —
/// loudly, in both the report and the metrics — never silently.
#[test]
fn payload_tampering_is_reported_as_divergence() {
    let s = base_scenario(0xBAD);
    let live = record_scenario(&s).expect("record");

    let mut tampered = live.recording.clone();
    let idx = tampered
        .entries
        .iter()
        .position(|e| matches!(e.ev, RecEvent::Send { .. }))
        .expect("log contains sends");
    if let RecEvent::Send { req_hash, .. } = &mut tampered.entries[idx].ev {
        *req_hash ^= 0xDEAD_BEEF;
    }

    let rep = replay_recording(&tampered).expect("replay");
    assert!(
        !rep.divergences.is_empty(),
        "hash mismatch must be reported"
    );
    assert!(rep.divergences.iter().any(|d| d.contains("payload")));
    assert!(rep.report.metrics.counter("replay.divergence") > 0);
}

/// The full failure pipeline over a recording: a chaos-injected
/// violation survives a disk round-trip, the *recording* shrinks while
/// still violating, and `explain` runs over the replayed report.
#[test]
fn violating_recording_shrinks_and_explains() {
    let mut s = base_scenario(0x51);
    s.chaos = Chaos::PhantomYield;
    s.setup = vec![(1, 0), (2, 1)];
    s.ops = vec![Op::Add {
        at_ms: 5,
        elem: 7,
        home: 0,
    }];
    s.faults = vec![FaultSpec::Outage {
        at_ms: 12,
        node: 1,
        for_ms: 10,
    }];

    let live = record_scenario(&s).expect("record");
    assert!(
        !live.report.violations.is_empty(),
        "phantom yield must violate the snapshot oracle"
    );

    // Disk round-trip, as the CLI writes it.
    let dir = std::env::temp_dir().join(format!("weakset-rr-e2e-{}", std::process::id()));
    let path = write_recording(&dir, &live.recording).expect("write");
    let loaded = load_recording(&path).expect("load");
    assert_eq!(loaded, live.recording);
    std::fs::remove_dir_all(&dir).ok();

    let rep = replay_recording(&loaded).expect("replay");
    assert!(
        !rep.report.violations.is_empty(),
        "replay must reproduce the violation: {:?}",
        rep.divergences
    );

    let (shrunk, execs) = shrink_recording(&loaded);
    assert!(execs > 1, "shrinking must actually explore candidates");
    assert!(shrunk.entries.len() <= loaded.entries.len());
    let shrunk_s = Scenario::from_ron(&shrunk.workload).expect("shrunk workload parses");
    // The chaos violation needs none of the workload: everything drops.
    assert!(shrunk_s.setup.is_empty(), "setup should shrink away");
    assert!(shrunk_s.ops.is_empty(), "ops should shrink away");
    assert!(shrunk_s.faults.is_empty(), "faults should shrink away");
    let min = replay_recording(&shrunk).expect("shrunk replay");
    assert!(
        !min.report.violations.is_empty(),
        "shrunk recording must still violate"
    );

    // The causal explainer accepts the replayed report as-is.
    let _ = explain(&min.report);
}

/// A fault-free sharded run (6 servers in 3 quorum groups) records, and
/// two replays are divergence-free, hash-equal and agree with the live
/// run, for every semantics.
#[test]
fn a_quiet_sharded_run_replays_deterministically() {
    for semantics in Semantics::ALL {
        let s = Scenario {
            servers: 6,
            deployment: Deployment::Sharded { shards: 3 },
            semantics,
            read_policy: ReadPolicy::Quorum,
            setup: (1..=6).map(|i| (i, i as usize - 1)).collect(),
            ops: vec![],
            ..base_scenario(23)
        };
        let live = record_scenario(&s).expect("record");
        assert!(
            live.report.violations.is_empty(),
            "{semantics}: {:?}",
            live.report.violations
        );
        assert!(!live.recording.truncated, "{semantics}");
        let a = replay_recording(&live.recording).expect("replay a");
        let b = replay_recording(&live.recording).expect("replay b");
        assert_eq!(a.divergences, Vec::<String>::new(), "{semantics}");
        assert_eq!(b.divergences, Vec::<String>::new(), "{semantics}");
        assert_eq!(a.report.trace_hash, b.report.trace_hash, "{semantics}");
        assert_eq!(a.report.yielded, b.report.yielded, "{semantics}");
        assert_eq!(a.report.yielded, live.report.yielded, "{semantics}");
        assert_eq!(a.membership, live.membership, "{semantics}");
        assert!(
            a.report.violations.is_empty(),
            "{semantics}: {:?}",
            a.report.violations
        );
        assert!(
            a.report.metrics.counter("replay.rpc.replayed") > 0,
            "{semantics}"
        );
    }
}
