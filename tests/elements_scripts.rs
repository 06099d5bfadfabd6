//! Scripted `elements` transcripts, pinned *across commits*.
//!
//! The DST corpus (`tests/determinism.rs`) never sets `cache_ttl`,
//! `block_attempts`, `retry_interval` or a distance latency model, so a
//! refactor of the iterator that claims "nothing moved" is also judged
//! here: every semantics × four configurations × six fault scripts on
//! three replicated servers under `SiteDistance`, folding everything a run
//! leaves behind — each step, a fused extra `next`, a late `remove` +
//! `size` (a leaked lock refuses the removal, a leaked guard defers it),
//! the observed computation, the span ledger, the full event stream, the
//! metrics registry as it prints and the simulator's trace hash.
//!
//! Written against the API every commit shares (`WeakSet::elements_observed`,
//! `Elements::{next, take_computation}`). One constant per semantics,
//! measured at d672394 — the last commit that shipped one iterator file
//! per figure; a change that moves one recorded a different byte. Moved
//! three times since. First when a replica sync began carrying the committed
//! write's step: every step, yield and late write answers as before, but
//! a replica that missed a write now costs the next one a second round
//! trip (the step it refuses, then the full membership), so timings,
//! events and rpc counts shift. Then when every object fetch went
//! through the fetch window, window 1 included: a run refetches a member
//! it failed to reach only once nothing else is left, so the fault
//! scripts' fetch order, timings and counts shift. Then when an rpc
//! became a send and a wait, and a write the primary refused with
//! `Locked` began counting as a write error: an outcome is stamped when
//! its reply or detection arrives, and the Locked scripts' late removal
//! counts `store.write.err`.

use std::fmt::Write as _;
use weak_sets::prelude::*;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four configurations: the defaults; the locality-blind order over
/// quorum reads; every tunable the DST generators leave alone; and a
/// guarded run reading whichever replica is closest — here a secondary,
/// so a read can be staler than the primary the run holds its guard at.
fn configs() -> [IterConfig; 4] {
    [
        IterConfig::default(),
        IterConfig {
            read_policy: ReadPolicy::Quorum,
            fetch_order: FetchOrder::IdOrder,
            ..IterConfig::default()
        },
        IterConfig {
            read_policy: ReadPolicy::Leaderless,
            cache_ttl: Some(SimDuration::from_secs(1)),
            guard_growth: true,
            block_attempts: 2,
            retry_interval: ms(3),
            ..IterConfig::default()
        },
        IterConfig {
            read_policy: ReadPolicy::Any,
            guard_growth: true,
            ..IterConfig::default()
        },
    ]
}

#[derive(Clone, Copy, Debug)]
enum Script {
    /// No fault: drain to `Done`.
    Healthy,
    /// One (non-primary) element home is down before the run starts.
    MemberHomeDown,
    /// The primary is down before the first invocation.
    PrimaryDownAtStart,
    /// The primary crashes after two invocations and restarts three later.
    PrimaryOutage,
    /// An unreplicated removal lands at the primary while the first
    /// invocation's opening rpc is in flight; an `add` and a `remove`
    /// land between invocations 2 and 3.
    Churn,
    /// After three invocations both replicas crash; 20 ms later — inside
    /// a retrying invocation — they restart, a removal lands at the
    /// primary, and the primary crashes. What a blocked invocation saw in
    /// its first round is no longer what the topology says at its last.
    HomesDownMidRun,
}

const SCRIPTS: [Script; 6] = [
    Script::Healthy,
    Script::MemberHomeDown,
    Script::PrimaryDownAtStart,
    Script::PrimaryOutage,
    Script::Churn,
    Script::HomesDownMidRun,
];

fn crash(w: &mut StoreWorld, node: NodeId) {
    w.schedule_fault(w.now(), FaultAction::Crash(node));
}

/// Schedules a removal applied at the primary directly — an environment
/// action no client rpc carries and no replica hears of.
fn remove_at_primary(w: &mut StoreWorld, at: SimTime, cref: &CollectionRef, elem: ObjectId) {
    let (home, coll) = (cref.home, cref.id);
    w.spawn_at(at, move |w: &mut StoreWorld| {
        if let Some(primary) = w.service_mut::<StoreServer>(home) {
            primary.apply(StoreMsg::RemoveMember { coll, elem });
        }
    });
}

/// One scripted run in a fresh world; returns everything it left behind.
fn run(semantics: Semantics, config: IterConfig, script: Script) -> String {
    let mut topo = Topology::new();
    let cn = topo.add_node("client", 0);
    // The primary is not the closest server: `s1` is.
    let servers: Vec<NodeId> = [2, 1, 4]
        .iter()
        .map(|&site| topo.add_node(format!("s{site}"), site))
        .collect();
    let mut w = StoreWorld::new(
        18,
        topo,
        LatencyModel::SiteDistance {
            base: ms(1),
            per_hop: ms(2),
        },
    );
    w.events_mut().set_enabled(true);
    for &s in &servers {
        w.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, ms(50));
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(&mut w, &cref).unwrap();
    let set = WeakSet::new(client, cref).with_config(config);
    let record = |id: u64| ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]);
    for id in 1..=6u64 {
        set.add(&mut w, record(id), servers[(id as usize - 1) % 3])
            .unwrap();
    }

    let mut out = String::new();
    match script {
        Script::MemberHomeDown => crash(&mut w, servers[2]),
        Script::PrimaryDownAtStart => crash(&mut w, servers[0]),
        _ => {}
    }
    w.sleep(ms(1));

    let mut it = set.elements_observed(semantics);
    for i in 0..14usize {
        match (script, i) {
            (Script::PrimaryOutage, 2) => crash(&mut w, servers[0]),
            (Script::PrimaryOutage, 5) => {
                w.schedule_fault(w.now(), FaultAction::Restart(servers[0]));
            }
            (Script::Churn, 0) => {
                let soon = w.now() + ms(1);
                remove_at_primary(&mut w, soon, set.cref(), ObjectId(4));
            }
            (Script::Churn, 2) => {
                let added = set.add(&mut w, record(9), servers[1]);
                let removed = set.remove(&mut w, ObjectId(6));
                writeln!(out, "churn add={added:?} remove={removed:?}").unwrap();
            }
            (Script::HomesDownMidRun, 3) => {
                crash(&mut w, servers[1]);
                crash(&mut w, servers[2]);
                let later = w.now() + ms(20);
                w.schedule_fault(later, FaultAction::Restart(servers[1]));
                w.schedule_fault(later, FaultAction::Restart(servers[2]));
                remove_at_primary(&mut w, later, set.cref(), ObjectId(5));
                w.schedule_fault(later, FaultAction::Crash(servers[0]));
            }
            _ => {}
        }
        let step = it.next(&mut w);
        writeln!(out, "{i} @{} {step:?}", w.now()).unwrap();
        match step {
            IterStep::Yielded(_) => w.sleep(ms(1)),
            IterStep::Blocked => w.sleep(ms(5)),
            IterStep::Done | IterStep::Failed(_) => break,
        }
    }
    writeln!(out, "extra {:?}", it.next(&mut w)).unwrap();
    // Whatever the run still holds at the primary shows here.
    let removed = set.remove(&mut w, ObjectId(1));
    let size = set.size(&mut w);
    writeln!(out, "late remove={removed:?} size={size:?}").unwrap();

    w.run_to_quiescence();
    writeln!(out, "{:?}", it.take_computation(&w)).unwrap();
    let at = w.now().as_micros();
    writeln!(out, "unclosed {:?}", w.events_mut().finish(at)).unwrap();
    writeln!(out, "{:?}", w.events_mut().take_events()).unwrap();
    write!(out, "{}", w.metrics()).unwrap();
    writeln!(out, "trace {:#018x}", w.trace_hash()).unwrap();
    out
}

fn transcript(semantics: Semantics) -> String {
    let mut out = String::new();
    for (c, config) in configs().into_iter().enumerate() {
        for script in SCRIPTS {
            writeln!(out, "== {semantics:?} config {c} {script:?}").unwrap();
            out.push_str(&run(semantics, config.clone(), script));
        }
    }
    out
}

#[test]
fn scripted_transcripts_are_pinned() {
    let pins: [(Semantics, u64); 4] = [
        (Semantics::Locked, 0x214f_392f_c7f8_2f00),
        (Semantics::Snapshot, 0xade5_1d4f_598d_9b5a),
        (Semantics::GrowOnly, 0xafef_4c75_e6ce_e6d2),
        (Semantics::Optimistic, 0x733c_9a1f_decd_cc4c),
    ];
    let mut all = String::new();
    for (semantics, pinned) in pins {
        let text = transcript(semantics);
        let folded = fnv(&text);
        assert_eq!(
            folded, pinned,
            "{semantics:?}: transcript fold is now {folded:#018x}"
        );
        all.push_str(&text);
    }
    // The scripts must reach every column of the design space, or the
    // pins above hold nothing: blocking, all three ways a run fails, and
    // late removals refused by a crashed, a locked and a guarding primary.
    for needle in [
        "Blocked",
        "Failed(MembershipUnavailable(",
        "Failed(MembersUnreachable {",
        "Failed(Store(",
        "NodeDown",
        "remove=Err(Store(Locked))",
        "store.cache.miss",
    ] {
        assert!(all.contains(needle), "no transcript contains {needle:?}");
    }
}
