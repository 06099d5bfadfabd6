//! Cross-backend parity: the deterministic simulator and the OS-thread
//! runtime must agree about weak-set semantics — the *same* client,
//! iterator, and conformance-checking code runs against both through
//! `&mut StoreRt`, and every recorded run satisfies the same figures.
//!
//! Each scenario scripts an identical sequence of mutations and one
//! observed iteration, then compares what the two backends produced:
//! the yielded elements, the final membership under the read policy,
//! and the per-figure conformance verdicts. The grid covers all four
//! figure semantics crossed with the three read policies; the
//! record→replay round trip adds causal-session reads as a fourth.

use std::time::Duration;
use weak_sets::prelude::*;
use weak_sets::weakset_sim::world::{Service, ServiceCtx};

const COLL: CollectionId = CollectionId(7);
const SEED: u64 = 42;

/// What one scripted scenario produced, in backend-independent form.
#[derive(Debug, PartialEq)]
struct ScenarioOutcome {
    yielded: Vec<u64>,
    membership: Vec<u64>,
    verdicts: Vec<(Figure, bool)>,
}

/// The scripted scenario, generic over the backend: create a collection
/// replicated across three servers, add five elements, remove one, run
/// one observed iteration, then read the final membership.
fn drive(
    rt: &mut StoreRt,
    servers: &[NodeId],
    client_node: NodeId,
    semantics: Semantics,
    policy: ReadPolicy,
) -> ScenarioOutcome {
    let mut client = StoreClient::new(client_node, SimDuration::from_millis(500));
    if policy == ReadPolicy::CausalSession {
        client = client.with_session();
    }
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(rt, &cref).unwrap();

    let set = WeakSet::new(client.clone(), cref.clone()).with_config(IterConfig {
        read_policy: policy,
        ..IterConfig::default()
    });
    for i in 1..=5u64 {
        let home = servers[(i as usize - 1) % servers.len()];
        set.add(
            rt,
            ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            home,
        )
        .unwrap();
    }
    set.remove(rt, ObjectId(2)).unwrap();

    let mut it = set.elements_observed(semantics);
    let mut yielded = Vec::new();
    let mut blocked = 0usize;
    loop {
        match it.next(rt) {
            IterStep::Yielded(rec) => {
                blocked = 0;
                yielded.push(rec.id.0);
            }
            IterStep::Done => break,
            IterStep::Blocked => {
                blocked += 1;
                assert!(blocked < 100, "iterator stuck with all nodes up");
                rt.sleep(SimDuration::from_millis(5));
            }
            IterStep::Failed(e) => panic!("iteration failed with all nodes up: {e:?}"),
        }
    }
    yielded.sort_unstable();

    let comp = it.take_computation(rt).expect("observer was attached");
    let verdicts = Figure::ALL
        .iter()
        .map(|&f| (f, check_computation(f, &comp).is_ok()))
        .collect();

    let mut membership: Vec<u64> = client
        .read_members(rt, &cref, policy)
        .unwrap()
        .entries
        .iter()
        .map(|m| m.elem.0)
        .collect();
    membership.sort_unstable();

    ScenarioOutcome {
        yielded,
        membership,
        verdicts,
    }
}

/// Runs the scenario on the simulator.
fn run_sim(semantics: Semantics, policy: ReadPolicy) -> ScenarioOutcome {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(s, Box::new(StoreServer::new()));
    }
    drive(&mut w, &servers, cn, semantics, policy)
}

/// Runs the scenario on real OS threads, then shuts the fleet down
/// under a deadline so a hung node fails the test instead of hanging it.
fn run_threaded(semantics: Semantics, policy: ReadPolicy) -> ScenarioOutcome {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
    let cn = rt.add_node("client");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &servers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let out = drive(&mut rt, &servers, cn, semantics, policy);
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
    out
}

/// The full grid: four figure semantics × three read policies, each
/// scripted identically on both backends, must agree element-for-element
/// and verdict-for-verdict.
#[test]
fn backends_agree_across_semantics_and_policies() {
    for semantics in [
        Semantics::Snapshot,
        Semantics::GrowOnly,
        Semantics::Optimistic,
        Semantics::Locked,
    ] {
        for policy in [
            ReadPolicy::Primary,
            ReadPolicy::Quorum,
            ReadPolicy::Leaderless,
        ] {
            let sim = run_sim(semantics, policy);
            let threaded = run_threaded(semantics, policy);
            assert_eq!(
                sim, threaded,
                "backends disagree for {semantics:?} under {policy:?}"
            );
            assert_eq!(
                sim.membership,
                vec![1, 3, 4, 5],
                "scripted membership for {semantics:?}/{policy:?}"
            );
            assert_eq!(sim.yielded, vec![1, 3, 4, 5]);
        }
    }
}

/// Causal-session parity: the same scripted scenario, but every read
/// and iteration carries the client's session token, so both backends
/// must satisfy read-your-writes through the identical wait/redirect
/// machinery — and still agree element-for-element with each other.
#[test]
fn causal_session_reads_agree_across_backends() {
    for semantics in [
        Semantics::Snapshot,
        Semantics::GrowOnly,
        Semantics::Optimistic,
        Semantics::Locked,
    ] {
        let sim = run_sim(semantics, ReadPolicy::CausalSession);
        let threaded = run_threaded(semantics, ReadPolicy::CausalSession);
        assert_eq!(
            sim, threaded,
            "backends disagree for {semantics:?} under CausalSession"
        );
        // Read-your-writes: the session's own five adds minus its own
        // remove, never a stale subset.
        assert_eq!(
            sim.membership,
            vec![1, 3, 4, 5],
            "session membership for {semantics:?}"
        );
        assert_eq!(sim.yielded, vec![1, 3, 4, 5]);
    }
}

/// A collection replicated on all three `servers`, holding four members,
/// and a client whose timeout no slow runner's rpc can reach.
fn quorum_setup(
    rt: &mut StoreRt,
    servers: &[NodeId],
    client_node: NodeId,
) -> (StoreClient, CollectionRef) {
    let client = StoreClient::new(client_node, SimDuration::from_secs(2));
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(rt, &cref).unwrap();
    for i in 1..=4u64 {
        let entry = MemberEntry {
            elem: ObjectId(i),
            home: servers[0],
        };
        client.add_member(rt, &cref, entry).unwrap();
    }
    (client, cref)
}

/// `n` `Quorum` reads, each answered by a majority with all four members.
fn quorum_reads(rt: &mut StoreRt, client: &StoreClient, cref: &CollectionRef, n: usize) {
    for _ in 0..n {
        let read = client.read_members(rt, cref, ReadPolicy::Quorum);
        assert_eq!(read.map(|r| r.entries.len()), Ok(4));
    }
}

/// The counters both backends must agree on: `rpc.sent`, `rpc.ok`,
/// every `rpc.failed*` and every `store.read.quorum.*`.
fn rpc_family(rt: &StoreRt) -> Vec<(String, u64)> {
    rt.metrics()
        .counters()
        .filter(|(name, _)| {
            ["rpc.sent", "rpc.ok"].contains(name)
                || name.starts_with("rpc.failed")
                || name.starts_with("store.read.quorum.")
        })
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// One rpc counter family on both backends: 20 healthy `Quorum` reads,
/// then 5 with one replica partitioned away, count the same `rpc.sent`,
/// `rpc.ok` and `rpc.failed` (and nothing else under `rpc.failed`) on
/// the simulator and on threads; a threaded view's `rpc.latency`
/// population is exactly its successful rpcs that crossed a mailbox
/// (`rpc.ok − rpc.shared`), and both backends time all 25 reads.
#[test]
fn backends_count_one_rpc_family() {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(s, Box::new(StoreServer::new()));
    }
    let (client, cref) = quorum_setup(&mut w, &servers, cn);
    quorum_reads(&mut w, &client, &cref, 20);
    w.apply_fault(FaultAction::Partition(vec![servers[2]]));
    quorum_reads(&mut w, &client, &cref, 5);
    let sim = rpc_family(&w);
    let sim_reads = read_latencies(&w);

    let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
    let tcn = rt.add_node("client");
    let tservers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &tservers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let (client, cref) = quorum_setup(&mut rt, &tservers, tcn);
    quorum_reads(&mut rt, &client, &cref, 20);
    rt.apply_fault(&FaultAction::Partition(vec![tservers[2]]));
    quorum_reads(&mut rt, &client, &cref, 5);
    let threads = rpc_family(&rt);
    let thread_reads = read_latencies(&rt);
    let crossed = rt.metrics().counter("rpc.ok") - rt.metrics().counter("rpc.shared");
    let latencies = rt.metrics().latency("rpc.latency").map_or(0, |l| l.len());
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");

    assert_eq!(sim, threads);
    let count = |name: &str| sim.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    // 25 reads of three replicas, five of whose rpcs found no route.
    assert_eq!(count("store.read.quorum.contacts"), Some(75));
    assert_eq!(count("rpc.failed"), Some(5));
    assert_eq!(count("rpc.sent"), count("rpc.ok").map(|ok| ok + 5));
    assert_eq!(
        latencies as u64, crossed,
        "one latency per successful rpc that crossed a mailbox"
    );
    // Every read is timed by its caller, on either path, so an rpc
    // served in place is never unaccounted for.
    assert_eq!((sim_reads, thread_reads), (25, 25));
}

/// How many `Quorum` reads the caller timed (`store.read.quorum.us`).
fn read_latencies(rt: &StoreRt) -> usize {
    rt.metrics()
        .latency("store.read.quorum.us")
        .map_or(0, |l| l.len())
}

/// The `rpc.sent`, `rpc.ok` and `rpc.failed` a `Primary` read by
/// `client` spends on a collection whose home is down (the read fails).
fn failed_read_rpcs(rt: &mut StoreRt, client: &StoreClient, cref: &CollectionRef) -> [u64; 3] {
    let counts =
        |rt: &StoreRt| ["rpc.sent", "rpc.ok", "rpc.failed"].map(|n| rt.metrics().counter(n));
    let before = counts(rt);
    let read = client.read_members(rt, cref, ReadPolicy::Primary);
    assert!(matches!(read, Err(StoreError::Net(_))), "{read:?}");
    let after = counts(rt);
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// A retrying client retries alike on both backends: `with_retries(2)`
/// against a crashed home makes three attempts, each counted once as
/// sent and once as failed, and none skipped by the retry-free fast path.
#[test]
fn retries_reach_a_crashed_node_alike_on_both_backends() {
    let client_of = |node| StoreClient::new(node, SimDuration::from_millis(50)).with_retries(2);
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let s = t.add_node("s0", 1);
    let mut w = StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    w.install_service(s, Box::new(StoreServer::new()));
    let cref = CollectionRef::unreplicated(COLL, s);
    let client = client_of(cn);
    client.create_collection(&mut w, &cref).unwrap();
    w.apply_fault(FaultAction::Crash(s));
    let sim = failed_read_rpcs(&mut w, &client, &cref);

    let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
    let tcn = rt.add_node("client");
    let ts = rt.add_node("s0");
    rt.install_service(ts, Box::new(StoreServer::new()));
    let cref = CollectionRef::unreplicated(COLL, ts);
    let client = client_of(tcn);
    client.create_collection(&mut rt, &cref).unwrap();
    rt.apply_fault(&FaultAction::Crash(ts));
    let threads = failed_read_rpcs(&mut rt, &client, &cref);
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");

    assert_eq!(sim, [3, 0, 3], "simulator: sent, ok, failed");
    assert_eq!(threads, [3, 0, 3], "threads: sent, ok, failed");
}

/// What a bare `send` to the partitioned replica `cut`, then a batched
/// `Quorum` read that names it, spend: both find it unroutable at once.
fn unroutable_sends(
    rt: &mut StoreRt,
    client: &StoreClient,
    cref: &CollectionRef,
    cn: NodeId,
    cut: NodeId,
) -> Vec<(String, u64)> {
    let token = rt.send(cn, cut, StoreMsg::GetObject(ObjectId(1)));
    let deadline = rt.now() + SimDuration::from_millis(50);
    assert_eq!(rt.wait_any(&[token], deadline), Some(token));
    let reply = rt.try_take_reply(token);
    assert!(
        matches!(reply, Some(Err(NetError::Unreachable { .. }))),
        "{reply:?}"
    );
    let reads = client.read_members_batched(rt, std::slice::from_ref(cref), ReadPolicy::Quorum);
    let sizes: Vec<_> = reads
        .iter()
        .map(|r| r.as_ref().map(|r| r.entries.len()))
        .collect();
    assert_eq!(sizes, [Ok(4)], "two of three replicas are a quorum");
    rpc_family(rt)
}

/// A request that cannot leave counts alike on both backends: a send to
/// a partitioned replica counts once under `rpc.sent` and once under
/// `rpc.failed`, whether it is a bare `send` or one envelope of a
/// batched read.
#[test]
fn unroutable_sends_count_alike_on_both_backends() {
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    for &s in &servers {
        w.install_service(s, Box::new(StoreServer::new()));
    }
    let (client, cref) = quorum_setup(&mut w, &servers, cn);
    w.apply_fault(FaultAction::Partition(vec![servers[2]]));
    let sim = unroutable_sends(&mut w, &client, &cref, cn, servers[2]);

    let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
    let tcn = rt.add_node("client");
    let tservers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &tservers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let (client, cref) = quorum_setup(&mut rt, &tservers, tcn);
    rt.apply_fault(&FaultAction::Partition(vec![tservers[2]]));
    let threads = unroutable_sends(&mut rt, &client, &cref, tcn, tservers[2]);
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");

    assert_eq!(sim, threads);
    let count = |name: &str| sim.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(count("rpc.failed"), Some(2), "the send and one envelope");
}

/// Answers every request with `Ack` from its node's own thread: it
/// serves nothing in place, so a threaded request to it crosses a
/// mailbox.
struct Acker;

impl Service<StoreMsg> for Acker {
    fn handle(&mut self, _ctx: &mut ServiceCtx<'_>, _from: NodeId, _msg: StoreMsg) -> StoreMsg {
        StoreMsg::Ack
    }
}

/// What asking for one request left behind: the caller's result, the
/// `rpc.*` counters, and how many replies were timed (`rpc.latency`).
type Asked = (Result<StoreMsg, NetError>, Vec<(String, u64)>, usize);

/// Asks `to` for `msg` by an `rpc`, or by a `send`, a wait and a take,
/// each with `ms` to spare.
fn ask(rt: &mut StoreRt, by_send: bool, ms: u64, to: NodeId, msg: StoreMsg) -> Asked {
    let (from, timeout) = (NodeId(0), SimDuration::from_millis(ms));
    let got = if by_send {
        let token = rt.send(from, to, msg);
        let deadline = rt.now() + timeout;
        rt.wait_any(&[token], deadline);
        rt.try_take_reply(token).unwrap_or(Err(NetError::Timeout))
    } else {
        rt.rpc(from, to, msg, timeout)
    };
    let counters = rt
        .metrics()
        .counters()
        .filter(|(name, _)| name.starts_with("rpc."))
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    let timed = rt.metrics().latency("rpc.latency").map_or(0, |l| l.len());
    (got, counters, timed)
}

/// One request life cycle on both backends (`weakset_sim::requests`): on
/// every way a request can end, an `rpc` and a `send` with its wait
/// leave the same result and the same account, and the two backends
/// agree on both. A request counts `rpc.sent` and then one `rpc.ok` or
/// one `rpc.failed`, except a down caller's, which sends nothing. The
/// simulator times every reply; the threaded backend times the replies
/// that crossed a mailbox, and counts one served in place `rpc.shared`.
/// On the simulator both ways also leave the same trace and clock.
#[test]
fn rpc_and_send_share_one_account_on_both_backends() {
    let get = || StoreMsg::GetObject(ObjectId(1));
    // Each fleet: client, store server, `Acker`, and a node with no service.
    let (c, store, acker, empty) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let ok = |shared: bool| {
        let mut counters = vec![("rpc.ok", 1), ("rpc.sent", 1)];
        counters.extend(shared.then_some(("rpc.shared", 1)));
        counters
    };
    let failed = vec![("rpc.failed", 1), ("rpc.sent", 1)];
    // (ending, fault first, target, result, threaded account, threaded timed)
    let endings = [
        (
            "in place",
            None,
            store,
            Ok(StoreMsg::NotFound(ObjectId(1))),
            ok(true),
            0,
        ),
        ("mailbox", None, acker, Ok(StoreMsg::Ack), ok(false), 1),
        (
            "unroutable",
            Some(FaultAction::Partition(vec![store])),
            store,
            Err(NetError::Unreachable { from: c, to: store }),
            failed.clone(),
            0,
        ),
        (
            "down target",
            Some(FaultAction::Crash(store)),
            store,
            Err(NetError::NodeDown(store)),
            failed.clone(),
            0,
        ),
        (
            "down caller",
            Some(FaultAction::Crash(c)),
            store,
            Err(NetError::NodeDown(c)),
            vec![],
            0,
        ),
        (
            "timeout",
            None,
            empty,
            Err(NetError::Timeout),
            failed.clone(),
            0,
        ),
    ];
    let named = |counters: &[(&str, u64)]| -> Vec<(String, u64)> {
        counters.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    };
    for (ending, fault, to, want, account, timed) in endings {
        let [by_rpc, by_send] = [false, true].map(|by_send| {
            let mut t = Topology::new();
            for name in ["client", "store", "acker", "empty"] {
                t.add_node(name, t.next_site());
            }
            let mut w =
                StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(1)));
            w.install_service(store, Box::new(StoreServer::new()));
            w.install_service(acker, Box::new(Acker));
            if let Some(fault) = fault.clone() {
                w.apply_fault(fault);
            }
            let asked = ask(&mut w, by_send, 80, to, get());
            (asked, w.trace_hash(), w.now())
        });
        assert_eq!(
            by_rpc, by_send,
            "{ending}: rpc and send differ on the simulator"
        );
        let (sim, _, _) = by_rpc;
        assert_eq!(sim.0, want, "{ending} on the simulator");
        let mut sim_account = named(&account);
        sim_account.retain(|(name, _)| name != "rpc.shared");
        let ended_ok = usize::from(want.is_ok());
        assert_eq!(
            (&sim.1, sim.2),
            (&sim_account, ended_ok),
            "{ending}: simulator account"
        );

        let [by_rpc, by_send] = [false, true].map(|by_send| {
            let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
            for name in ["client", "store", "acker", "empty"] {
                rt.add_node(name);
            }
            rt.install_service(store, Box::new(StoreServer::new()));
            rt.install_service(acker, Box::new(Acker));
            if let Some(fault) = &fault {
                rt.apply_fault(fault);
            }
            // On threads a request that ends on the spot needs no wait.
            let waits = matches!(ending, "mailbox" | "timeout");
            let asked = ask(&mut rt, by_send, if waits { 80 } else { 0 }, to, get());
            rt.shutdown(Duration::from_secs(10))
                .expect("no node thread should hang at shutdown");
            asked
        });
        assert_eq!(by_rpc, by_send, "{ending}: rpc and send differ on threads");
        assert_eq!(
            by_rpc,
            (want, named(&account), timed),
            "{ending} on threads"
        );
    }
}

/// The old cross-runtime blocking story, now through one code path: an
/// unreachable member blocks an optimistic run on either backend, and
/// healing the route lets both finish with a Figure 6-conformant record.
#[test]
fn optimistic_blocking_agrees_across_backends() {
    fn setup_set(rt: &mut StoreRt, cn: NodeId, s0: NodeId, s1: NodeId) -> WeakSet {
        let client = StoreClient::new(cn, SimDuration::from_millis(100));
        let cref = CollectionRef::unreplicated(CollectionId(1), s0);
        client.create_collection(rt, &cref).unwrap();
        let set = WeakSet::new(client, cref).with_config(IterConfig {
            block_attempts: 2,
            retry_interval: SimDuration::from_millis(2),
            ..IterConfig::default()
        });
        set.add(rt, ObjectRecord::new(ObjectId(1), "a", &b""[..]), s0)
            .unwrap();
        set.add(rt, ObjectRecord::new(ObjectId(2), "b", &b""[..]), s1)
            .unwrap();
        set
    }

    // Simulator: partition the second home away, then heal.
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let s0 = t.add_node("s0", 1);
    let s1 = t.add_node("s1", 2);
    let mut w = StoreWorld::new(2, t, LatencyModel::Constant(SimDuration::from_millis(2)));
    w.install_service(s0, Box::new(StoreServer::new()));
    w.install_service(s1, Box::new(StoreServer::new()));
    let set = setup_set(&mut w, cn, s0, s1);
    w.topology_mut().partition(&[s1]);
    let mut it = set.elements_observed(Semantics::Optimistic);
    assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
    assert_eq!(it.next(&mut w), IterStep::Blocked);
    w.topology_mut().heal_partition();
    assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
    assert_eq!(it.next(&mut w), IterStep::Done);
    let sim_comp = it.take_computation(&w).unwrap();

    // Threads: the same partition, through the fleet's topology.
    let mut rt = ThreadedRuntime::<StoreMsg>::new(2);
    let tcn = rt.add_node("client");
    let ts0 = rt.add_node("s0");
    let ts1 = rt.add_node("s1");
    rt.install_service(ts0, Box::new(StoreServer::new()));
    rt.install_service(ts1, Box::new(StoreServer::new()));
    let set = setup_set(&mut rt, tcn, ts0, ts1);
    rt.apply_fault(&FaultAction::Partition(vec![ts1]));
    let mut it = set.elements_observed(Semantics::Optimistic);
    assert!(matches!(it.next(&mut rt), IterStep::Yielded(_)));
    assert_eq!(it.next(&mut rt), IterStep::Blocked);
    rt.apply_fault(&FaultAction::HealPartition);
    assert!(matches!(it.next(&mut rt), IterStep::Yielded(_)));
    assert_eq!(it.next(&mut rt), IterStep::Done);
    let rt_comp = it.take_computation(&rt).unwrap();
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");

    for comp in [&sim_comp, &rt_comp] {
        check_computation(Figure::Fig6, comp).assert_ok();
        assert_eq!(comp.runs[0].yielded_set().len(), 2);
    }
}

/// One fault model: the DST's fault specs, mapped once to topology
/// changes and applied to a simulated world and to a threaded fleet with
/// the same roster, leave both with the same `is_up` / `reachable`
/// matrix after every change. The cases that used to disagree: a
/// server–server flap, which the client relays around, and a partition
/// that replaces an earlier one (whose heal then heals both).
#[test]
fn fault_actions_mean_the_same_on_both_backends() {
    use weakset_dst::prelude::FaultSpec;

    let mut t = Topology::new();
    let client = t.add_node("client", 0);
    let servers = t.add_servers("s", 3);
    let mut w = StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(1)));
    let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
    assert_eq!(rt.add_node("client"), client);
    for (i, &s) in servers.iter().enumerate() {
        assert_eq!(rt.add_node(format!("s{i}")), s);
    }
    let all: Vec<NodeId> = std::iter::once(client).chain(servers.clone()).collect();
    let view = |rt: &StoreRt| -> Vec<(bool, Vec<bool>)> {
        all.iter()
            .map(|&a| {
                (
                    rt.is_up(a),
                    all.iter().map(|&b| rt.reachable(a, b)).collect(),
                )
            })
            .collect()
    };

    let outage = vec![FaultSpec::Outage {
        at_ms: 0,
        node: 1,
        for_ms: 10,
    }];
    let partition = vec![FaultSpec::Partition {
        at_ms: 0,
        side: vec![0],
        for_ms: 10,
    }];
    let overlapping = vec![
        FaultSpec::Partition {
            at_ms: 0,
            side: vec![1],
            for_ms: 20,
        },
        FaultSpec::Partition {
            at_ms: 5,
            side: vec![1, 2],
            for_ms: 5,
        },
    ];
    let flap = vec![FaultSpec::Flap {
        at_ms: 0,
        a: 0,
        b: 1,
        down_ms: 1,
        up_ms: 1,
        cycles: 2,
    }];
    let mut disagreements = Vec::new();
    for case in [outage, partition, overlapping, flap] {
        let mut edges: Vec<_> = case.iter().flat_map(|f| f.actions(&servers)).collect();
        edges.sort_by_key(|e| e.at_ms);
        for edge in edges {
            w.apply_fault(edge.action.clone());
            rt.apply_fault(&edge.action);
            let (sim, threads) = (view(&w), view(&rt));
            if sim != threads {
                disagreements.push(format!("{edge}: sim {sim:?} threads {threads:?}"));
            }
        }
    }
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
    assert_eq!(disagreements, Vec::<String>::new());
    // Every case healed itself: both backends end fully connected.
    assert!(view(&w)
        .iter()
        .all(|(up, row)| *up && row.iter().all(|&r| r)));
}

/// Three gossip replicas on real threads with five members added at the
/// primary (which mirrors them into its CRDT; the others hear of them by
/// gossip or not at all).
fn gossip_fleet(seed: u64) -> (ThreadedRuntime<StoreMsg>, StoreClient, CollectionRef) {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(seed);
    let cn = rt.add_node("client");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("g{i}"))).collect();
    for &s in &servers {
        rt.install_service(s, Box::new(GossipNode::new(s)));
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(500));
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    client.create_collection(&mut rt, &cref).unwrap();
    for i in 1..=5u64 {
        client
            .add_member(
                &mut rt,
                &cref,
                MemberEntry {
                    elem: ObjectId(i),
                    home: cref.home,
                },
            )
            .unwrap();
    }
    (rt, client, cref)
}

/// Anti-entropy rounds — the gossip engine's self-rescheduling task —
/// run on the threaded backend's timer queue and converge real replica
/// threads, exactly as they do on the simulator's event loop.
#[test]
fn gossip_anti_entropy_converges_on_threads() {
    let (mut rt, _client, cref) = gossip_fleet(7);

    let handle = engine::install(
        &mut rt,
        COLL,
        cref.all_nodes(),
        GossipConfig {
            interval: SimDuration::from_millis(5),
            ..GossipConfig::default()
        },
    );
    let mut converged = false;
    for _ in 0..200 {
        rt.sleep(SimDuration::from_millis(10));
        if engine::converged(&rt, COLL, &cref.all_nodes()) {
            converged = true;
            break;
        }
    }
    handle.stop();
    assert!(converged, "replicas never converged under threaded gossip");
    for &r in &cref.all_nodes() {
        let mut ids: Vec<u64> = engine::elements_at(&rt, r, COLL)
            .unwrap()
            .iter()
            .map(|m| m.elem.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5], "replica {r:?} membership");
    }
    assert!(rt.metrics().counter("gossip.rounds") > 0);
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// A gossip replica implements `Service::serve_inline` like the plain
/// server it wraps: with no schedule installed the fleet is idle, so
/// every rpc of a membership read is answered on the caller's thread.
#[test]
fn idle_gossip_replica_reads_skip_the_mailbox() {
    let (mut rt, client, cref) = gossip_fleet(8);
    let shared_before = rt.metrics().counter("rpc.shared");
    for _ in 0..10 {
        let read = client
            .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
            .unwrap();
        assert_eq!((read.version, read.entries.len()), (5, 5));
    }
    assert_eq!(rt.metrics().counter("rpc.shared") - shared_before, 3 * 10);
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// A sharded set on real mailboxes and threads: its batched quorum
/// `size` (send_batch plus wait_any over reply tokens) counts every
/// member, and one Snapshot run over the union of the shards yields each
/// member once and is judged as one set.
#[test]
fn sharded_quorum_fanout_runs_on_threads() {
    let mut rt = ThreadedRuntime::<StoreMsg>::new(9);
    let cn = rt.add_node("client");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &servers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, SimDuration::from_millis(500));
    let groups: Vec<ShardGroup> = servers
        .iter()
        .map(|&h| ShardGroup {
            home: h,
            replicas: servers.iter().copied().filter(|&r| r != h).collect(),
        })
        .collect();
    let set = ShardedWeakSet::create(
        &mut rt,
        CollectionId(100),
        client,
        &groups,
        IterConfig {
            read_policy: ReadPolicy::Quorum,
            ..IterConfig::default()
        },
    )
    .unwrap();
    for i in 1..=9u64 {
        set.add(
            &mut rt,
            ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
            servers[(i % 3) as usize],
        )
        .unwrap();
    }

    assert_eq!(set.size(&mut rt), Ok(9));
    let mut it = set.elements_observed(Semantics::Snapshot);
    let mut yielded = Vec::new();
    loop {
        match it.next(&mut rt) {
            IterStep::Yielded(rec) => yielded.push(rec.id.0),
            IterStep::Done => break,
            other => panic!("sharded iteration hit {other:?} with all nodes up"),
        }
    }
    yielded.sort_unstable();
    assert_eq!(yielded, (1..=9).collect::<Vec<u64>>());
    let comp = it.take_computation(&rt).expect("observed");
    check_computation(Figure::Fig4, &comp).assert_ok();
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// A `StoreServer` that spends `.1` on every request, in its mailbox.
struct Slow(StoreServer, Duration);

impl Service<StoreMsg> for Slow {
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
        std::thread::sleep(self.1);
        self.0.handle(ctx, from, msg)
    }
}

/// A batched `Quorum` read of two shards, both on all three servers,
/// whose replies come after the reading client's `timeout`: it fails for
/// both shards, and its three envelopes end as timed-out rpcs end —
/// `rpc.failed` at its deadline, and nothing for the late replies.
/// Returns the `rpc.ok` and `rpc.failed` it counted, then the same once
/// the late replies are in.
fn timed_out_batched_read(
    rt: &mut StoreRt,
    servers: &[NodeId],
    client_node: NodeId,
    timeout: SimDuration,
) -> [[u64; 2]; 2] {
    let setup = StoreClient::new(client_node, SimDuration::from_secs(5));
    let shards: Vec<CollectionRef> = (0..2)
        .map(|i| CollectionRef {
            id: CollectionId(100 + i as u64),
            home: servers[i],
            replicas: servers
                .iter()
                .copied()
                .filter(|&s| s != servers[i])
                .collect(),
        })
        .collect();
    for cref in &shards {
        setup.create_collection(rt, cref).unwrap();
    }
    let counts = |rt: &StoreRt| ["rpc.ok", "rpc.failed"].map(|n| rt.metrics().counter(n));
    let before = counts(rt);
    let client = StoreClient::new(client_node, timeout);
    let reads = client.read_members_batched(rt, &shards, ReadPolicy::Quorum);
    assert!(reads.iter().all(Result::is_err), "{reads:?}");
    let at_return = counts(rt);
    let settle = rt.now() + SimDuration::from_millis(300);
    rt.wait_any(&[], settle);
    let settled = counts(rt);
    [0, 1].map(|i| [at_return[i] - before[i], settled[i] - before[i]])
}

#[test]
fn a_timed_out_batched_read_ends_its_envelopes_on_both_backends() {
    let ended = [[0, 0], [3, 3]];
    let mut t = Topology::new();
    let cn = t.add_node("client", 0);
    let servers: Vec<NodeId> = t.add_servers("s", 3);
    let mut w = StoreWorld::new(SEED, t, LatencyModel::Constant(SimDuration::from_millis(5)));
    for &s in &servers {
        w.install_service(s, Box::new(StoreServer::new()));
    }
    let sim = timed_out_batched_read(&mut w, &servers, cn, SimDuration::from_millis(3));
    assert_eq!(
        sim, ended,
        "simulator: [rpc.ok, rpc.failed] at return, settled"
    );

    let mut rt = ThreadedRuntime::<StoreMsg>::new(SEED);
    let cn = rt.add_node("client");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &servers {
        let slow = Slow(StoreServer::new(), Duration::from_millis(20));
        rt.install_service(s, Box::new(slow));
    }
    let threads = timed_out_batched_read(&mut rt, &servers, cn, SimDuration::from_millis(5));
    assert_eq!(
        threads, ended,
        "threads: [rpc.ok, rpc.failed] at return, settled"
    );
    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}

/// The record→replay round trip across the same semantics × policy grid
/// as the direct parity test: each cell runs live on OS threads with a
/// recorder attached, then replays through the simulator, and the
/// replayed run must reproduce the live yields, membership, and
/// per-figure conformance verdicts — divergence-free.
#[test]
fn recorded_threaded_runs_replay_to_identical_verdicts() {
    use weak_sets::weakset_runtime::record::hash_debug;
    use weakset_dst::prelude::{
        record_scenario, replay_recording, Chaos, Deployment, Link, Op, Scenario,
    };

    fn verdicts(comp: &Computation) -> Vec<(Figure, bool)> {
        Figure::ALL
            .iter()
            .map(|&f| (f, check_computation(f, comp).is_ok()))
            .collect()
    }

    for (si, semantics) in [
        Semantics::Snapshot,
        Semantics::GrowOnly,
        Semantics::Optimistic,
        Semantics::Locked,
    ]
    .into_iter()
    .enumerate()
    {
        for (pi, policy) in [
            ReadPolicy::Primary,
            ReadPolicy::Quorum,
            ReadPolicy::Leaderless,
            ReadPolicy::CausalSession,
        ]
        .into_iter()
        .enumerate()
        {
            let scenario = Scenario {
                seed: SEED + (si * 4 + pi) as u64,
                servers: 3,
                deployment: Deployment::Plain,
                semantics,
                read_policy: policy,
                guard_growth: false,
                fetch_order: FetchOrder::IdOrder,
                window: 1,
                link: Link::DEFAULT,
                bandwidth: None,
                file_size: None,
                think_ms: 1,
                budget: 16,
                start_ms: 10,
                setup: (1..=5u64).map(|i| (i, (i as usize - 1) % 3)).collect(),
                ops: vec![Op::Remove { at_ms: 0, elem: 2 }],
                faults: vec![],
                chaos: Chaos::None,
            };

            let live = record_scenario(&scenario)
                .unwrap_or_else(|e| panic!("record {semantics:?}/{policy:?}: {e}"));
            assert!(
                live.report.violations.is_empty(),
                "live {semantics:?}/{policy:?}: {:?}",
                live.report.violations
            );
            // A causal read runs with the session attached: after five
            // setup adds its token is never the empty one, so no recorded
            // request may hash to a session read that depends on nothing.
            let sessionless = hash_debug(&StoreMsg::WithSession {
                session: SessionToken::new(),
                inner: Box::new(StoreMsg::ListMembers(weakset_dst::prelude::COLL)),
            });
            assert!(
                !live.recording.entries.iter().any(
                    |e| matches!(e.ev, RecEvent::Send { req_hash, .. } if req_hash == sessionless)
                ),
                "{semantics:?}/{policy:?} read membership without its session"
            );
            let replayed = replay_recording(&live.recording)
                .unwrap_or_else(|e| panic!("replay {semantics:?}/{policy:?}: {e}"));
            assert_eq!(
                replayed.divergences,
                Vec::<String>::new(),
                "replay diverged for {semantics:?}/{policy:?}"
            );

            let mut live_yielded = live.report.yielded.clone();
            let mut replay_yielded = replayed.report.yielded.clone();
            live_yielded.sort_unstable();
            replay_yielded.sort_unstable();
            assert_eq!(
                replay_yielded, live_yielded,
                "yields disagree for {semantics:?}/{policy:?}"
            );
            assert_eq!(
                replayed.membership, live.membership,
                "membership disagrees for {semantics:?}/{policy:?}"
            );
            assert_eq!(live_yielded, vec![1, 3, 4, 5]);
            assert_eq!(live.membership, vec![1, 3, 4, 5]);

            assert_eq!(live.report.computations.len(), 1);
            assert_eq!(replayed.report.computations.len(), 1);
            assert_eq!(
                verdicts(&replayed.report.computations[0]),
                verdicts(&live.report.computations[0]),
                "figure verdicts disagree for {semantics:?}/{policy:?}"
            );
            assert!(
                replayed.report.violations.is_empty(),
                "replay {semantics:?}/{policy:?}: {:?}",
                replayed.report.violations
            );
        }
    }
}
