//! Real-clock runtime benchmark: drives the threaded backend with
//! concurrent client threads and emits `BENCH_rt.json` — membership-read
//! throughput (ops/sec) and read-latency p99 per read policy, plus
//! per-node mailbox high-water marks.
//!
//! ```text
//! cargo run --release -p weakset-bench --bin rt_snapshot
//! cargo run --release -p weakset-bench --bin rt_snapshot -- --out target/bench --threads 4 --ops 2000
//! ```
//!
//! This binary is also the telemetry plane's dogfood: every worker view
//! publishes into a shared [`TelemetryHub`], a [`TelemetryServer`] is
//! scraped *mid-run* for live p50/p99 (instead of waiting for the
//! workers to join and merging their registries back), and the final
//! numbers are read from `GET /snapshot.json` — the same bytes any
//! external scraper would see. A [`Watchdog`] and [`FlightRecorder`]
//! ride along so a wedged run leaves a Perfetto-loadable dump behind.
//!
//! Unlike the simulator snapshots (E1–E11), these numbers come from the
//! wall clock on real OS threads and real mailboxes, so they vary with
//! the machine and the scheduler. The CI compare gate therefore treats
//! `BENCH_rt.json` as *report-only*: deltas are printed next to the
//! gated objectives but never fail the build.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use weakset_obs::telemetry::{self, FlightRecorder, TelemetryHub, TelemetryServer, Watchdog};
use weakset_obs::{http_get, parse_prometheus, Direction, ObsSnapshot};
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, ReadPolicy, StoreClient, StoreServer};

const COLL: CollectionId = CollectionId(1);
const MEMBERS: u64 = 64;

/// One `GET /snapshot.json` against the live endpoint.
fn scrape_snapshot(addr: std::net::SocketAddr) -> ObsSnapshot {
    let (status, body) =
        http_get(addr, "/snapshot.json", Duration::from_secs(2)).expect("scrape /snapshot.json");
    assert_eq!(status, 200, "snapshot endpoint answered {status}");
    ObsSnapshot::from_json(&body).expect("snapshot endpoint served canonical JSON")
}

fn main() {
    let mut out = PathBuf::from(".");
    let mut seed = 42u64;
    let mut threads = 4usize;
    let mut ops = 2000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out requires a directory")),
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed requires a value")
                    .parse()
                    .expect("--seed must be an unsigned integer");
            }
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads requires a value")
                    .parse()
                    .expect("--threads must be a positive integer");
            }
            "--ops" => {
                ops = args
                    .next()
                    .expect("--ops requires a value")
                    .parse()
                    .expect("--ops must be a positive integer");
            }
            "--help" | "-h" => {
                eprintln!("usage: rt_snapshot [--out DIR] [--seed N] [--threads T] [--ops N]");
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    std::fs::create_dir_all(&out).expect("create output directory");

    // The telemetry plane: hub + black box + slow-op watchdog + scrape
    // endpoint. Worker views inherit all of it through `rt.clone()`.
    let hub = TelemetryHub::new();
    let flight = FlightRecorder::new(2048).with_dump_path(out.join("flight-rt.json"));
    let watchdog = Watchdog::spawn(
        Duration::from_secs(5),
        Duration::from_millis(250),
        hub.clone(),
        Some(flight.clone()),
    );
    let server =
        TelemetryServer::serve("127.0.0.1:0", hub.clone(), "rt", seed).expect("bind endpoint");
    println!("telemetry endpoint: http://{}/metrics", server.addr());

    // One fleet for the whole run: three store servers hosting a
    // replicated collection, pre-populated with MEMBERS elements.
    let mut rt = ThreadedRuntime::<StoreMsg>::new(seed);
    rt.attach_telemetry(hub.clone(), Duration::from_millis(25));
    rt.attach_flight_recorder(flight.clone());
    rt.attach_watchdog(watchdog.clone());
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &servers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let setup_node = rt.add_node("setup");
    let setup = StoreClient::new(setup_node, SimDuration::from_millis(500));
    let cref = CollectionRef {
        id: COLL,
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    setup.create_collection(&mut rt, &cref).unwrap();
    for i in 1..=MEMBERS {
        let home = servers[(i % 3) as usize];
        setup
            .put_object(
                &mut rt,
                home,
                ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"payload"[..]),
            )
            .unwrap();
        setup
            .add_member(
                &mut rt,
                &cref,
                MemberEntry {
                    elem: ObjectId(i),
                    home,
                },
            )
            .unwrap();
    }

    let mut objectives: Vec<(String, f64, Direction)> = Vec::new();
    for policy in [
        ReadPolicy::Primary,
        ReadPolicy::Quorum,
        ReadPolicy::Leaderless,
    ] {
        let label = policy.label();
        // One client node (and thus one mailbox identity) per worker
        // thread, each driving its own cloned runtime view. Views are
        // consumed by their threads: results reach us only through the
        // hub (publish on cadence, flush on drop).
        let worker_nodes: Vec<NodeId> = (0..threads)
            .map(|t| rt.add_node(format!("load.{label}.{t}")))
            .collect();
        let started = Instant::now();
        let handles: Vec<_> = worker_nodes
            .into_iter()
            .map(|node| {
                let mut view = rt.clone();
                let cref = cref.clone();
                let metric = format!("rt.read.{label}.us");
                std::thread::spawn(move || {
                    let client = StoreClient::new(node, SimDuration::from_millis(500));
                    for _ in 0..ops {
                        let t0 = Instant::now();
                        let read = client
                            .read_members(&mut view, &cref, policy)
                            .expect("read against a healthy fleet");
                        assert_eq!(read.entries.len() as u64, MEMBERS);
                        view.metrics_mut()
                            .observe(&metric, t0.elapsed().as_micros() as u64);
                    }
                })
            })
            .collect();

        // Mid-run scrape: the workers are still hammering the fleet
        // while we read live quantiles off the endpoint — the entire
        // point of the telemetry plane.
        std::thread::sleep(Duration::from_millis(120));
        let (status, text) =
            http_get(server.addr(), "/metrics", Duration::from_secs(2)).expect("scrape /metrics");
        assert_eq!(status, 200, "metrics endpoint answered {status}");
        let families = parse_prometheus(&text).expect("exposition parses");
        let live = scrape_snapshot(server.addr());
        match live.latencies.get(&format!("rt.read.{label}.us")) {
            Some(s) => println!(
                "{label:>10} (live): p50 {} us, p99 {} us after {} read(s), {} series scraped",
                s.p50_us,
                s.p99_us,
                s.count,
                families.len()
            ),
            None => println!(
                "{label:>10} (live): no samples published yet, {} series scraped",
                families.len()
            ),
        }

        for h in handles {
            h.join().expect("worker thread panicked");
        }
        let elapsed = started.elapsed().as_secs_f64();
        let total_ops = (threads * ops) as u64;
        let ops_per_sec = total_ops as f64 / elapsed.max(f64::EPSILON);
        hub.with_shared(|m| m.add(&format!("rt.read.{label}.ops"), total_ops));
        // Final per-policy quantiles come off the endpoint too — the
        // workers' drop-flush makes their last samples visible.
        let snap = scrape_snapshot(server.addr());
        let p99 = snap
            .latencies
            .get(&format!("rt.read.{label}.us"))
            .map_or(0, |s| s.p99_us);
        println!("{label:>10}: {ops_per_sec:>10.0} ops/sec, read p99 {p99} us");
        objectives.push((
            format!("rt.{label}.ops_per_sec"),
            ops_per_sec,
            Direction::HigherIsBetter,
        ));
        objectives.push((
            format!("rt.{label}.read_p99_us"),
            p99 as f64,
            Direction::LowerIsBetter,
        ));
    }

    // Report-only health tail: unclosed spans, watchdog trips, and the
    // per-node mailbox high-water marks sampled by the live gauges.
    let unclosed = rt.finish_spans();
    objectives.push((
        "rt.unclosed_spans".into(),
        unclosed.len() as f64,
        Direction::LowerIsBetter,
    ));
    objectives.push((
        "rt.watchdog_slow_ops".into(),
        watchdog.slow_ops() as f64,
        Direction::LowerIsBetter,
    ));
    rt.flush_telemetry();
    if let Err(hung) = rt.shutdown(Duration::from_secs(10)) {
        eprintln!("warning: node threads still running at shutdown: {hung:?}");
    }
    watchdog.stop();

    // The checked-in snapshot is exactly what the endpoint serves,
    // plus the objectives computed above.
    let mut frozen = scrape_snapshot(server.addr());
    for &server_node in &["s0", "s1", "s2"] {
        for name in [
            telemetry::mailbox_backlog_max(server_node),
            telemetry::queue_depth_max(server_node),
        ] {
            let high_water = frozen.gauges.get(&name).copied().unwrap_or(0);
            objectives.push((name, high_water as f64, Direction::LowerIsBetter));
        }
    }
    for (name, value, direction) in objectives {
        frozen = frozen.with_objective(&name, value, direction);
    }
    server.stop();

    let path = out.join(frozen.file_name());
    std::fs::write(&path, frozen.to_json()).expect("write snapshot");
    println!(
        "{} ({} counters, {} latencies, {} objectives)",
        path.display(),
        frozen.counters.len(),
        frozen.latencies.len(),
        frozen.objectives.len()
    );
}
