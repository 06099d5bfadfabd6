//! The live telemetry plane: a scrape-able view of a *running* system.
//!
//! Everything else in this crate is post-hoc — registries are merged at
//! shutdown, snapshots are frozen at end of run, traces are exported
//! after the fact. This module is the exception: it exists so the
//! threaded runtime (real OS threads, wall clock) can be watched *while
//! it runs*, which is what the paper's degraded-but-usable systems need
//! in production. Two pieces:
//!
//! * [`TelemetryHub`] — a shared board that every runtime view
//!   publishes its [`MetricsRegistry`] into on a cadence. Publishing
//!   *replaces* the view's slot (never adds), so the merged reading is
//!   exact up to one cadence of staleness per view and views stay
//!   contention-free between publishes — bounded staleness instead of
//!   per-op locking.
//! * [`prometheus_text`] — renders a snapshot in the Prometheus text
//!   exposition format (version 0.0.4): counters, gauges, and latency
//!   summaries with `quantile` labels.
//!
//! There is no separate black box here: a threaded run's boundary
//! crossings go to its `weakset_runtime::record::Recorder`, whose
//! recording replays through the simulator and its oracles.
//!
//! [`TelemetryServer`] ties them together: a `std::net::TcpListener`
//! serving `GET /metrics` (Prometheus text) and `GET /snapshot.json`
//! (the canonical [`ObsSnapshot`] JSON) from a hub, live, mid-run.
//!
//! Unlike the rest of the crate, this module reads the wall clock
//! (`Instant`) — it is only ever wired into the threaded backend; the
//! simulator never constructs these types, so simulator determinism is
//! untouched.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::registry::MetricsRegistry;
use crate::snapshot::ObsSnapshot;

// ---------------------------------------------------------------------
// Well-known metric names
// ---------------------------------------------------------------------

/// Counter: rpcs that failed because no route existed to a live peer —
/// a partition, not a slow peer.
pub const RPC_FAILED_UNREACHABLE: &str = "rpc.failed.unreachable";

/// Counter: rpcs that failed by exhausting the caller's timeout — a
/// slow or wedged peer, not a partition.
pub const RPC_FAILED_TIMEOUT: &str = "rpc.failed.timeout";

/// Counter: rpcs that failed because the node (local or remote) was
/// down or its mailbox closed.
pub const RPC_FAILED_CLOSED: &str = "rpc.failed.closed";

/// Counter: spans still open when a threaded run's event ledger was
/// finished — unbalanced instrumentation, surfaced instead of dropped.
pub const UNCLOSED_SPANS: &str = "trace.unclosed_spans";

/// Counter: HTTP requests answered by the scrape endpoint.
pub const SCRAPES: &str = "telemetry.scrapes";

/// Counter: registry publications into the hub (all views).
pub const PUBLISHES: &str = "telemetry.publishes";

/// Gauge name for a node's mailbox backlog: envelopes posted but not
/// yet picked up by the node thread.
pub fn mailbox_backlog(node: &str) -> String {
    format!("rt.node.{node}.mailbox.backlog")
}

/// Gauge name for a node's queue depth: envelopes accepted but not yet
/// replied to (backlog plus the request currently in the handler).
pub fn queue_depth(node: &str) -> String {
    format!("rt.node.{node}.queue.depth")
}

/// Gauge name for the high-water mark of [`mailbox_backlog`].
pub fn mailbox_backlog_max(node: &str) -> String {
    format!("rt.node.{node}.mailbox.backlog.max")
}

/// Gauge name for the high-water mark of [`queue_depth`].
pub fn queue_depth_max(node: &str) -> String {
    format!("rt.node.{node}.queue.depth.max")
}

/// Store-layer health counter spellings, centralized so dashboards and
/// the store client agree (the store records these on both backends).
pub mod store_health {
    /// Counter: object fetches that returned the record.
    pub const FETCH_OK: &str = "store.fetch.ok";
    /// Counter: object fetches that failed on every candidate.
    pub const FETCH_ERR: &str = "store.fetch.err";
    /// Counter: writes acknowledged by the home node.
    pub const WRITE_OK: &str = "store.write.ok";
    /// Counter: writes that failed.
    pub const WRITE_ERR: &str = "store.write.err";
    /// Counter: best-effort replica sync messages launched.
    pub const REPLICA_SYNC_SENT: &str = "store.replica_sync.sent";
    /// Counter: replica sync messages that could not be launched.
    pub const REPLICA_SYNC_FAILED: &str = "store.replica_sync.failed";
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

/// Maps a dotted metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixed `weakset_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("weakset_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a frozen snapshot in the Prometheus text exposition format
/// (version 0.0.4). Counters and gauges map directly; latency
/// populations become summaries with `quantile="0.5"` / `"0.99"`
/// sample lines plus `_count` and `_sum` (the sum is reconstructed as
/// `mean × count` — the summary does not retain the exact total).
pub fn prometheus_text(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p} weakset counter {name}\n"));
        out.push_str(&format!("# TYPE {p} counter\n"));
        out.push_str(&format!("{p} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p} weakset gauge {name}\n"));
        out.push_str(&format!("# TYPE {p} gauge\n"));
        out.push_str(&format!("{p} {value}\n"));
    }
    for (name, s) in &snap.latencies {
        let p = prometheus_name(name);
        out.push_str(&format!(
            "# HELP {p} weakset latency {name} (microseconds)\n"
        ));
        out.push_str(&format!("# TYPE {p} summary\n"));
        out.push_str(&format!("{p}{{quantile=\"0.5\"}} {}\n", s.p50_us));
        out.push_str(&format!("{p}{{quantile=\"0.99\"}} {}\n", s.p99_us));
        out.push_str(&format!("{p}_sum {}\n", s.mean_us.saturating_mul(s.count)));
        out.push_str(&format!("{p}_count {}\n", s.count));
    }
    out
}

/// Validates Prometheus text exposition and returns the samples as
/// `(name-with-labels, value)` pairs. Used by the CI smoke test to
/// assert the endpoint's output actually parses; strict about the line
/// grammar so a formatting regression fails loudly.
///
/// # Errors
///
/// The offending line and why it does not parse.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
        let bare = name.split('{').next().unwrap_or(name);
        let mut chars = bare.chars();
        let head_ok = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
        if !head_ok || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
            return Err(format!("invalid metric name {bare:?} in line {line:?}"));
        }
        if name.contains('{') && !name.ends_with('}') {
            return Err(format!("unterminated label set in line {line:?}"));
        }
        let v: f64 = value
            .parse()
            .map_err(|_| format!("unparseable value {value:?} in line {line:?}"))?;
        out.push((name.to_string(), v));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------

#[derive(Default)]
struct HubInner {
    next_id: AtomicU64,
    /// Last full registry published by each live view, by publisher id.
    slots: Mutex<BTreeMap<u64, MetricsRegistry>>,
    /// Counters owned by the plane itself (publish and scrape counts)
    /// rather than any one view.
    shared: Mutex<MetricsRegistry>,
    /// Gauges sampled at merge time — atomic cells owned by the
    /// runtime (mailbox backlogs, queue depths), read without any
    /// publish round-trip.
    live: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

/// The shared board runtime views publish their metrics into.
///
/// Cloning is cheap (an `Arc`); all clones see the same board. Each
/// view holds a [`HubPublisher`] and republishes its whole registry at
/// its cadence — so [`TelemetryHub::merged`] is exact up to one
/// cadence of staleness per view, and a crashed view's last publish
/// remains visible instead of vanishing.
#[derive(Clone, Default)]
pub struct TelemetryHub {
    inner: Arc<HubInner>,
}

impl TelemetryHub {
    /// A hub with no publishers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new publisher slot (one per runtime view).
    pub fn register(&self, cadence: Duration) -> HubPublisher {
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        HubPublisher {
            hub: self.clone(),
            id,
            cadence,
            last: None,
        }
    }

    /// Mutates the plane-owned shared registry (publish and server
    /// counters live here).
    pub fn with_shared(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        f(&mut lock(&self.inner.shared));
    }

    /// Registers a gauge cell sampled at merge time. Re-registering a
    /// name replaces the cell.
    pub fn register_live_gauge(&self, name: &str, cell: Arc<AtomicU64>) {
        lock(&self.inner.live).insert(name.to_string(), cell);
    }

    /// Number of publisher slots handed out so far.
    pub fn publishers(&self) -> u64 {
        self.inner.next_id.load(Ordering::SeqCst)
    }

    /// Folds every published slot, the shared registry, and a sample of
    /// every live gauge into one registry. This is what the scrape
    /// endpoint freezes and serves.
    pub fn merged(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for reg in lock(&self.inner.slots).values() {
            out.merge(reg);
        }
        out.merge(&lock(&self.inner.shared));
        for (name, cell) in lock(&self.inner.live).iter() {
            out.gauge_set(name, cell.load(Ordering::Relaxed));
        }
        out
    }

    /// [`TelemetryHub::merged`] frozen into a snapshot.
    pub fn snapshot(&self, scenario: &str, seed: u64) -> ObsSnapshot {
        self.merged().snapshot(scenario, seed)
    }

    /// Copies and frees outside the hub-wide `slots` lock, which only
    /// swaps the registry in: every scrape and every other view's publish
    /// waits on that lock.
    fn publish(&self, id: u64, m: &MetricsRegistry) {
        let copy = m.clone();
        let replaced = lock(&self.inner.slots).insert(id, copy);
        lock(&self.inner.shared).incr(PUBLISHES);
        drop(replaced);
    }
}

/// One view's handle into the hub. Not `Clone`: every view must own its
/// own slot, or two views would overwrite each other's readings.
pub struct HubPublisher {
    hub: TelemetryHub,
    id: u64,
    cadence: Duration,
    last: Option<Instant>,
}

impl HubPublisher {
    /// Publishes unconditionally, replacing this view's slot.
    pub fn publish(&mut self, m: &MetricsRegistry) {
        self.last = Some(Instant::now());
        self.hub.publish(self.id, m);
    }

    /// Publishes only when at least one cadence has elapsed since the
    /// last publish (a fresh publisher publishes immediately). Returns
    /// whether it published — the per-call cost on the hot path is one
    /// `Instant::now` and a comparison.
    pub fn maybe_publish(&mut self, m: &MetricsRegistry) -> bool {
        let due = match self.last {
            None => true,
            Some(last) => last.elapsed() >= self.cadence,
        };
        if due {
            self.publish(m);
        }
        due
    }

    /// The hub this publisher feeds.
    pub fn hub(&self) -> &TelemetryHub {
        &self.hub
    }

    /// The publish cadence (the staleness bound this view adds).
    pub fn cadence(&self) -> Duration {
        self.cadence
    }
}

// ---------------------------------------------------------------------
// The scrape server
// ---------------------------------------------------------------------

/// A minimal HTTP/1.1 endpoint over `std::net::TcpListener` serving a
/// [`TelemetryHub`] live:
///
/// * `GET /metrics` — Prometheus text exposition (version 0.0.4),
/// * `GET /snapshot.json` — the canonical [`ObsSnapshot`] JSON,
///
/// each frozen from [`TelemetryHub::merged`] at request time. Dropping
/// the server stops the accept thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept thread. `scenario`/`seed` tag the served
    /// snapshots.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(
        addr: impl ToSocketAddrs,
        hub: TelemetryHub,
        scenario: &str,
        seed: u64,
    ) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scenario = scenario.to_string();
        let join = thread::Builder::new()
            .name("weakset-telemetry".into())
            .spawn({
                let stop = Arc::clone(&stop);
                move || loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            hub.with_shared(|m| m.incr(SCRAPES));
                            if let Err(e) = handle_request(stream, &hub, &scenario, seed) {
                                eprintln!("telemetry: request failed: {e}");
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(10));
                        }
                        Err(e) => {
                            eprintln!("telemetry: accept failed, stopping: {e}");
                            return;
                        }
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread (also happens on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_request(
    mut stream: TcpStream,
    hub: &TelemetryHub,
    scenario: &str,
    seed: u64,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (we never accept bodies).
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            String::from("GET only\n"),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                prometheus_text(&hub.snapshot(scenario, seed)),
            ),
            "/snapshot.json" => (
                "200 OK",
                "application/json; charset=utf-8",
                hub.snapshot(scenario, seed).to_json(),
            ),
            _ => (
                "404 Not Found",
                "text/plain",
                String::from("try /metrics or /snapshot.json\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// A tiny blocking HTTP GET against a telemetry endpoint — what the
/// examples, the rt bench, and the CI smoke test use to scrape without
/// needing `curl` in-process. Returns `(status_code, body)`.
///
/// # Errors
///
/// Connection/read failures, or a response without an HTTP status line.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_names_fit_the_grammar() {
        assert_eq!(prometheus_name("rpc.sent"), "weakset_rpc_sent");
        assert_eq!(
            prometheus_name("rt.node.s0.queue.depth"),
            "weakset_rt_node_s0_queue_depth"
        );
        assert_eq!(prometheus_name("a-b c"), "weakset_a_b_c");
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let mut m = MetricsRegistry::new();
        m.add("rpc.sent", 12);
        m.gauge_set("rt.node.s0.queue.depth", 3);
        for us in [100, 200, 900] {
            m.observe("rpc.latency", us);
        }
        let text = prometheus_text(&m.snapshot("t", 1));
        let samples = parse_prometheus(&text).expect("own output parses");
        assert!(samples
            .iter()
            .any(|(n, v)| n == "weakset_rpc_sent" && *v == 12.0));
        assert!(samples
            .iter()
            .any(|(n, v)| n == "weakset_rpc_latency{quantile=\"0.5\"}" && *v == 200.0));
        assert!(samples
            .iter()
            .any(|(n, v)| n == "weakset_rpc_latency_count" && *v == 3.0));
        assert!(text.contains("# TYPE weakset_rpc_latency summary"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("weakset_ok 1\n").is_ok());
        assert!(parse_prometheus("9starts_with_digit 1\n").is_err());
        assert!(parse_prometheus("no_value\n").is_err());
        assert!(parse_prometheus("name not-a-number\n").is_err());
        assert!(parse_prometheus("bad{quantile=\"0.5\" 7\n").is_err());
    }

    #[test]
    fn hub_publishes_replace_not_add() {
        let hub = TelemetryHub::new();
        let mut p = hub.register(Duration::ZERO);
        let mut m = MetricsRegistry::new();
        m.add("ops", 5);
        p.publish(&m);
        m.add("ops", 5);
        p.publish(&m); // re-publish of the same view must not double-count
        assert_eq!(hub.merged().counter("ops"), 10);

        let mut p2 = hub.register(Duration::ZERO);
        let mut m2 = MetricsRegistry::new();
        m2.add("ops", 1);
        p2.publish(&m2);
        assert_eq!(hub.merged().counter("ops"), 11, "views merge");
        assert_eq!(hub.publishers(), 2);
    }

    #[test]
    fn hub_cadence_bounds_publish_rate() {
        let hub = TelemetryHub::new();
        let mut p = hub.register(Duration::from_secs(3600));
        let m = MetricsRegistry::new();
        assert!(p.maybe_publish(&m), "first publish is immediate");
        assert!(!p.maybe_publish(&m), "second inside the cadence is skipped");
        assert_eq!(hub.merged().counter(PUBLISHES), 1);
    }

    #[test]
    fn hub_samples_live_gauges_at_merge_time() {
        let hub = TelemetryHub::new();
        let cell = Arc::new(AtomicU64::new(0));
        hub.register_live_gauge(&queue_depth("s0"), Arc::clone(&cell));
        cell.store(7, Ordering::SeqCst);
        assert_eq!(hub.merged().gauge("rt.node.s0.queue.depth"), 7);
        cell.store(2, Ordering::SeqCst);
        assert_eq!(hub.merged().gauge("rt.node.s0.queue.depth"), 2);
    }

    #[test]
    fn server_serves_metrics_and_snapshot_live() {
        let hub = TelemetryHub::new();
        let mut p = hub.register(Duration::ZERO);
        let mut m = MetricsRegistry::new();
        m.add("rpc.sent", 3);
        m.observe("rpc.latency", 150);
        p.publish(&m);
        let server =
            TelemetryServer::serve("127.0.0.1:0", hub.clone(), "live", 9).expect("bind ephemeral");
        let addr = server.addr();

        let (status, body) =
            http_get(addr, "/metrics", Duration::from_secs(2)).expect("scrape /metrics");
        assert_eq!(status, 200);
        let samples = parse_prometheus(&body).expect("exposition parses");
        assert!(samples
            .iter()
            .any(|(n, v)| n == "weakset_rpc_sent" && *v == 3.0));

        // The endpoint is live: publish more, scrape again.
        m.add("rpc.sent", 2);
        p.publish(&m);
        let (_, body) = http_get(addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert!(parse_prometheus(&body)
            .unwrap()
            .iter()
            .any(|(n, v)| n == "weakset_rpc_sent" && *v == 5.0));

        let (status, body) =
            http_get(addr, "/snapshot.json", Duration::from_secs(2)).expect("scrape snapshot");
        assert_eq!(status, 200);
        let snap = ObsSnapshot::from_json(&body).expect("snapshot parses");
        assert_eq!(snap.scenario, "live");
        assert_eq!(snap.counters.get("rpc.sent"), Some(&5));
        assert!(snap.counters.get(SCRAPES).copied().unwrap_or(0) >= 2);

        let (status, _) = http_get(addr, "/nope", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn rpc_failure_names_are_distinct_and_namespaced() {
        let all = [
            RPC_FAILED_UNREACHABLE,
            RPC_FAILED_TIMEOUT,
            RPC_FAILED_CLOSED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("rpc.failed."), "{a} must extend rpc.failed");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(UNCLOSED_SPANS.starts_with("trace."));
        assert_eq!(mailbox_backlog("s0"), "rt.node.s0.mailbox.backlog");
        assert_eq!(queue_depth_max("s1"), "rt.node.s1.queue.depth.max");
    }
}
