//! The metric catalogue: every workload, every end-to-end metric with
//! its bound, and every per-layer metric with the end-to-end number it
//! is expected to move. `BENCHMARK.json` is `ledger catalogue --json`,
//! so the file and the binary cannot drift; workloads look their units
//! up here, so nothing is printed that the catalogue does not name.

use std::fmt::Write as _;
use weakset_obs::Json;

/// Seconds one run measures at the catalogued scale (`--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and why it exists.
pub struct WorkloadInfo {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: what it isolates.
    pub why: &'static str,
}

/// A metric a user of the system would see; gated by `bound`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether two runs of one program on one seed must read the same
    /// value to the last digit (`compare --aa` checks it).
    pub exact: bool,
    /// What it measures.
    pub meaning: &'static str,
}

/// A metric of one layer; reported by the traced run, never gated.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The module(s) it belongs to.
    pub layer: &'static str,
    /// The workloads whose ops run through that layer. On these the
    /// traced run must measure the metric; on the others it prints 0.
    pub on: &'static [&'static str],
    /// Which end-to-end number it should move, on which workload.
    pub should_move: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "rt-read-fanout",
        why: "64-member Leaderless read on 3 threaded replicas: three round trips, tiny payload, so runtime::threaded post/wake/complete and per-rpc bookkeeping dominate",
    },
    WorkloadInfo {
        name: "rt-read-large",
        why: "same read at 4096 members: snapshot cloning in store::server and the client's extend+sort+dedup dominate, transport is a few percent; set-up shows the per-add log copy",
    },
    WorkloadInfo {
        name: "rt-mixed-rw",
        why: "WeakSet add/contains/size/remove cycle at 512 members: one third writes through the same store code, so a read optimisation that makes writes pay is caught",
    },
    WorkloadInfo {
        name: "sim-dst",
        why: "generate+execute a seeded corpus from all four dst generators on the simulator: sim::World, sim_impl, gossip, core::iter and the spec oracle, none of which rt-* runs",
    },
];

/// The nine end-to-end metrics, the same on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.15,
        exact: false,
        meaning: "host-normalised ops per wall second, p75 of windows",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
        meaning: "median op latency, host-normalised, p25 of windows",
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
        meaning: "90th percentile op latency (>= 30 samples beyond it per window), same treatment",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        meaning: "heap allocation requests per op in the count pass; repeats exactly",
    },
    EndToEnd {
        name: "alloc_kb_per_op",
        unit: "KB",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        meaning: "bytes requested from the allocator per op; repeats exactly",
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        meaning: "runtime messages per op (rpc.sent delta; sim: deliveries per scenario); repeats exactly",
    },
    EndToEnd {
        name: "success_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        exact: true,
        meaning: "ops that neither errored nor returned a wrong result / ops attempted",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        meaning: "build + preload through the client API + verify; second-smallest of 7, host-normalised",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
        meaning: "VmHWM of the measuring process at exit; op counts are fixed, so it repeats",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    on: &'static [&'static str],
    should_move: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        on,
        should_move,
    }
}

use Better::{Higher, Lower};

const ALL: &[&str] = &["rt-read-fanout", "rt-read-large", "rt-mixed-rw", "sim-dst"];
const RT: &[&str] = &["rt-read-fanout", "rt-read-large", "rt-mixed-rw"];
const FANOUT: &[&str] = &["rt-read-fanout"];
const MIXED: &[&str] = &["rt-mixed-rw"];
const DST: &[&str] = &["sim-dst"];

/// The per-layer catalogue. A traced run prints all of it on every
/// workload; a metric reads 0 exactly where its `on` list leaves the
/// workload out.
pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "trace.runtime_threaded.transport_us",
        "us/op",
        Lower,
        "runtime::threaded",
        RT,
        "op_p50_us, ops_per_s on rt-read-fanout; <= 10 % of the op on rt-read-large",
    ),
    layer(
        "trace.store_client.self_us",
        "us/op",
        Lower,
        "store::client (+ core::handle)",
        RT,
        "op_p50_us, ops_per_s on rt-read-large; little on rt-read-fanout",
    ),
    layer(
        "trace.store_server.handle_us",
        "us/op",
        Lower,
        "store::server + store::collection",
        RT,
        "op_p50_us on rt-read-large; op_p90_us on rt-mixed-rw",
    ),
    layer(
        "store_server.list_members_ns",
        "ns/call",
        Lower,
        "store::server",
        RT,
        "as trace.store_server.handle_us, per workload size (64 / 4096 / 512)",
    ),
    layer(
        "store_server.add_member_ns",
        "ns/call",
        Lower,
        "store::server + collection",
        RT,
        "op_p90_us, ops_per_s on rt-mixed-rw; setup_s on rt-read-large",
    ),
    layer(
        "store_server.remove_member_ns",
        "ns/call",
        Lower,
        "store::server + collection",
        MIXED,
        "op_p90_us, ops_per_s on rt-mixed-rw",
    ),
    layer(
        "store_server.sync_members_ns",
        "ns/call",
        Lower,
        "store::server + collection",
        RT,
        "op_p90_us, ops_per_s on rt-mixed-rw; setup_s on rt-read-large",
    ),
    layer(
        "store_server.put_object_ns",
        "ns/call",
        Lower,
        "store::server",
        RT,
        "op_p90_us on rt-mixed-rw; setup_s on rt-read-large",
    ),
    layer(
        "store_server.calls_per_op",
        "count",
        Lower,
        "store::server",
        RT,
        "exact; msgs_per_op",
    ),
    layer(
        "store_server.reply_entries_per_op",
        "count",
        Lower,
        "store::server",
        RT,
        "exact; alloc_kb_per_op on rt-read-large (12 288 entries copied per read today)",
    ),
    layer(
        "store_client.allocs_per_op",
        "count",
        Lower,
        "driver thread",
        RT,
        "exact; client share of allocs_per_op",
    ),
    layer(
        "store_client.alloc_kb_per_op",
        "KB",
        Lower,
        "driver thread",
        RT,
        "exact; client share of alloc_kb_per_op",
    ),
    layer(
        "store_server.allocs_per_op",
        "count",
        Lower,
        "node threads",
        RT,
        "exact; server share of allocs_per_op",
    ),
    layer(
        "store_server.alloc_kb_per_op",
        "KB",
        Lower,
        "node threads",
        RT,
        "exact; server share of alloc_kb_per_op",
    ),
    layer(
        "runtime_threaded.ctx_switches_per_op",
        "count",
        Lower,
        "runtime::threaded",
        RT,
        "op_p50_us on rt-read-fanout (about 6 per read today: one wake each way per replica)",
    ),
    layer(
        "store_client.read.primary_p50_us",
        "us",
        Lower,
        "store::client",
        FANOUT,
        "reference point: 2048-op side burst on the rt-read-fanout fleet",
    ),
    layer(
        "store_client.read.quorum_p50_us",
        "us",
        Lower,
        "store::client",
        FANOUT,
        "reference point: 2048-op side burst on the rt-read-fanout fleet",
    ),
    layer(
        "store_client.read.leaderless_p50_us",
        "us",
        Lower,
        "store::client",
        FANOUT,
        "is rt-read-fanout's op_p50_us, measured as a side burst",
    ),
    layer(
        "store_client.read.causal_session_p50_us",
        "us",
        Lower,
        "store::client + session",
        FANOUT,
        "reference point: 2048-op side burst on the rt-read-fanout fleet",
    ),
    layer(
        "core_handle.add_p50_us",
        "us",
        Lower,
        "core::handle",
        MIXED,
        "op_p90_us on rt-mixed-rw (writes)",
    ),
    layer(
        "core_handle.remove_p50_us",
        "us",
        Lower,
        "core::handle",
        MIXED,
        "op_p90_us on rt-mixed-rw (writes)",
    ),
    layer(
        "core_handle.contains_p50_us",
        "us",
        Lower,
        "core::handle",
        MIXED,
        "op_p50_us on rt-mixed-rw (reads)",
    ),
    layer(
        "core_handle.size_p50_us",
        "us",
        Lower,
        "core::handle",
        MIXED,
        "op_p50_us on rt-mixed-rw (reads)",
    ),
    layer(
        "store_collection.log_kb_per_write",
        "KB",
        Lower,
        "store::collection",
        MIXED,
        "RSS growth / writes within one fleet epoch; peak_rss_mb on rt-mixed-rw",
    ),
    layer(
        "trace.dst.generate_us",
        "us/op",
        Lower,
        "dst::gen",
        DST,
        "ops_per_s on sim-dst",
    ),
    layer(
        "trace.dst.execute_us",
        "us/op",
        Lower,
        "dst::run",
        DST,
        "ops_per_s on sim-dst",
    ),
    layer(
        "dst.execute.plain_us",
        "us",
        Lower,
        "dst::run",
        DST,
        "ops_per_s, op_p90_us on sim-dst",
    ),
    layer(
        "dst.execute.sharded_us",
        "us",
        Lower,
        "dst::run + core::shard",
        DST,
        "ops_per_s, op_p90_us on sim-dst",
    ),
    layer(
        "dst.execute.causal_us",
        "us",
        Lower,
        "dst::run + store::session",
        DST,
        "ops_per_s, op_p90_us on sim-dst",
    ),
    layer(
        "dst.execute.merkle_us",
        "us",
        Lower,
        "dst::run + gossip",
        DST,
        "ops_per_s, op_p90_us on sim-dst",
    ),
    layer(
        "trace.spec_visibility.check_us",
        "us/op",
        Lower,
        "spec::visibility",
        DST,
        "oracle re-run from outside on the report's computations; ops_per_s on sim-dst",
    ),
    layer(
        "sim.events_per_scenario",
        "count",
        Lower,
        "sim::world",
        DST,
        "exact (sim.dispatch.total); msgs_per_op on sim-dst",
    ),
    layer(
        "sim.events_per_s",
        "1/s",
        Higher,
        "sim::world",
        DST,
        "ops_per_s on sim-dst",
    ),
    layer(
        "obs_sink.events_per_scenario",
        "count",
        Lower,
        "obs::sink",
        DST,
        "exact; none - guards that the corpus did not change",
    ),
    layer(
        "dst.steps_per_scenario",
        "count",
        Lower,
        "dst::run",
        DST,
        "exact; none - guards that the corpus did not change",
    ),
    layer(
        "dst.corpus.skipped",
        "count",
        Lower,
        "dst::oracle",
        DST,
        "exact; none - seeds scanned past because they did not conform",
    ),
    layer(
        "obs_registry.incr_ns",
        "ns/call",
        Lower,
        "obs::registry",
        ALL,
        "ops_per_s on rt-read-fanout (each read makes about a dozen such calls)",
    ),
    layer(
        "obs_registry.observe_ns",
        "ns/call",
        Lower,
        "obs::registry + obs::latency",
        ALL,
        "ops_per_s on rt-read-fanout",
    ),
    layer(
        "obs_sink.span_disabled_ns",
        "ns/call",
        Lower,
        "obs::sink",
        ALL,
        "ops_per_s on rt-read-fanout (one span pair per rpc and per read)",
    ),
    layer(
        "op_p99_us",
        "us",
        Lower,
        "whole op",
        ALL,
        "none - for the record; it does not repeat on this host",
    ),
    layer(
        "trace.unattributed_share",
        "ratio",
        Lower,
        "ledger",
        ALL,
        "op time no layer row explains; must stay <= 0.15",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        "ledger",
        ALL,
        "traced / untraced op_p50_us - 1",
    ),
    layer(
        "host.ref_ms",
        "ms",
        Lower,
        "host",
        ALL,
        "p25 of the reference kernel; none",
    ),
    layer(
        "host.ref_spread",
        "ratio",
        Lower,
        "host",
        ALL,
        "p75 / p25 of the reference kernel; how disturbed the host was",
    ),
    layer(
        "host.raw_best5_us_per_op",
        "us",
        Lower,
        "host",
        ALL,
        "un-normalised mean of the five fastest windows; cross-check of op latency",
    ),
    layer(
        "host.cpu_us_per_op",
        "us",
        Lower,
        "host",
        ALL,
        "CLOCK_PROCESS_CPUTIME_ID per op over the timed windows",
    ),
];

/// Unit of a catalogued metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

/// The end-to-end entry of `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `name` names a workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The driver's command line, before the arguments it appends.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
    "bench",
];

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let text = |v: &str| Json::Str(v.to_string());
    let object = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    object(vec![
        (
            "command",
            Json::Arr(COMMAND.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Json::Arr(vec![text("ledger")])),
        ("run_seconds", Json::u64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

/// The catalogue for people: meanings, layers and the "should move"
/// column, which the contract for `BENCHMARK.json` has no room for.
pub fn text() -> String {
    let mut out = String::new();
    out.push_str("workloads\n");
    for w in WORKLOADS {
        writeln!(out, "  {:<16} {}", w.name, w.why).unwrap();
    }
    out.push_str("\nend-to-end metrics (untraced run; bound = allowed worsening)\n");
    for m in END_TO_END {
        writeln!(
            out,
            "  {:<16} {:<6} {:<6} {:>5.1} %  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.meaning
        )
        .unwrap();
    }
    out.push_str(
        "\nper-layer metrics (traced run; reads 0 on workloads not listed under \"on\")\n",
    );
    for m in PER_LAYER {
        let on = if m.on.len() == WORKLOADS.len() {
            "all".to_string()
        } else {
            m.on.join(",")
        };
        writeln!(
            out,
            "  {:<40} {:<8} {:<34} on {:<44} {}",
            m.name, m.unit, m.layer, on, m.should_move
        )
        .unwrap();
    }
    out.push_str(
        "\ncommands\n  ledger run   --workload NAME --seed S [--seconds N]   end-to-end metrics\n  \
         ledger trace --workload NAME --seed S [--seconds N]   per-layer metrics + Chrome trace\n  \
         ledger bench --workload NAME --seed S --seconds N --trace 0|1   one JSON result line\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(!m.on.is_empty(), "{} is on no workload", m.name);
            assert!(m.on.iter().all(|w| is_workload(w)), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_checked_in_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `ledger catalogue --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn benchmark_json_parses_with_exactly_the_contract_keys() {
        let doc = Json::parse(&benchmark_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .fields()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
