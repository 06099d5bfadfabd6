//! The measurement protocol, shared by every workload.
//!
//! An untraced run (`ledger run`): 7 timed set-ups, then a fixed number
//! of windows of a fixed number of ops, each window flanked by two
//! timings of the reference kernel, then an untimed count pass with the
//! counting allocator on. A traced run (`ledger trace`): one set-up,
//! then untraced and traced windows in alternation on the same fleet —
//! so tracing overhead is measured inside one process, under the same
//! host phases — then the count pass and the workload's own extras.
//!
//! Closed loop, one client: the client API under test blocks until the
//! reply arrives, so the next op is issued when the previous one ends.

use crate::alloc::{self, AllocCounts};
use crate::catalogue;
use crate::host;
use crate::stats::{self, Kind as StatKind};
use crate::trace::{self, Kind, SpanStore, WindowSums, SETUP_WINDOW};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Timed set-ups in an untraced run (two under `cargo test`, where only
/// the shape of a run is checked).
pub const SETUP_REPS: usize = if cfg!(test) { 2 } else { 7 };

/// A system under test, driven one op at a time.
pub trait Workload {
    /// Builds the system from scratch, preloads it through the public
    /// client API and verifies the preload. `false` = verification
    /// failed.
    fn set_up(&mut self) -> bool;
    /// Drops what [`Workload::set_up`] built.
    fn tear_down(&mut self);
    /// Ops in one window — fixed, so work per run is fixed.
    fn ops_per_window(&self) -> usize;
    /// Ops in the count pass.
    fn count_ops(&self) -> usize;
    /// Untimed hook before window `window` (0-based). `true` = it did
    /// enough work that the window needs a fresh reference flank.
    fn before_window(&mut self, _window: usize) -> bool {
        false
    }
    /// Runs op number `i` of the run and returns whether the result was
    /// right. A workload built with a span store drives its tracing
    /// decorators always; they record only while the store is recording.
    fn op(&mut self, i: u64) -> bool;
    /// Messages the runtime has carried so far (`rpc.sent`; on the
    /// simulator, deliveries).
    fn messages(&self) -> u64;
    /// Whether ops cross the threaded runtime (decides which layer the
    /// client-side remainder of an op span is booked to).
    fn threaded(&self) -> bool;
    /// Per-class latency metrics (names of `*_p50_us` rows). Empty = no
    /// classes.
    fn classes(&self) -> &'static [&'static str] {
        &[]
    }
    /// The class of op `i`, an index into [`Workload::classes`].
    fn class_of(&self, _i: u64) -> usize {
        0
    }
    /// Workload-specific per-layer metrics of a traced run.
    fn extras(&mut self, _report: &mut Report) {}
}

/// Untraced/traced window pairs of a traced run whose untraced twin has
/// `windows` timed windows: three tenths as many.
pub fn trace_pairs(windows: usize) -> usize {
    (windows * 3 / 10).max(1)
}

/// What a run prints: `name value unit` lines plus the op tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Ops (and set-ups) attempted.
    pub attempted: u64,
    /// Those that errored or returned a wrong result.
    pub failed: u64,
}

impl Report {
    /// Records a metric; the name must be catalogued.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push((name, value));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find_map(|(n, v)| (*n == name).then_some(*v))
    }

    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The report as `name value unit` lines, then the tally.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = catalogue::unit_of(name).expect("checked in put");
            writeln!(out, "{name} {value} {unit}").unwrap();
        }
        writeln!(out, "ops.attempted {} count", self.attempted).unwrap();
        writeln!(out, "ops.failed {} count", self.failed).unwrap();
        out
    }
}

/// Runs `f` between two reference timings; returns its result and the
/// host factor of that stretch.
pub fn flanked<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = host::reference_ms();
    let out = f();
    let after = host::reference_ms();
    (out, stats::host_factor(before, after))
}

/// What one window measured.
struct Window {
    traced: bool,
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    mean_us: f64,
    cpu_us_per_op: f64,
    class_p50_us: Vec<f64>,
}

/// The timed windows of a run, the host factor of each, and every
/// reference timing taken around them.
struct Timed {
    windows: Vec<Window>,
    factors: Vec<f64>,
    refs: Vec<f64>,
}

impl Timed {
    /// Normalised statistic of one field over the windows selected by
    /// `traced`.
    fn stat(&self, traced: bool, kind: StatKind, field: impl Fn(&Window) -> f64) -> f64 {
        let mut values = Vec::new();
        let mut factors = Vec::new();
        for (i, w) in self.windows.iter().enumerate() {
            if w.traced == traced {
                values.push(field(w));
                factors.push(self.factors[i]);
            }
        }
        stats::normalised(&values, &factors, kind)
    }
}

fn run_windows(
    w: &mut dyn Workload,
    plan: &[bool],
    store: Option<&Arc<SpanStore>>,
    report: &mut Report,
) -> Timed {
    let ops = w.ops_per_window();
    let classes = w.classes().len();
    let mut lat_us: Vec<f64> = Vec::with_capacity(ops);
    let mut by_class: Vec<Vec<f64>> = vec![Vec::with_capacity(ops / classes.max(1) + 1); classes];
    let mut timed = Timed {
        windows: Vec::with_capacity(plan.len()),
        factors: Vec::with_capacity(plan.len()),
        refs: Vec::with_capacity(plan.len() + 1),
    };
    let mut next_op = 0u64;
    // Adjacent windows share the reference run between them.
    let mut ref_before = host::reference_ms();
    timed.refs.push(ref_before);
    for (index, &traced) in plan.iter().enumerate() {
        if w.before_window(index) {
            ref_before = host::reference_ms();
            timed.refs.push(ref_before);
        }
        lat_us.clear();
        if let Some(store) = store.filter(|_| traced) {
            store.set_recording(true, index as u16 + 1);
        }
        let mut failed = 0u64;
        let cpu0 = host::process_cpu_us();
        let started = Instant::now();
        let first_op = next_op;
        next_op += ops as u64;
        for i in first_op..next_op {
            let open = store.filter(|_| traced).map(|s| s.enter(Kind::Op));
            let t0 = Instant::now();
            let ok = w.op(i);
            lat_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if let (Some(store), Some(open)) = (store, open) {
                store.exit(open);
            }
            failed += u64::from(!ok);
        }
        let wall = started.elapsed().as_secs_f64();
        let cpu = host::process_cpu_us() - cpu0;
        if let Some(store) = store {
            store.set_recording(false, index as u16 + 1);
        }
        let ref_after = host::reference_ms();
        timed.refs.push(ref_after);
        timed
            .factors
            .push(stats::host_factor(ref_before, ref_after));
        ref_before = ref_after;
        report.attempted += ops as u64;
        report.failed += failed;

        for c in &mut by_class {
            c.clear();
        }
        if classes > 0 {
            for (k, &us) in lat_us.iter().enumerate() {
                by_class[w.class_of(first_op + k as u64)].push(us);
            }
        }
        let mean_us = lat_us.iter().sum::<f64>() / ops as f64;
        lat_us.sort_by(f64::total_cmp);
        timed.windows.push(Window {
            traced,
            ops_per_s: ops as f64 / wall,
            p50_us: stats::percentile_sorted(&lat_us, 0.5),
            p90_us: stats::percentile_sorted(&lat_us, 0.9),
            p99_us: stats::percentile_sorted(&lat_us, 0.99),
            mean_us,
            cpu_us_per_op: cpu / ops as f64,
            class_p50_us: by_class.iter().map(|c| stats::median(c)).collect(),
        });
    }
    timed
}

/// The untimed count pass: exact allocation, message and context-switch
/// counts over a fixed number of ops.
struct Counted {
    ops: f64,
    allocs: AllocCounts,
    messages: u64,
    ctx_switches: u64,
}

fn count_pass(w: &mut dyn Workload, first_op: u64, report: &mut Report) -> Counted {
    let ops = w.count_ops();
    let messages0 = w.messages();
    let ctx0 = host::ctx_switches();
    alloc::set_counting(true);
    let allocs0 = AllocCounts::now();
    let mut failed = 0u64;
    for i in first_op..first_op + ops as u64 {
        failed += u64::from(!w.op(i));
    }
    let allocs = AllocCounts::now().since(allocs0);
    alloc::set_counting(false);
    report.attempted += ops as u64;
    report.failed += failed;
    Counted {
        ops: ops as f64,
        allocs,
        messages: w.messages() - messages0,
        // Saturating: a thread that exits takes its count with it.
        ctx_switches: host::ctx_switches().saturating_sub(ctx0),
    }
}

fn share_ok(report: &Report) -> f64 {
    (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64
}

/// `ledger run`: the nine end-to-end metrics over `windows` timed
/// windows, tracing off.
pub fn run_end_to_end(w: &mut dyn Workload, windows: usize) -> Report {
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            w.tear_down();
        }
        let ((ok, secs), factor) = flanked(|| {
            let t0 = Instant::now();
            let ok = w.set_up();
            (ok, t0.elapsed().as_secs_f64())
        });
        report.tally(ok);
        setups.push(secs * factor);
    }
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[1.min(setups.len() - 1)];

    let plan = vec![false; windows];
    let timed = run_windows(w, &plan, None, &mut report);
    let next_op = (windows * w.ops_per_window()) as u64;
    let counted = count_pass(w, next_op, &mut report);
    w.tear_down();

    report.put(
        "ops_per_s",
        timed.stat(false, StatKind::Rate, |x| x.ops_per_s),
    );
    report.put("op_p50_us", timed.stat(false, StatKind::Time, |x| x.p50_us));
    report.put("op_p90_us", timed.stat(false, StatKind::Time, |x| x.p90_us));
    report.put(
        "allocs_per_op",
        counted.allocs.allocs() as f64 / counted.ops,
    );
    report.put(
        "alloc_kb_per_op",
        counted.allocs.bytes() as f64 / 1024.0 / counted.ops,
    );
    report.put("msgs_per_op", counted.messages as f64 / counted.ops);
    report.put("success_share", share_ok(&report));
    report.put("setup_s", setup_s);
    report.put("peak_rss_mb", host::peak_rss_mb());
    report
}

/// `ledger trace`: every per-layer metric of workload `name`, plus the
/// span log. `windows` is the length of the untraced twin.
pub fn run_traced(
    name: &str,
    w: &mut dyn Workload,
    windows: usize,
    store: &Arc<SpanStore>,
) -> (Report, Vec<trace::Span>) {
    let mut report = Report::default();

    // One set-up, recorded as window 0 so the handler spans of the
    // preload (add_member, sync_members, put_object) are kept.
    store.set_recording(true, SETUP_WINDOW);
    let (ok, setup_factor) = flanked(|| w.set_up());
    store.set_recording(false, SETUP_WINDOW);
    report.tally(ok);

    let pairs = trace_pairs(windows);
    let plan: Vec<bool> = (0..2 * pairs).map(|i| i % 2 == 1).collect();
    let timed = run_windows(w, &plan, Some(store), &mut report);
    let ops = w.ops_per_window() as f64;
    let next_op = (plan.len() * w.ops_per_window()) as u64;

    let calls0 = store.server_calls.load(Relaxed);
    let entries0 = store.reply_entries.load(Relaxed);
    let counted = count_pass(w, next_op, &mut report);
    let calls = store.server_calls.load(Relaxed) - calls0;
    let entries = store.reply_entries.load(Relaxed) - entries0;

    // ---- layer rows from the span log ----
    let spans = store.take();
    let sums = WindowSums::of(&spans, plan.len() + 1);
    // Factor per window id: 0 = set-up, i + 1 = timed window i.
    let factor = |window: usize| match window {
        0 => setup_factor,
        i => timed.factors[i - 1],
    };
    let traced_windows: Vec<usize> = (1..=plan.len()).filter(|i| plan[i - 1]).collect();
    let row = |pick: &dyn Fn(usize) -> f64| {
        let values: Vec<f64> = traced_windows
            .iter()
            .map(|&i| pick(i) / 1e3 / ops)
            .collect();
        let factors: Vec<f64> = traced_windows.iter().map(|&i| factor(i)).collect();
        stats::normalised(&values, &factors, StatKind::Time)
    };
    let threaded = w.threaded();
    let traced_wall_us = timed.stat(true, StatKind::Time, |x| 1e6 / x.ops_per_s);
    // Each branch puts its layer rows and yields the span time they
    // account for, per op.
    let explained = if threaded {
        let op_ns = |i: usize| sums.cell(i, Kind::Op).1 as f64;
        let transport_ns = |i: usize| sums.ns(i, Kind::is_transport) as f64;
        let handler_ns = |i: usize| sums.ns(i, Kind::is_handler) as f64;
        report.put(
            "trace.runtime_threaded.transport_us",
            row(&|i| transport_ns(i) - handler_ns(i)),
        );
        report.put(
            "trace.store_client.self_us",
            row(&|i| op_ns(i) - transport_ns(i)),
        );
        report.put("trace.store_server.handle_us", row(&handler_ns));
        row(&op_ns)
    } else {
        let dst_kinds = [Kind::DstGenerate, Kind::DstExecute, Kind::SpecCheck];
        report.put(
            "trace.dst.generate_us",
            row(&|i| sums.cell(i, Kind::DstGenerate).1 as f64),
        );
        report.put(
            "trace.dst.execute_us",
            row(&|i| sums.cell(i, Kind::DstExecute).1 as f64),
        );
        report.put(
            "trace.spec_visibility.check_us",
            row(&|i| sums.cell(i, Kind::SpecCheck).1 as f64),
        );
        row(&|i| sums.ns(i, |k| dst_kinds.contains(&k)) as f64)
    };

    // Mean handler time per message kind: one sample per window that saw
    // the kind (the set-up counts as a window), normalised like the rest.
    // A kind the workload never sends gets no row.
    for (metric, kind) in [
        ("store_server.list_members_ns", Kind::ListMembers),
        ("store_server.add_member_ns", Kind::AddMember),
        ("store_server.remove_member_ns", Kind::RemoveMember),
        ("store_server.sync_members_ns", Kind::SyncMembers),
        ("store_server.put_object_ns", Kind::PutObject),
    ] {
        let (mut values, mut factors) = (Vec::new(), Vec::new());
        for window in 0..=plan.len() {
            let (n, ns) = sums.cell(window, kind);
            if n > 0 {
                values.push(ns as f64 / n as f64);
                factors.push(factor(window));
            }
        }
        if !values.is_empty() {
            report.put(metric, stats::normalised(&values, &factors, StatKind::Time));
        }
    }

    // ---- exact counts from the count pass ----
    if threaded {
        let kb = |bytes: u64| bytes as f64 / 1024.0 / counted.ops;
        report.put("store_server.calls_per_op", calls as f64 / counted.ops);
        report.put(
            "store_server.reply_entries_per_op",
            entries as f64 / counted.ops,
        );
        report.put(
            "store_client.allocs_per_op",
            counted.allocs.driver_allocs as f64 / counted.ops,
        );
        report.put(
            "store_client.alloc_kb_per_op",
            kb(counted.allocs.driver_bytes),
        );
        report.put(
            "store_server.allocs_per_op",
            counted.allocs.other_allocs as f64 / counted.ops,
        );
        report.put(
            "store_server.alloc_kb_per_op",
            kb(counted.allocs.other_bytes),
        );
        report.put(
            "runtime_threaded.ctx_switches_per_op",
            counted.ctx_switches as f64 / counted.ops,
        );
    }

    // ---- per-class latencies (untraced windows) ----
    for (c, name) in w.classes().iter().enumerate() {
        report.put(
            name,
            timed.stat(false, StatKind::Time, |x| x.class_p50_us[c]),
        );
    }

    w.extras(&mut report);
    w.tear_down();
    obs_micro_timings(&mut report);

    // ---- whole-op and host rows ----
    let untraced_p50 = timed.stat(false, StatKind::Time, |x| x.p50_us);
    let traced_p50 = timed.stat(true, StatKind::Time, |x| x.p50_us);
    report.put("op_p99_us", timed.stat(false, StatKind::Time, |x| x.p99_us));
    report.put(
        "trace.unattributed_share",
        (1.0 - explained / traced_wall_us).max(0.0),
    );
    report.put("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);
    let ref_p25 = stats::percentile(&timed.refs, 0.25);
    report.put("host.ref_ms", ref_p25);
    report.put(
        "host.ref_spread",
        stats::percentile(&timed.refs, 0.75) / ref_p25,
    );
    let untraced_means: Vec<f64> = timed
        .windows
        .iter()
        .filter(|x| !x.traced)
        .map(|x| x.mean_us)
        .collect();
    report.put(
        "host.raw_best5_us_per_op",
        stats::mean_of_smallest(&untraced_means, 5),
    );
    report.put(
        "host.cpu_us_per_op",
        timed.stat(false, StatKind::Time, |x| x.cpu_us_per_op),
    );

    // Everything the catalogue lists is printed on every workload, in
    // catalogue order. A metric the catalogue places off this workload's
    // path reads 0; every other one must have been measured above.
    report.metrics = catalogue::PER_LAYER
        .iter()
        .map(|m| {
            let measured = report.get(m.name);
            assert_eq!(
                measured.is_some(),
                m.on.contains(&name),
                "{name}: {} measured / on this workload's path disagree",
                m.name
            );
            (m.name, measured.unwrap_or(0.0))
        })
        .collect();
    (report, spans)
}

/// Direct micro-timings of the three `obs` calls every rpc and every
/// read makes: a counter increment, a latency observation, and a span
/// pair on a disabled sink.
fn obs_micro_timings(report: &mut Report) {
    use weakset_obs::{EventSink, MetricsRegistry};
    const N: u32 = 200_000;
    let per_call = |f: &mut dyn FnMut(u32)| {
        let (secs, factor) = flanked(|| {
            let t0 = Instant::now();
            for i in 0..N {
                f(i);
            }
            t0.elapsed().as_secs_f64()
        });
        secs * factor * 1e9 / N as f64
    };
    let mut reg = MetricsRegistry::new();
    report.put(
        "obs_registry.incr_ns",
        per_call(&mut |_| std::hint::black_box(&mut reg).incr("rpc.sent")),
    );
    report.put(
        "obs_registry.observe_ns",
        per_call(&mut |i| std::hint::black_box(&mut reg).observe("rpc.latency", i as u64)),
    );
    let mut sink = EventSink::new();
    report.put(
        "obs_sink.span_disabled_ns",
        per_call(&mut |i| {
            let sink = std::hint::black_box(&mut sink);
            let ctx = sink.begin_span(i as u64, "net.rpc", "", None);
            sink.end_span(i as u64, ctx.span);
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload that spins for a fixed count and can be told to fail.
    struct Spin {
        up: bool,
        wrong_every: u64,
        messages: u64,
    }

    impl Workload for Spin {
        fn set_up(&mut self) -> bool {
            self.up = true;
            true
        }
        fn tear_down(&mut self) {
            self.up = false;
        }
        fn ops_per_window(&self) -> usize {
            50
        }
        fn count_ops(&self) -> usize {
            10
        }
        fn op(&mut self, i: u64) -> bool {
            assert!(self.up);
            self.messages += 2;
            std::hint::black_box((0..200u64).sum::<u64>());
            self.wrong_every == 0 || i % self.wrong_every != 0
        }
        fn messages(&self) -> u64 {
            self.messages
        }
        fn threaded(&self) -> bool {
            false
        }
    }

    const WINDOWS: usize = 4;

    #[test]
    fn end_to_end_run_prints_the_nine_metrics_in_catalogue_order() {
        let mut w = Spin {
            up: false,
            wrong_every: 0,
            messages: 0,
        };
        let report = run_end_to_end(&mut w, WINDOWS);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
        let catalogued: Vec<&str> = catalogue::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, catalogued);
        assert_eq!(report.attempted, SETUP_REPS as u64 + 4 * 50 + 10);
        assert_eq!(report.failed, 0);
        assert_eq!(report.get("success_share"), Some(1.0));
        assert_eq!(report.get("msgs_per_op"), Some(2.0));
        assert!(!w.up, "the last fleet is torn down at exit");
    }

    #[test]
    fn wrong_results_lower_the_share() {
        let mut w = Spin {
            up: false,
            wrong_every: 10,
            messages: 0,
        };
        let report = run_end_to_end(&mut w, WINDOWS);
        assert_eq!(report.failed, 4 * 5 + 1);
        assert!(report.get("success_share").unwrap() < 1.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn uncatalogued_metric_is_refused() {
        Report::default().put("made.up", 1.0);
    }
}
