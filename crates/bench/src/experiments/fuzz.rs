//! `fuzz` — DST throughput (snapshot only; no table): a fixed batch of
//! generated scenarios plus one forced-violation shrink. Throughput is
//! expressed in simulated time (steps per simulated second), so the
//! snapshot stays byte-identical across machines.

use crate::snapshot::{with_common_objectives, with_trace_objectives};
use weakset_dst::prelude::{execute, generate, mix, shrink, Chaos};
use weakset_obs::{
    critical_path, CausalDag, CriticalPath, Direction, MetricsRegistry, ObsSnapshot,
};

/// `BENCH_fuzz.json`.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut agg = MetricsRegistry::new();
    let mut steps = 0u64;
    let mut sim_us = 0u64;
    let mut cp = CriticalPath::default();
    let mut total_events = 0usize;
    for i in 0..12 {
        let s = generate(mix(seed, i));
        let report = execute(&s);
        agg.merge(&report.metrics);
        agg.incr("dst.scenarios");
        agg.add("dst.steps", report.steps as u64);
        agg.add("dst.violations", report.violations.len() as u64);
        steps += report.steps as u64;
        sim_us += report.sim_time_us;
        // Fold each run's causal stream into the aggregate: per-kind
        // event counts plus the critical-path decomposition.
        for e in &report.events {
            agg.incr(&format!("events.{}", e.kind));
        }
        cp.absorb(&critical_path(&CausalDag::from_events(&report.events)));
        total_events += report.events.len();
    }
    // A guaranteed violation exercises the shrinker; its cost in
    // executions is the metric.
    let mut sabotaged = generate(mix(seed, 0));
    sabotaged.chaos = Chaos::PhantomYield;
    let (minimal, execs) = shrink(&sabotaged);
    agg.add("dst.shrink.execs", execs as u64);
    agg.add("dst.shrink.final_ops", minimal.ops.len() as u64);

    let snap = agg.snapshot("fuzz", seed);
    let per_sim_sec = if sim_us == 0 {
        0.0
    } else {
        steps as f64 / (sim_us as f64 / 1_000_000.0)
    };
    let snap = with_common_objectives(snap)
        .with_objective("steps_per_sim_sec", per_sim_sec, Direction::HigherIsBetter)
        .with_objective("shrink_execs", execs as f64, Direction::LowerIsBetter);
    with_trace_objectives(snap, &cp, total_events)
}
