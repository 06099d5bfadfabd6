//! E4 — Figure 5: growing-only set, pessimistic failure handling.
//!
//! Two phenomena from the paper's §3.3:
//!
//! 1. "the set may grow faster than the iterator yields elements from it;
//!    an iterator satisfying this specification may never terminate" —
//!    swept here as producer interval vs consumer cost.
//! 2. Pessimism: the first unreachable member aborts the run.

use crate::report::Table;
use crate::scenarios::{drive, populated_set, replicated, schedule_growth, wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective};
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_spec::checker::{check_computation, Figure};
use weakset_store::prelude::ReadPolicy;

const N_INITIAL: usize = 10;
/// Consumer cost per yield ≈ membership read + fetch = 2 RTT = 20ms at
/// 5ms one-way.
const YIELD_COST_MS: u64 = 20;
const INVOCATION_BUDGET: usize = 120;

/// One growth-race point.
pub struct GrowthPoint {
    /// Producer interval as a multiple of the consumer's per-yield cost.
    pub interval_ratio: f64,
    /// Elements yielded within the invocation budget.
    pub yielded: usize,
    /// Whether the run terminated within the budget.
    pub terminated: bool,
    /// Whether the recorded run conformed to Figure 5.
    pub conforms: bool,
}

/// The producer/consumer race sweep.
fn growth_points() -> Vec<GrowthPoint> {
    [4.0f64, 2.0, 1.0, 0.5]
        .into_iter()
        .map(|interval_ratio| {
            let mut w = wan(400, 4, SimDuration::from_millis(5));
            let set = populated_set(&mut w, N_INITIAL, SimDuration::from_millis(200));
            let interval =
                SimDuration::from_micros((YIELD_COST_MS as f64 * 1000.0 * interval_ratio) as u64);
            // A long stream of producer additions.
            let now = w.world.now();
            schedule_growth(&mut w, &set, now, interval, 400);
            let mut it = set.elements_observed(Semantics::GrowOnly);
            let mut yielded = 0;
            let mut terminated = false;
            for _ in 0..INVOCATION_BUDGET {
                match it.next(&mut w.world) {
                    IterStep::Yielded(_) => yielded += 1,
                    IterStep::Done => {
                        terminated = true;
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            let comp = it.take_computation(&w.world).expect("observed");
            let conforms = check_computation(Figure::Fig5, &comp).is_ok();
            GrowthPoint {
                interval_ratio,
                yielded,
                terminated,
                conforms,
            }
        })
        .collect()
}

/// One pessimism point.
pub struct FailurePoint {
    /// When the partition hits, in yields-completed terms.
    pub cut_after_ms: u64,
    /// Elements yielded before the failure.
    pub yielded: usize,
    /// Whether the run failed (vs terminated).
    pub failed: bool,
    /// Figure 5 conformance.
    pub conforms: bool,
}

/// The pessimistic-abort sweep: a partition hits mid-run.
fn failure_points() -> Vec<FailurePoint> {
    [40u64, 200, 400]
        .into_iter()
        .map(|cut_after_ms| {
            let mut w = wan(410, 4, SimDuration::from_millis(5));
            let set = populated_set(&mut w, 32, SimDuration::from_millis(200));
            // Cut one non-home server at the given time (relative to the
            // start of iteration; workload setup already consumed
            // simulated time).
            let victim = w.servers[3];
            w.world.schedule_fault(
                w.world.now() + SimDuration::from_millis(cut_after_ms),
                weakset_sim::fault::FaultAction::Partition(vec![victim]),
            );
            let mut it = set.elements_observed(Semantics::GrowOnly);
            let mut yielded = 0;
            let mut failed = false;
            loop {
                match it.next(&mut w.world) {
                    IterStep::Yielded(_) => yielded += 1,
                    IterStep::Done => break,
                    IterStep::Failed(_) => {
                        failed = true;
                        break;
                    }
                    IterStep::Blocked => unreachable!("grow-only never blocks"),
                }
            }
            let comp = it.take_computation(&w.world).expect("observed");
            FailurePoint {
                cut_after_ms,
                yielded,
                failed,
                conforms: check_computation(Figure::Fig5, &comp).is_ok(),
            }
        })
        .collect()
}

/// One membership-read-policy point (the paper: "one could easily
/// specify the iterator to use a quorum or token-based scheme by
/// changing the last line").
pub struct PolicyPoint {
    /// The membership read policy.
    pub policy: ReadPolicy,
    /// Elements yielded.
    pub yielded: usize,
    /// Whether the run terminated normally.
    pub done: bool,
    /// Figure 5 conformance.
    pub conforms: bool,
}

/// The quorum ablation: the membership primary is cut mid-run. With
/// `Primary` reads the run dies; with `Quorum` (2-of-3 replicas) or
/// `Any` it finishes from the surviving replicas.
fn quorum_points() -> Vec<PolicyPoint> {
    use weakset_store::collection::MemberEntry;
    use weakset_store::object::{ObjectId, ObjectRecord};
    use weakset_store::prelude::StoreClient;

    [ReadPolicy::Primary, ReadPolicy::Quorum, ReadPolicy::Any]
        .into_iter()
        .map(|policy| {
            let mut w = wan(420, 4, SimDuration::from_millis(5));
            // Membership: primary on servers[0], replicas on 1 and 2.
            // Elements all live on servers[3] so cutting the primary
            // leaves them reachable.
            let cref = replicated(&w.servers[..3]);
            let client = StoreClient::new(w.client_node, SimDuration::from_millis(200));
            client
                .create_collection(&mut w.world, &cref)
                .expect("healthy");
            let elem_home = w.servers[3];
            for i in 1..=16u64 {
                client
                    .put_object(
                        &mut w.world,
                        elem_home,
                        ObjectRecord::new(ObjectId(i), format!("o{i}"), &b"x"[..]),
                    )
                    .expect("healthy");
                client
                    .add_member(
                        &mut w.world,
                        &cref,
                        MemberEntry {
                            elem: ObjectId(i),
                            home: elem_home,
                        },
                    )
                    .expect("healthy");
            }
            // Cut the primary 100ms into the run.
            let victim = w.servers[0];
            w.world.schedule_fault(
                w.world.now() + SimDuration::from_millis(100),
                weakset_sim::fault::FaultAction::Partition(vec![victim]),
            );
            let config = IterConfig {
                read_policy: policy,
                ..IterConfig::default()
            };
            let set = weakset::handle::WeakSet::new(client, cref).with_config(config);
            let mut it = set.elements_observed(Semantics::GrowOnly);
            let mut yielded = 0;
            let done = loop {
                match it.next(&mut w.world) {
                    IterStep::Yielded(_) => yielded += 1,
                    IterStep::Done => break true,
                    IterStep::Failed(_) => break false,
                    IterStep::Blocked => unreachable!("grow-only never blocks"),
                }
            };
            let comp = it.take_computation(&w.world).expect("observed");
            PolicyPoint {
                policy,
                yielded,
                done,
                conforms: check_computation(Figure::Fig5, &comp).is_ok(),
            }
        })
        .collect()
}

/// Formats both sweeps as the E4 tables.
pub fn run() -> Vec<Table> {
    let mut t1 = Table::new(
        "E4a (Figure 5): producer/consumer race — (non-)termination",
        &[
            "producer interval (x consume cost)",
            "yielded (budget 120 invocations)",
            "terminated",
            "fig5 conforms",
        ],
    );
    for p in growth_points() {
        t1.row(&[
            format!("{:.1}", p.interval_ratio),
            p.yielded.to_string(),
            p.terminated.to_string(),
            p.conforms.to_string(),
        ]);
    }
    t1.note("expected: slow producers (ratio > 1) let the run terminate; at ratio <= 1 the");
    t1.note("iterator never drains the set within the budget (the paper's non-termination)");

    let mut t2 = Table::new(
        "E4b (Figure 5): pessimistic abort on unreachable member",
        &[
            "partition at (ms)",
            "yielded (of 32)",
            "failed",
            "fig5 conforms",
        ],
    );
    for p in failure_points() {
        t2.row(&[
            p.cut_after_ms.to_string(),
            p.yielded.to_string(),
            p.failed.to_string(),
            p.conforms.to_string(),
        ]);
    }
    t2.note("expected: later partitions allow more yields before the mandatory failure;");
    t2.note("a partition after the run drains (640ms) does not fail it");

    let mut t3 = Table::new(
        "E4c (Figure 5 variant): membership read policy when the primary is cut mid-run",
        &[
            "read policy",
            "yielded (of 16)",
            "terminated",
            "fig5 conforms",
        ],
    );
    for p in quorum_points() {
        t3.row(&[
            format!("{:?}", p.policy),
            p.yielded.to_string(),
            p.done.to_string(),
            p.conforms.to_string(),
        ]);
    }
    t3.note("the paper's suggested 'quorum scheme by changing the last line': Primary");
    t3.note("reads die with the primary; Quorum (2-of-3) and Any reads finish the run");
    vec![t1, t2, t3]
}

/// `BENCH_e4.json`: a grow-only iteration of 12 elements while 20 more
/// are added under it.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 3, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 12, SimDuration::from_millis(100));
    let now = w.world.now();
    schedule_growth(&mut w, &set, now, SimDuration::from_millis(4), 20);
    let mut it = set.elements(Semantics::GrowOnly);
    drive(&mut w.world, &mut it, 3, SimDuration::from_millis(10));
    with_yield_objective(snapshot_with_trace(&mut w.world, "e4", seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_producers_terminate_fast_producers_do_not() {
        let ps = growth_points();
        assert!(ps[0].terminated, "ratio 4.0 must terminate");
        assert!(!ps[3].terminated, "ratio 0.5 must outpace the consumer");
    }

    #[test]
    fn non_terminating_runs_still_yield_continuously() {
        let ps = growth_points();
        let racing = &ps[3];
        assert_eq!(racing.yielded, INVOCATION_BUDGET);
    }

    #[test]
    fn all_growth_runs_conform() {
        for p in growth_points() {
            assert!(p.conforms, "ratio={}", p.interval_ratio);
        }
    }

    #[test]
    fn quorum_reads_survive_primary_loss_where_primary_reads_die() {
        let ps = quorum_points();
        let primary = ps.iter().find(|p| p.policy == ReadPolicy::Primary).unwrap();
        assert!(!primary.done, "primary reads must fail mid-run");
        assert!(primary.yielded < 16);
        assert!(primary.conforms);
        for policy in [ReadPolicy::Quorum, ReadPolicy::Any] {
            let p = ps.iter().find(|p| p.policy == policy).unwrap();
            assert!(p.done, "{policy:?} must finish");
            assert_eq!(p.yielded, 16, "{policy:?}");
            assert!(p.conforms, "{policy:?}");
        }
    }

    #[test]
    fn earlier_partitions_yield_less_then_fail() {
        let ps = failure_points();
        assert!(ps[0].failed && ps[1].failed);
        assert!(ps[0].yielded < ps[1].yielded);
        for p in &ps {
            assert!(p.conforms, "cut_after={}", p.cut_after_ms);
        }
        // The run needs ~32 × 20ms = 640ms; a 400ms cut still fails it.
        assert!(ps[2].failed);
    }
}
