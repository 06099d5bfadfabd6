//! Conformance-failure explanations: walk the causal DAG backwards from
//! a failed iterator invocation to the fault events that caused it.
//!
//! Every [`RunReport`] carries the run's full
//! causal event stream. When a run fails — an iterator signalled
//! `Failed`, or an oracle rejected the recorded computation — the DAG
//! built from that stream holds the whole story: which invocation
//! failed, which fetches under it found members unreachable, which RPCs
//! those fetches lost, and which scheduled fault (crash, partition,
//! link flap) made the target node dark at that moment. [`explain`]
//! assembles it into a deterministic, human-readable post-mortem, so a
//! fuzz-gate failure in CI ships its own diagnosis instead of a bare
//! seed.

use crate::run::RunReport;
use std::fmt::Write as _;
use weakset_sim::metrics::{CausalDag, ObsEvent};

/// Point-event kinds that count as failure evidence under an invocation.
const EVIDENCE_KINDS: [&str; 5] = [
    "iter.fetch.unreachable",
    "store.read.failed",
    "store.fetch.failed",
    "net.rpc.failed",
    "net.msg.lost",
];

/// Builds the causal explanation for a failed run, or `None` when the
/// run recorded neither a failed invocation nor an oracle violation.
///
/// Output is a pure function of the report, so same-seed repros print
/// byte-identical explanations.
pub fn explain(report: &RunReport) -> Option<String> {
    let failures: Vec<&ObsEvent> = report
        .events
        .iter()
        .filter(|e| e.kind == "iter.outcome" && e.detail.contains("failed:"))
        .collect();
    if failures.is_empty() && report.violations.is_empty() {
        return None;
    }

    let dag = CausalDag::from_events(&report.events);
    let mut out = String::new();
    let _ = writeln!(out, "causal post-mortem for seed {}", report.seed);
    if report.violations.is_empty() {
        let _ = writeln!(out, "oracle violations: none (run failed but conformed)");
    } else {
        let _ = writeln!(out, "oracle violations:");
        for v in &report.violations {
            let _ = writeln!(out, "  - {v}");
        }
    }
    if failures.is_empty() {
        // No fault is to blame: the oracle rejected what invocations
        // that completed returned or yielded. Show the last of those.
        let _ = writeln!(
            out,
            "no failed invocation in the event stream: the oracle rejected \
             invocations that completed. The run's last outcomes:"
        );
        let outcomes: Vec<&ObsEvent> = report
            .events
            .iter()
            .filter(|e| e.kind == "iter.outcome")
            .collect();
        for e in &outcomes[outcomes.len().saturating_sub(4)..] {
            let _ = writeln!(out, "  {}us {}", e.at_us, e.detail);
        }
        return Some(out);
    }

    for f in &failures {
        let _ = writeln!(out);
        explain_failure(&mut out, report, &dag, f);
    }
    Some(out)
}

/// Explains one failed `iter.outcome` event: names the invocation span,
/// lists the failure evidence recorded beneath it, and traces each
/// unreachable node back to the fault that darkened it.
fn explain_failure(out: &mut String, report: &RunReport, dag: &CausalDag, outcome: &ObsEvent) {
    let _ = writeln!(out, "failed invocation at {}us:", outcome.at_us);
    let Some(span_id) = outcome.parent else {
        let _ = writeln!(out, "  (outcome has no invocation span — sink was off?)");
        let _ = writeln!(out, "  outcome: {}", outcome.detail);
        return;
    };
    if let Some(span) = dag.span(span_id) {
        let chain = dag.ancestors(span_id);
        let root = chain.last().copied().unwrap_or(span_id);
        let _ = writeln!(
            out,
            "  invocation: {} (span {}, {} of the computation rooted at span {})",
            span.kind,
            span.id,
            if chain.is_empty() {
                "first invocation"
            } else {
                "continuation"
            },
            root,
        );
    }
    let _ = writeln!(out, "  outcome: {}", outcome.detail);

    let evidence: Vec<&ObsEvent> = dag
        .points_under(span_id)
        .into_iter()
        .filter(|e| EVIDENCE_KINDS.contains(&e.kind.as_str()))
        .collect();
    if evidence.is_empty() {
        let _ = writeln!(out, "  no failure evidence recorded under the invocation");
    } else {
        let _ = writeln!(out, "  evidence under the invocation:");
        for e in &evidence {
            let _ = writeln!(out, "    {}us {} {}", e.at_us, e.kind, e.detail);
        }
    }

    // Tie every node the evidence proves dark back to the fault that
    // made it so.
    let mut named: Vec<String> = Vec::new();
    for e in &evidence {
        let Some(node) = dark_node(&e.kind, &e.detail) else {
            continue;
        };
        if named.iter().any(|n| n == &node) {
            continue;
        }
        named.push(node.clone());
        match fault_cause(&report.events, &node, outcome.at_us) {
            Some(cause) => {
                let _ = writeln!(
                    out,
                    "  cause: {} {} at {}us made {} unreachable",
                    cause.kind, cause.detail, cause.at_us, node,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  cause: no live fault found for {} at {}us (transient loss or timeout)",
                    node, outcome.at_us,
                );
            }
        }
    }
}

/// The node an evidence event proves unreachable, if it names one.
///
/// Understands the detail formats the instrumented stack emits:
/// `elem=5 home=n2`, `... node n2 is down`, `... no route from n0 to n2`.
fn dark_node(kind: &str, detail: &str) -> Option<String> {
    if kind == "iter.fetch.unreachable" {
        return detail
            .split_whitespace()
            .find_map(|t| t.strip_prefix("home="))
            .map(str::to_string);
    }
    if let Some(i) = detail.find(" is down") {
        return detail[..i].rsplit(' ').next().map(str::to_string);
    }
    if let Some(i) = detail.find("no route from ") {
        let rest = &detail[i + "no route from ".len()..];
        let mut ends = rest.split(" to ");
        let _from = ends.next();
        return ends.next().map(|s| {
            s.trim_end_matches(|c: char| !c.is_alphanumeric())
                .to_string()
        });
    }
    None
}

/// The latest fault event at or before `before_us` that still explains
/// `node` being unreachable — a crash without a subsequent restart, a
/// partition isolating it without a subsequent heal, or a downed link
/// touching it that was never brought back up.
fn fault_cause<'a>(events: &'a [ObsEvent], node: &str, before_us: u64) -> Option<&'a ObsEvent> {
    let in_partition = |detail: &str| -> bool {
        detail
            .trim_start_matches('[')
            .trim_end_matches(']')
            .split(',')
            .any(|t| t == node)
    };
    let on_link = |detail: &str| -> bool {
        detail
            .split_whitespace()
            .next()
            .is_some_and(|pair| pair.split("->").any(|t| t == node))
    };
    let mut crash: Option<&ObsEvent> = None;
    let mut partition: Option<&ObsEvent> = None;
    let mut link: Option<&ObsEvent> = None;
    for e in events.iter().filter(|e| e.at_us <= before_us) {
        match e.kind.as_str() {
            "sim.fault.crash" if e.detail == node => crash = Some(e),
            "sim.fault.restart" if e.detail == node => crash = None,
            "sim.fault.partition" => partition = in_partition(&e.detail).then_some(e),
            "sim.fault.heal_partition" => partition = None,
            "sim.fault.set_link" if on_link(&e.detail) => {
                link = e.detail.ends_with(" down").then_some(e);
            }
            _ => {}
        }
    }
    // Prefer the most specific live fault: a crashed node beats a
    // partition beats a single dead link.
    crash.or(partition).or(link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::execute;
    use crate::scenario::{Chaos, Deployment, FaultSpec, Link, Op, Scenario};
    use weakset::prelude::{FetchOrder, Semantics};
    use weakset_store::prelude::ReadPolicy;

    /// A member's home partitioned away for longer than the run: the
    /// grow-only (Fig 5) iterator must fail, and the explanation must
    /// name both the partition and the member it darkened.
    fn partitioned(semantics: Semantics) -> Scenario {
        Scenario {
            seed: 1042,
            servers: 3,
            deployment: Deployment::Plain,
            semantics,
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
            setup: vec![(1, 0), (2, 1), (3, 2)],
            ops: Vec::new(),
            // Servers are indices into the server list; server 2 hosts
            // element 3 and goes dark right as the run starts.
            faults: vec![FaultSpec::Partition {
                at_ms: 8,
                side: vec![2],
                for_ms: 400,
            }],
            chaos: Chaos::None,
        }
    }

    #[test]
    fn partition_failure_is_explained_for_pessimistic_semantics() {
        for sem in [Semantics::Snapshot, Semantics::GrowOnly] {
            let report = execute(&partitioned(sem));
            let text = explain(&report).expect("a failed run must explain itself");
            assert!(
                text.contains("sim.fault.partition"),
                "{sem}: explanation names no partition:\n{text}"
            );
            assert!(
                text.contains("iter.fetch.unreachable"),
                "{sem}: explanation cites no unreachable member:\n{text}"
            );
            assert!(
                text.contains("made n3 unreachable"),
                "{sem}: explanation does not name the dark node:\n{text}"
            );
            // Deterministic: same seed, same words.
            let again = explain(&execute(&partitioned(sem))).unwrap();
            assert_eq!(text, again, "{sem}: explanation not deterministic");
        }
    }

    #[test]
    fn conforming_runs_have_nothing_to_explain() {
        let s = Scenario {
            faults: Vec::new(),
            ..partitioned(Semantics::Optimistic)
        };
        let report = execute(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(explain(&report).is_none());
    }

    #[test]
    fn chaos_violations_without_iterator_failure_still_report() {
        let s = Scenario {
            faults: Vec::new(),
            chaos: Chaos::PhantomYield,
            ..partitioned(Semantics::Optimistic)
        };
        let report = execute(&s);
        assert!(!report.violations.is_empty());
        let text = explain(&report).expect("violations always explain");
        assert!(text.contains("the oracle rejected invocations that completed"));
        assert!(!text.contains("chaos"), "{text}");
        assert!(text.contains(" returned\n"), "{text}");
    }

    /// Class C (ROADMAP items 13 and 14): a leaderless snapshot read
    /// that returns without yielding an element the oracle expected. No
    /// invocation failed, so the post-mortem blames no fault and shows
    /// the last outcomes instead.
    #[test]
    fn a_wrong_return_is_not_blamed_on_faults() {
        let s = Scenario {
            seed: 6645496270588172950,
            servers: 4,
            deployment: Deployment::Gossip {
                grow_only: false,
                merkle: false,
            },
            semantics: Semantics::Snapshot,
            read_policy: ReadPolicy::Leaderless,
            fetch_order: FetchOrder::ClosestFirst,
            think_ms: 4,
            budget: 28,
            start_ms: 70,
            setup: vec![(2, 1)],
            ops: vec![
                Op::Add {
                    at_ms: 17,
                    elem: 101,
                    home: 0,
                },
                Op::Add {
                    at_ms: 18,
                    elem: 100,
                    home: 2,
                },
            ],
            faults: vec![FaultSpec::Outage {
                at_ms: 75,
                node: 0,
                for_ms: 35,
            }],
            ..partitioned(Semantics::Snapshot)
        };
        let report = execute(&s);
        assert!(!report.violations.is_empty(), "class C no longer shows");
        let text = explain(&report).expect("violations always explain");
        assert!(text.contains("the oracle rejected invocations that completed"));
        assert!(text.contains("fig4 returned"), "{text}");
        assert!(!text.contains("cause:"), "{text}");
    }

    #[test]
    fn dark_node_parses_every_detail_shape() {
        assert_eq!(
            dark_node("iter.fetch.unreachable", "elem=5 home=n2"),
            Some("n2".into())
        );
        assert_eq!(
            dark_node("net.rpc.failed", "n0->n2: node n2 is down"),
            Some("n2".into())
        );
        assert_eq!(
            dark_node("store.read.failed", "primary c1: no route from n0 to n3"),
            Some("n3".into())
        );
        assert_eq!(
            dark_node("net.rpc.failed", "n0->n2: request timed out"),
            None
        );
    }

    #[test]
    fn fault_cause_respects_heals_and_token_boundaries() {
        let ev = |at_us: u64, kind: &str, detail: &str| ObsEvent {
            at_us,
            kind: kind.into(),
            detail: detail.into(),
            span: None,
            parent: None,
            trace: None,
        };
        let events = vec![
            ev(10, "sim.fault.partition", "[n1,n12]"),
            ev(20, "sim.fault.heal_partition", ""),
            ev(30, "sim.fault.partition", "[n12]"),
        ];
        // n1's partition healed at 20; the one live at 40 isolates only
        // n12 — and "n1" must not token-match inside "n12".
        assert!(fault_cause(&events, "n1", 40).is_none());
        let hit = fault_cause(&events, "n12", 40).expect("n12 is isolated");
        assert_eq!(hit.at_us, 30);
        // Crash beats partition as the more specific cause.
        let mut with_crash = events.clone();
        with_crash.push(ev(35, "sim.fault.crash", "n12"));
        assert_eq!(fault_cause(&with_crash, "n12", 40).unwrap().at_us, 35);
    }
}
