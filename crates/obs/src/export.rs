//! Canonical Chrome-trace-event export.
//!
//! Converts a recorded event log into the Chrome trace-event JSON
//! format (the `traceEvents` array form), loadable in Perfetto and
//! `chrome://tracing`. Spans become complete (`"ph": "X"`) events and
//! point events become instants (`"ph": "i"`). The writer is the
//! crate's canonical [`Json`] emitter over deterministically ordered
//! input, so two same-seed runs export byte-identical files.
//!
//! Mapping choices:
//!
//! * `pid` is the trace id — Perfetto groups each computation (trace)
//!   as one "process", which is exactly the cross-node span tree.
//! * `tid` is the span id, so every span gets its own track; parent
//!   links are preserved in `args.parent` for tooling.
//! * Timestamps are simulated microseconds, the native unit of the
//!   trace-event format.

use crate::causal::CausalDag;
use crate::json::Json;
use crate::sink::ObsEvent;

/// Renders an event log as canonical Chrome-trace JSON. Events with no
/// trace context fall into `pid` 0.
pub fn chrome_trace(events: &[ObsEvent]) -> String {
    let dag = CausalDag::from_events(events);
    let mut out: Vec<Json> = Vec::new();
    for e in events {
        match e.span {
            Some(id) if e.kind != "span.end" && e.kind != "span.unclosed" => {
                // A span-begin edge: emit one complete event using the
                // end time reconstructed by the DAG.
                let node = match dag.span(id) {
                    Some(n) => n,
                    None => continue,
                };
                let mut args = vec![("detail".to_string(), Json::Str(node.detail.to_string()))];
                if let Some(p) = node.parent {
                    args.push(("parent".to_string(), Json::u64(p.0)));
                }
                out.push(Json::Obj(vec![
                    ("name".to_string(), Json::Str(node.kind.clone())),
                    ("cat".to_string(), Json::Str("weakset".to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), Json::u64(node.begin_us)),
                    ("dur".to_string(), Json::u64(node.duration_us())),
                    (
                        "pid".to_string(),
                        Json::u64(node.trace.map(|t| t.0).unwrap_or(0)),
                    ),
                    ("tid".to_string(), Json::u64(id.0)),
                    ("args".to_string(), Json::Obj(args)),
                ]));
            }
            Some(_) => {} // end edges are folded into the X event
            None => {
                let mut args = vec![("detail".to_string(), Json::Str(e.detail.to_string()))];
                if let Some(p) = e.parent {
                    args.push(("parent".to_string(), Json::u64(p.0)));
                }
                out.push(Json::Obj(vec![
                    ("name".to_string(), Json::Str(e.kind.to_string())),
                    ("cat".to_string(), Json::Str("weakset".to_string())),
                    ("ph".to_string(), Json::Str("i".to_string())),
                    ("ts".to_string(), Json::u64(e.at_us)),
                    ("s".to_string(), Json::Str("g".to_string())),
                    (
                        "pid".to_string(),
                        Json::u64(e.trace.map(|t| t.0).unwrap_or(0)),
                    ),
                    (
                        "tid".to_string(),
                        Json::u64(e.parent.map(|p| p.0).unwrap_or(0)),
                    ),
                    ("args".to_string(), Json::Obj(args)),
                ]));
            }
        }
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(out)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EventSink;

    fn sample_log() -> Vec<ObsEvent> {
        let mut s = EventSink::enabled();
        let root = s.begin_span(0, "iter.fig4.invocation", "fig4", None);
        let rpc = s.begin_span(2, "net.rpc", "n0->n1", Some(root));
        s.event_in(3, "net.rpc.failed", "timeout", Some(rpc));
        s.end_span(6, rpc.span);
        s.end_span(8, root.span);
        s.finish(9);
        s.take_events()
    }

    #[test]
    fn exports_spans_as_complete_events() {
        let json = chrome_trace(&sample_log());
        let parsed = Json::parse(&json).expect("exporter output parses");
        let events = match parsed.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            _ => panic!("missing traceEvents array"),
        };
        // Two spans (X) and one instant (i).
        assert_eq!(events.len(), 3);
        let root = &events[0];
        assert_eq!(root.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(root.get("dur").and_then(Json::as_u64), Some(8));
        let rpc = &events[1];
        assert_eq!(rpc.get("dur").and_then(Json::as_u64), Some(4));
        assert_eq!(
            rpc.get("pid").and_then(Json::as_u64),
            root.get("pid").and_then(Json::as_u64),
            "same trace, same pid"
        );
        let inst = &events[2];
        assert_eq!(inst.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            inst.get("name").and_then(Json::as_str),
            Some("net.rpc.failed")
        );
    }

    #[test]
    fn export_is_byte_identical_for_identical_logs() {
        assert_eq!(chrome_trace(&sample_log()), chrome_trace(&sample_log()));
    }

    #[test]
    fn empty_log_exports_an_empty_array() {
        let json = chrome_trace(&[]);
        let parsed = Json::parse(&json).unwrap();
        match parsed.get("traceEvents") {
            Some(Json::Arr(a)) => assert!(a.is_empty()),
            _ => panic!("missing traceEvents"),
        }
    }
}
