//! A structured event sink keyed by simulated time.
//!
//! Disabled by default: a quiescent run records nothing and pays only a
//! branch per call. When enabled, layers push [`ObsEvent`]s (point
//! events) and open/close spans; spans are paired events sharing a
//! [`SpanId`]. Each span carries an optional parent span and trace id
//! (see [`TraceContext`]), which is what turns a flat event log into
//! the happens-before DAG consumed by [`crate::causal`].
//!
//! Recording an event allocates nothing the event does not keep: its
//! kind is a clone of a name the sink already holds ([`ObsKind`]), its
//! detail is a [`Label`] (text of up to 22 bytes, such as a node or link
//! name, is held inline, so recording it allocates nothing; a longer
//! `String` is moved in), and the open-span ledger is a stack. The
//! buffer itself is sized when the sink is enabled (512 events, the DST
//! corpus mean rounded up — a constant, because a run cannot know its
//! length in advance and every caller in the workspace would pass the
//! same number); a sink that is never enabled reserves nothing.

use crate::causal::{TraceContext, TraceId};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Identifies one span across its `begin_span`/`end` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// A dotted event kind such as `"net.rpc"`, held as a shared name.
///
/// A run records thousands of events of a few dozen kinds, so an event
/// does not own its kind's text: a sink keeps one `ObsKind` per kind it
/// has seen and every event of that kind holds a clone (a reference
/// count, not a copy). It reads as the `str` it names — it derefs to
/// it, prints (`Display` and `Debug`) as it, and compares and orders as
/// it.
///
/// Why not `&'static str`: kinds arrive through `Observe::span_enter(&mut
/// self, kind: &str, ..)`, and implementations outside this workspace's
/// crates are written against that signature.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObsKind(Arc<str>);

impl ObsKind {
    /// The kind's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for ObsKind {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ObsKind {
    fn from(name: &str) -> Self {
        ObsKind(name.into())
    }
}

impl fmt::Display for ObsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for ObsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for ObsKind {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Bytes of text a [`Label`] holds inline: with its length and its tag
/// that makes a `Label` the size of a `String`.
const INLINE: usize = 22;

/// An event's detail text, such as `"n0->n1"`: an immutable string that
/// keeps up to 22 bytes inline and boxes longer text.
///
/// The simulator records a node or link name per message, built in place
/// at no allocation. A label derefs to, prints (`Display` and `Debug`)
/// as, and compares with `==` as its `str`: readers see exactly the
/// bytes a `String` detail had.
#[derive(Clone, PartialEq, Eq)]
pub struct Label(Repr);

/// Text of up to `INLINE` bytes is always `Inline`, its unused bytes
/// zero, so derived equality is equality of the text.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<str>),
}

impl Label {
    /// The concatenation of `parts`, written in place when it fits
    /// inline, else into one allocation of exactly its length.
    pub fn concat(parts: &[&str]) -> Label {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > INLINE {
            return Label(Repr::Boxed(parts.concat().into_boxed_str()));
        }
        let mut bytes = [0; INLINE];
        let mut at = 0;
        for part in parts {
            bytes[at..at + part.len()].copy_from_slice(part.as_bytes());
            at += part.len();
        }
        let len = len as u8;
        Label(Repr::Inline { len, bytes })
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("a label is built from whole strs"),
            Repr::Boxed(text) => text,
        }
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::concat(&[])
    }
}

impl Deref for Label {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Self {
        Label::concat(&[text])
    }
}

/// Short text is copied inline (the `String` is freed); longer text
/// moves into a box, the `String`'s buffer shrunk to its length.
impl From<String> for Label {
    fn from(text: String) -> Self {
        if text.len() <= INLINE {
            Label::from(text.as_str())
        } else {
            Label(Repr::Boxed(text.into_boxed_str()))
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

/// One structured event, stamped with simulated microseconds.
///
/// Recording one costs a push: the kind is a shared name ([`ObsKind`]),
/// not a copy, and the detail a [`Label`]. `Debug` and `==` read exactly
/// as when `kind` and `detail` were `String`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulated time of the event, in microseconds since run start.
    pub at_us: u64,
    /// Dotted event kind, e.g. `"sim.fault.crash"` or `"span.begin"`.
    pub kind: ObsKind,
    /// Free-form detail (node id, figure key, …).
    pub detail: Label,
    /// The span this event opens/closes, when it is a span edge.
    pub span: Option<SpanId>,
    /// The parent span, for span-begin edges and attributed point
    /// events. `None` for trace roots and unattributed events.
    pub parent: Option<SpanId>,
    /// The trace this event belongs to, when it was recorded under a
    /// [`TraceContext`].
    pub trace: Option<TraceId>,
}

/// Events an enabled sink has room for from the start: the DST corpus
/// averages 469.3 a scenario (see the module docs).
const ENABLED_RESERVE: usize = 512;

/// Counter: spans still open when a run's sink was finished
/// ([`EventSink::finish`]) — unbalanced instrumentation, surfaced
/// instead of dropped.
pub const UNCLOSED_SPANS: &str = "trace.unclosed_spans";

/// Collects [`ObsEvent`]s when enabled; a no-op otherwise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventSink {
    enabled: bool,
    next_span: u64,
    next_trace: u64,
    /// Spans begun but not yet ended, so unbalanced instrumentation is
    /// caught instead of silently producing a broken DAG. Ascending:
    /// ids are handed out in order and pushed at the end, and spans
    /// almost always close innermost-first, i.e. from the end.
    open: Vec<SpanId>,
    /// The shared name of every kind recorded so far (a few dozen).
    kinds: Vec<ObsKind>,
    events: Vec<ObsEvent>,
}

impl EventSink {
    /// A disabled sink (records nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// An enabled sink.
    pub fn enabled() -> Self {
        let mut sink = Self::default();
        sink.set_enabled(true);
        sink
    }

    /// Turns recording on or off. Already-recorded events are kept.
    /// Turning it on sizes the buffer (see the module docs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled {
            self.events.reserve(ENABLED_RESERVE);
        }
    }

    /// Whether the sink is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one event: the only place an [`ObsEvent`] is built. Its
    /// kind is the shared name for `kind`, allocated the first time the
    /// sink sees it.
    fn record(
        &mut self,
        at_us: u64,
        kind: &str,
        detail: Label,
        span: Option<SpanId>,
        parent: Option<SpanId>,
        trace: Option<TraceId>,
    ) {
        let kind = match self.kinds.iter().find(|k| k.as_str() == kind) {
            Some(known) => known.clone(),
            None => {
                let new = ObsKind::from(kind);
                self.kinds.push(new.clone());
                new
            }
        };
        self.events.push(ObsEvent {
            at_us,
            kind,
            detail,
            span,
            parent,
            trace,
        });
    }

    /// Records a point event. No-op when disabled.
    pub fn event(&mut self, at_us: u64, kind: &str, detail: impl Into<Label>) {
        self.event_in(at_us, kind, detail, None)
    }

    /// Records a point event attributed to a trace/parent span. No-op
    /// when disabled. The detail becomes a [`Label`]: short text is held
    /// inline, a longer `String` is moved in.
    pub fn event_in(
        &mut self,
        at_us: u64,
        kind: &str,
        detail: impl Into<Label>,
        ctx: Option<TraceContext>,
    ) {
        if self.enabled {
            let (parent, trace) = (ctx.map(|c| c.span), ctx.map(|c| c.trace));
            self.record(at_us, kind, detail.into(), None, parent, trace);
        }
    }

    /// Opens a span under `ctx` (or as a fresh trace root when `ctx` is
    /// `None`) and returns the context children of the span should
    /// inherit: the span's own id plus its trace id.
    ///
    /// Ids are handed out even when disabled so call sites never need
    /// to branch; only the event record itself is skipped.
    pub fn begin_span(
        &mut self,
        at_us: u64,
        kind: &str,
        detail: impl Into<Label>,
        ctx: Option<TraceContext>,
    ) -> TraceContext {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let trace = match ctx {
            Some(c) => c.trace,
            None => {
                let t = TraceId(self.next_trace);
                self.next_trace += 1;
                t
            }
        };
        if self.enabled {
            self.open.push(id);
            let parent = ctx.map(|c| c.span);
            self.record(at_us, kind, detail.into(), Some(id), parent, Some(trace));
        }
        TraceContext { trace, span: id }
    }

    /// Closes a span previously opened with [`EventSink::begin_span`].
    ///
    /// Debug builds assert the span is actually open (catching double
    /// closes and closes of never-opened ids); release builds record
    /// the end edge regardless so a mispaired span is still visible in
    /// the event log.
    pub fn end_span(&mut self, at_us: u64, id: SpanId) {
        if !self.enabled {
            return;
        }
        // Searched from the end, where an innermost-first close finds it
        // at once; an out-of-order close shifts the tail and keeps the
        // ledger ascending.
        let at = self.open.iter().rposition(|&open| open == id);
        debug_assert!(at.is_some(), "end_span on span that is not open: {id}");
        if let Some(at) = at {
            self.open.remove(at);
        }
        self.record(at_us, "span.end", Label::default(), Some(id), None, None);
    }

    /// Closes a span previously opened with [`EventSink::begin_span`].
    pub fn end(&mut self, at_us: u64, id: SpanId) {
        self.end_span(at_us, id)
    }

    /// Closes every still-open span (recording a `span.unclosed` end
    /// edge for each) and returns their ids, ascending. An empty return
    /// means all instrumentation paired its spans; callers that care
    /// should assert on it.
    pub fn finish(&mut self, at_us: u64) -> Vec<SpanId> {
        let unclosed = std::mem::take(&mut self.open);
        if self.enabled {
            for &id in &unclosed {
                let none = Label::default();
                self.record(at_us, "span.unclosed", none, Some(id), None, None);
            }
        }
        unclosed
    }

    /// All recorded events, in recording order (which is sim-time order
    /// when producers record as time advances).
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Drains every recorded event, leaving the sink empty but
    /// configured (enabled flag and id counters are kept). Use this
    /// instead of cloning `events()` when snapshotting.
    pub fn take_events(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events whose kind matches `kind` exactly.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Drops every recorded event (keeps the enabled flag, the span
    /// counter and the kind names). Also forgets open-span bookkeeping.
    pub fn clear(&mut self) {
        self.events.clear();
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = EventSink::new();
        assert!(!s.is_enabled());
        s.event(10, "x", "y");
        let id = s.begin_span(20, "op", "a", None).span;
        s.end(30, id);
        assert!(s.is_empty());
    }

    #[test]
    fn enabled_sink_records_events_and_spans() {
        let mut s = EventSink::enabled();
        s.event(5, "sim.fault.crash", "node-2");
        let id = s.begin_span(10, "iter.fig4", "snapshot", None).span;
        s.end(40, id);
        assert_eq!(s.len(), 3);
        assert_eq!(s.count_kind("sim.fault.crash"), 1);
        assert_eq!(s.count_kind("span.end"), 1);
        let edges: Vec<_> = s.events().iter().filter(|e| e.span == Some(id)).collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].at_us, 10);
        assert_eq!(edges[1].at_us, 40);
    }

    #[test]
    fn span_ids_are_unique_and_survive_toggling() {
        let mut s = EventSink::new();
        let a = s.begin_span(0, "op", "", None).span;
        s.set_enabled(true);
        let b = s.begin_span(1, "op", "", None).span;
        assert_ne!(a, b);
        assert_eq!(s.len(), 1, "only the enabled begin recorded");
        assert_eq!(b.to_string(), "span#1");
        s.end(2, b); // keep the open-span bookkeeping balanced
    }

    #[test]
    fn clear_keeps_configuration() {
        let mut s = EventSink::enabled();
        s.event(1, "k", "");
        s.clear();
        assert!(s.is_empty());
        assert!(s.is_enabled());
        s.event(2, "k", "");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn spans_carry_parent_and_trace() {
        let mut s = EventSink::enabled();
        let root = s.begin_span(0, "iter.fig4.invocation", "", None);
        let child = s.begin_span(5, "net.rpc", "n0->n1", Some(root));
        s.event_in(7, "net.rpc.failed", "timeout", Some(child));
        s.end_span(9, child.span);
        s.end_span(10, root.span);

        assert_eq!(child.trace, root.trace);
        let begin_child = &s.events()[1];
        assert_eq!(begin_child.parent, Some(root.span));
        assert_eq!(begin_child.trace, Some(root.trace));
        let point = &s.events()[2];
        assert_eq!(point.parent, Some(child.span));
        assert_eq!(point.trace, Some(child.trace));

        let other = s.begin_span(20, "gossip.round", "", None);
        assert_ne!(other.trace, root.trace, "new root means new trace");
        s.end_span(21, other.span);
        assert!(s.finish(22).is_empty());
    }

    #[test]
    fn finish_reports_and_closes_unclosed_spans() {
        let mut s = EventSink::enabled();
        let a = s.begin_span(0, "op.a", "", None);
        let b = s.begin_span(1, "op.b", "", Some(a));
        s.end_span(2, b.span);
        let unclosed = s.finish(5);
        assert_eq!(unclosed, vec![a.span]);
        assert_eq!(s.count_kind("span.unclosed"), 1);
        // A second finish has nothing left to report.
        assert!(s.finish(6).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not open")]
    fn double_close_is_caught_in_debug_builds() {
        let mut s = EventSink::enabled();
        let a = s.begin_span(0, "op", "", None);
        s.end_span(1, a.span);
        s.end_span(2, a.span);
    }

    #[test]
    fn a_kind_reads_as_the_str_it_names() {
        let mut s = EventSink::enabled();
        s.event(1, "net.rpc.failed", "n0->n1: \"timeout\"");
        let ev = &s.events()[0];
        // The same text a `String` field printed: consumers that format,
        // export or hash the stream see no difference.
        assert_eq!(
            format!("{ev:?}"),
            "ObsEvent { at_us: 1, kind: \"net.rpc.failed\", \
             detail: \"n0->n1: \\\"timeout\\\"\", span: None, parent: None, trace: None }"
        );
        assert_eq!(format!("{}", ev.kind), "net.rpc.failed");
        assert_eq!(format!("{:>16}|", ev.kind), "  net.rpc.failed|");
        assert_eq!(ev.kind.as_str(), "net.rpc.failed");
        assert!(ev.kind == "net.rpc.failed" && ev.kind != "net.rpc");
        assert!(ev.kind.starts_with("net."), "derefs to str");
        assert_eq!(ev.kind, ObsKind::from("net.rpc.failed"));

        let mut kinds = ["svc.handle", "net.rpc", "span.end", "net"].map(ObsKind::from);
        kinds.sort();
        assert_eq!(kinds, ["net", "net.rpc", "span.end", "svc.handle"]);
    }

    #[test]
    fn events_of_one_kind_share_one_name() {
        let mut s = EventSink::enabled();
        let a = s.begin_span(0, "net.rpc", "n0->n1", None);
        let b = s.begin_span(1, "net.rpc", String::from("n0->n2"), Some(a));
        s.event_in(2, "net.msg.lost", "n0->n2", Some(b));
        s.end_span(3, b.span);
        s.end_span(4, a.span);
        let ev = s.events();
        let same = |x: &ObsEvent, y: &ObsEvent| std::ptr::eq(x.kind.as_str(), y.kind.as_str());
        assert!(same(&ev[0], &ev[1]), "two net.rpc begins, one allocation");
        assert!(same(&ev[3], &ev[4]), "two span.end edges, one allocation");
        assert!(!same(&ev[0], &ev[2]));
        assert_eq!(ev[1].detail, "n0->n2");
        // A drained sink keeps handing out the names it already holds.
        let drained = s.take_events();
        s.event(5, "net.rpc", "");
        assert!(same(&drained[0], &s.events()[0]));
    }

    #[test]
    fn spans_may_close_out_of_order_and_finish_stays_ascending() {
        let mut s = EventSink::enabled();
        let ids: Vec<SpanId> = (0..5)
            .map(|i| s.begin_span(i, "op", "", None).span)
            .collect();
        s.end(10, ids[1]);
        s.end(11, ids[4]);
        assert_eq!(s.finish(12), vec![ids[0], ids[2], ids[3]]);
        assert_eq!(s.count_kind("span.end"), 2);
        assert_eq!(s.count_kind("span.unclosed"), 3);
    }

    #[test]
    fn a_label_holds_22_bytes_inline_and_boxes_more() {
        assert_eq!(std::mem::size_of::<Label>(), std::mem::size_of::<String>());
        for len in [0, 22, 23] {
            let text = "x".repeat(len);
            for label in [Label::from(text.as_str()), Label::from(text.clone())] {
                assert_eq!(label.as_str(), text);
                assert_eq!(matches!(label.0, Repr::Inline { .. }), len <= 22);
            }
        }
        // 'é' (2 bytes) after 21 ASCII bytes would straddle byte 22.
        let text = format!("{}é", "a".repeat(21));
        let label = Label::concat(&[&text[..21], "é"]);
        assert!(matches!(label.0, Repr::Boxed(_)) && label == text);
        assert_eq!(Label::concat(&["ab", "", "cd"]), Label::from("abcd"));
    }

    #[test]
    fn a_label_reads_as_the_str_it_holds() {
        for text in [
            "",
            "n0->n1: \"timeout\"",
            "fig3 failed: no route from n0 to n1",
        ] {
            let label = Label::from(text);
            assert_eq!(
                format!("{label}|{label:?}|{label:>40}"),
                format!("{text}|{text:?}|{text:>40}")
            );
            let owned = text.to_owned();
            assert!(label == text && label == owned && label.len() == text.len());
            assert_eq!(label, Label::from(owned));
        }
        assert_ne!(Label::from("n1"), Label::from("n10"));
    }

    #[test]
    fn take_events_drains_without_losing_configuration() {
        let mut s = EventSink::enabled();
        let a = s.begin_span(0, "op", "", None);
        s.end_span(1, a.span);
        let drained = s.take_events();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        assert!(s.is_enabled());
        let b = s.begin_span(2, "op", "", None);
        assert!(b.span > a.span, "span ids keep advancing after a drain");
        s.end_span(3, b.span);
    }
}
