//! Recording the observable nondeterminism of a real-runtime run.
//!
//! The threaded backend is deliberately *not* reproducible: scheduling
//! is real OS concurrency. What a client observes of that
//! nondeterminism, though, crosses a narrow boundary — the [`crate::traits`]
//! methods. A [`Recorder`] hooked into
//! [`crate::threaded::ThreadedRuntime`] captures every boundary crossing
//! as a [`RecEntry`]: message departure order and payload hashes, async
//! completion order (`wait_any` winners, with their observed stall
//! times: the clock reads that matter), collected replies, timer-fire
//! order and spawns. An rpc is a send and a wait, and records as one:
//! a [`RecEvent::Send`] and a [`RecEvent::WaitAny`]. Faults are not
//! boundary crossings: the driver
//! brackets each one in a [`RecEvent::Region`] whose label names it in
//! the embedded workload. The resulting [`Recording`] is a compact,
//! schema-versioned log that `weakset-dst` can replay through the
//! deterministic simulator, pinning delivery to the recorded
//! interleaving and substituting the recorded timeouts — which puts a
//! real run in front of the conformance oracles, the shrinker, and
//! explain mode.
//!
//! Payloads are hashed ([`hash_debug`], FNV-1a over the `Debug`
//! rendering), not stored: replay re-executes the client against real
//! services, so it only needs to *verify* payloads, and a hash keeps
//! artifacts small and free of message-type serializers. Clock reads
//! are captured as per-event timestamps (`at_us`) plus observed stall
//! durations (`elapsed_us`) rather than as a stream of `now()` samples.

use std::fmt;
use std::sync::{Arc, Mutex};
use weakset_obs::ron::{push_str_lit, Parser, Tok};
use weakset_sim::net::NetError;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimTime;
pub use weakset_sim::trace::hash_debug;

/// Artifact schema version; bump on any breaking change to the log
/// grammar (mirrors the repro-artifact convention in `weakset-dst`).
pub const SCHEMA_VERSION: u64 = 4;

/// How a recorded request ended: the [`hash_debug`] of its reply, or
/// its error. The text form names nodes by their raw ids.
pub type RecOutcome = Result<u64, NetError>;

/// Classifies a transport result into its recorded form.
pub fn outcome_of<M: fmt::Debug>(r: &Result<M, NetError>) -> RecOutcome {
    r.as_ref().map(hash_debug).map_err(|e| *e)
}

/// One observable boundary crossing. Node ids are raw `NodeId.0`
/// values; node creation order is part of the log ([`RecEvent::AddNode`]),
/// so a replayer reconstructing the fleet in order gets identical ids.
#[derive(Clone, Debug, PartialEq)]
pub enum RecEvent {
    /// A node joined the fleet (in id order).
    AddNode {
        /// The node's registered name.
        name: String,
    },
    /// A service was installed on `node`.
    InstallService {
        /// Raw node id.
        node: u32,
    },
    /// A driver-emitted alignment marker: everything until the next
    /// `Region` belongs to the activity `label` names. Replay re-syncs
    /// on these, and the shrinker drops whole regions at a time.
    Region {
        /// The activity label (e.g. `setup.3.1`, `inv.12`).
        label: String,
    },
    /// A request left: an async send (including batched envelopes) or
    /// an rpc, and the token the caller waits on. An rpc that ended as
    /// it was launched (served in place, or failed before it left) waits
    /// under its own token too, and its `WaitAny` is won at once.
    Send {
        /// Raw id of the calling node.
        from: u32,
        /// Raw id of the target node.
        to: u32,
        /// [`hash_debug`] of the message as sent (batches hash as their
        /// wrapped envelope).
        req_hash: u64,
        /// The raw reply token minted for the caller.
        token: u64,
    },
    /// A completed reply was collected. Replay checks its outcome
    /// against the simulated reply's; availability comes from pinned
    /// `WaitAny` winners.
    TookReply {
        /// The raw token collected.
        token: u64,
        /// How the reply ended.
        outcome: RecOutcome,
    },
    /// A `wait_any` returned: the winning raw token, or `None` on
    /// deadline, which replay substitutes.
    WaitAny {
        /// The completed token, if any.
        winner: Option<u64>,
        /// Observed wall-clock stall, in microseconds.
        elapsed_us: u64,
    },
    /// The client slept (informational).
    Sleep {
        /// Requested duration, in microseconds.
        us: u64,
    },
    /// A deferred task was scheduled (informational).
    SpawnIn {
        /// Delay until it is due, in microseconds.
        delay_us: u64,
        /// The task's label.
        label: String,
    },
    /// A due timer fired, in fire order.
    TimerFired {
        /// The fired task's label.
        label: String,
    },
}

/// One timestamped log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct RecEntry {
    /// Backend clock at the crossing, in microseconds since the run
    /// started.
    pub at_us: u64,
    /// What crossed the boundary.
    pub ev: RecEvent,
}

/// A complete, self-contained recording of one real-runtime run.
#[derive(Clone, Debug, PartialEq)]
pub struct Recording {
    /// Log grammar version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The run seed (RNG streams derive from it on both backends).
    pub seed: u64,
    /// Whether shutdown reported hung nodes: the log is a valid prefix,
    /// not a complete run.
    pub truncated: bool,
    /// Node names in creation (= id) order.
    pub nodes: Vec<String>,
    /// The embedded workload description (a `weakset-dst` scenario in
    /// its RON text form) that drove the run; replay re-drives it.
    pub workload: String,
    /// The boundary-event log, in observation order.
    pub entries: Vec<RecEntry>,
}

struct RecInner {
    seed: u64,
    truncated: bool,
    nodes: Vec<String>,
    workload: String,
    entries: Vec<RecEntry>,
}

/// A cloneable handle appending to one shared log. Clones share the
/// log (a view cloned for another thread keeps recording into the same
/// recording); a `Mutex` serializes appends, so concurrent views record
/// in observation order.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Mutex<RecInner>>,
}

impl Recorder {
    /// An empty recording for a run seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(RecInner {
                seed,
                truncated: false,
                nodes: Vec::new(),
                workload: String::new(),
                entries: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Embeds the workload description (scenario RON) that drives the
    /// run, so the artifact replays without out-of-band context.
    pub fn set_workload(&self, ron: impl Into<String>) {
        self.lock().workload = ron.into();
    }

    /// Appends one boundary event observed at `at`.
    pub fn note(&self, at: SimTime, ev: RecEvent) {
        self.lock().entries.push(RecEntry {
            at_us: at.as_micros(),
            ev,
        });
    }

    /// Records a node joining the fleet (name order = id order).
    pub fn note_add_node(&self, at: SimTime, name: &str) {
        let mut g = self.lock();
        g.nodes.push(name.to_string());
        g.entries.push(RecEntry {
            at_us: at.as_micros(),
            ev: RecEvent::AddNode {
                name: name.to_string(),
            },
        });
    }

    /// Emits an alignment marker (see [`RecEvent::Region`]).
    pub fn region(&self, at: SimTime, label: &str) {
        self.note(
            at,
            RecEvent::Region {
                label: label.to_string(),
            },
        );
    }

    /// Marks the log as a shutdown-truncated prefix.
    pub fn mark_truncated(&self) {
        self.lock().truncated = true;
    }

    /// Number of entries recorded so far.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots the recording (the recorder keeps accumulating).
    pub fn finish(&self) -> Recording {
        let g = self.lock();
        Recording {
            schema_version: SCHEMA_VERSION,
            seed: g.seed,
            truncated: g.truncated,
            nodes: g.nodes.clone(),
            workload: g.workload.clone(),
            entries: g.entries.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Serialization (the `weakset_obs::ron` dialect weakset-dst scenario
// artifacts are written in)
// ---------------------------------------------------------------------

fn push_outcome(out: &mut String, o: &RecOutcome) {
    out.push_str(&match *o {
        Ok(reply_hash) => format!("Ok(reply_hash: {reply_hash})"),
        Err(NetError::NodeDown(node)) => format!("NodeDown(node: {})", node.0),
        Err(NetError::Unreachable { from, to }) => {
            format!("Unreachable(from: {}, to: {})", from.0, to.0)
        }
        Err(NetError::Timeout) => "Timeout".to_string(),
    });
}

fn push_event(out: &mut String, ev: &RecEvent) {
    match ev {
        RecEvent::AddNode { name } => {
            out.push_str("AddNode(name: ");
            push_str_lit(out, name);
            out.push(')');
        }
        RecEvent::InstallService { node } => {
            out.push_str(&format!("InstallService(node: {node})"));
        }
        RecEvent::Region { label } => {
            out.push_str("Region(label: ");
            push_str_lit(out, label);
            out.push(')');
        }
        RecEvent::Send {
            from,
            to,
            req_hash,
            token,
        } => {
            out.push_str(&format!(
                "Send(from: {from}, to: {to}, req_hash: {req_hash}, token: {token})"
            ));
        }
        RecEvent::TookReply { token, outcome } => {
            out.push_str(&format!("TookReply(token: {token}, outcome: "));
            push_outcome(out, outcome);
            out.push(')');
        }
        RecEvent::WaitAny { winner, elapsed_us } => {
            match winner {
                Some(t) => out.push_str(&format!("WaitAny(winner: Some({t})")),
                None => out.push_str("WaitAny(winner: None"),
            }
            out.push_str(&format!(", elapsed_us: {elapsed_us})"));
        }
        RecEvent::Sleep { us } => out.push_str(&format!("Sleep(us: {us})")),
        RecEvent::SpawnIn { delay_us, label } => {
            out.push_str(&format!("SpawnIn(delay_us: {delay_us}, label: "));
            push_str_lit(out, label);
            out.push(')');
        }
        RecEvent::TimerFired { label } => {
            out.push_str("TimerFired(label: ");
            push_str_lit(out, label);
            out.push(')');
        }
    }
}

impl Recording {
    /// Renders the recording in its artifact text form.
    pub fn to_ron(&self) -> String {
        let mut s = String::new();
        s.push_str("Recording(\n");
        s.push_str(&format!("    schema_version: {},\n", self.schema_version));
        s.push_str(&format!("    seed: {},\n", self.seed));
        s.push_str(&format!("    truncated: {},\n", self.truncated));
        s.push_str("    nodes: [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_str_lit(&mut s, n);
        }
        s.push_str("],\n    workload: ");
        push_str_lit(&mut s, &self.workload);
        s.push_str(",\n    entries: [\n");
        for e in &self.entries {
            s.push_str(&format!("        (at_us: {}, ev: ", e.at_us));
            push_event(&mut s, &e.ev);
            s.push_str("),\n");
        }
        s.push_str("    ],\n)\n");
        s
    }

    /// Parses the artifact text form (fields in [`Recording::to_ron`]
    /// order; `// ...` comments are ignored).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax problem,
    /// including an unsupported `schema_version`.
    pub fn from_ron(text: &str) -> Result<Recording, String> {
        let mut p = Parser::new(text)?;
        let r = recording(&mut p)?;
        p.expect_end()?;
        Ok(r)
    }
}

fn outcome(p: &mut Parser) -> Result<RecOutcome, String> {
    let node = |n: u64| NodeId(n as u32);
    Ok(match p.ident()?.as_str() {
        "Ok" => Ok(p.parens(|p| p.num_key("reply_hash"))?),
        "NodeDown" => Err(NetError::NodeDown(node(p.parens(|p| p.num_key("node"))?))),
        "Unreachable" => Err(p.parens(|p| {
            let from = node(p.num_field("from")?);
            Ok(NetError::Unreachable {
                from,
                to: node(p.num_key("to")?),
            })
        })?),
        "Timeout" => Err(NetError::Timeout),
        other => return Err(format!("unknown outcome '{other}'")),
    })
}

fn event_body(p: &mut Parser, tag: &str) -> Result<RecEvent, String> {
    Ok(match tag {
        "AddNode" => RecEvent::AddNode {
            name: p.str_key("name")?,
        },
        "InstallService" => RecEvent::InstallService {
            node: p.num_key("node")? as u32,
        },
        "Region" => RecEvent::Region {
            label: p.str_key("label")?,
        },
        "Send" => RecEvent::Send {
            from: p.num_field("from")? as u32,
            to: p.num_field("to")? as u32,
            req_hash: p.num_field("req_hash")?,
            token: p.num_key("token")?,
        },
        "TookReply" => {
            let token = p.num_field("token")?;
            p.key("outcome")?;
            RecEvent::TookReply {
                token,
                outcome: outcome(p)?,
            }
        }
        "WaitAny" => {
            p.key("winner")?;
            let winner = match p.ident()?.as_str() {
                "Some" => Some(p.parens(Parser::num)?),
                "None" => None,
                other => return Err(format!("expected Some/None, got '{other}'")),
            };
            p.expect(Tok::Comma)?;
            RecEvent::WaitAny {
                winner,
                elapsed_us: p.num_key("elapsed_us")?,
            }
        }
        "Sleep" => RecEvent::Sleep {
            us: p.num_key("us")?,
        },
        "SpawnIn" => RecEvent::SpawnIn {
            delay_us: p.num_field("delay_us")?,
            label: p.str_key("label")?,
        },
        "TimerFired" => RecEvent::TimerFired {
            label: p.str_key("label")?,
        },
        other => return Err(format!("unknown event '{other}'")),
    })
}

fn recording(p: &mut Parser) -> Result<Recording, String> {
    p.keyword("Recording")?;
    p.expect(Tok::LParen)?;
    let schema_version = p.num_field("schema_version")?;
    if schema_version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let seed = p.num_field("seed")?;
    let truncated = p.bool_key("truncated")?;
    p.expect(Tok::Comma)?;
    p.key("nodes")?;
    let nodes = p.comma_sep(Parser::string)?;
    p.expect(Tok::Comma)?;
    let workload = p.str_key("workload")?;
    p.expect(Tok::Comma)?;
    p.key("entries")?;
    let entries = p.comma_sep(|p| {
        p.parens(|p| {
            let at_us = p.num_field("at_us")?;
            p.key("ev")?;
            let tag = p.ident()?;
            let ev = p.parens(|p| event_body(p, &tag))?;
            Ok(RecEntry { at_us, ev })
        })
    })?;
    p.expect(Tok::Comma)?;
    p.expect(Tok::RParen)?;
    Ok(Recording {
        schema_version,
        seed,
        truncated,
        nodes,
        workload,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        Recording {
            schema_version: SCHEMA_VERSION,
            seed: 42,
            truncated: true,
            nodes: vec!["client".into(), "s0".into()],
            workload: "Scenario(\n    seed: 1,\n)\n".into(),
            entries: vec![
                RecEntry {
                    at_us: 0,
                    ev: RecEvent::AddNode {
                        name: "client".into(),
                    },
                },
                RecEntry {
                    at_us: 3,
                    ev: RecEvent::InstallService { node: 1 },
                },
                RecEntry {
                    at_us: 5,
                    ev: RecEvent::Region {
                        label: "setup.1.0".into(),
                    },
                },
                RecEntry {
                    at_us: 9,
                    ev: RecEvent::Send {
                        from: 0,
                        to: 1,
                        req_hash: u64::MAX,
                        token: 4,
                    },
                },
                RecEntry {
                    at_us: 11,
                    ev: RecEvent::TookReply {
                        token: 4,
                        outcome: Err(NetError::Unreachable {
                            from: NodeId(0),
                            to: NodeId(1),
                        }),
                    },
                },
                RecEntry {
                    at_us: 12,
                    ev: RecEvent::Send {
                        from: 0,
                        to: 1,
                        req_hash: 2,
                        token: 5,
                    },
                },
                RecEntry {
                    at_us: 13,
                    ev: RecEvent::WaitAny {
                        winner: Some(5),
                        elapsed_us: 900,
                    },
                },
                RecEntry {
                    at_us: 14,
                    ev: RecEvent::TookReply {
                        token: 5,
                        outcome: Err(NetError::Timeout),
                    },
                },
                RecEntry {
                    at_us: 15,
                    ev: RecEvent::WaitAny {
                        winner: None,
                        elapsed_us: 5000,
                    },
                },
                RecEntry {
                    at_us: 16,
                    ev: RecEvent::Sleep { us: 5000 },
                },
                RecEntry {
                    at_us: 17,
                    ev: RecEvent::SpawnIn {
                        delay_us: 100,
                        label: "gossip.round".into(),
                    },
                },
                RecEntry {
                    at_us: 18,
                    ev: RecEvent::TimerFired {
                        label: "gossip.round".into(),
                    },
                },
                RecEntry {
                    at_us: 21,
                    ev: RecEvent::TookReply {
                        token: 6,
                        outcome: Err(NetError::NodeDown(NodeId(1))),
                    },
                },
                RecEntry {
                    at_us: 22,
                    ev: RecEvent::TookReply {
                        token: 7,
                        outcome: Ok(7),
                    },
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let r = sample();
        let text = r.to_ron();
        let back = Recording::from_ron(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn round_trips_empty() {
        let r = Recording {
            nodes: Vec::new(),
            workload: String::new(),
            entries: Vec::new(),
            truncated: false,
            ..sample()
        };
        assert_eq!(Recording::from_ron(&r.to_ron()).unwrap(), r);
    }

    #[test]
    fn comments_and_escapes_survive() {
        let mut text = String::from("// recording artifact\n");
        let r = Recording {
            nodes: vec!["we\"ird\\name\n".into()],
            ..sample()
        };
        text.push_str(&r.to_ron());
        assert_eq!(Recording::from_ron(&text).unwrap(), r);
    }

    #[test]
    fn rejects_future_schema_and_garbage() {
        let bumped = sample().to_ron().replace(
            &format!("schema_version: {SCHEMA_VERSION}"),
            "schema_version: 999",
        );
        let err = Recording::from_ron(&bumped).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        assert!(Recording::from_ron("").is_err());
        assert!(Recording::from_ron("Recording(seed: nope)").is_err());
    }

    /// Schema 1 logged faults as reachability and liveness flips; schema
    /// 2 names them by region, and hashes replica syncs that carry the
    /// whole membership, where schema 3 hashes the step they carry.
    /// Schema 3 logged an rpc as one `Rpc` entry, where schema 4 logs the
    /// send and the wait it is. An old artifact is refused up front, not
    /// replayed into divergences, and an `Rpc` entry is no event at all.
    #[test]
    fn rejects_a_schema_1_2_or_3_recording() {
        let rpc = "(at_us: 9, ev: Rpc(from: 0, to: 1, req_hash: 1, \
                   outcome: Ok(reply_hash: 7), elapsed_us: 1200)),";
        let with_rpc = sample()
            .to_ron()
            .replace("entries: [\n", &format!("entries: [\n        {rpc}\n"));
        for old in [1, 2, 3] {
            let text = with_rpc.replace(
                &format!("schema_version: {SCHEMA_VERSION}"),
                &format!("schema_version: {old}"),
            );
            let err = Recording::from_ron(&text).unwrap_err();
            assert!(
                err.contains(&format!("unsupported schema_version {old}")),
                "{err}"
            );
        }
        let err = Recording::from_ron(&with_rpc).unwrap_err();
        assert!(err.contains("unknown event 'Rpc'"), "{err}");
    }

    #[test]
    fn recorder_accumulates_and_snapshots() {
        let rec = Recorder::new(9);
        assert!(rec.is_empty());
        rec.note_add_node(SimTime::from_micros(1), "client");
        rec.region(SimTime::from_micros(2), "start");
        rec.set_workload("Scenario()");
        let view = rec.clone();
        view.note(SimTime::from_micros(3), RecEvent::Sleep { us: 10 });
        let snap = rec.finish();
        assert_eq!(snap.seed, 9);
        assert!(!snap.truncated);
        assert_eq!(snap.nodes, vec!["client".to_string()]);
        assert_eq!(snap.entries.len(), 3);
        rec.mark_truncated();
        assert!(rec.finish().truncated);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn debug_hashes_are_stable_and_content_sensitive() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields are read through the derived Debug
        struct P(u64, &'static str);
        assert_eq!(hash_debug(&P(1, "a")), hash_debug(&P(1, "a")));
        assert_ne!(hash_debug(&P(1, "a")), hash_debug(&P(2, "a")));
        assert_ne!(hash_debug(&P(1, "a")), hash_debug(&P(1, "b")));
    }

    #[test]
    fn results_map_to_outcomes() {
        let ok: Result<u64, NetError> = Ok(7);
        assert_eq!(outcome_of(&ok), Ok(hash_debug(&7u64)));
        for e in [
            NetError::NodeDown(NodeId(3)),
            NetError::Unreachable {
                from: NodeId(0),
                to: NodeId(2),
            },
            NetError::Timeout,
        ] {
            assert_eq!(outcome_of(&Err::<u64, _>(e)), Err(e));
        }
    }
}
