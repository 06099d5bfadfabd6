//! The fuzzer's unit of work: a fully self-contained [`Scenario`].
//!
//! A scenario captures everything a run needs — topology size,
//! deployment, iterator semantics and configuration, the mutation
//! workload, and the fault schedule — as plain data. The same scenario
//! always produces the same run (see `run::execute`), which is what makes
//! shrinking and repro artifacts possible.
//!
//! Scenarios serialize to a RON-like text form ([`Scenario::to_ron`] /
//! [`Scenario::from_ron`]) written by hand so repro artifacts need no
//! external serialization crate. Fault and op node fields are *server
//! indices* (0-based, primary is server 0), not simulator `NodeId`s, so
//! an artifact stays meaningful on its own.

use std::fmt::{self, Write as _};
use weakset::prelude::{FetchOrder, Semantics};
use weakset_obs::ron::{Parser, Tok};
use weakset_sim::fault::FaultAction;
use weakset_sim::latency::LatencyModel;
use weakset_sim::link::LinkState;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::prelude::ReadPolicy;

/// How the servers are deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// Bare `StoreServer`s: primary-serialized mutations, best-effort
    /// synchronous replica sync.
    Plain,
    /// `GossipNode`s converging by anti-entropy.
    Gossip {
        /// Run every replica as `GossipSemantics::GrowOnly` (the Fig. 5
        /// replica: removals ignored, join by union) instead of
        /// `GossipSemantics::GrowShrink` (the Fig. 6 replica:
        /// observed-remove).
        grow_only: bool,
        /// Reconcile with the Merkle-range digest mode instead of full
        /// version-vector digests.
        merkle: bool,
    },
    /// A `ShardedWeakSet`: the servers split round-robin into `shards`
    /// replica groups, each owning one sub-collection; elements route by
    /// the consistent-hash ring and membership reads ride the batched
    /// envelope path.
    Sharded {
        /// Number of shard groups (clamped to the server count at
        /// execution time).
        shards: usize,
    },
}

/// How long a message takes one way. The client sits at site 0 and
/// server `i` at site `i + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// Every message takes `one_way_ms`.
    Constant {
        /// One-way latency in milliseconds.
        one_way_ms: u64,
    },
    /// `base_ms + per_hop_ms × |site(a) − site(b)|`: near servers answer
    /// first, which closest-first fetching ranks.
    SiteDistance {
        /// Latency between two nodes of one site, in milliseconds.
        base_ms: u64,
        /// Extra latency per unit of site distance, in milliseconds.
        per_hop_ms: u64,
    },
}

impl Link {
    /// The fuzzer's links: 1 ms between any two nodes.
    pub const DEFAULT: Link = Link::Constant { one_way_ms: 1 };

    /// The simulator's model of these links.
    pub(crate) fn model(self) -> LatencyModel {
        let ms = SimDuration::from_millis;
        match self {
            Link::Constant { one_way_ms } => LatencyModel::Constant(ms(one_way_ms)),
            Link::SiteDistance {
                base_ms,
                per_hop_ms,
            } => LatencyModel::SiteDistance {
                base: ms(base_ms),
                per_hop: ms(per_hop_ms),
            },
        }
    }

    /// The longest one-way hop from the client to one of `servers`
    /// servers, in milliseconds.
    fn worst_ms(self, servers: usize) -> u64 {
        match self {
            Link::Constant { one_way_ms } => one_way_ms,
            Link::SiteDistance {
                base_ms,
                per_hop_ms,
            } => base_ms + per_hop_ms * servers as u64,
        }
    }
}

/// One workload mutation, scheduled at a millisecond offset from the
/// start of the run (after setup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Store an object on server `home` and add it to the set.
    Add {
        /// Offset from the run origin, in milliseconds.
        at_ms: u64,
        /// Element id.
        elem: u64,
        /// Home server index.
        home: usize,
    },
    /// Remove an element from the set.
    Remove {
        /// Offset from the run origin, in milliseconds.
        at_ms: u64,
        /// Element id.
        elem: u64,
    },
}

impl Op {
    /// The op's scheduled offset.
    pub fn at_ms(&self) -> u64 {
        match *self {
            Op::Add { at_ms, .. } | Op::Remove { at_ms, .. } => at_ms,
        }
    }
}

/// One scheduled fault. All variants are self-healing: an outage
/// restarts, a partition heals, a flap ends with the link up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Crash server `node` at `at_ms`, restart it `for_ms` later.
    Outage {
        /// Offset from the run origin, in milliseconds.
        at_ms: u64,
        /// Server index to crash.
        node: usize,
        /// Downtime in milliseconds.
        for_ms: u64,
    },
    /// Partition the given servers away from everyone else, healing
    /// `for_ms` later.
    Partition {
        /// Offset from the run origin, in milliseconds.
        at_ms: u64,
        /// Server indices on the isolated side.
        side: Vec<usize>,
        /// Window length in milliseconds.
        for_ms: u64,
    },
    /// Flap the link between servers `a` and `b`.
    Flap {
        /// Offset from the run origin, in milliseconds.
        at_ms: u64,
        /// One endpoint (server index).
        a: usize,
        /// The other endpoint (server index).
        b: usize,
        /// Down phase length in milliseconds.
        down_ms: u64,
        /// Up phase length in milliseconds.
        up_ms: u64,
        /// Number of down/up cycles.
        cycles: usize,
    },
}

/// One timed edge of a [`FaultSpec`]: a topology change and when it
/// happens. The `Display` form is the region label recordings bracket
/// it with (`fault.out.<at>.<node>.<for>.down|up`,
/// `fault.part.<at>.<side>.<for>.cut|heal`,
/// `fault.flap.<at>.<a>.<b>.<cycle>.down|up`): intrinsic to the fault,
/// like every op label, and only built by a stage that records one.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEdge<'a> {
    /// Offset from the run origin, in milliseconds.
    pub at_ms: u64,
    /// The change, on the node ids the stage was given.
    pub action: FaultAction,
    fault: &'a FaultSpec,
    edge: usize,
}

impl fmt::Display for FaultEdge<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.edge % 2 == 0;
        match self.fault {
            FaultSpec::Outage {
                at_ms,
                node,
                for_ms,
            } => {
                let phase = if first { "down" } else { "up" };
                write!(f, "fault.out.{at_ms}.{node}.{for_ms}.{phase}")
            }
            FaultSpec::Partition {
                at_ms,
                side,
                for_ms,
            } => {
                write!(f, "fault.part.{at_ms}.")?;
                for (i, n) in side.iter().enumerate() {
                    let sep = if i > 0 { "-" } else { "" };
                    write!(f, "{sep}{n}")?;
                }
                let phase = if first { "cut" } else { "heal" };
                write!(f, ".{for_ms}.{phase}")
            }
            FaultSpec::Flap { at_ms, a, b, .. } => {
                let phase = if first { "down" } else { "up" };
                write!(f, "fault.flap.{at_ms}.{a}.{b}.{}.{phase}", self.edge / 2)
            }
        }
    }
}

impl FaultSpec {
    /// The fault as the topology changes every stage applies, in firing
    /// order: an outage crashes and restarts, a partition imposes and
    /// heals, a flap takes the link down and up once per cycle. Server
    /// index `i` is `servers[i % servers.len()]`.
    pub fn actions<'a>(
        &'a self,
        servers: &'a [NodeId],
    ) -> impl Iterator<Item = FaultEdge<'a>> + 'a {
        let node = move |i: usize| servers[i % servers.len()];
        let edges = match *self {
            FaultSpec::Flap { cycles, .. } => 2 * cycles,
            FaultSpec::Outage { .. } | FaultSpec::Partition { .. } => 2,
        };
        (0..edges).map(move |edge| {
            let first = edge % 2 == 0;
            let (at_ms, action) = match *self {
                FaultSpec::Outage {
                    at_ms,
                    node: n,
                    for_ms,
                } => {
                    if first {
                        (at_ms, FaultAction::Crash(node(n)))
                    } else {
                        (at_ms + for_ms, FaultAction::Restart(node(n)))
                    }
                }
                FaultSpec::Partition {
                    at_ms,
                    ref side,
                    for_ms,
                } => {
                    if first {
                        let side = side.iter().map(|&i| node(i)).collect();
                        (at_ms, FaultAction::Partition(side))
                    } else {
                        (at_ms + for_ms, FaultAction::HealPartition)
                    }
                }
                FaultSpec::Flap {
                    at_ms,
                    a,
                    b,
                    down_ms,
                    up_ms,
                    ..
                } => {
                    let down_at = at_ms + (down_ms + up_ms) * (edge / 2) as u64;
                    let (at, state) = if first {
                        (down_at, LinkState::down())
                    } else {
                        (down_at + down_ms, LinkState::healthy())
                    };
                    (at, FaultAction::SetLink(node(a), node(b), state))
                }
            };
            FaultEdge {
                at_ms,
                action,
                fault: self,
                edge,
            }
        })
    }

    /// When the fault has fully healed, as an offset from the run origin.
    fn end_ms(&self) -> u64 {
        match *self {
            FaultSpec::Outage { at_ms, for_ms, .. } => at_ms + for_ms,
            FaultSpec::Partition { at_ms, for_ms, .. } => at_ms + for_ms,
            FaultSpec::Flap {
                at_ms,
                down_ms,
                up_ms,
                cycles,
                ..
            } => at_ms + (down_ms + up_ms) * cycles as u64,
        }
    }
}

/// Deliberate spec sabotage, for exercising the violation path. Never
/// produced by the generator; only tests set it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chaos {
    /// No sabotage.
    None,
    /// After the run, forge a yield of element 999999 — an element that
    /// was never a member — into the recorded computation. Every figure
    /// rejects it, deterministically.
    PhantomYield,
}

/// A complete, replayable fuzz case.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Simulation seed (latency jitter, RNG streams).
    pub seed: u64,
    /// Number of store servers (server 0 is the collection primary).
    pub servers: usize,
    /// Server deployment.
    pub deployment: Deployment,
    /// Iterator semantics under test.
    pub semantics: Semantics,
    /// Membership read policy.
    pub read_policy: ReadPolicy,
    /// Hold a §3.3 grow guard for the run (grow-only semantics only).
    pub guard_growth: bool,
    /// Fetch candidate ordering.
    pub fetch_order: FetchOrder,
    /// Object fetches an invocation keeps in flight
    /// ([`IterConfig::window`](weakset::prelude::IterConfig::window)); 1
    /// fetches one member at a time.
    pub window: usize,
    /// The links every message crosses in the simulator (a threaded
    /// stage delivers at once). No generator draws this or the next two
    /// fields: the paper's latency experiments (E6, E7) set them.
    pub link: Link,
    /// Link bandwidth in bytes per millisecond: a message also takes its
    /// wire size over it. `None`: unbounded.
    pub bandwidth: Option<u64>,
    /// Payload bytes of every member's object; `None`: a 3-byte payload.
    pub file_size: Option<u64>,
    /// Client think time between invocations, in milliseconds.
    pub think_ms: u64,
    /// Maximum yields before the driver abandons the run (non-terminal
    /// runs are legal prefixes).
    pub budget: usize,
    /// When iteration starts, as an offset from the run origin.
    pub start_ms: u64,
    /// Initial membership: `(element id, home server index)` pairs, added
    /// before the run origin.
    pub setup: Vec<(u64, usize)>,
    /// Scheduled workload mutations.
    pub ops: Vec<Op>,
    /// Scheduled faults.
    pub faults: Vec<FaultSpec>,
    /// Deliberate sabotage (tests only).
    pub chaos: Chaos,
}

impl Scenario {
    /// True when any scheduled op is a removal.
    pub fn has_removals(&self) -> bool {
        self.ops.iter().any(|o| matches!(o, Op::Remove { .. }))
    }

    /// The client's rpc timeout in milliseconds: 50, or twice a round
    /// trip that carries one object over the slowest hop, if longer.
    pub(crate) fn timeout_ms(&self) -> u64 {
        let transfer = match (self.bandwidth, self.file_size) {
            (Some(bytes_per_ms), Some(bytes)) => bytes.div_ceil(bytes_per_ms),
            _ => 0,
        };
        (2 * (2 * self.link.worst_ms(self.servers) + transfer)).max(50)
    }

    /// The last scheduled event's offset (ops, faults, or iteration
    /// start), used to size the post-run drain.
    pub fn horizon_ms(&self) -> u64 {
        let ops = self.ops.iter().map(Op::at_ms).max().unwrap_or(0);
        let faults = self.faults.iter().map(FaultSpec::end_ms).max().unwrap_or(0);
        ops.max(faults).max(self.start_ms)
    }
}

// ---------------------------------------------------------------------
// Serialization (the `weakset_obs::ron` dialect, written by hand)
// ---------------------------------------------------------------------

/// The artifact spelling of each plain enum, used in both directions.
const SEMANTICS: [(&str, Semantics); 4] = [
    ("Snapshot", Semantics::Snapshot),
    ("GrowOnly", Semantics::GrowOnly),
    ("Optimistic", Semantics::Optimistic),
    ("Locked", Semantics::Locked),
];
const POLICIES: [(&str, ReadPolicy); 5] = [
    ("Primary", ReadPolicy::Primary),
    ("Any", ReadPolicy::Any),
    ("Quorum", ReadPolicy::Quorum),
    ("Leaderless", ReadPolicy::Leaderless),
    ("CausalSession", ReadPolicy::CausalSession),
];
const ORDERS: [(&str, FetchOrder); 2] = [
    ("ClosestFirst", FetchOrder::ClosestFirst),
    ("IdOrder", FetchOrder::IdOrder),
];
const CHAOS: [(&str, Chaos); 2] = [("None", Chaos::None), ("PhantomYield", Chaos::PhantomYield)];

fn name_of<T: PartialEq>(table: &[(&'static str, T)], v: T) -> &'static str {
    let (name, _) = table
        .iter()
        .find(|(_, t)| *t == v)
        .expect("every variant is spelled in its table");
    name
}

/// `field: <Name>,` looked up in `table`.
fn named<T: Copy>(p: &mut Parser, field: &str, table: &[(&str, T)]) -> Result<T, String> {
    p.key(field)?;
    let got = p.ident()?;
    p.expect(Tok::Comma)?;
    table
        .iter()
        .find(|(name, _)| *name == got)
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("unknown {field} '{got}'"))
}

/// Writes `items` comma-separated.
fn join<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, it);
    }
}

impl Scenario {
    /// Renders the scenario in its artifact text form.
    pub fn to_ron(&self) -> String {
        let mut s = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.write_ron(&mut s);
        s
    }

    fn write_ron(&self, s: &mut String) -> std::fmt::Result {
        writeln!(s, "Scenario(\n    seed: {},", self.seed)?;
        writeln!(s, "    servers: {},", self.servers)?;
        match self.deployment {
            Deployment::Plain => writeln!(s, "    deployment: Plain,")?,
            // `merkle: true` is appended only when set, so artifacts
            // written before the field existed stay byte-identical.
            Deployment::Gossip {
                grow_only,
                merkle: true,
            } => writeln!(
                s,
                "    deployment: Gossip(grow_only: {grow_only}, merkle: true),"
            )?,
            Deployment::Gossip { grow_only, .. } => {
                writeln!(s, "    deployment: Gossip(grow_only: {grow_only}),")?
            }
            Deployment::Sharded { shards } => {
                writeln!(s, "    deployment: Sharded(shards: {shards}),")?
            }
        }
        let semantics = name_of(&SEMANTICS, self.semantics);
        writeln!(s, "    semantics: {semantics},")?;
        let policy = name_of(&POLICIES, self.read_policy);
        writeln!(s, "    read_policy: {policy},")?;
        writeln!(s, "    guard_growth: {},", self.guard_growth)?;
        let order = name_of(&ORDERS, self.fetch_order);
        writeln!(s, "    fetch_order: {order},")?;
        // These are written only when they differ from the default, so
        // artifacts written before the fields existed stay byte-identical.
        if self.window != 1 {
            writeln!(s, "    window: {},", self.window)?;
        }
        match self.link {
            link if link == Link::DEFAULT => {}
            Link::Constant { one_way_ms } => {
                writeln!(s, "    link: Constant(one_way_ms: {one_way_ms}),")?
            }
            Link::SiteDistance {
                base_ms,
                per_hop_ms,
            } => writeln!(
                s,
                "    link: SiteDistance(base_ms: {base_ms}, per_hop_ms: {per_hop_ms}),"
            )?,
        }
        if let Some(bandwidth) = self.bandwidth {
            writeln!(s, "    bandwidth: {bandwidth},")?;
        }
        if let Some(file_size) = self.file_size {
            writeln!(s, "    file_size: {file_size},")?;
        }
        writeln!(s, "    think_ms: {},", self.think_ms)?;
        writeln!(s, "    budget: {},", self.budget)?;
        writeln!(s, "    start_ms: {},", self.start_ms)?;
        s.push_str("    setup: [");
        join(s, &self.setup, |s, (elem, home)| {
            let _ = write!(s, "({elem}, {home})");
        });
        s.push_str("],\n    ops: [");
        join(s, &self.ops, |s, op| {
            let _ = match *op {
                Op::Add { at_ms, elem, home } => {
                    write!(s, "Add(at_ms: {at_ms}, elem: {elem}, home: {home})")
                }
                Op::Remove { at_ms, elem } => write!(s, "Remove(at_ms: {at_ms}, elem: {elem})"),
            };
        });
        s.push_str("],\n    faults: [");
        join(s, &self.faults, |s, f| {
            let _ = match f {
                FaultSpec::Outage {
                    at_ms,
                    node,
                    for_ms,
                } => write!(s, "Outage(at_ms: {at_ms}, node: {node}, for_ms: {for_ms})"),
                FaultSpec::Partition {
                    at_ms,
                    side,
                    for_ms,
                } => {
                    let _ = write!(s, "Partition(at_ms: {at_ms}, side: [");
                    join(s, side, |s, n| {
                        let _ = write!(s, "{n}");
                    });
                    write!(s, "], for_ms: {for_ms})")
                }
                FaultSpec::Flap {
                    at_ms,
                    a,
                    b,
                    down_ms,
                    up_ms,
                    cycles,
                } => write!(
                    s,
                    "Flap(at_ms: {at_ms}, a: {a}, b: {b}, down_ms: {down_ms}, up_ms: {up_ms}, cycles: {cycles})"
                ),
            };
        });
        writeln!(s, "],\n    chaos: {},\n)", name_of(&CHAOS, self.chaos))
    }

    /// Parses the artifact text form. Fields must appear in the order
    /// [`Scenario::to_ron`] writes them; `// ...` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax problem.
    pub fn from_ron(text: &str) -> Result<Scenario, String> {
        let mut p = Parser::new(text)?;
        let s = scenario(&mut p)?;
        p.expect_end()?;
        Ok(s)
    }
}

fn deployment(p: &mut Parser) -> Result<Deployment, String> {
    match p.ident()?.as_str() {
        "Plain" => Ok(Deployment::Plain),
        "Gossip" => p.parens(|p| {
            let grow_only = p.bool_key("grow_only")?;
            let merkle = p.eat(&Tok::Comma) && p.bool_key("merkle")?;
            Ok(Deployment::Gossip { grow_only, merkle })
        }),
        "Sharded" => p.parens(|p| match p.num_key("shards")? as usize {
            0 => Err("shards must be at least 1".into()),
            shards => Ok(Deployment::Sharded { shards }),
        }),
        other => Err(format!("unknown deployment '{other}'")),
    }
}

fn link(p: &mut Parser) -> Result<Link, String> {
    match p.ident()?.as_str() {
        "Constant" => p.parens(|p| {
            Ok(Link::Constant {
                one_way_ms: p.num_key("one_way_ms")?,
            })
        }),
        "SiteDistance" => p.parens(|p| {
            Ok(Link::SiteDistance {
                base_ms: p.num_field("base_ms")?,
                per_hop_ms: p.num_key("per_hop_ms")?,
            })
        }),
        other => Err(format!("unknown link '{other}'")),
    }
}

/// `name: <num>,` when the next field is `name`, which a writer leaves
/// out at its default.
fn optional_num(p: &mut Parser, name: &str) -> Result<Option<u64>, String> {
    if p.peek() == Some(&Tok::Ident(name.into())) {
        p.num_field(name).map(Some)
    } else {
        Ok(None)
    }
}

fn op(p: &mut Parser) -> Result<Op, String> {
    let tag = p.ident()?;
    p.parens(|p| {
        let at_ms = p.num_field("at_ms")?;
        match tag.as_str() {
            "Add" => Ok(Op::Add {
                at_ms,
                elem: p.num_field("elem")?,
                home: p.num_key("home")? as usize,
            }),
            "Remove" => Ok(Op::Remove {
                at_ms,
                elem: p.num_key("elem")?,
            }),
            other => Err(format!("unknown op '{other}'")),
        }
    })
}

fn fault(p: &mut Parser) -> Result<FaultSpec, String> {
    let tag = p.ident()?;
    p.parens(|p| {
        let at_ms = p.num_field("at_ms")?;
        match tag.as_str() {
            "Outage" => Ok(FaultSpec::Outage {
                at_ms,
                node: p.num_field("node")? as usize,
                for_ms: p.num_key("for_ms")?,
            }),
            "Partition" => {
                p.key("side")?;
                let side = p.comma_sep(|p| Ok(p.num()? as usize))?;
                p.expect(Tok::Comma)?;
                Ok(FaultSpec::Partition {
                    at_ms,
                    side,
                    for_ms: p.num_key("for_ms")?,
                })
            }
            "Flap" => Ok(FaultSpec::Flap {
                at_ms,
                a: p.num_field("a")? as usize,
                b: p.num_field("b")? as usize,
                down_ms: p.num_field("down_ms")?,
                up_ms: p.num_field("up_ms")?,
                cycles: p.num_key("cycles")? as usize,
            }),
            other => Err(format!("unknown fault '{other}'")),
        }
    })
}

/// `name: [item, ...],`
fn list_field<T>(
    p: &mut Parser,
    name: &str,
    item: impl FnMut(&mut Parser) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    p.key(name)?;
    let items = p.comma_sep(item)?;
    p.expect(Tok::Comma)?;
    Ok(items)
}

/// The most servers an artifact may deploy: the threaded stage starts
/// one OS thread per server.
const MAX_SERVERS: u64 = 64;
/// The most down/up cycles one flap may run (two fault edges each).
const MAX_CYCLES: u64 = 1_000;
/// The latest offset or longest span a time field may name (one hour),
/// so no fault's end overflows.
const MAX_MS: u64 = 3_600_000;
/// The most fetches a run may keep in flight.
const MAX_WINDOW: u64 = 64;
/// The longest a link field may make one hop (ten seconds).
const MAX_LINK_MS: u64 = 10_000;
/// The largest object a member may carry (one mebibyte): the stage
/// stores one per member.
const MAX_FILE_SIZE: u64 = 1 << 20;

/// `v` when it is at most `max`, else an `Err` naming `field`.
fn at_most(field: &str, v: u64, max: u64) -> Result<u64, String> {
    if v <= max {
        Ok(v)
    } else {
        Err(format!("{field} {v} is out of range (at most {max})"))
    }
}

/// Rejects the values a stage cannot build or schedule.
fn check_ranges(s: &Scenario) -> Result<(), String> {
    at_most("servers", s.servers as u64, MAX_SERVERS)?;
    at_most("window", s.window as u64, MAX_WINDOW)?;
    match s.link {
        Link::Constant { one_way_ms } => {
            at_most("one_way_ms", one_way_ms, MAX_LINK_MS)?;
        }
        Link::SiteDistance {
            base_ms,
            per_hop_ms,
        } => {
            at_most("base_ms", base_ms, MAX_LINK_MS)?;
            at_most("per_hop_ms", per_hop_ms, MAX_LINK_MS)?;
        }
    }
    if s.bandwidth == Some(0) {
        return Err("bandwidth must be at least 1".into());
    }
    at_most("file_size", s.file_size.unwrap_or(0), MAX_FILE_SIZE)?;
    at_most("think_ms", s.think_ms, MAX_MS)?;
    at_most("start_ms", s.start_ms, MAX_MS)?;
    for op in &s.ops {
        at_most("at_ms", op.at_ms(), MAX_MS)?;
    }
    for f in &s.faults {
        match *f {
            FaultSpec::Outage { at_ms, for_ms, .. }
            | FaultSpec::Partition { at_ms, for_ms, .. } => {
                at_most("at_ms", at_ms, MAX_MS)?;
                at_most("for_ms", for_ms, MAX_MS)?;
            }
            FaultSpec::Flap {
                at_ms,
                down_ms,
                up_ms,
                cycles,
                ..
            } => {
                at_most("at_ms", at_ms, MAX_MS)?;
                at_most("down_ms", down_ms, MAX_MS)?;
                at_most("up_ms", up_ms, MAX_MS)?;
                at_most("cycles", cycles as u64, MAX_CYCLES)?;
            }
        }
    }
    Ok(())
}

fn scenario(p: &mut Parser) -> Result<Scenario, String> {
    p.keyword("Scenario")?;
    p.expect(Tok::LParen)?;
    let seed = p.num_field("seed")?;
    let servers = p.num_field("servers")? as usize;
    if servers == 0 {
        return Err("servers must be at least 1".into());
    }
    p.key("deployment")?;
    let deployment = deployment(p)?;
    p.expect(Tok::Comma)?;
    let semantics = named(p, "semantics", &SEMANTICS)?;
    let read_policy = named(p, "read_policy", &POLICIES)?;
    let guard_growth = p.bool_key("guard_growth")?;
    p.expect(Tok::Comma)?;
    let s = Scenario {
        seed,
        servers,
        deployment,
        semantics,
        read_policy,
        guard_growth,
        fetch_order: named(p, "fetch_order", &ORDERS)?,
        window: match optional_num(p, "window")? {
            Some(0) => return Err("window must be at least 1".into()),
            w => w.unwrap_or(1) as usize,
        },
        link: if p.peek() == Some(&Tok::Ident("link".into())) {
            p.key("link")?;
            let l = link(p)?;
            p.expect(Tok::Comma)?;
            l
        } else {
            Link::DEFAULT
        },
        bandwidth: optional_num(p, "bandwidth")?,
        file_size: optional_num(p, "file_size")?,
        think_ms: p.num_field("think_ms")?,
        budget: p.num_field("budget")? as usize,
        start_ms: p.num_field("start_ms")?,
        setup: list_field(p, "setup", |p| {
            p.parens(|p| {
                let elem = p.num()?;
                p.expect(Tok::Comma)?;
                Ok((elem, p.num()? as usize))
            })
        })?,
        ops: list_field(p, "ops", op)?,
        faults: list_field(p, "faults", fault)?,
        chaos: named(p, "chaos", &CHAOS)?,
    };
    p.expect(Tok::RParen)?;
    check_ranges(&s)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: 42,
            servers: 3,
            deployment: Deployment::Gossip {
                grow_only: false,
                merkle: false,
            },
            semantics: Semantics::GrowOnly,
            read_policy: ReadPolicy::Leaderless,
            guard_growth: true,
            fetch_order: FetchOrder::IdOrder,
            window: 8,
            link: Link::DEFAULT,
            bandwidth: None,
            file_size: None,
            think_ms: 2,
            budget: 16,
            start_ms: 60,
            setup: vec![(1, 0), (2, 1)],
            ops: vec![
                Op::Add {
                    at_ms: 5,
                    elem: 3,
                    home: 2,
                },
                Op::Remove { at_ms: 80, elem: 1 },
            ],
            faults: vec![
                FaultSpec::Outage {
                    at_ms: 65,
                    node: 1,
                    for_ms: 20,
                },
                FaultSpec::Partition {
                    at_ms: 70,
                    side: vec![0, 2],
                    for_ms: 15,
                },
                FaultSpec::Flap {
                    at_ms: 62,
                    a: 0,
                    b: 1,
                    down_ms: 2,
                    up_ms: 5,
                    cycles: 3,
                },
            ],
            chaos: Chaos::None,
        }
    }

    #[test]
    fn round_trips() {
        let s = sample();
        let text = s.to_ron();
        let back = Scenario::from_ron(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn round_trips_with_empty_lists() {
        let s = Scenario {
            setup: Vec::new(),
            ops: Vec::new(),
            faults: Vec::new(),
            chaos: Chaos::PhantomYield,
            ..sample()
        };
        let back = Scenario::from_ron(&s.to_ron()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn sharded_deployment_round_trips() {
        let s = Scenario {
            deployment: Deployment::Sharded { shards: 3 },
            ..sample()
        };
        let text = s.to_ron();
        assert!(text.contains("deployment: Sharded(shards: 3)"));
        assert_eq!(Scenario::from_ron(&text).unwrap(), s);
        assert!(Scenario::from_ron(&text.replace("shards: 3", "shards: 0")).is_err());
    }

    #[test]
    fn links_and_files_round_trip_and_defaults_are_not_written() {
        let text = sample().to_ron();
        for field in ["link", "bandwidth", "file_size"] {
            assert!(!text.contains(field), "{field}");
        }
        for link in [
            Link::Constant { one_way_ms: 20 },
            Link::SiteDistance {
                base_ms: 1,
                per_hop_ms: 8,
            },
        ] {
            let s = Scenario {
                link,
                bandwidth: Some(1_000),
                file_size: Some(65_536),
                ..sample()
            };
            assert_eq!(Scenario::from_ron(&s.to_ron()).unwrap(), s);
        }
    }

    #[test]
    fn the_timeout_grows_only_past_the_fuzzers_links() {
        assert_eq!(sample().timeout_ms(), 50);
        let far = Scenario {
            link: Link::SiteDistance {
                base_ms: 1,
                per_hop_ms: 8,
            },
            ..sample()
        };
        // Three servers: the farthest hop is 1 + 3 × 8 = 25 ms.
        assert_eq!(far.timeout_ms(), 100);
        let slow = Scenario {
            link: Link::Constant { one_way_ms: 5 },
            bandwidth: Some(1_000),
            file_size: Some(65_536),
            ..sample()
        };
        assert_eq!(slow.timeout_ms(), 2 * (10 + 66));
    }

    #[test]
    fn merkle_deployment_round_trips() {
        let s = Scenario {
            deployment: Deployment::Gossip {
                grow_only: true,
                merkle: true,
            },
            ..sample()
        };
        let text = s.to_ron();
        assert!(text.contains("deployment: Gossip(grow_only: true, merkle: true)"));
        assert_eq!(Scenario::from_ron(&text).unwrap(), s);
    }

    #[test]
    fn pre_sharding_artifacts_still_parse() {
        // Artifacts written before the Sharded variant existed carry
        // Plain or Gossip deployments; both grammars are unchanged.
        for needle in ["Gossip(grow_only: false)", "Plain"] {
            let s = if needle == "Plain" {
                Scenario {
                    deployment: Deployment::Plain,
                    ..sample()
                }
            } else {
                sample()
            };
            let text = s.to_ron();
            assert!(text.contains(needle));
            assert_eq!(Scenario::from_ron(&text).unwrap(), s);
        }
    }

    #[test]
    fn causal_session_policy_round_trips() {
        let s = Scenario {
            read_policy: ReadPolicy::CausalSession,
            ..sample()
        };
        let text = s.to_ron();
        assert!(text.contains("read_policy: CausalSession"));
        assert_eq!(Scenario::from_ron(&text).unwrap(), s);
    }

    #[test]
    fn comments_are_ignored() {
        let mut text = String::from("// repro artifact\n");
        text.push_str(&sample().to_ron());
        assert_eq!(Scenario::from_ron(&text).unwrap(), sample());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Scenario::from_ron("Scenario(seed: x)").is_err());
        assert!(Scenario::from_ron("").is_err());
        let mut trailing = sample().to_ron();
        trailing.push_str("extra");
        assert!(Scenario::from_ron(&trailing).is_err());
    }

    /// `(at_ms, label, action)` of every edge, on servers `n1..=n3`.
    fn edges(f: &FaultSpec) -> Vec<(u64, String, FaultAction)> {
        let servers = [NodeId(1), NodeId(2), NodeId(3)];
        f.actions(&servers)
            .map(|e| (e.at_ms, e.to_string(), e.action))
            .collect()
    }

    #[test]
    fn an_outage_crashes_and_restarts_its_wrapped_server() {
        let f = FaultSpec::Outage {
            at_ms: 1,
            node: 4, // wraps: 4 % 3 = server 1 = node 2
            for_ms: 9,
        };
        assert_eq!(
            edges(&f),
            vec![
                (
                    1,
                    "fault.out.1.4.9.down".into(),
                    FaultAction::Crash(NodeId(2))
                ),
                (
                    10,
                    "fault.out.1.4.9.up".into(),
                    FaultAction::Restart(NodeId(2))
                ),
            ]
        );
    }

    #[test]
    fn a_partition_imposes_then_heals() {
        let f = FaultSpec::Partition {
            at_ms: 10,
            side: vec![0, 2],
            for_ms: 20,
        };
        assert_eq!(
            edges(&f),
            vec![
                (
                    10,
                    "fault.part.10.0-2.20.cut".into(),
                    FaultAction::Partition(vec![NodeId(1), NodeId(3)])
                ),
                (
                    30,
                    "fault.part.10.0-2.20.heal".into(),
                    FaultAction::HealPartition
                ),
            ]
        );
    }

    #[test]
    fn a_flap_cycles_its_link_down_and_up() {
        let f = FaultSpec::Flap {
            at_ms: 5,
            a: 0,
            b: 1,
            down_ms: 2,
            up_ms: 3,
            cycles: 2,
        };
        let got = edges(&f);
        let at: Vec<u64> = got.iter().map(|e| e.0).collect();
        assert_eq!(at, vec![5, 7, 10, 12]);
        assert_eq!(got[0].1, "fault.flap.5.0.1.0.down");
        assert_eq!(got[3].1, "fault.flap.5.0.1.1.up");
        let (a, b) = (NodeId(1), NodeId(2));
        assert_eq!(got[2].2, FaultAction::SetLink(a, b, LinkState::down()));
        assert_eq!(got[3].2, FaultAction::SetLink(a, b, LinkState::healthy()));
        assert_eq!(f.end_ms(), 15);
    }

    #[test]
    fn horizon_and_removal_helpers() {
        let s = sample();
        assert!(s.has_removals());
        // Last event: partition heals at 85, remove at 80, flap ends at 83.
        assert_eq!(s.horizon_ms(), 85);
        assert_eq!(
            FaultSpec::Flap {
                at_ms: 62,
                a: 0,
                b: 1,
                down_ms: 2,
                up_ms: 5,
                cycles: 3
            }
            .end_ms(),
            83
        );
    }
}
