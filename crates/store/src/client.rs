//! The repository client: typed operations over the message protocol.

use crate::collection::{MemberEntry, Membership, SyncStep};
use crate::dotted::VersionVector;
use crate::msg::StoreMsg;
use crate::object::{CollectionId, ObjectId, ObjectRecord};
use crate::query::Query;
use crate::session::SessionToken;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};
use weakset_obs::session as session_names;
use weakset_obs::store_health;
use weakset_runtime::prelude::*;
use weakset_sim::metrics::Metrics;
use weakset_sim::net::{BatchBuffer, BatchEnvelope, NetError};
use weakset_sim::node::NodeId;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::{ReplyToken, World};

/// The world type every store deployment runs in.
pub type StoreWorld = World<StoreMsg>;

/// The execution environment every store client runs against: either
/// the simulator ([`StoreWorld`] coerces to it) or the threaded
/// backend (`weakset_runtime::threaded::ThreadedRuntime<StoreMsg>`).
pub type StoreRt = dyn Runtime<StoreMsg>;

/// Why a store operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The network-level failure exception.
    Net(NetError),
    /// The collection is read-locked and the mutation was refused.
    Locked,
    /// The object does not exist where it was expected.
    NotFound(ObjectId),
    /// The collection does not exist on the contacted node.
    NoSuchCollection(CollectionId),
    /// Too few replicas answered to form a quorum.
    NoQuorum {
        /// Replies received.
        got: usize,
        /// Replies needed.
        need: usize,
    },
    /// The server answered with something the protocol does not allow
    /// here.
    Protocol,
    /// Every reachable replica is behind the session's dependency floor
    /// ([`ReadPolicy::CausalSession`]) and the wait deadline expired.
    SessionBehind {
        /// The best version any contacted replica had.
        have: u64,
        /// The session's required floor.
        need: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Net(e) => write!(f, "network failure: {e}"),
            StoreError::Locked => write!(f, "collection is read-locked"),
            StoreError::NotFound(id) => write!(f, "object {id} not found"),
            StoreError::NoSuchCollection(c) => write!(f, "collection {c} not found"),
            StoreError::NoQuorum { got, need } => {
                write!(f, "quorum not reached: {got} of {need} replies")
            }
            StoreError::Protocol => write!(f, "unexpected protocol reply"),
            StoreError::SessionBehind { have, need } => {
                write!(f, "replicas behind session floor: have {have}, need {need}")
            }
        }
    }
}

impl Error for StoreError {}

impl From<NetError> for StoreError {
    fn from(e: NetError) -> Self {
        StoreError::Net(e)
    }
}

impl StoreError {
    /// True when the error is the paper's "failure" exception (a
    /// communication failure), as opposed to a logical error.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            StoreError::Net(_) | StoreError::NoQuorum { .. } | StoreError::SessionBehind { .. }
        )
    }
}

/// Where a collection lives: its primary (home) node and any secondary
/// replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionRef {
    /// The collection's id.
    pub id: CollectionId,
    /// Primary replica: mutations are serialized here.
    pub home: NodeId,
    /// Secondary replicas, updated best-effort after each mutation.
    pub replicas: Vec<NodeId>,
}

impl CollectionRef {
    /// A collection with no secondary replicas.
    pub fn unreplicated(id: CollectionId, home: NodeId) -> Self {
        CollectionRef {
            id,
            home,
            replicas: Vec::new(),
        }
    }

    /// Every node hosting a replica (home first).
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.replicas.len());
        v.push(self.home);
        v.extend(self.replicas.iter().copied());
        v
    }
}

/// How membership reads pick replicas — the paper's pessimistic/optimistic
/// split applied to the membership list itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Read the primary only; fail if it is unreachable (pessimistic).
    #[default]
    Primary,
    /// Read the closest reachable replica; data may be stale (optimistic).
    Any,
    /// Read a majority and take the newest version (pessimistic but
    /// partition-tolerant up to minority loss).
    Quorum,
    /// Leaderless: read every reachable replica and take the *union* of
    /// their memberships (newest version wins for the version number).
    /// One reachable replica suffices — no primary, no majority. Designed
    /// for deployments whose replicas converge by anti-entropy gossip
    /// (`weakset-gossip`): membership is then a join-semilattice, so the
    /// union of replica states is itself a valid weak-set read.
    Leaderless,
    /// Leaderless union reads with *session guarantees*: every request
    /// carries the client's [`SessionToken`] dependency vector, and a
    /// replica that has not yet applied the session's dependencies
    /// answers [`StoreMsg::SessionBehind`] instead of serving stale
    /// data. The client redirects to other replicas and waits for
    /// laggards, giving read-your-writes and monotonic reads even
    /// without a primary. Requires a client built with
    /// [`StoreClient::with_session`].
    CausalSession,
}

/// How the replies of one round merge into one read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// The first success wins; a sequential read stops contacting there.
    First,
    /// The newest version among a majority of the contact set.
    Newest,
    /// The union of every success, under the highest version seen: a
    /// linear merge of the replies' sorted runs, and no copy at all
    /// when they are the same array.
    Union,
}

/// One read policy as data: whom to contact, in what order, how replies
/// merge, whether the session floor admits them, and what the read is
/// called in spans and metrics.
struct ReadPlan {
    label: &'static str,
    /// Contact every secondary after the home node, not the home alone.
    all_replicas: bool,
    /// Fold replies closest first by estimated latency (a stable sort:
    /// ties keep their order) rather than in the order contacted.
    closest_first: bool,
    merge: Merge,
    /// Requests carry the session token, successes are folded back into
    /// it, and a round whose every reply was behind waits and retries.
    session: bool,
    /// Counter bumped before each sequential contact.
    contacts_counter: Option<&'static str>,
    span: &'static str,
    us: &'static str,
    ok: &'static str,
    err: &'static str,
    batched_us: &'static str,
    batched_ok: &'static str,
    batched_err: &'static str,
}

/// A session-less [`ReadPlan`] with every name derived from the label.
macro_rules! read_plan {
    ($label:literal, all_replicas: $all:literal, closest_first: $closest:literal, $merge:ident) => {
        ReadPlan {
            label: $label,
            all_replicas: $all,
            closest_first: $closest,
            merge: Merge::$merge,
            session: false,
            contacts_counter: None,
            span: concat!("store.read.", $label),
            us: concat!("store.read.", $label, ".us"),
            ok: concat!("store.read.", $label, ".ok"),
            err: concat!("store.read.", $label, ".err"),
            batched_us: concat!("store.read.batched.", $label, ".us"),
            batched_ok: concat!("store.read.batched.", $label, ".ok"),
            batched_err: concat!("store.read.batched.", $label, ".err"),
        }
    };
}

impl ReadPlan {
    /// The secondaries contacted after `cref.home` — the one definition
    /// of a policy's contact set.
    fn secondaries<'a>(&self, cref: &'a CollectionRef) -> &'a [NodeId] {
        if self.all_replicas {
            &cref.replicas
        } else {
            &[]
        }
    }
}

impl ReadPolicy {
    /// Stable lowercase label, used as the metric-name segment for
    /// per-policy instrumentation (`store.read.<label>.us`).
    pub fn label(self) -> &'static str {
        self.plan().label
    }

    /// How many of `cref`'s replicas a read under this policy contacts.
    pub fn contacts(self, cref: &CollectionRef) -> usize {
        1 + self.plan().secondaries(cref).len()
    }

    /// The plan table: everything that distinguishes one policy's read
    /// from another's.
    fn plan(self) -> &'static ReadPlan {
        match self {
            ReadPolicy::Primary => {
                &read_plan!("primary", all_replicas: false, closest_first: false, First)
            }
            ReadPolicy::Any => &read_plan!("any", all_replicas: true, closest_first: true, First),
            ReadPolicy::Quorum => &ReadPlan {
                contacts_counter: Some("store.read.quorum.contacts"),
                ..read_plan!("quorum", all_replicas: true, closest_first: false, Newest)
            },
            ReadPolicy::Leaderless => {
                &read_plan!("leaderless", all_replicas: true, closest_first: true, Union)
            }
            ReadPolicy::CausalSession => &ReadPlan {
                session: true,
                ..read_plan!("causal_session", all_replicas: true, closest_first: true, Union)
            },
        }
    }
}

/// The streaming fold of one round's replies under a plan's [`Merge`]
/// rule. The sequential and the batched read both feed it one reply at
/// a time, in the plan's order.
struct ReadFold {
    merge: Merge,
    /// Successes [`Merge::Newest`] needs: a majority of the contacts.
    need: usize,
    got: usize,
    read: Option<MembershipRead>,
    /// Highest `(have, need)` among replies behind the session floor.
    behind: Option<(u64, u64)>,
    last_err: StoreError,
}

impl ReadFold {
    fn new(plan: &ReadPlan, contacts: usize) -> Self {
        ReadFold {
            merge: plan.merge,
            need: contacts / 2 + 1,
            got: 0,
            read: None,
            behind: None,
            last_err: StoreError::Net(NetError::Timeout),
        }
    }

    /// Folds one replica's reply in; true once no further reply can
    /// change the outcome.
    #[inline]
    fn push(&mut self, reply: Result<MembershipRead, StoreError>) -> bool {
        match reply {
            Ok(read) => {
                self.got += 1;
                match (&mut self.read, self.merge) {
                    (None, _) => self.read = Some(read),
                    (Some(_), Merge::First) => {}
                    (Some(best), Merge::Newest) => {
                        if read.version > best.version {
                            *best = read;
                        }
                    }
                    (Some(merged), Merge::Union) => {
                        // Two primary-serialized replies at one version
                        // list the same entries: `union` would compare
                        // them only to hand back a clone. A marked
                        // `merged` is one reply's entries, and any reply
                        // folded into it since listed nothing more.
                        let same = merged.version == read.version
                            && merged.entries.is_serialized()
                            && read.entries.is_serialized();
                        if !same {
                            merged.entries = merged.entries.union(&read.entries);
                        }
                        merged.version = merged.version.max(read.version);
                    }
                }
            }
            Err(StoreError::SessionBehind { have, need }) => {
                self.behind = Some(match self.behind {
                    Some((h, n)) => (h.max(have), n.max(need)),
                    None => (have, need),
                });
            }
            Err(e) => self.last_err = e,
        }
        self.merge == Merge::First && self.read.is_some()
    }

    /// The round's outcome. A successful round that some replica was
    /// behind for was redirected, not blocked: the one place that counts
    /// `session.read.redirect`, for sequential and batched rounds alike.
    #[inline]
    fn finish(self, metrics: &mut Metrics) -> Result<MembershipRead, StoreError> {
        let (got, need) = (self.got, self.need);
        if self.merge == Merge::Newest && got < need {
            return Err(StoreError::NoQuorum { got, need });
        }
        match (self.read, self.behind) {
            (Some(read), behind) => {
                if behind.is_some() {
                    metrics.incr(session_names::READ_REDIRECT);
                }
                Ok(read)
            }
            // Every replica behind beats a generic error: the caller
            // can wait and retry on SessionBehind.
            (None, Some((have, need))) => Err(StoreError::SessionBehind { have, need }),
            (None, None) => Err(self.last_err),
        }
    }
}

/// Splits a gossip replica's dot-level clock stamp, if any, off a reply.
fn unstamp(reply: StoreMsg) -> (Option<VersionVector>, StoreMsg) {
    match reply {
        StoreMsg::SessionStamped { clock, inner } => (Some(clock), *inner),
        other => (None, other),
    }
}

/// A versioned membership read.
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipRead {
    /// Version of the replica that answered (highest version for quorum).
    pub version: u64,
    /// The membership.
    pub entries: Membership,
}

/// A client of the distributed object repository, bound to the node it
/// runs on.
#[derive(Clone, Debug)]
pub struct StoreClient {
    node: NodeId,
    timeout: SimDuration,
    lock_token: u64,
    retries: usize,
    // Shared across clones: the iterator stack clones the client per
    // run, and all clones must extend the same session.
    session: Option<Arc<Mutex<SessionToken>>>,
}

impl StoreClient {
    /// A client on `node` with the given RPC timeout.
    pub fn new(node: NodeId, timeout: SimDuration) -> Self {
        StoreClient {
            node,
            timeout,
            lock_token: node.0 as u64 + 1,
            retries: 0,
            session: None,
        }
    }

    /// Attaches a fresh causal session to this client: mutations and
    /// [`ReadPolicy::CausalSession`] reads record their observed
    /// versions in a shared [`SessionToken`], and session reads refuse
    /// replies from replicas behind that token. Clones of the client
    /// share the session.
    #[must_use]
    pub fn with_session(mut self) -> Self {
        self.session = Some(Arc::new(Mutex::new(SessionToken::new())));
        self
    }

    /// A copy of the current session token, if a session is attached.
    pub fn session_token(&self) -> Option<SessionToken> {
        self.session
            .as_ref()
            .map(|s| s.lock().expect("session lock poisoned").clone())
    }

    /// Folds an observed reply (scalar version and, for gossip replies,
    /// a dot-level clock) into the session token, if any.
    fn session_observe(&self, coll: CollectionId, version: u64, clock: Option<&VersionVector>) {
        if let Some(session) = &self.session {
            let mut tok = session.lock().expect("session lock poisoned");
            tok.observe_version(coll, version);
            if let Some(clock) = clock {
                tok.observe_clock(coll, clock);
            }
        }
    }

    /// Retries each RPC up to `n` extra times on network failure. Safe
    /// because every store request is idempotent (set semantics: repeated
    /// adds/removes/puts/locks converge); useful on lossy links where
    /// individual messages vanish.
    #[must_use]
    pub fn with_retries(mut self, n: usize) -> Self {
        self.retries = n;
        self
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The client's RPC timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Extra attempts each request gets on network failure
    /// ([`StoreClient::with_retries`]).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// One rpc from this client's node: without retries, the bare rpc.
    fn call(&self, world: &mut StoreRt, to: NodeId, msg: StoreMsg) -> Result<StoreMsg, StoreError> {
        if self.retries == 0 {
            return world
                .rpc(self.node, to, msg, self.timeout)
                .map_err(StoreError::Net);
        }
        self.call_retrying(world, to, msg)
    }

    /// [`StoreClient::call`] with up to `self.retries` extra attempts on
    /// network failure. Only an attempt that may be retried needs its
    /// own copy of the request; the last one takes it.
    fn call_retrying(
        &self,
        world: &mut StoreRt,
        to: NodeId,
        msg: StoreMsg,
    ) -> Result<StoreMsg, StoreError> {
        for _ in 0..self.retries {
            if let Ok(reply) = world.rpc(self.node, to, msg.clone(), self.timeout) {
                return Ok(reply);
            }
        }
        Ok(world.rpc(self.node, to, msg, self.timeout)?)
    }

    /// Stores an object on a node.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure.
    pub fn put_object(
        &self,
        world: &mut StoreRt,
        home: NodeId,
        rec: ObjectRecord,
    ) -> Result<(), StoreError> {
        match self.call(world, home, StoreMsg::PutObject(rec))? {
            StoreMsg::Ack => Ok(()),
            _ => Err(StoreError::Protocol),
        }
    }

    /// Fetches an object from its home node.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure;
    /// [`StoreError::NotFound`] when the node does not hold the object.
    pub fn fetch_object(
        &self,
        world: &mut StoreRt,
        home: NodeId,
        id: ObjectId,
    ) -> Result<ObjectRecord, StoreError> {
        let started = world.now();
        let reply = self.call(world, home, StoreMsg::GetObject(id));
        Self::fetched(world, home, id, started, reply)
    }

    /// The fetch account: decodes the final reply to a `GetObject(id)`
    /// sent to `home` at `started`, retries spent, and records it. Every
    /// object fetch ends here, one at a time or in flight with others.
    /// A network error records only a `store.fetch.failed` event: the
    /// store fetch never happened, so `store.fetch.us`/`.ok`/`.err` stay
    /// store-level signals.
    ///
    /// # Errors
    ///
    /// As [`StoreClient::fetch_object`].
    pub fn fetched(
        world: &mut StoreRt,
        home: NodeId,
        id: ObjectId,
        started: SimTime,
        reply: Result<StoreMsg, StoreError>,
    ) -> Result<ObjectRecord, StoreError> {
        let reply = reply.inspect_err(|e| {
            world.trace_event("store.fetch.failed", &|| {
                format!("object={id} home={home}: {e}")
            });
        })?;
        let result = match reply {
            StoreMsg::Object(rec) => Ok(rec),
            StoreMsg::NotFound(id) => Err(StoreError::NotFound(id)),
            _ => Err(StoreError::Protocol),
        };
        let elapsed = world.now().saturating_since(started).as_micros();
        let m = world.metrics_mut();
        m.observe("store.fetch.us", elapsed);
        m.incr(if result.is_ok() {
            store_health::FETCH_OK
        } else {
            store_health::FETCH_ERR
        });
        result
    }

    /// Runs a query against one node's local objects.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure.
    pub fn query_node(
        &self,
        world: &mut StoreRt,
        node: NodeId,
        query: &Query,
    ) -> Result<Vec<ObjectId>, StoreError> {
        match self.call(world, node, StoreMsg::QueryLocal(query.clone()))? {
            StoreMsg::Matches(ids) => Ok(ids),
            _ => Err(StoreError::Protocol),
        }
    }

    /// Creates the collection on its home node and every replica.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] if any replica cannot be created.
    pub fn create_collection(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
    ) -> Result<(), StoreError> {
        for node in cref.all_nodes() {
            match self.call(world, node, StoreMsg::CreateCollection(cref.id))? {
                StoreMsg::Ack => {}
                _ => return Err(StoreError::Protocol),
            }
        }
        Ok(())
    }

    /// Adds a member: serialized at the primary, then pushed best-effort to
    /// every reachable secondary replica (unreachable replicas go stale).
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] when the *primary* is unreachable;
    /// [`StoreError::Locked`] when a reader holds the lock.
    pub fn add_member(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
        entry: MemberEntry,
    ) -> Result<u64, StoreError> {
        let msg = StoreMsg::AddMember {
            coll: cref.id,
            entry,
        };
        self.mutate_primary_then_sync(world, cref, msg, SyncStep::Add(entry))
    }

    /// Removes a member (primary-first, best-effort replica sync).
    ///
    /// # Errors
    ///
    /// As for [`StoreClient::add_member`].
    pub fn remove_member(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
        elem: ObjectId,
    ) -> Result<u64, StoreError> {
        let msg = StoreMsg::RemoveMember {
            coll: cref.id,
            elem,
        };
        self.mutate_primary_then_sync(world, cref, msg, SyncStep::Remove(elem))
    }

    /// Runs `msg` on the primary, then forwards `step`, the write it
    /// carries, to every secondary when the primary committed it. A
    /// replica that missed an earlier step answers
    /// [`StoreMsg::SessionBehind`] and is sent the primary's whole
    /// membership instead. A write the primary did not commit (a no-op,
    /// or a removal a grow guard deferred) gives the replicas nothing to
    /// replay.
    fn mutate_primary_then_sync(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
        msg: StoreMsg,
        step: SyncStep,
    ) -> Result<u64, StoreError> {
        let started = world.now();
        // With a session attached, the mutation rides in a WithSession
        // wrapper so gossip replicas stamp the reply with their
        // post-mutation digest — the dot this session must later see.
        let msg = match self.session_token() {
            Some(session) => StoreMsg::WithSession {
                session,
                inner: Box::new(msg),
            },
            None => msg,
        };
        // A bare `Members` carries no clock: match it before `unstamp`.
        let primary = self
            .call(world, cref.home, msg)
            .and_then(|reply| match reply {
                StoreMsg::Members {
                    version,
                    entries,
                    committed,
                } => Ok((None, version, entries, committed)),
                reply => match unstamp(reply) {
                    (
                        clock,
                        StoreMsg::Members {
                            version,
                            entries,
                            committed,
                        },
                    ) => Ok((clock, version, entries, committed)),
                    (_, StoreMsg::Locked) => Err(StoreError::Locked),
                    (_, StoreMsg::NoSuchCollection(c)) => Err(StoreError::NoSuchCollection(c)),
                    _ => Err(StoreError::Protocol),
                },
            });
        let elapsed = world.now().saturating_since(started).as_micros();
        let m = world.metrics_mut();
        m.observe("store.write.us", elapsed);
        // Only a write the primary did counts as one: a refusal
        // (`Locked`, `NoSuchCollection`) or an unreadable reply is an
        // error like a lost request.
        m.incr(if primary.is_ok() {
            store_health::WRITE_OK
        } else {
            store_health::WRITE_ERR
        });
        let (clock, version, entries, committed) = primary?;
        self.session_observe(cref.id, version, clock.as_ref());
        if !committed {
            return Ok(version);
        }
        let sync = |step| StoreMsg::SyncMembers {
            coll: cref.id,
            version,
            step,
        };
        for &replica in &cref.replicas {
            // Best effort: a stale replica is the paper's "one node may
            // have more up-to-date information than another".
            let mut synced = self.call(world, replica, sync(step.clone()));
            if let Ok(StoreMsg::SessionBehind { .. }) = synced {
                world.metrics_mut().incr(store_health::REPLICA_SYNC_FULL);
                synced = self.call(world, replica, sync(SyncStep::Full(entries.clone())));
            }
            world
                .metrics_mut()
                .incr(if matches!(synced, Ok(StoreMsg::Ack)) {
                    store_health::REPLICA_SYNC_SENT
                } else {
                    store_health::REPLICA_SYNC_FAILED
                });
        }
        Ok(version)
    }

    /// Reads the collection's membership under a read policy.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] when the required replicas are unreachable;
    /// [`StoreError::NoQuorum`] when [`ReadPolicy::Quorum`] cannot gather a
    /// majority; [`StoreError::SessionBehind`] when every reachable
    /// replica stays behind a [`ReadPolicy::CausalSession`] floor.
    pub fn read_members(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
        policy: ReadPolicy,
    ) -> Result<MembershipRead, StoreError> {
        let plan = policy.plan();
        let started = world.now();
        let span = world.span_enter(plan.span, &|| cref.id.label());
        let result = self.read_rounds(world, cref, plan, started);
        if let Err(e) = &result {
            world.trace_event("store.read.failed", &|| {
                format!("{} {}: {e}", plan.label, cref.id)
            });
        }
        world.span_exit(span);
        let elapsed = world.now().saturating_since(started).as_micros();
        let m = world.metrics_mut();
        m.observe(plan.us, elapsed);
        m.incr(if result.is_ok() { plan.ok } else { plan.err });
        result
    }

    /// The sequential read: contacts the plan's replicas in the plan's
    /// order and folds their replies under its merge rule. A plan
    /// without a session runs one round. A session plan whose every
    /// reachable replica answered [`StoreMsg::SessionBehind`] waits and
    /// retries the whole ring until the client's timeout, then surfaces
    /// [`StoreError::SessionBehind`] — blocking beats silently violating
    /// read-your-writes. Any satisfying replica suffices (redirect).
    /// `started` is when the read began: the deadline counts from it.
    fn read_rounds(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
        plan: &ReadPlan,
        started: SimTime,
    ) -> Result<MembershipRead, StoreError> {
        /// Delay between rounds while waiting for laggards to catch up.
        const WAIT_STEP: SimDuration = SimDuration::from_millis(5);
        let secondaries = plan.secondaries(cref);
        // One reply outside a session has nothing to arbitrate: `First`
        // and `Union` fold it to itself. `Newest` stays on the fold, which
        // counts the contact and reports a failed one as `NoQuorum`.
        if secondaries.is_empty() && !plan.session && plan.merge != Merge::Newest {
            let reply = self.call(world, cref.home, self.list_request(cref.id, plan));
            return self.decode_list(world, cref.id, plan, reply);
        }
        // A lone contact needs neither a list nor a ranking.
        let mut ranked: Vec<NodeId>;
        let nodes: &[NodeId] = if secondaries.is_empty() {
            std::slice::from_ref(&cref.home)
        } else {
            ranked = cref.all_nodes();
            if plan.closest_first {
                ranked.sort_by_key(|&n| world.estimate_latency(self.node, n));
            }
            &ranked
        };
        // Without a session nothing waits: one round.
        if !plan.session {
            return self.round(world, cref.id, plan, nodes);
        }
        let deadline = started + self.timeout;
        let mut waited = false;
        let result = loop {
            match self.round(world, cref.id, plan, nodes) {
                // Every reachable replica is behind: wait for replication
                // or anti-entropy to catch up, while the deadline allows.
                Err(StoreError::SessionBehind { .. }) if world.now() + WAIT_STEP <= deadline => {
                    waited = true;
                    world.sleep(WAIT_STEP);
                }
                result => break result,
            }
        };
        let gave_up = matches!(result, Err(StoreError::SessionBehind { .. }));
        if gave_up || (waited && result.is_ok()) {
            let us = world.now().saturating_since(started).as_micros();
            world.metrics_mut().observe(session_names::READ_WAIT_US, us);
        }
        if gave_up {
            world.metrics_mut().incr(session_names::READ_GAVE_UP);
        }
        result
    }

    /// One round of a sequential read: contacts `nodes` in order and
    /// folds each reply as it arrives. Outside a session a bare
    /// `Members` needs no decoding. Always inlined: with a call per
    /// round, or only the `#[inline]` hint, a sessionless read gave back
    /// about 3 % of `rt-read-fanout` (DESIGN.md §6).
    #[inline(always)]
    fn round(
        &self,
        world: &mut StoreRt,
        coll: CollectionId,
        plan: &ReadPlan,
        nodes: &[NodeId],
    ) -> Result<MembershipRead, StoreError> {
        let mut fold = ReadFold::new(plan, nodes.len());
        for &node in nodes {
            if let Some(counter) = plan.contacts_counter {
                world.metrics_mut().incr(counter);
            }
            let settled = match self.call(world, node, self.list_request(coll, plan)) {
                Ok(StoreMsg::Members {
                    version, entries, ..
                }) if !plan.session => fold.push(Ok(MembershipRead { version, entries })),
                reply => fold.push(self.decode_list(world, coll, plan, reply)),
            };
            if settled {
                break;
            }
        }
        fold.finish(world.metrics_mut())
    }

    /// Reads the memberships of several co-located collections (shard
    /// sub-collections) in one round of batched traffic: ONE envelope
    /// per replica node carries the `ListMembers` for every shard
    /// hosted there, and all envelopes are in flight concurrently.
    /// Results come back per shard, in input order, each folded under
    /// `policy` exactly as [`StoreClient::read_members`] would.
    ///
    /// Against the sequential path (one round-trip per shard per
    /// replica), the whole read costs one round-trip per *node* —
    /// this is the batched-quorum fast path that sharded weak sets
    /// ride. Retries are not applied here; a lost envelope surfaces
    /// as a per-shard failure and the caller decides.
    pub fn read_members_batched(
        &self,
        world: &mut StoreRt,
        shards: &[CollectionRef],
        policy: ReadPolicy,
    ) -> Vec<Result<MembershipRead, StoreError>> {
        let plan = policy.plan();
        let started = world.now();
        let span = world.span_enter("store.read.batched", &|| {
            format!("{} shards, {}", shards.len(), plan.label)
        });
        // Group the per-shard requests by destination; remember which
        // shard index each envelope slot belongs to (reply order ==
        // request order within an envelope). Session plans gate every
        // part individually: a stale replica answers SessionBehind for
        // exactly the shards it lags on.
        let mut buf = BatchBuffer::new(self.node);
        let mut slots: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut folds = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let secondaries = plan.secondaries(shard);
            folds.push(ReadFold::new(plan, 1 + secondaries.len()));
            for &node in std::iter::once(&shard.home).chain(secondaries) {
                slots.entry(node).or_default().push(i);
                buf.push(node, self.list_request(shard.id, plan));
            }
        }
        world
            .metrics_mut()
            .add("store.read.batched.contacts", buf.pending_parts() as u64);
        let mut launched: Vec<(NodeId, ReplyToken)> = buf
            .flush(world)
            .into_iter()
            .map(|(to, token, _)| (to, token))
            .collect();
        let deadline = world.now() + self.timeout;
        let mut outstanding: Vec<ReplyToken> = launched.iter().map(|&(_, t)| t).collect();
        while !outstanding.is_empty() {
            match world.wait_any(&outstanding, deadline) {
                Some(done) => outstanding.retain(|&t| t != done),
                None => break,
            }
        }
        if plan.closest_first {
            launched.sort_by_key(|&(n, _)| world.estimate_latency(self.node, n));
        }
        // Slice each node's reply envelope back into per-shard replies.
        for (node, token) in launched {
            let idxs = &slots[&node];
            let outcome = match world.try_take_reply(token) {
                Some(Ok(msg)) => match msg.unwrap_batch() {
                    Ok(replies) if replies.len() == idxs.len() => Ok(replies),
                    _ => Err(StoreError::Protocol),
                },
                Some(Err(e)) => Err(StoreError::Net(e)),
                None => {
                    world.abandon(token);
                    Err(StoreError::Net(NetError::Timeout))
                }
            };
            match outcome {
                Ok(replies) => {
                    for (&i, part) in idxs.iter().zip(replies) {
                        folds[i].push(self.decode_list(world, shards[i].id, plan, Ok(part)));
                    }
                }
                Err(e) => {
                    for &i in idxs {
                        folds[i].push(Err(e.clone()));
                    }
                }
            }
        }
        let mut results: Vec<_> = folds
            .into_iter()
            .map(|fold| fold.finish(world.metrics_mut()))
            .collect();
        // Session reads do not give up after one round: a shard whose
        // replicas were all behind falls back to the sequential
        // wait/redirect loop, which retries until a fresh timeout.
        if plan.session {
            for (shard, r) in shards.iter().zip(results.iter_mut()) {
                if matches!(r, Err(StoreError::SessionBehind { .. })) {
                    let now = world.now();
                    *r = self.read_rounds(world, shard, plan, now);
                }
            }
        }
        for (shard, r) in shards.iter().zip(&results) {
            if let Err(e) = r {
                world.trace_event("store.read.failed", &|| {
                    format!("batched {} {}: {e}", plan.label, shard.id)
                });
            }
        }
        world.span_exit(span);
        let elapsed = world.now().saturating_since(started).as_micros();
        let m = world.metrics_mut();
        m.observe(plan.batched_us, elapsed);
        for r in &results {
            m.incr(if r.is_ok() {
                plan.batched_ok
            } else {
                plan.batched_err
            });
        }
        results
    }

    /// The `ListMembers` request for `coll`; session plans wrap it with
    /// the current session token so the replica can gate on it.
    fn list_request(&self, coll: CollectionId, plan: &ReadPlan) -> StoreMsg {
        let list = StoreMsg::ListMembers(coll);
        if plan.session {
            StoreMsg::WithSession {
                session: self.session_token().unwrap_or_default(),
                inner: Box::new(list),
            }
        } else {
            list
        }
    }

    /// Decodes the outcome of one replica's `ListMembers`. Session plans
    /// fold a success (and its gossip clock stamp) into the session
    /// token; a behind replica surfaces as [`StoreError::SessionBehind`].
    fn decode_list(
        &self,
        world: &mut StoreRt,
        coll: CollectionId,
        plan: &ReadPlan,
        reply: Result<StoreMsg, StoreError>,
    ) -> Result<MembershipRead, StoreError> {
        let (clock, reply) = unstamp(reply?);
        match reply {
            StoreMsg::Members {
                version, entries, ..
            } => {
                if plan.session {
                    self.session_observe(coll, version, clock.as_ref());
                }
                Ok(MembershipRead { version, entries })
            }
            StoreMsg::SessionBehind { have, need, .. } => {
                world.metrics_mut().incr(session_names::READ_BEHIND);
                Err(StoreError::SessionBehind { have, need })
            }
            StoreMsg::NoSuchCollection(c) => Err(StoreError::NoSuchCollection(c)),
            _ => Err(StoreError::Protocol),
        }
    }

    /// Acquires a read lock on the primary (strong baseline). The lock
    /// token identifies this client.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure.
    pub fn acquire_read_lock(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
    ) -> Result<(), StoreError> {
        self.hold(world, cref, |coll, token| StoreMsg::AcquireReadLock {
            coll,
            token,
        })
    }

    /// Acquires a grow guard on the primary (§3.3): removals are deferred
    /// until released, so the set only grows while iterating.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure.
    pub fn acquire_grow_guard(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
    ) -> Result<(), StoreError> {
        self.hold(world, cref, |coll, token| StoreMsg::AcquireGrowGuard {
            coll,
            token,
        })
    }

    /// Releases this client's grow guard; when the last guard goes, the
    /// deferred removals land.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure.
    pub fn release_grow_guard(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
    ) -> Result<(), StoreError> {
        self.hold(world, cref, |coll, token| StoreMsg::ReleaseGrowGuard {
            coll,
            token,
        })
    }

    /// Releases this client's read lock on the primary.
    ///
    /// # Errors
    ///
    /// [`StoreError::Net`] on communication failure.
    pub fn release_read_lock(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
    ) -> Result<(), StoreError> {
        self.hold(world, cref, |coll, token| StoreMsg::ReleaseReadLock {
            coll,
            token,
        })
    }

    /// Sends one lock or guard request, built from the collection and
    /// this client's lock token, to `cref`'s home, and maps its `Ack`.
    fn hold(
        &self,
        world: &mut StoreRt,
        cref: &CollectionRef,
        request: impl FnOnce(CollectionId, u64) -> StoreMsg,
    ) -> Result<(), StoreError> {
        match self.call(world, cref.home, request(cref.id, self.lock_token))? {
            StoreMsg::Ack => Ok(()),
            StoreMsg::NoSuchCollection(c) => Err(StoreError::NoSuchCollection(c)),
            _ => Err(StoreError::Protocol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StoreServer;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::topology::Topology;

    fn world_with(n_servers: usize) -> (StoreWorld, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let client = t.add_node("client", 0);
        let servers: Vec<NodeId> = t.add_servers("s", n_servers);
        let mut w = StoreWorld::new(7, t, LatencyModel::Constant(SimDuration::from_millis(2)));
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        (w, client, servers)
    }

    fn entry(id: u64, home: NodeId) -> MemberEntry {
        MemberEntry {
            elem: ObjectId(id),
            home,
        }
    }

    #[test]
    fn object_round_trip() {
        let (mut w, c, s) = world_with(1);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let rec = ObjectRecord::new(ObjectId(1), "a", &b"hi"[..]);
        cl.put_object(&mut w, s[0], rec.clone()).unwrap();
        assert_eq!(cl.fetch_object(&mut w, s[0], ObjectId(1)).unwrap(), rec);
        assert_eq!(
            cl.fetch_object(&mut w, s[0], ObjectId(2)),
            Err(StoreError::NotFound(ObjectId(2)))
        );
    }

    #[test]
    fn membership_lifecycle_with_replicas() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1], s[2]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        cl.add_member(&mut w, &cref, entry(2, s[1])).unwrap();
        // All replicas agree.
        for policy in [ReadPolicy::Primary, ReadPolicy::Any, ReadPolicy::Quorum] {
            let r = cl.read_members(&mut w, &cref, policy).unwrap();
            assert_eq!(r.entries.len(), 2, "{policy:?}");
            assert_eq!(r.version, 2, "{policy:?}");
        }
    }

    #[test]
    fn partitioned_replica_goes_stale_and_any_reads_it() {
        let (mut w, c, s) = world_with(2);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        // Cut the replica off; mutate again — replica misses the update.
        w.topology_mut().partition(&[s[1]]);
        cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
        // Heal but now cut off the PRIMARY: Any falls back to the stale
        // replica.
        w.topology_mut().heal_partition();
        w.topology_mut().partition(&[s[0]]);
        let read = cl.read_members(&mut w, &cref, ReadPolicy::Any).unwrap();
        assert_eq!(read.version, 1);
        assert_eq!(read.entries.len(), 1); // stale: missing elem 2
                                           // Primary policy fails outright.
        assert!(matches!(
            cl.read_members(&mut w, &cref, ReadPolicy::Primary),
            Err(StoreError::Net(_))
        ));
    }

    #[test]
    fn a_replica_that_missed_a_step_is_sent_one_full_sync() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut w, c, s) = world_with(2);
        // Every sync the client sends, as (wire size, carries the whole
        // membership); the bandwidth model charges nothing.
        let sent: Rc<RefCell<Vec<(usize, bool)>>> = Rc::default();
        let noted = Rc::clone(&sent);
        w.set_bandwidth(1, move |msg: &StoreMsg| {
            if let StoreMsg::SyncMembers { step, .. } = msg {
                let full = matches!(step, SyncStep::Full(_));
                noted.borrow_mut().push((msg.wire_size(), full));
            }
            0
        });
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        let idle = sent.borrow()[0];
        assert_eq!((sent.borrow().len(), idle.1), (1, false));
        // The replica misses the second write's step...
        w.topology_mut().partition(&[s[1]]);
        cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
        w.topology_mut().heal_partition();
        // ... so it answers the third's with SessionBehind, and is sent
        // the whole membership once.
        sent.borrow_mut().clear();
        assert_eq!(cl.add_member(&mut w, &cref, entry(3, s[0])), Ok(3));
        assert_eq!(
            sent.borrow()
                .iter()
                .map(|&(_, full)| full)
                .collect::<Vec<_>>(),
            [false, true]
        );
        let counter = |name| w.metrics().counter(name);
        assert_eq!(counter(store_health::REPLICA_SYNC_FULL), 1);
        assert_eq!(counter(store_health::REPLICA_SYNC_FAILED), 1);
        assert_eq!(counter(store_health::REPLICA_SYNC_SENT), 2);
        // It now lists the primary's version.
        w.topology_mut().partition(&[s[0]]);
        let read = cl.read_members(&mut w, &cref, ReadPolicy::Any).unwrap();
        assert_eq!((read.version, read.entries.len()), (3, 3));
        w.topology_mut().heal_partition();
        // An idle write's sync costs the same bytes at 4,096 members as
        // at one.
        let big = CollectionRef {
            id: CollectionId(2),
            ..cref.clone()
        };
        for &node in &s {
            w.with_service_mut::<StoreServer, _>(node, |srv| {
                let state = srv.preload_collection(big.id);
                for id in 1..4096 {
                    state.add(entry(id, s[0]));
                }
            });
        }
        sent.borrow_mut().clear();
        assert_eq!(cl.add_member(&mut w, &big, entry(5000, s[0])), Ok(4096));
        assert_eq!(*sent.borrow(), [idle]);
    }

    #[test]
    fn quorum_takes_newest_and_fails_below_majority() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1], s[2]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        // Replica s[2] misses an update.
        w.topology_mut().partition(&[s[2]]);
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        w.topology_mut().heal_partition();
        // Quorum of {s0:v1, s1:v1, s2:v0} → newest v1.
        let read = cl.read_members(&mut w, &cref, ReadPolicy::Quorum).unwrap();
        assert_eq!(read.version, 1);
        // Cut off two of three replicas: no majority.
        w.topology_mut().partition(&[s[0], s[1]]);
        let err = cl.read_members(&mut w, &cref, ReadPolicy::Quorum);
        assert_eq!(err, Err(StoreError::NoQuorum { got: 1, need: 2 }));
        assert!(err.unwrap_err().is_failure());
    }

    #[test]
    fn leaderless_unions_reachable_replicas() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1], s[2]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        // s[2] misses the first add, s[1] misses the second: no single
        // replica holds the whole membership.
        w.topology_mut().partition(&[s[2]]);
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        w.topology_mut().heal_partition();
        w.topology_mut().partition(&[s[1]]);
        cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
        w.topology_mut().heal_partition();
        // Leaderless with the primary cut off unions the two stale
        // secondaries back into the full membership.
        w.topology_mut().partition(&[s[0]]);
        let read = cl
            .read_members(&mut w, &cref, ReadPolicy::Leaderless)
            .unwrap();
        assert_eq!(read.entries.len(), 2);
        assert_eq!(read.version, 2);
        // Quorum cannot form with a second replica also gone; leaderless
        // still answers from the lone survivor.
        w.topology_mut().partition(&[s[0], s[1]]);
        assert!(matches!(
            cl.read_members(&mut w, &cref, ReadPolicy::Quorum),
            Err(StoreError::NoQuorum { .. })
        ));
        let read = cl
            .read_members(&mut w, &cref, ReadPolicy::Leaderless)
            .unwrap();
        assert_eq!(read.entries.len(), 2, "s2 held the full v2 sync");
        // Everything gone: the failure exception surfaces.
        w.topology_mut().partition(&[s[0], s[1], s[2]]);
        assert!(cl
            .read_members(&mut w, &cref, ReadPolicy::Leaderless)
            .unwrap_err()
            .is_failure());
    }

    #[test]
    fn closest_first_reads_contact_in_stably_sorted_latency_order() {
        // The client sits at site 4: estimates tie in pairs, and the home
        // replica is not the closest. The sort must be stable: tied
        // contacts keep `all_nodes()`'s order.
        let sites = [7, 1, 4, 6, 2, 5, 3, 8, 0];
        for n in [3, 9] {
            let mut t = Topology::new();
            let client = t.add_node("client", 4);
            let servers: Vec<NodeId> = (0..n)
                .map(|i| t.add_node(format!("s{i}"), sites[i]))
                .collect();
            let ms = SimDuration::from_millis;
            let latency = LatencyModel::SiteDistance {
                base: ms(1),
                per_hop: ms(1),
            };
            let mut w = StoreWorld::new(7, t, latency);
            w.events_mut().set_enabled(true);
            for &s in &servers {
                w.install_service(s, Box::new(StoreServer::new()));
            }
            // No replica holds the collection, so every read below fails
            // at each replica and contacts them all, once.
            let cref = CollectionRef {
                id: CollectionId(1),
                home: servers[0],
                replicas: servers[1..].to_vec(),
            };
            let mut want = cref.all_nodes();
            want.sort_by_key(|&s| w.estimate_latency(client, s));
            assert_ne!(want, cref.all_nodes());
            // Each contact is one `net.rpc` span, detailed `client->server`.
            let want: Vec<_> = want.iter().map(|&s| client.link_label(s)).collect();
            let cl = StoreClient::new(client, ms(50)).with_session();
            for policy in [
                ReadPolicy::Any,
                ReadPolicy::Leaderless,
                ReadPolicy::CausalSession,
            ] {
                assert!(cl.read_members(&mut w, &cref, policy).is_err());
                let sent: Vec<_> = w
                    .events_mut()
                    .take_events()
                    .into_iter()
                    .filter(|e| e.kind == "net.rpc")
                    .map(|e| e.detail)
                    .collect();
                assert_eq!(sent, want, "{policy:?}, {n} replicas");
            }
        }
    }

    #[test]
    fn mutation_fails_when_primary_unreachable() {
        let (mut w, c, s) = world_with(2);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        w.topology_mut().crash(s[0]);
        let r = cl.add_member(&mut w, &cref, entry(1, s[0]));
        assert!(matches!(r, Err(StoreError::Net(_))));
    }

    #[test]
    fn read_lock_stalls_writers() {
        let (mut w, c, s) = world_with(1);
        let reader = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef::unreplicated(CollectionId(1), s[0]);
        reader.create_collection(&mut w, &cref).unwrap();
        reader.acquire_read_lock(&mut w, &cref).unwrap();
        let writer = StoreClient::new(c, SimDuration::from_millis(50));
        assert_eq!(
            writer.add_member(&mut w, &cref, entry(1, s[0])),
            Err(StoreError::Locked)
        );
        reader.release_read_lock(&mut w, &cref).unwrap();
        assert!(writer.add_member(&mut w, &cref, entry(1, s[0])).is_ok());
    }

    /// A write the primary refuses, with `Locked` or `NoSuchCollection`,
    /// did not happen, so it counts as `store.write.err`, not
    /// `store.write.ok`.
    #[test]
    fn a_locked_write_counts_as_a_write_error() {
        let (mut w, c, s) = world_with(1);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef::unreplicated(CollectionId(1), s[0]);
        cl.create_collection(&mut w, &cref).unwrap();
        cl.acquire_read_lock(&mut w, &cref).unwrap();
        let before = w.metrics().counter(store_health::WRITE_OK);
        assert_eq!(
            cl.add_member(&mut w, &cref, entry(1, s[0])),
            Err(StoreError::Locked)
        );
        assert_eq!(w.metrics().counter(store_health::WRITE_ERR), 1);
        assert_eq!(w.metrics().counter(store_health::WRITE_OK), before);
        let missing = CollectionRef::unreplicated(CollectionId(2), s[0]);
        assert_eq!(
            cl.add_member(&mut w, &missing, entry(1, s[0])),
            Err(StoreError::NoSuchCollection(CollectionId(2)))
        );
        assert_eq!(w.metrics().counter(store_health::WRITE_ERR), 2);
        assert_eq!(w.metrics().counter(store_health::WRITE_OK), before);
    }

    #[test]
    fn query_node_finds_matching_objects() {
        let (mut w, c, s) = world_with(1);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        cl.put_object(
            &mut w,
            s[0],
            ObjectRecord::new(ObjectId(1), "x.face", &b""[..]),
        )
        .unwrap();
        cl.put_object(
            &mut w,
            s[0],
            ObjectRecord::new(ObjectId(2), "y.txt", &b""[..]),
        )
        .unwrap();
        let hits = cl
            .query_node(&mut w, s[0], &Query::NameSuffix(".face".into()))
            .unwrap();
        assert_eq!(hits, vec![ObjectId(1)]);
    }

    #[test]
    fn missing_collection_surfaces() {
        let (mut w, c, s) = world_with(1);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let cref = CollectionRef::unreplicated(CollectionId(42), s[0]);
        assert_eq!(
            cl.read_members(&mut w, &cref, ReadPolicy::Primary),
            Err(StoreError::NoSuchCollection(CollectionId(42)))
        );
    }

    /// The state of a read's home node.
    #[derive(Clone, Copy, Debug)]
    enum Home {
        Serving,
        Missing,
        Crashed,
        Cut,
        /// Serving, and `s[2]` missed the last step: the removal of a
        /// second member.
        AheadOfS2,
    }

    /// One read on a fresh three-server fleet whose home is `s[0]`: its
    /// result, and the `store.read.*` and `rpc.*` counters it moved as
    /// sorted `name` (moved by one) or `name+n` words.
    fn one_read(
        policy: ReadPolicy,
        replicated: bool,
        home: Home,
    ) -> (Result<(u64, Vec<MemberEntry>), StoreError>, String) {
        let (mut w, c, s) = world_with(3);
        let mut cl = StoreClient::new(c, SimDuration::from_millis(50));
        if policy == ReadPolicy::CausalSession {
            cl = cl.with_session();
        }
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: if replicated { vec![s[1], s[2]] } else { vec![] },
        };
        if !matches!(home, Home::Missing) {
            cl.create_collection(&mut w, &cref).unwrap();
            cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        }
        match home {
            Home::Crashed => w.topology_mut().crash(s[0]),
            Home::Cut => w.topology_mut().partition(&[s[0]]),
            Home::AheadOfS2 => {
                cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
                w.topology_mut().partition(&[s[2]]);
                cl.remove_member(&mut w, &cref, ObjectId(2)).unwrap();
                w.topology_mut().heal_partition();
            }
            Home::Serving | Home::Missing => {}
        }
        let before: BTreeMap<String, u64> = w
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let result = cl
            .read_members(&mut w, &cref, policy)
            .map(|r| (r.version, r.entries.to_vec()));
        let moved: Vec<String> = w
            .metrics()
            .counters()
            .filter(|(k, _)| k.starts_with("store.read.") || k.starts_with("rpc."))
            .filter_map(|(k, v)| {
                let n = v - before.get(k).copied().unwrap_or(0);
                match n {
                    0 => None,
                    1 => Some(k.to_owned()),
                    n => Some(format!("{k}+{n}")),
                }
            })
            .collect();
        (result, moved.join(" "))
    }

    /// A round with one contact and no session gives its one reply's
    /// outcome: what the fold makes of it, counters included. `Quorum`
    /// needs a majority of one, so a failed contact is `NoQuorum`.
    #[test]
    fn a_one_contact_read_is_its_reply() {
        use ReadPolicy::*;
        let served = Ok((1, vec![entry(1, NodeId(1))]));
        let missing = Err(StoreError::NoSuchCollection(CollectionId(1)));
        let down = Err(StoreError::Net(NetError::NodeDown(NodeId(1))));
        let cut = Err(StoreError::Net(NetError::Unreachable {
            from: NodeId(0),
            to: NodeId(1),
        }));
        let no_quorum = Err(StoreError::NoQuorum { got: 0, need: 1 });
        #[rustfmt::skip]
        let cases = [
            (Primary, true, Home::Serving, &served, "rpc.ok rpc.sent store.read.primary.ok"),
            (Primary, true, Home::Missing, &missing, "rpc.ok rpc.sent store.read.primary.err"),
            (Primary, true, Home::Crashed, &down, "rpc.failed rpc.sent store.read.primary.err"),
            (Primary, true, Home::Cut, &cut, "rpc.failed rpc.sent store.read.primary.err"),
            (Primary, false, Home::Serving, &served, "rpc.ok rpc.sent store.read.primary.ok"),
            (Primary, false, Home::Missing, &missing, "rpc.ok rpc.sent store.read.primary.err"),
            (Primary, false, Home::Crashed, &down, "rpc.failed rpc.sent store.read.primary.err"),
            (Primary, false, Home::Cut, &cut, "rpc.failed rpc.sent store.read.primary.err"),
            (Any, false, Home::Serving, &served, "rpc.ok rpc.sent store.read.any.ok"),
            (Any, false, Home::Missing, &missing, "rpc.ok rpc.sent store.read.any.err"),
            (Any, false, Home::Crashed, &down, "rpc.failed rpc.sent store.read.any.err"),
            (Any, false, Home::Cut, &cut, "rpc.failed rpc.sent store.read.any.err"),
            (Quorum, false, Home::Serving, &served,
                "rpc.ok rpc.sent store.read.quorum.contacts store.read.quorum.ok"),
            (Quorum, false, Home::Missing, &no_quorum,
                "rpc.ok rpc.sent store.read.quorum.contacts store.read.quorum.err"),
            (Quorum, false, Home::Crashed, &no_quorum,
                "rpc.failed rpc.sent store.read.quorum.contacts store.read.quorum.err"),
            (Quorum, false, Home::Cut, &no_quorum,
                "rpc.failed rpc.sent store.read.quorum.contacts store.read.quorum.err"),
            (Leaderless, false, Home::Serving, &served, "rpc.ok rpc.sent store.read.leaderless.ok"),
            (Leaderless, false, Home::Missing, &missing, "rpc.ok rpc.sent store.read.leaderless.err"),
            (Leaderless, false, Home::Crashed, &down, "rpc.failed rpc.sent store.read.leaderless.err"),
            (Leaderless, false, Home::Cut, &cut, "rpc.failed rpc.sent store.read.leaderless.err"),
            (CausalSession, false, Home::Serving, &served,
                "rpc.ok rpc.sent store.read.causal_session.ok"),
            (CausalSession, false, Home::Missing, &missing,
                "rpc.ok rpc.sent store.read.causal_session.err"),
            (CausalSession, false, Home::Crashed, &down,
                "rpc.failed rpc.sent store.read.causal_session.err"),
            (CausalSession, false, Home::Cut, &cut,
                "rpc.failed rpc.sent store.read.causal_session.err"),
        ];
        for (policy, replicated, home, want, counters) in cases {
            let case = format!("{policy:?}, replicated {replicated}, home {home:?}");
            assert_eq!(
                one_read(policy, replicated, home),
                (want.clone(), counters.to_owned()),
                "{case}"
            );
        }
    }

    /// A round with several contacts and no session folds every reply it
    /// gathers: `Any` stops at the first success, `Quorum` and
    /// `Leaderless` hear all three replicas. Against `AheadOfS2`,
    /// `Quorum` keeps the newest reply and `Leaderless` unions back the
    /// member `s[2]` still lists.
    #[test]
    fn a_sessionless_round_folds_every_reply() {
        use ReadPolicy::*;
        let served = Ok((1, vec![entry(1, NodeId(1))]));
        let missing = Err(StoreError::NoSuchCollection(CollectionId(1)));
        let no_quorum = Err(StoreError::NoQuorum { got: 0, need: 2 });
        let newest = Ok((3, vec![entry(1, NodeId(1))]));
        let union = Ok((3, vec![entry(1, NodeId(1)), entry(2, NodeId(1))]));
        #[rustfmt::skip]
        let cases = [
            (Any, Home::Serving, &served, "rpc.ok rpc.sent store.read.any.ok"),
            (Any, Home::Missing, &missing, "rpc.ok+3 rpc.sent+3 store.read.any.err"),
            (Any, Home::Crashed, &served, "rpc.failed rpc.ok rpc.sent+2 store.read.any.ok"),
            (Any, Home::Cut, &served, "rpc.failed rpc.ok rpc.sent+2 store.read.any.ok"),
            (Any, Home::AheadOfS2, &newest, "rpc.ok rpc.sent store.read.any.ok"),
            (Quorum, Home::Serving, &served,
                "rpc.ok+3 rpc.sent+3 store.read.quorum.contacts+3 store.read.quorum.ok"),
            (Quorum, Home::Missing, &no_quorum,
                "rpc.ok+3 rpc.sent+3 store.read.quorum.contacts+3 store.read.quorum.err"),
            (Quorum, Home::Crashed, &served,
                "rpc.failed rpc.ok+2 rpc.sent+3 store.read.quorum.contacts+3 store.read.quorum.ok"),
            (Quorum, Home::Cut, &served,
                "rpc.failed rpc.ok+2 rpc.sent+3 store.read.quorum.contacts+3 store.read.quorum.ok"),
            (Quorum, Home::AheadOfS2, &newest,
                "rpc.ok+3 rpc.sent+3 store.read.quorum.contacts+3 store.read.quorum.ok"),
            (Leaderless, Home::Serving, &served, "rpc.ok+3 rpc.sent+3 store.read.leaderless.ok"),
            (Leaderless, Home::Missing, &missing, "rpc.ok+3 rpc.sent+3 store.read.leaderless.err"),
            (Leaderless, Home::Crashed, &served,
                "rpc.failed rpc.ok+2 rpc.sent+3 store.read.leaderless.ok"),
            (Leaderless, Home::Cut, &served,
                "rpc.failed rpc.ok+2 rpc.sent+3 store.read.leaderless.ok"),
            (Leaderless, Home::AheadOfS2, &union, "rpc.ok+3 rpc.sent+3 store.read.leaderless.ok"),
        ];
        for (policy, home, want, counters) in cases {
            assert_eq!(
                one_read(policy, true, home),
                (want.clone(), counters.to_owned()),
                "{policy:?}, home {home:?}"
            );
        }
    }

    #[test]
    fn retries_ride_out_lossy_links() {
        use weakset_sim::link::LinkState;
        let (mut w, c, s) = world_with(1);
        // Half the messages vanish; without retries fetches often fail.
        w.topology_mut().set_link(c, s[0], LinkState::lossy(0.5));
        let flaky = StoreClient::new(c, SimDuration::from_millis(20));
        // Each attempt must survive both directions (p = 0.25), so a
        // deep retry budget is needed to make failure negligible.
        let sturdy = flaky.clone().with_retries(25);
        sturdy
            .put_object(&mut w, s[0], ObjectRecord::new(ObjectId(1), "a", &b"x"[..]))
            .unwrap();
        let mut flaky_failures = 0;
        let mut sturdy_failures = 0;
        for _ in 0..20 {
            if flaky.fetch_object(&mut w, s[0], ObjectId(1)).is_err() {
                flaky_failures += 1;
            }
            if sturdy.fetch_object(&mut w, s[0], ObjectId(1)).is_err() {
                sturdy_failures += 1;
            }
        }
        assert!(flaky_failures > 0, "a 50% lossy link must bite sometimes");
        assert_eq!(sturdy_failures, 0, "25 retries make 50% loss negligible");
    }

    #[test]
    fn error_display() {
        assert!(StoreError::Locked.to_string().contains("read-locked"));
        assert!(StoreError::NoQuorum { got: 1, need: 2 }
            .to_string()
            .contains("1 of 2"));
        assert!(!StoreError::Locked.is_failure());
    }

    /// Four shard collections, all replicated on the same three nodes.
    fn sharded_fixture(w: &mut StoreWorld, cl: &StoreClient, s: &[NodeId]) -> Vec<CollectionRef> {
        (0..4u64)
            .map(|i| {
                let cref = CollectionRef {
                    id: CollectionId(100 + i),
                    home: s[0],
                    replicas: vec![s[1], s[2]],
                };
                cl.create_collection(w, &cref).unwrap();
                cl.add_member(w, &cref, entry(10 * i + 1, s[0])).unwrap();
                cl.add_member(w, &cref, entry(10 * i + 2, s[1])).unwrap();
                cref
            })
            .collect()
    }

    #[test]
    fn batched_read_matches_sequential_and_saves_round_trips() {
        const POLICIES: [ReadPolicy; 5] = [
            ReadPolicy::Primary,
            ReadPolicy::Any,
            ReadPolicy::Quorum,
            ReadPolicy::Leaderless,
            ReadPolicy::CausalSession,
        ];
        // Which of the three servers each fault cuts off (0 = primary).
        let faults: [(&str, &[usize]); 4] = [
            ("healthy", &[]),
            ("minority partitioned", &[2]),
            ("primary partitioned", &[0]),
            ("all down", &[0, 1, 2]),
        ];
        for policy in POLICIES {
            for (fault, cut) in faults {
                let (mut w, c, s) = world_with(3);
                let mut cl = StoreClient::new(c, SimDuration::from_millis(50));
                if policy == ReadPolicy::CausalSession {
                    cl = cl.with_session();
                }
                let shards = sharded_fixture(&mut w, &cl, &s);
                // Only the primary policy needs one particular replica.
                let expect_ok =
                    cut.len() < s.len() && !(policy == ReadPolicy::Primary && cut.contains(&0));
                let cut: Vec<NodeId> = cut.iter().map(|&i| s[i]).collect();
                w.topology_mut().partition(&cut);

                let sequential: Vec<_> = shards
                    .iter()
                    .map(|cref| cl.read_members(&mut w, cref, policy))
                    .collect();
                let rpc_before = w.metrics().counter("rpc.sent");
                let batched = cl.read_members_batched(&mut w, &shards, policy);
                let rpc_spent = w.metrics().counter("rpc.sent") - rpc_before;

                assert_eq!(sequential, batched, "{policy:?}, {fault}");
                for r in &batched {
                    assert_eq!(r.is_ok(), expect_ok, "{policy:?}, {fault}");
                }
                // One envelope per contacted node, however many shards.
                let nodes = policy.contacts(&shards[0]) as u64;
                assert_eq!(rpc_spent, nodes, "{policy:?}, {fault}");
                let key = |suffix| format!("store.read.batched.{}.{suffix}", policy.label());
                let oks = batched.iter().filter(|r| r.is_ok()).count() as u64;
                assert_eq!(w.metrics().counter(&key("ok")), oks);
                assert_eq!(w.metrics().counter(&key("err")), 4 - oks);
                assert_eq!(w.metrics().counter("net.batch.envelopes"), nodes);
                assert_eq!(w.metrics().counter("net.batch.parts"), 4 * nodes);
                assert_eq!(
                    w.metrics().counter("store.read.batched.contacts"),
                    4 * nodes
                );
            }
        }
    }

    fn read(version: u64, elems: &[u64]) -> Result<MembershipRead, StoreError> {
        Ok(MembershipRead {
            version,
            entries: elems.iter().map(|&e| entry(e, NodeId(0))).collect(),
        })
    }

    #[test]
    fn fold_newest_keeps_the_first_of_equal_versions() {
        let mut fold = ReadFold::new(ReadPolicy::Quorum.plan(), 3);
        assert!(!fold.push(read(2, &[1])));
        assert!(!fold.push(read(2, &[9])));
        assert!(!fold.push(read(1, &[7])));
        assert_eq!(fold.finish(&mut Metrics::new()), read(2, &[1]));
    }

    #[test]
    fn fold_union_merges_diverging_replies_under_the_highest_version() {
        let mut fold = ReadFold::new(ReadPolicy::Leaderless.plan(), 3);
        // One replica stale, one current, one ahead; each run sorted.
        assert!(!fold.push(read(1, &[2, 9])));
        assert!(!fold.push(read(2, &[2, 5, 9])));
        assert!(!fold.push(read(3, &[1, 5, 9, 12])));
        assert_eq!(fold.finish(&mut Metrics::new()), read(3, &[1, 2, 5, 9, 12]));
    }

    #[test]
    fn fold_union_with_every_reply_behind_reports_the_highest_floor() {
        let mut fold = ReadFold::new(ReadPolicy::CausalSession.plan(), 3);
        fold.push(Err(StoreError::SessionBehind { have: 1, need: 4 }));
        fold.push(Err(StoreError::SessionBehind { have: 3, need: 2 }));
        // A later network error does not mask the replicas that were
        // merely behind: the caller can still wait for them.
        fold.push(Err(StoreError::Net(NetError::Timeout)));
        assert_eq!(
            fold.finish(&mut Metrics::new()),
            Err(StoreError::SessionBehind { have: 3, need: 4 })
        );
    }

    #[test]
    fn fold_first_ignores_later_replies() {
        let mut fold = ReadFold::new(ReadPolicy::Any.plan(), 3);
        assert!(!fold.push(Err(StoreError::Protocol)));
        assert!(fold.push(read(1, &[5])), "the first success settles it");
        fold.push(read(9, &[6]));
        fold.push(Err(StoreError::Protocol));
        assert_eq!(fold.finish(&mut Metrics::new()), read(1, &[5]));
    }

    #[test]
    fn batched_quorum_takes_newest_and_tolerates_minority_loss() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let shards = sharded_fixture(&mut w, &cl, &s);
        // One shard's replica s[2] misses an update.
        w.topology_mut().partition(&[s[2]]);
        cl.add_member(&mut w, &shards[1], entry(99, s[0])).unwrap();
        w.topology_mut().heal_partition();
        // The minority replica down: quorum still forms everywhere and
        // shard 1 reads its newest version.
        w.topology_mut().partition(&[s[2]]);
        let reads = cl.read_members_batched(&mut w, &shards, ReadPolicy::Quorum);
        assert_eq!(reads[1].as_ref().unwrap().version, 3);
        assert_eq!(reads[1].as_ref().unwrap().entries.len(), 3);
        for r in &reads {
            assert!(r.is_ok());
        }
        // A majority gone: every shard fails with NoQuorum.
        w.topology_mut().partition(&[s[1], s[2]]);
        let reads = cl.read_members_batched(&mut w, &shards, ReadPolicy::Quorum);
        for r in reads {
            assert_eq!(r, Err(StoreError::NoQuorum { got: 1, need: 2 }));
        }
    }

    #[test]
    fn batched_leaderless_unions_and_primary_reads_home_only() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50));
        let shards = sharded_fixture(&mut w, &cl, &s);
        // Primary policy batches one request per home node only.
        let rpc_before = w.metrics().counter("rpc.sent");
        let reads = cl.read_members_batched(&mut w, &shards, ReadPolicy::Primary);
        assert_eq!(w.metrics().counter("rpc.sent") - rpc_before, 1);
        for r in &reads {
            assert_eq!(r.as_ref().unwrap().entries.len(), 2);
        }
        // Leaderless with the primary cut off still answers from the
        // secondaries, per shard.
        w.topology_mut().partition(&[s[0]]);
        let reads = cl.read_members_batched(&mut w, &shards, ReadPolicy::Leaderless);
        for r in &reads {
            assert_eq!(r.as_ref().unwrap().entries.len(), 2);
        }
        let reads = cl.read_members_batched(&mut w, &shards, ReadPolicy::Primary);
        for r in reads {
            assert!(r.unwrap_err().is_failure());
        }
    }

    #[test]
    fn session_survives_primary_isolating_partition() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50)).with_session();
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1], s[2]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        // s[2] misses the second add and goes stale at v1.
        w.topology_mut().partition(&[s[2]]);
        cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
        assert_eq!(cl.session_token().unwrap().floor(cref.id), 2);
        w.topology_mut().heal_partition();
        // Now the PRIMARY is cut off. Plain Any can serve the stale
        // replica; a session read never does — the stale replica
        // answers SessionBehind and the read redirects to s[1].
        w.topology_mut().partition(&[s[0]]);
        let read = cl
            .read_members(&mut w, &cref, ReadPolicy::CausalSession)
            .unwrap();
        assert_eq!(read.version, 2, "read-your-writes despite lost primary");
        assert_eq!(read.entries.len(), 2);
        assert!(w.metrics().counter(session_names::READ_BEHIND) >= 1);
        assert!(w.metrics().counter(session_names::READ_REDIRECT) >= 1);
    }

    #[test]
    fn session_read_waits_for_laggard_to_catch_up() {
        let (mut w, c, s) = world_with(2);
        let cl = StoreClient::new(c, SimDuration::from_millis(100)).with_session();
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        // The replica misses the second add, then the primary vanishes:
        // every reachable replica is now behind the session.
        w.topology_mut().partition(&[s[1]]);
        cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
        w.topology_mut().heal_partition();
        w.topology_mut().partition(&[s[0]]);
        // Replication catches the laggard up 20ms from now.
        let replica = s[1];
        let coll = cref.id;
        let members = Membership::from(vec![entry(1, s[0]), entry(2, s[0])]);
        let catch_up = move |rt: &mut (dyn Runtime<StoreMsg> + 'static)| {
            rt.with_service_mut(replica, |srv: &mut StoreServer| {
                srv.apply(StoreMsg::SyncMembers {
                    coll,
                    version: 2,
                    step: SyncStep::Full(members.clone()),
                });
            });
            Wake::Never
        };
        w.spawn_in(SimDuration::from_millis(20), Box::new(TaskFn(catch_up)));
        let read = cl
            .read_members(&mut w, &cref, ReadPolicy::CausalSession)
            .unwrap();
        assert_eq!(read.version, 2, "the read blocked until catch-up");
        assert_eq!(read.entries.len(), 2);
        assert!(w.metrics().counter(session_names::READ_BEHIND) >= 1);
        assert_eq!(w.metrics().counter(session_names::READ_GAVE_UP), 0);
        assert!(w.metrics().latency(session_names::READ_WAIT_US).is_some());
    }

    #[test]
    fn session_read_fails_rather_than_serving_stale() {
        let (mut w, c, s) = world_with(2);
        let cl = StoreClient::new(c, SimDuration::from_millis(30)).with_session();
        let cref = CollectionRef {
            id: CollectionId(1),
            home: s[0],
            replicas: vec![s[1]],
        };
        cl.create_collection(&mut w, &cref).unwrap();
        cl.add_member(&mut w, &cref, entry(1, s[0])).unwrap();
        w.topology_mut().partition(&[s[1]]);
        cl.add_member(&mut w, &cref, entry(2, s[0])).unwrap();
        w.topology_mut().heal_partition();
        w.topology_mut().partition(&[s[0]]);
        // No catch-up ever arrives: after the timeout the session read
        // surfaces the paper's failure exception instead of stale data.
        let err = cl
            .read_members(&mut w, &cref, ReadPolicy::CausalSession)
            .unwrap_err();
        assert_eq!(err, StoreError::SessionBehind { have: 1, need: 2 });
        assert!(err.is_failure());
        assert!(w.metrics().counter(session_names::READ_GAVE_UP) >= 1);
        // A plain Any read happily serves the stale replica — that gap
        // is exactly what the session token closes.
        let stale = cl.read_members(&mut w, &cref, ReadPolicy::Any).unwrap();
        assert_eq!(stale.version, 1);
    }

    #[test]
    fn batched_session_reads_stay_monotonic_across_shards() {
        let (mut w, c, s) = world_with(3);
        let cl = StoreClient::new(c, SimDuration::from_millis(50)).with_session();
        let shards = sharded_fixture(&mut w, &cl, &s);
        // Shard 1 gains a member that replica s[2] misses.
        w.topology_mut().partition(&[s[2]]);
        cl.add_member(&mut w, &shards[1], entry(99, s[0])).unwrap();
        w.topology_mut().heal_partition();
        assert_eq!(cl.session_token().unwrap().floor(shards[1].id), 3);
        // The batched fan-out gates each shard part independently: the
        // stale replica answers SessionBehind for shard 1 only, and the
        // union from the fresh replicas satisfies the session.
        let reads = cl.read_members_batched(&mut w, &shards, ReadPolicy::CausalSession);
        for (i, r) in reads.iter().enumerate() {
            let r = r.as_ref().unwrap();
            let expect = if i == 1 { 3usize } else { 2 };
            assert_eq!(r.version, expect as u64, "shard {i}");
            assert_eq!(r.entries.len(), expect, "shard {i}");
        }
        assert!(w.metrics().counter(session_names::READ_BEHIND) >= 1);
        // Shard 1's read was redirected past the stale replica, and no
        // other shard's was.
        assert_eq!(w.metrics().counter(session_names::READ_REDIRECT), 1);
        // Sequential session reads see exactly the same memberships:
        // the batched path is an optimisation, not a semantic change.
        let sequential: Vec<_> = shards
            .iter()
            .map(|cref| {
                cl.read_members(&mut w, cref, ReadPolicy::CausalSession)
                    .unwrap()
            })
            .collect();
        for (seq, bat) in sequential.iter().zip(&reads) {
            assert_eq!(Ok(seq), bat.as_ref());
        }
        // ... and count the one redirect the same way.
        assert_eq!(w.metrics().counter(session_names::READ_REDIRECT), 2);
    }
}
