//! The one `elements` engine: every point of the paper's design space is
//! a row of [`Semantics::plan`], and [`Elements`] is the state machine
//! that row drives.

use super::{order_candidates, outcome_of, IterConfig, Window};
use crate::conformance::{HistorySource, RunObserver, StepEvidence};
use crate::error::{Failure, IterStep};
use crate::semantics::Semantics;
use std::collections::BTreeSet;
use weakset_sim::metrics::TraceContext;
use weakset_sim::time::SimDuration;
use weakset_spec::prelude::Computation;
use weakset_store::cache::ObjectCache;
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreError, StoreRt};

/// What a run holds at each of its collections' primaries while it lasts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Hold {
    /// Nothing: writers proceed while the run is live.
    Nothing,
    /// §3.1's read lock: every membership mutation is refused until the
    /// run terminates, making the set immutable *for the duration of the
    /// run*.
    ReadLock,
    /// §3.3's grow guard, taken only when [`IterConfig::guard_growth`]
    /// asks: removals are accepted but deferred ("ghosts") until the run
    /// terminates, so the set only grows while it is iterated.
    GrowGuard,
}

/// One semantics as data: the places where the paper's figures differ,
/// and what the run is called in spans and metrics.
#[derive(Debug)]
pub(crate) struct IterPlan {
    /// The checked figure's key, as `Figure::key` spells it.
    fig: &'static str,
    /// Read the membership once, on the first invocation, and drain that
    /// (additions after it are missed, removals may still be yielded);
    /// otherwise every invocation consults the current membership.
    pin: bool,
    hold: Hold,
    /// What an invocation does when nothing unyielded is reachable (or
    /// the membership cannot be read): retry — up to
    /// [`IterConfig::block_attempts`] rounds,
    /// [`IterConfig::retry_interval`] apart — and then report
    /// [`IterStep::Blocked`], never failing; otherwise one round, then a
    /// terminal [`IterStep::Failed`]. Either way, a run whose last read
    /// left nothing unyielded first waits out an unreadable membership
    /// ([`DRAINED_WAITS`]), spending no rounds.
    pub(crate) retry: bool,
    span: &'static str,
    latency: &'static str,
    yielded: &'static str,
    returned: &'static str,
    failed: &'static str,
    blocked: &'static str,
}

/// An [`IterPlan`] with every name derived from the figure key.
macro_rules! iter_plan {
    ($fig:literal, pin: $pin:literal, $hold:ident, retry: $retry:literal) => {
        IterPlan {
            fig: $fig,
            pin: $pin,
            hold: Hold::$hold,
            retry: $retry,
            span: concat!("iter.", $fig, ".invocation"),
            latency: concat!("iter.", $fig, ".invocation_us"),
            yielded: concat!("iter.", $fig, ".yielded"),
            returned: concat!("iter.", $fig, ".returned"),
            failed: concat!("iter.", $fig, ".failed"),
            blocked: concat!("iter.", $fig, ".blocked"),
        }
    };
}

impl Semantics {
    /// The plan table: everything that distinguishes one figure's
    /// iterator from another's.
    pub(crate) fn plan(self) -> &'static IterPlan {
        match self {
            Semantics::Locked => &iter_plan!("fig3", pin: true, ReadLock, retry: false),
            Semantics::Snapshot => &iter_plan!("fig4", pin: true, Nothing, retry: false),
            Semantics::GrowOnly => &iter_plan!("fig5", pin: false, GrowGuard, retry: false),
            Semantics::Optimistic => &iter_plan!("fig6", pin: false, Nothing, retry: true),
        }
    }
}

/// The patience of [`crate::handle::WeakSet::collect`]: consecutive
/// blocked invocations before it gives up.
pub(crate) const COLLECT_MAX_BLOCKS: usize = 3;

/// How often a Fig. 5/6 invocation whose last read left nothing
/// unyielded re-reads an unreadable membership, [`DRAINED_WAIT`] apart,
/// before the figure's usual step: only `returns` is left, and it needs a
/// read (DESIGN.md §5). 400 × 5 ms is the fuzz driver's own patience.
pub(crate) const DRAINED_WAITS: usize = 400;
pub(crate) const DRAINED_WAIT: SimDuration = SimDuration::from_millis(5);

/// An open `elements` iterator, at any point of the design space.
///
/// Every invocation has the same skeleton — find the membership, pick an
/// unyielded member, fetch its object from its home node, yield it — and
/// the run's [`Semantics`] decides the rest. The membership is one
/// collection's, or the union of several ([`Elements::union`], a sharded
/// set's shards): a read then reads each collection in turn and fails at
/// the first that fails, a pinning plan pins the union, and a hold is
/// taken on every collection in the first invocation and given back on
/// all of them.
///
/// * **Locked** (the strong baseline §3.1 warns about) takes a read lock
///   on the primary before reading the membership and holds it until the
///   run terminates. "Typical implementations would use locks to
///   synchronize access to the set and its elements", and mobile or
///   disconnected clients "may extend the period a lock is held
///   indefinitely": drive the run to completion or call
///   [`Elements::abort`]; dropping it mid-run leaks the lock — exactly
///   the disconnection hazard, and measurable in the experiments.
/// * **Snapshot** (Figures 1/3/4) reads the membership once, atomically,
///   on the first invocation and drains that: additions after it are
///   missed and removals may still be yielded ("loss of mutations").
/// * **GrowOnly** (Figure 5) re-reads the membership on every
///   invocation, so concurrent additions are picked up (the set may grow
///   faster than the run drains it: termination is not guaranteed). The
///   grow-only *constraint* is the environment's obligation — against a
///   shrinking set the checker flags the constraint, not the iterator —
///   unless [`IterConfig::guard_growth`] makes the run hold §3.3's guard.
/// * **Optimistic** (Figure 6, the authors' dynamic sets) re-reads too
///   and **never signals failure**: it retries, then reports
///   [`IterStep::Blocked`] "with the expectation that in a later
///   invocation inaccessible objects will become accessible again" (§3);
///   calling `next` again resumes the wait.
///
/// The other three are pessimistic: the first invocation that finds the
/// membership unreadable, or every unyielded member unreachable, fails
/// the run: "unreachable" means that the invocation's own fetches, up to
/// [`IterConfig::window`] at a time, reached no unyielded member. Before
/// failing or blocking, a GrowOnly or Optimistic run whose last read left
/// nothing unyielded waits out an unreadable membership inside the
/// invocation (400 re-reads, 5 ms apart), spending no
/// [`IterConfig::block_attempts`]: only `returns` is left, and it needs a
/// read.
#[derive(Debug)]
pub struct Elements {
    semantics: Semantics,
    client: StoreClient,
    /// The collections whose union the run reads and holds, in order;
    /// empty only for a [`Elements::pinned`] run, which does neither.
    crefs: Vec<CollectionRef>,
    config: IterConfig,
    /// Each collection's membership as the run's last successful read
    /// returned it, in `crefs` order, and the version it was at.
    reads: Vec<Membership>,
    versions: Vec<u64>,
    /// `reads` is a pinning plan's, read by the first invocation or
    /// handed to [`Elements::pinned`], and is never read again.
    pinned: bool,
    /// Fetches in flight across invocations, and the members the run
    /// failed to reach.
    window: Window,
    yielded: BTreeSet<ObjectId>,
    /// The last membership read held one unyielded member, now yielded.
    drained: bool,
    terminated: bool,
    /// How many of `crefs`, from the first, currently count this run
    /// among the holders of the plan's lock or guard at their primary —
    /// as far as the client knows.
    held: usize,
    cache: Option<ObjectCache>,
    observer: Option<RunObserver>,
    /// Causal context of the computation's trace root (the first
    /// invocation's span); later invocations parent under it.
    trace: Option<TraceContext>,
}

impl Elements {
    /// Creates the iterator; nothing is locked or read until the first
    /// `next`.
    pub fn new(
        semantics: Semantics,
        client: StoreClient,
        cref: CollectionRef,
        config: IterConfig,
    ) -> Self {
        Self::union(semantics, client, vec![cref], config)
    }

    /// An iterator over the union of `crefs`, one logical set whose
    /// collections share no element (a sharded set's shards).
    pub fn union(
        semantics: Semantics,
        client: StoreClient,
        crefs: Vec<CollectionRef>,
        config: IterConfig,
    ) -> Self {
        Elements {
            semantics,
            client,
            crefs,
            cache: config.cache_ttl.map(ObjectCache::new),
            config,
            reads: Vec::new(),
            versions: Vec::new(),
            pinned: false,
            window: Window::default(),
            yielded: BTreeSet::new(),
            drained: false,
            terminated: false,
            held: 0,
            observer: None,
            trace: None,
        }
    }

    /// A [`Semantics::Snapshot`] run over a membership the caller already
    /// holds, pinned as the first invocation's read would be (Figure 4's
    /// first state). `read` is the collection and version it came from,
    /// if one: a run that has them can be observed and judged, one without
    /// reads and holds no collection.
    pub fn pinned(
        client: StoreClient,
        members: Membership,
        read: Option<(CollectionRef, u64)>,
        config: IterConfig,
    ) -> Self {
        let (cref, version) = read.unzip();
        Elements {
            reads: vec![members],
            versions: version.into_iter().collect(),
            pinned: true,
            ..Self::union(
                Semantics::Snapshot,
                client,
                cref.into_iter().collect(),
                config,
            )
        }
    }

    /// Which semantics this iterator provides.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Attaches a conformance observer to this run.
    pub fn observe(&mut self, observer: RunObserver) {
        self.observer = Some(observer);
    }

    /// This run with an observer of every collection it reads attached,
    /// reading their history through `source`.
    #[must_use]
    pub fn observed(mut self, source: HistorySource) -> Self {
        let observer = RunObserver::union(&self.crefs, self.client.node());
        self.observe(observer.with_history_source(source));
        self
    }

    /// Finishes observation and returns the recorded computation, if an
    /// observer was attached.
    pub fn take_computation(&mut self, world: &StoreRt) -> Option<Computation> {
        self.observer.take().map(|obs| obs.finish(world))
    }

    /// Detaches the live observer so a *subsequent* run can keep
    /// recording into the same computation (multi-run checking).
    pub fn take_observer(&mut self) -> Option<RunObserver> {
        self.observer.take()
    }

    /// Hands the warm object cache to a subsequent run (the paper's
    /// history-object-as-cache, persisted across uses of the iterator).
    pub fn take_cache(&mut self) -> Option<ObjectCache> {
        self.cache.take()
    }

    /// Installs a (possibly pre-warmed) object cache.
    pub fn set_cache(&mut self, cache: ObjectCache) {
        self.cache = Some(cache);
    }

    /// Elements yielded so far.
    pub fn yielded(&self) -> &BTreeSet<ObjectId> {
        &self.yielded
    }

    /// Whether this run currently holds its semantics' read lock or grow
    /// guard at its collections' primaries.
    pub fn holds(&self) -> bool {
        self.held > 0
    }

    /// Releases whatever the run holds and terminates it without
    /// consuming the remaining elements; `next` answers
    /// [`IterStep::Done`] from here on.
    pub fn abort(&mut self, world: &mut StoreRt) {
        self.terminated = true;
        self.release(world);
    }

    /// Drives the iterator until it terminates or blocks `max_blocks`
    /// consecutive times, sleeping `wait` between blocked invocations (a
    /// yield resets the count). Returns the records yielded and the final
    /// step.
    pub fn drain(
        &mut self,
        world: &mut StoreRt,
        max_blocks: usize,
        wait: SimDuration,
    ) -> (Vec<ObjectRecord>, IterStep) {
        let mut out = Vec::new();
        let mut blocks = 0;
        loop {
            match self.next(world) {
                IterStep::Yielded(rec) => {
                    blocks = 0;
                    out.push(rec);
                }
                IterStep::Blocked => {
                    blocks += 1;
                    if blocks >= max_blocks {
                        return (out, IterStep::Blocked);
                    }
                    world.sleep(wait);
                }
                step => return (out, step),
            }
        }
    }

    /// One invocation: yield an unyielded member, terminate, fail or
    /// block, as the semantics allows. Calling again after termination
    /// returns [`IterStep::Done`].
    ///
    /// Each call records per-figure observability: an
    /// `iter.<fig>.invocation_us` latency sample plus a counter for the
    /// paper's `terminates` outcome it produced
    /// (`yielded`/`returned`/`failed`/`blocked`).
    ///
    /// Each invocation also opens an `iter.<fig>.invocation` causal
    /// span: the first invocation roots the computation's trace, later
    /// invocations parent under that root (or under whatever span the
    /// caller has open), so every store read and RPC the step performs —
    /// on every collection of a union — joins one cross-node span tree.
    pub fn next(&mut self, world: &mut StoreRt) -> IterStep {
        let started = world.now();
        let plan = self.semantics.plan();
        let span = if world.current_ctx().is_some() {
            world.span_enter(plan.span, &String::new)
        } else {
            world.span_enter_under(self.trace, plan.span, &String::new)
        };
        if self.trace.is_none() {
            self.trace = world.current_ctx();
        }
        let step = self.step(world);
        let fig = plan.fig;
        world.trace_event("iter.outcome", &|| match &step {
            IterStep::Yielded(rec) => format!("{fig} yielded elem={}", rec.id),
            IterStep::Done => format!("{fig} returned"),
            IterStep::Failed(f) => format!("{fig} failed: {f}"),
            IterStep::Blocked => format!("{fig} blocked"),
        });
        world.span_exit(span);
        let elapsed = world.now().saturating_since(started).as_micros();
        let m = world.metrics_mut();
        m.observe(plan.latency, elapsed);
        m.incr(match &step {
            IterStep::Yielded(_) => plan.yielded,
            IterStep::Done => plan.returned,
            IterStep::Failed(_) => plan.failed,
            IterStep::Blocked => plan.blocked,
        });
        step
    }

    /// Takes the plan's hold at every collection's primary, in order,
    /// once per run. The store refuses nothing here, so an error is a
    /// communication failure.
    fn acquire(&mut self, world: &mut StoreRt) -> Result<(), StoreError> {
        let hold = match self.semantics.plan().hold {
            Hold::GrowGuard if !self.config.guard_growth => return Ok(()),
            hold => hold,
        };
        while let Some(cref) = self.crefs.get(self.held) {
            match hold {
                Hold::ReadLock => self.client.acquire_read_lock(world, cref)?,
                Hold::GrowGuard => self.client.acquire_grow_guard(world, cref)?,
                Hold::Nothing => return Ok(()),
            }
            self.held += 1;
        }
        Ok(())
    }

    /// Gives every hold back. Best effort: if a primary is unreachable
    /// the lock or guard leaks there until the run's owner reconnects
    /// (§3.1's hazard) — the client only *thinks* it released.
    fn release(&mut self, world: &mut StoreRt) {
        let held = std::mem::take(&mut self.held);
        for cref in &self.crefs[..held] {
            let _ = match self.semantics.plan().hold {
                Hold::ReadLock => self.client.release_read_lock(world, cref),
                Hold::GrowGuard => self.client.release_grow_guard(world, cref),
                Hold::Nothing => Ok(()),
            };
        }
    }

    /// Records `step` with the versions of the run's last read, if this
    /// invocation read (or holds pinned) the membership.
    fn record(&mut self, world: &StoreRt, step: &IterStep, evidence: &StepEvidence) {
        if let Some(obs) = &mut self.observer {
            let versions = if evidence.membership_unreachable {
                &[]
            } else {
                &self.versions[..]
            };
            obs.record_step(world, outcome_of(step), versions, evidence);
        }
    }

    /// Ends the run on `step`. A grow guard is released *after* the step
    /// is recorded: the run ends at its terminal step, and the removals
    /// the guard deferred land after it, outside the run (DESIGN.md §5).
    /// A read lock is still released before the step is recorded; which
    /// order Fig. 3 wants is open (ROADMAP item 2).
    fn terminate(
        &mut self,
        world: &mut StoreRt,
        step: IterStep,
        evidence: &StepEvidence,
    ) -> IterStep {
        self.terminated = true;
        if self.semantics.plan().hold == Hold::GrowGuard {
            self.record(world, &step, evidence);
            self.release(world);
        } else {
            self.release(world);
            self.record(world, &step, evidence);
        }
        step
    }

    /// Makes `reads` the membership this invocation consults: the pinned
    /// one, or a fresh read of every collection in turn (which a pinning
    /// plan then keeps). The first read that fails fails the whole read,
    /// and the last successful one stands.
    fn read(&mut self, world: &mut StoreRt) -> Result<(), StoreError> {
        if self.pinned {
            return Ok(());
        }
        // This read goes after the last one until it succeeds.
        let last = self.reads.len();
        for cref in &self.crefs {
            match self
                .client
                .read_members(world, cref, self.config.read_policy)
            {
                Ok(read) => {
                    self.versions.push(read.version);
                    self.reads.push(read.entries);
                }
                Err(e) => {
                    self.versions.truncate(last);
                    self.reads.truncate(last);
                    return Err(e);
                }
            }
        }
        self.versions.drain(..last);
        self.reads.drain(..last);
        self.pinned = self.semantics.plan().pin;
        Ok(())
    }

    /// One membership-read/fetch round. `Ok` is the invocation's step,
    /// already recorded; `Err` says why nothing could be yielded, with
    /// what the round learned folded into `evidence` — which is sticky
    /// across rounds: the versions and the unreachable members come from
    /// the last round that got that far, and the membership counts as
    /// unreachable only if no round read it.
    fn round(
        &mut self,
        world: &mut StoreRt,
        evidence: &mut StepEvidence,
    ) -> Result<IterStep, Failure> {
        self.read(world).map_err(Failure::MembershipUnavailable)?;
        evidence.membership_unreachable = false;
        let mut candidates: Vec<MemberEntry> = (self.reads.iter().flatten())
            .filter(|m| !self.yielded.contains(&m.elem))
            .copied()
            .collect();
        if candidates.is_empty() {
            return Ok(self.terminate(world, IterStep::Done, &StepEvidence::default()));
        }
        order_candidates(
            world,
            self.client.node(),
            &mut candidates,
            self.config.fetch_order,
        );
        let (found, unreachable) = self.window.first_arrival(
            world,
            &self.client,
            self.config.window.max(1),
            &candidates,
            &mut self.cache,
        );
        evidence.confirmed_unreachable = unreachable;
        self.drained = found.is_some() && candidates.len() == 1;
        let Some(rec) = found else {
            return Err(Failure::MembersUnreachable {
                remaining: candidates.len(),
            });
        };
        self.yielded.insert(rec.id);
        evidence.confirmed_reachable = vec![rec.id];
        let step = IterStep::Yielded(rec);
        self.record(world, &step, evidence);
        Ok(step)
    }

    /// The uninstrumented invocation behind [`Elements::next`].
    fn step(&mut self, world: &mut StoreRt) -> IterStep {
        if self.terminated {
            return IterStep::Done;
        }
        if let Some(obs) = &mut self.observer {
            obs.mark_invocation_start(world);
        }
        let mut evidence = StepEvidence {
            membership_unreachable: true,
            ..Default::default()
        };
        if let Err(e) = self.acquire(world) {
            return self.terminate(world, IterStep::Failed(Failure::Store(e)), &evidence);
        }
        let retry = self.semantics.plan().retry;
        let mut left = if retry {
            self.config.block_attempts.max(1)
        } else {
            1
        };
        let mut waits = DRAINED_WAITS;
        let failure = loop {
            match self.round(world, &mut evidence) {
                Ok(step) => return step,
                // Only `returns` is left, and it needs a read.
                Err(Failure::MembershipUnavailable(_)) if self.drained && waits > 0 => {
                    waits -= 1;
                    world.sleep(DRAINED_WAIT);
                }
                Err(failure) => {
                    left -= 1;
                    if left == 0 {
                        break failure;
                    }
                    // Optimistic: maybe next round.
                    world.sleep(self.config.retry_interval);
                }
            }
        };
        if retry {
            self.record(world, &IterStep::Blocked, &evidence);
            IterStep::Blocked
        } else {
            self.terminate(world, IterStep::Failed(failure), &evidence)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::FetchOrder;
    use weakset_sim::fault::FaultPlan;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::node::NodeId;
    use weakset_sim::time::SimTime;
    use weakset_sim::topology::Topology;
    use weakset_spec::checker::{check_computation, Checker, Figure};
    use weakset_spec::constraint::ConstraintKind;
    use weakset_spec::specs::fig6;
    use weakset_store::object::CollectionId;
    use weakset_store::prelude::{StoreServer, StoreWorld};

    fn setup(n: usize) -> (StoreWorld, StoreClient, CollectionRef, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n);
        let mut w = StoreWorld::new(11, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(50));
        let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        (w, client, cref, servers)
    }

    fn add(w: &mut StoreWorld, client: &StoreClient, cref: &CollectionRef, id: u64, home: NodeId) {
        client
            .put_object(
                w,
                home,
                ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]),
            )
            .unwrap();
        client.add_member(w, cref, member(id, home)).unwrap();
    }

    fn member(id: u64, home: NodeId) -> MemberEntry {
        MemberEntry {
            elem: ObjectId(id),
            home,
        }
    }

    /// Every name in the plan table is spelled from the key of the
    /// figure the semantics is checked against.
    #[test]
    fn plan_names_follow_the_figure_key() {
        for sem in Semantics::ALL {
            let (plan, fig) = (sem.plan(), sem.figure().key());
            assert_eq!(plan.fig, fig);
            assert_eq!(plan.span, format!("iter.{fig}.invocation"));
            assert_eq!(plan.latency, format!("iter.{fig}.invocation_us"));
            assert_eq!(plan.yielded, format!("iter.{fig}.yielded"));
            assert_eq!(plan.returned, format!("iter.{fig}.returned"));
            assert_eq!(plan.failed, format!("iter.{fig}.failed"));
            assert_eq!(plan.blocked, format!("iter.{fig}.blocked"));
        }
    }

    // ---- Locked ----

    #[test]
    fn iterates_under_lock_and_releases() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = Elements::new(
            Semantics::Locked,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        assert!(it.holds());
        // A writer is refused while the run is live.
        let writer = StoreClient::new(client.node(), SimDuration::from_millis(50));
        assert_eq!(
            writer.add_member(&mut w, &cref, member(9, servers[0])),
            Err(StoreError::Locked)
        );
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert!(!it.holds());
        // Writer succeeds after release.
        assert!(writer
            .add_member(&mut w, &cref, member(9, servers[0]))
            .is_ok());
        // The run conforms to Figure 3 with the relaxed per-run constraint
        // (mutations happened after the run ended).
        let comp = it.take_computation(&w).unwrap();
        Checker::new(Figure::Fig3)
            .with_constraint(ConstraintKind::ImmutableDuringRuns)
            .check(&comp)
            .assert_ok();
    }

    #[test]
    fn lock_failure_fails_run() {
        let (mut w, client, cref, servers) = setup(1);
        w.topology_mut().crash(servers[0]);
        let mut it = Elements::new(Semantics::Locked, client, cref, IterConfig::default());
        assert!(matches!(
            it.next(&mut w),
            IterStep::Failed(Failure::Store(_))
        ));
        assert!(!it.holds());
    }

    #[test]
    fn abort_releases_early() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = Elements::new(
            Semantics::Locked,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        it.abort(&mut w);
        assert!(!it.holds());
        assert_eq!(it.next(&mut w), IterStep::Done);
        let writer = StoreClient::new(client.node(), SimDuration::from_millis(50));
        assert!(writer
            .add_member(&mut w, &cref, member(9, servers[0]))
            .is_ok());
    }

    #[test]
    fn disconnection_leaks_lock_and_stalls_writers() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = Elements::new(
            Semantics::Locked,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        // Element 2's node vanishes: the run fails... and releases. To
        // model a *client* disconnection leaking the lock, partition the
        // client right before release: the release RPC fails silently.
        w.topology_mut().partition(&[client.node()]);
        let step = it.next(&mut w);
        assert!(matches!(step, IterStep::Failed(_)));
        assert!(!it.holds()); // client *thinks* it released
        w.topology_mut().heal_partition();
        // But the primary never heard the release: writers still stall.
        let writer = StoreClient::new(servers[1], SimDuration::from_millis(50));
        assert_eq!(
            writer.add_member(&mut w, &cref, member(9, servers[0])),
            Err(StoreError::Locked)
        );
    }

    // ---- Snapshot ----

    #[test]
    fn drains_the_set_and_returns() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = Elements::new(
            Semantics::Snapshot,
            client,
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, it.client.node()));
        let mut got = Vec::new();
        loop {
            match it.next(&mut w) {
                IterStep::Yielded(rec) => got.push(rec.id.0),
                IterStep::Done => break,
                other => panic!("unexpected step {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig1, &comp).assert_ok();
        check_computation(Figure::Fig3, &comp).assert_ok();
        check_computation(Figure::Fig4, &comp).assert_ok();
    }

    #[test]
    fn misses_additions_after_first_invocation() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        let mut it = Elements::new(
            Semantics::Snapshot,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        // Concurrent addition: snapshot semantics must not see it.
        add(&mut w, &client, &cref, 2, servers[0]);
        assert_eq!(it.next(&mut w), IterStep::Done);
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig4, &comp).assert_ok();
        // Figure 5 rejects the early return (2 is a current member).
        assert!(!check_computation(Figure::Fig5, &comp).is_ok());
    }

    #[test]
    fn yields_removed_members_ghosts() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = Elements::new(
            Semantics::Snapshot,
            client.clone(),
            cref.clone(),
            IterConfig {
                fetch_order: FetchOrder::IdOrder,
                ..Default::default()
            },
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));
        // Remove membership of 2 (object stays): the snapshot still
        // yields it — a lost deletion.
        client.remove_member(&mut w, &cref, ObjectId(2)).unwrap();
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(2)));
        assert_eq!(it.next(&mut w), IterStep::Done);
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig4, &comp).assert_ok();
    }

    #[test]
    fn fails_when_remaining_members_unreachable() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = Elements::new(
            Semantics::Snapshot,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        w.topology_mut().partition(&[servers[1]]);
        // Wait: elem 2 lives on servers[1] which is now unreachable; the
        // home (servers[0]) still answers membership reads... the snapshot
        // is already taken anyway.
        let step = it.next(&mut w);
        assert!(
            matches!(
                step,
                IterStep::Failed(Failure::MembersUnreachable { remaining: 1 })
            ),
            "{step:?}"
        );
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig3, &comp).assert_ok();
        check_computation(Figure::Fig4, &comp).assert_ok();
    }

    #[test]
    fn membership_unavailable_fails_immediately() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        w.topology_mut().partition(&[servers[0]]);
        let mut it = Elements::new(
            Semantics::Snapshot,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        let step = it.next(&mut w);
        assert!(matches!(
            step,
            IterStep::Failed(Failure::MembershipUnavailable(_))
        ));
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig3, &comp).assert_ok();
    }

    #[test]
    fn terminated_iterator_is_fused() {
        let (mut w, client, cref, _servers) = setup(1);
        let mut it = Elements::new(Semantics::Snapshot, client, cref, IterConfig::default());
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert!(it.yielded().is_empty());
    }

    #[test]
    fn heal_mid_run_lets_it_finish() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = Elements::new(
            Semantics::Snapshot,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        w.topology_mut().partition(&[servers[1]]);
        w.topology_mut().heal_partition();
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        assert_eq!(it.next(&mut w), IterStep::Done);
    }

    // ---- GrowOnly ----

    #[test]
    fn picks_up_concurrent_growth() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        let mut it = Elements::new(
            Semantics::GrowOnly,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));
        // Growth between invocations — unlike the snapshot iterator, this
        // one must yield the new member.
        add(&mut w, &client, &cref, 2, servers[0]);
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(2)));
        assert_eq!(it.next(&mut w), IterStep::Done);
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig5, &comp).assert_ok();
        check_computation(Figure::Fig6, &comp).assert_ok();
    }

    #[test]
    fn fails_pessimistically_when_member_unreachable() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = Elements::new(
            Semantics::GrowOnly,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        w.topology_mut().partition(&[servers[1]]);
        assert!(matches!(
            it.next(&mut w),
            IterStep::Failed(Failure::MembersUnreachable { .. })
        ));
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig5, &comp).assert_ok();
    }

    #[test]
    fn membership_read_failure_fails_run() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        w.topology_mut().crash(servers[0]);
        let mut it = Elements::new(
            Semantics::GrowOnly,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(
            it.next(&mut w),
            IterStep::Failed(Failure::MembershipUnavailable(_))
        ));
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig5, &comp).assert_ok();
    }

    #[test]
    fn producer_outpaces_iterator_without_termination() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        let mut it = Elements::new(
            Semantics::GrowOnly,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        // Producer adds one element per consumed element for 10 rounds:
        // the iterator keeps yielding, never terminating.
        let mut yields = 0;
        for i in 0..10u64 {
            match it.next(&mut w) {
                IterStep::Yielded(_) => yields += 1,
                other => panic!("unexpected {other:?}"),
            }
            add(&mut w, &client, &cref, i + 2, servers[0]);
        }
        assert_eq!(yields, 10);
        // Once the producer stops, the iterator drains and terminates.
        let mut done = false;
        for _ in 0..5 {
            if it.next(&mut w) == IterStep::Done {
                done = true;
                break;
            }
        }
        assert!(done);
    }

    #[test]
    fn empty_set_returns_immediately() {
        let (mut w, client, cref, _servers) = setup(1);
        let mut it = Elements::new(
            Semantics::GrowOnly,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert_eq!(it.next(&mut w), IterStep::Done);
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig5, &comp).assert_ok();
    }

    #[test]
    fn shrinking_set_breaks_constraint_not_iterator() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = Elements::new(
            Semantics::GrowOnly,
            client.clone(),
            cref.clone(),
            IterConfig {
                fetch_order: FetchOrder::IdOrder,
                ..Default::default()
            },
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));
        // The environment violates grow-only by removing a member.
        client.remove_member(&mut w, &cref, ObjectId(2)).unwrap();
        assert_eq!(it.next(&mut w), IterStep::Done);
        let comp = it.take_computation(&w).unwrap();
        let conf = check_computation(Figure::Fig5, &comp);
        assert!(!conf.is_ok());
        assert!(conf
            .violations
            .iter()
            .any(|v| matches!(v, weakset_spec::checker::Violation::Constraint(_))));
        // Under Figure 6 (no constraint) the same run conforms.
        check_computation(Figure::Fig6, &comp).assert_ok();
    }

    // ---- Optimistic ----

    #[test]
    fn blocks_under_partition_then_resumes_after_heal() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = Elements::new(
            Semantics::Optimistic,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        // Partition away the node holding element 2, healing later.
        w.topology_mut().partition(&[servers[1]]);
        let heal_at = w.now() + SimDuration::from_secs(1);
        w.install_plan(&FaultPlan::none().heal_at(heal_at));
        // First invocation under partition blocks (no failure!).
        assert_eq!(it.next(&mut w), IterStep::Blocked);
        // Keep resuming: after the heal the element arrives.
        let (got, end) = it.drain(&mut w, 50, SimDuration::from_millis(100));
        assert_eq!(end, IterStep::Done);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, ObjectId(2));
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig6, &comp).assert_ok();
        for run in &comp.runs {
            assert!(fig6::yields_were_members(&comp, run));
        }
    }

    #[test]
    fn sees_both_growth_and_shrinkage() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = Elements::new(
            Semantics::Optimistic,
            client.clone(),
            cref.clone(),
            IterConfig {
                fetch_order: FetchOrder::IdOrder,
                ..Default::default()
            },
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));
        // Concurrent: remove 2, add 3.
        client.remove_member(&mut w, &cref, ObjectId(2)).unwrap();
        add(&mut w, &client, &cref, 3, servers[0]);
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(3)));
        assert_eq!(it.next(&mut w), IterStep::Done);
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig6, &comp).assert_ok();
        // The pessimistic figures reject this history (constraint).
        assert!(!check_computation(Figure::Fig5, &comp).is_ok());
    }

    #[test]
    fn never_fails_even_when_everything_is_down() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        w.topology_mut().crash(servers[0]);
        let mut it = Elements::new(
            Semantics::Optimistic,
            client.clone(),
            cref.clone(),
            IterConfig::default(),
        );
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        for _ in 0..3 {
            assert_eq!(it.next(&mut w), IterStep::Blocked);
        }
        let comp = it.take_computation(&w).unwrap();
        check_computation(Figure::Fig6, &comp).assert_ok();
    }

    #[test]
    fn empty_set_terminates() {
        let (mut w, client, cref, _servers) = setup(1);
        let mut it = Elements::new(Semantics::Optimistic, client, cref, IterConfig::default());
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert_eq!(it.next(&mut w), IterStep::Done);
    }

    #[test]
    fn retry_budget_advances_simulated_time() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        w.topology_mut().partition(&[servers[0]]);
        let cfg = IterConfig {
            block_attempts: 4,
            retry_interval: SimDuration::from_millis(10),
            ..Default::default()
        };
        let mut it = Elements::new(Semantics::Optimistic, client, cref, cfg);
        let before = w.now();
        assert_eq!(it.next(&mut w), IterStep::Blocked);
        // 3 sleeps of 10ms plus 4 failure detections of 2ms each.
        assert!(
            w.now() >= before + SimDuration::from_millis(30),
            "{}",
            w.now()
        );
        assert!(w.now() < SimTime::from_secs(1));
    }

    // ---- Every member yielded, the membership unreadable (Figs. 5, 6) ----

    /// A run that has yielded the only member of a one-server set, whose
    /// home is then cut from the client.
    fn drained_then_cut(semantics: Semantics) -> (StoreWorld, Elements) {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        let observer = RunObserver::new(cref.id, cref.home, client.node());
        let mut it = Elements::new(semantics, client, cref, IterConfig::default());
        it.observe(observer);
        assert_eq!(it.next(&mut w).elem(), Some(ObjectId(1)));
        w.topology_mut().partition(&[servers[0]]);
        (w, it)
    }

    #[test]
    fn drained_run_waits_out_a_cut_home_and_returns() {
        for (sem, fig) in [
            (Semantics::GrowOnly, Figure::Fig5),
            (Semantics::Optimistic, Figure::Fig6),
        ] {
            let (mut w, mut it) = drained_then_cut(sem);
            let heal_at = w.now() + SimDuration::from_millis(100);
            w.install_plan(&FaultPlan::none().heal_at(heal_at));
            assert_eq!(it.next(&mut w), IterStep::Done, "{sem:?}");
            assert!(w.now() >= heal_at, "{sem:?} returned at {}", w.now());
            check_computation(fig, &it.take_computation(&w).unwrap()).assert_ok();
        }
    }

    #[test]
    fn drained_run_takes_its_figures_step_once_the_wait_runs_out() {
        let cfg = IterConfig::default();
        for (sem, rounds) in [
            (Semantics::GrowOnly, 1),
            (Semantics::Optimistic, cfg.block_attempts),
        ] {
            let (mut w, mut it) = drained_then_cut(sem);
            let before = w.now();
            let step = it.next(&mut w);
            match sem {
                Semantics::Optimistic => assert_eq!(step, IterStep::Blocked),
                _ => assert!(
                    matches!(step, IterStep::Failed(Failure::MembershipUnavailable(_))),
                    "{step:?}"
                ),
            }
            // The wait's re-reads, then the figure's own rounds (Fig. 6
            // still spends every block attempt), each read failing after
            // the 2 ms failure detection.
            let (waits, rounds) = (DRAINED_WAITS as u64, rounds as u64);
            let expected = DRAINED_WAIT.saturating_mul(waits)
                + cfg.retry_interval.saturating_mul(rounds - 1)
                + SimDuration::from_millis(2).saturating_mul(waits + rounds);
            assert_eq!(w.now().saturating_since(before), expected, "{sem:?}");
        }
    }

    #[test]
    fn drain_collects_everything_in_healthy_world() {
        let (mut w, client, cref, servers) = setup(3);
        for i in 0..9u64 {
            add(&mut w, &client, &cref, i + 1, servers[(i % 3) as usize]);
        }
        let mut it = Elements::new(Semantics::Optimistic, client, cref, IterConfig::default());
        let (got, end) = it.drain(&mut w, 3, SimDuration::from_millis(10));
        assert_eq!(end, IterStep::Done);
        assert_eq!(got.len(), 9);
        assert_eq!(it.yielded().len(), 9);
    }
}
