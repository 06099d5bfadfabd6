//! Recording iterator runs for conformance checking.
//!
//! A [`RunObserver`] watches one use of an `elements` iterator and builds
//! the [`Computation`] that `weakset-spec`'s checker replays. It is an
//! *omniscient monitor*: it reads the primary replica's version log
//! directly (simulation-level access, not RPC) for ground-truth membership
//! history, and samples per-element accessibility from the topology.
//!
//! # Linearization
//!
//! The paper models each invocation as atomic; the implementation is not.
//! The observer therefore picks one *linearization point* per invocation —
//! the membership version the implementation actually acted on (one per
//! collection for a run over a union, verified to be a real logged state;
//! see [`RunObserver::record_step`]) — and evaluates the spec's pre-state
//! there. Accessibility is sampled
//! from the topology at recording time and then corrected by *observed
//! evidence*: an element whose fetch succeeded during the invocation was
//! reachable ([`StepEvidence::confirmed_reachable`]); one whose fetch
//! failed was not ([`StepEvidence::confirmed_unreachable`]). When the
//! membership itself could not be read, nothing was accessible through the
//! collection object ([`StepEvidence::membership_unreachable`]).
//!
//! A consequence worth knowing: if an implementation serves *stale*
//! membership (e.g. optimistic `Any`-replica reads), its linearization
//! points can run backwards in version order, and the recorded computation
//! may then violate the figure's constraint — that is the monitor
//! truthfully reporting that no atomic-invocation history explains the
//! observed behaviour.

use std::collections::BTreeMap;
use std::fmt;
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_spec::prelude::{Computation, Outcome, Recorder, SetValue, State};
use weakset_spec::value::ElemId;
use weakset_store::collection::{CollectionState, MemberEntry};
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::{CollectionRef, StoreRt, StoreServer};

/// Where the observer finds the omniscient membership history: a
/// visitor over the hosted [`CollectionState`] whose version log is
/// ground truth, keyed by `(world, home node, collection)`.
///
/// This is a visitor rather than a borrowing lookup because on the
/// threaded runtime backend the state lives behind a lock — a borrow
/// cannot escape the accessor, but a visit can happen inside it on
/// either backend.
///
/// The default source downcasts the home node's service to a plain
/// [`StoreServer`]. Deployments wrapping the server inside another
/// service type — such as the gossip replica nodes of `weakset-gossip` —
/// supply an accessor that reaches through their wrapper.
pub struct HistorySource(
    #[allow(clippy::type_complexity)]
    Box<dyn Fn(&StoreRt, NodeId, CollectionId, &mut dyn FnMut(&CollectionState))>,
);

impl HistorySource {
    /// A source backed by an arbitrary accessor: call `visit` with the
    /// collection's state when it exists, do nothing otherwise.
    pub fn new(
        f: impl Fn(&StoreRt, NodeId, CollectionId, &mut dyn FnMut(&CollectionState)) + 'static,
    ) -> Self {
        HistorySource(Box::new(f))
    }

    /// Reads one value out of the collection's state, or `None` when the
    /// home hosts no such collection.
    fn inspect<R>(
        &self,
        world: &StoreRt,
        home: NodeId,
        coll: CollectionId,
        f: impl FnOnce(&CollectionState) -> R,
    ) -> Option<R> {
        let mut f = Some(f);
        let mut out = None;
        (self.0)(world, home, coll, &mut |state| {
            if let Some(f) = f.take() {
                out = Some(f(state));
            }
        });
        out
    }
}

/// The default: the home node runs a bare [`StoreServer`].
impl Default for HistorySource {
    fn default() -> Self {
        HistorySource::new(|world, home, coll, visit| {
            world.with_service(home, |s: &StoreServer| {
                if let Some(state) = s.collection(coll) {
                    visit(state);
                }
            });
        })
    }
}

impl fmt::Debug for HistorySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HistorySource(..)")
    }
}

/// What one invocation observed, reported by the iterator implementation
/// beside the versions it acted on ([`RunObserver::record_step`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepEvidence {
    /// Elements proven reachable during the invocation (successful fetch).
    pub confirmed_reachable: Vec<ObjectId>,
    /// Elements proven unreachable during the invocation (failed fetch).
    pub confirmed_unreachable: Vec<ObjectId>,
    /// The membership list itself could not be read: the collection object
    /// was inaccessible, so no element was accessible through it.
    pub membership_unreachable: bool,
}

/// A collection's membership as the observer last replayed it from the
/// version log: the first `commits` changes applied to the empty set,
/// which is the membership at `version`.
#[derive(Debug)]
struct Replay {
    commits: usize,
    version: u64,
    members: Vec<MemberEntry>,
}

impl Replay {
    /// Applies the next logged change when it commits a version at or
    /// below `upto`; false when there is none.
    fn step(&mut self, coll: &CollectionState, upto: u64) -> bool {
        match coll.log().get(self.commits) {
            Some(change) if self.version + change.span() <= upto => {
                change.apply(&mut self.members);
                self.version += change.span();
                self.commits += 1;
                true
            }
            _ => false,
        }
    }
}

/// One collection the observer watches at its primary.
#[derive(Debug)]
struct Watched {
    coll: CollectionId,
    home: NodeId,
    seen_version: u64,
    /// The membership at `seen_version`; `None` until the first
    /// invocation fixes where observation starts (or while the home
    /// hosts no such collection).
    replay: Option<Replay>,
    /// Lowest version an invocation may legitimately claim as its
    /// linearization point: the primary's version when the previous
    /// invocation finished. A claim below this (a stale replica read) is
    /// clamped up, so the ensures clause — not a constraint artifact —
    /// reports the staleness.
    window_floor: u64,
    /// The primary's version at the last look.
    latest: u64,
    /// How many log entries element homes were learned from.
    homes_commits: usize,
}

/// Observes one iterator run and produces a checkable [`Computation`].
///
/// A run over a union of collections (a sharded set's shards) is one
/// computation of the logical set, whose states are the union of the
/// replayed logs: at each recording point the observer appends each
/// collection's changes up to the version the invocation read, one
/// collection after another, one state per change. That is sound because
/// the driver applies mutations only between invocations. An invocation
/// whose version vector is no state so appended is reported
/// ([`RunObserver::unexplained`]), not mapped onto one.
#[derive(Debug)]
pub struct RunObserver {
    recorder: Option<Recorder>,
    watched: Vec<Watched>,
    client_node: NodeId,
    /// Observation starts at the first recorded invocation; history from
    /// before that (workload setup) is not part of the computation.
    initialized: bool,
    /// Homes of every element ever listed in a watched log (for
    /// accessibility sampling).
    homes: BTreeMap<ObjectId, NodeId>,
    /// The replays' union as last built, until a replay moves.
    union: Option<SetValue>,
    /// The elements whose homes are reachable, as built since the last
    /// look: the world does not change inside one recording call.
    reachable: Option<SetValue>,
    unexplained: Vec<String>,
    source: HistorySource,
}

impl RunObserver {
    /// Starts observing a run of an iterator owned by a client on
    /// `client_node` over the collection whose primary is `home`.
    pub fn new(coll: CollectionId, home: NodeId, client_node: NodeId) -> Self {
        Self::union(&[CollectionRef::unreplicated(coll, home)], client_node)
    }

    /// Starts observing a run over the union of `crefs`, in that order.
    pub fn union(crefs: &[CollectionRef], client_node: NodeId) -> Self {
        let watch = |c: &CollectionRef| Watched {
            coll: c.id,
            home: c.home,
            seen_version: 0,
            replay: None,
            window_floor: 0,
            latest: 0,
            homes_commits: 0,
        };
        RunObserver {
            recorder: None,
            watched: crefs.iter().map(watch).collect(),
            client_node,
            initialized: false,
            homes: BTreeMap::new(),
            union: None,
            reachable: None,
            unexplained: Vec::new(),
            source: HistorySource::default(),
        }
    }

    /// Replaces the history accessor — required when the home node's
    /// service is not a bare [`StoreServer`] (e.g. a gossip replica
    /// wrapping one). One source serves every watched collection.
    #[must_use]
    pub fn with_history_source(mut self, source: HistorySource) -> Self {
        self.source = source;
        self
    }

    /// The invocations whose version vector was no state of the union,
    /// one message each (never any over a single collection).
    pub fn unexplained(&self) -> &[String] {
        &self.unexplained
    }

    /// Reads every watched primary's version, and takes in the entries
    /// listed by commits it logged since the last look.
    fn look(&mut self, world: &StoreRt) {
        self.reachable = None;
        for w in &mut self.watched {
            let (homes, learned) = (&mut self.homes, &mut w.homes_commits);
            let state = |coll: &CollectionState| {
                let log = coll.log();
                // A log shorter than what was learned from is another
                // state's (the home's service was replaced): start over.
                for change in log.get(*learned..).unwrap_or(log) {
                    for m in change.listed() {
                        homes.insert(m.elem, m.home);
                    }
                }
                *learned = log.len();
                coll.version()
            };
            w.latest = self
                .source
                .inspect(world, w.home, w.coll, state)
                .unwrap_or(0);
        }
    }

    /// The version `versions` claims for collection `i`, or its latest,
    /// clamped up to its window floor.
    fn target(&self, i: usize, versions: &[u64]) -> u64 {
        let w = &self.watched[i];
        versions
            .get(i)
            .copied()
            .unwrap_or(w.latest)
            .max(w.window_floor)
    }

    /// Starts every replay that has not started at the last version
    /// logged at or below its `seen_version`.
    fn start_replays(&mut self, world: &StoreRt) {
        for w in self.watched.iter_mut().filter(|w| w.replay.is_none()) {
            self.union = None;
            let at = w.seen_version;
            w.replay = self.source.inspect(world, w.home, w.coll, |coll| {
                let mut replay = Replay {
                    commits: 0,
                    version: 0,
                    // Sized for where replays usually start: the present.
                    members: Vec::with_capacity(coll.len()),
                };
                while replay.step(coll, at) {}
                replay
            });
        }
    }

    /// The version collection `i`'s replay stands at.
    fn replayed_version(&self, i: usize) -> Option<u64> {
        self.watched[i].replay.as_ref().map(|r| r.version)
    }

    /// The union of the replayed memberships as a spec value.
    fn replayed(&mut self) -> SetValue {
        let replays = self.watched.iter().filter_map(|w| w.replay.as_ref());
        let members = replays.flat_map(|r| &r.members);
        let union = || members.map(|m| ElemId(m.elem.0)).collect();
        self.union.get_or_insert_with(union).clone()
    }

    fn sample_accessible(&mut self, world: &StoreRt, evidence: &StepEvidence) -> SetValue {
        if evidence.membership_unreachable {
            return SetValue::empty();
        }
        let (homes, client) = (&self.homes, self.client_node);
        let reachable = homes.iter().filter(|&(_, &h)| world.reachable(client, h));
        let sample = || reachable.map(|(&e, _)| ElemId(e.0)).collect();
        let mut acc = self.reachable.get_or_insert_with(sample).clone();
        for e in &evidence.confirmed_reachable {
            acc.insert(ElemId(e.0));
        }
        for e in &evidence.confirmed_unreachable {
            acc.remove(ElemId(e.0));
        }
        acc
    }

    /// Feeds collection `i`'s primary-log states in `(seen, upto]` to the
    /// recorder as mutation states — one logged change applied at a
    /// time, never a membership rebuilt per version. True when its replay
    /// then stands at a version committed in `[seen, upto]`, false when
    /// there is none.
    fn sync_to(&mut self, world: &StoreRt, i: usize, upto: u64) -> bool {
        let from = self.watched[i].seen_version;
        // The state at `seen` itself opens the computation when nothing
        // has yet, provided `seen` is a version the home committed.
        let mut opening = self.recorder.is_none() && self.replayed_version(i) == Some(from);
        while opening || {
            // Nothing is logged past the version the last look saw.
            let w = &mut self.watched[i];
            let (latest, replay) = (w.latest, &mut w.replay);
            let behind = replay
                .as_ref()
                .is_some_and(|r| r.version < upto.min(latest));
            let step = |coll: &CollectionState| replay.as_mut().is_some_and(|r| r.step(coll, upto));
            behind && self.source.inspect(world, w.home, w.coll, step) == Some(true)
        } {
            if !std::mem::take(&mut opening) {
                self.union = None;
            }
            let st = State {
                members: self.replayed(),
                // Accessibility of pure-mutation states is not
                // consulted by any ensures clause; approximate
                // with "all known homes reachable now".
                accessible: self.sample_accessible(world, &StepEvidence::default()),
            };
            match &mut self.recorder {
                Some(r) => {
                    r.observe_state(st);
                }
                None => self.recorder = Some(Recorder::new(st)),
            }
        }
        let w = &mut self.watched[i];
        w.seen_version = w.seen_version.max(upto);
        self.replayed_version(i) >= Some(from)
    }

    /// The pre-state membership at `versions`. Over one collection: its
    /// state at the clamped claim, looked up in the log when it lies
    /// behind observation. Over a union: each collection in order synced
    /// to its clamped claim, and the invocation reported unless every
    /// collection stands exactly there and none moved while an earlier
    /// one had changes left.
    fn pre_members(&mut self, world: &StoreRt, versions: &[u64]) -> SetValue {
        self.start_replays(world);
        if let [w] = &*self.watched {
            let version = self.target(0, versions);
            if version < w.seen_version {
                let at = |coll: &CollectionState| coll.members_at(version).unwrap_or_default();
                let members = self.source.inspect(world, w.home, w.coll, at);
                return members.iter().flatten().map(|m| ElemId(m.elem.0)).collect();
            }
            return if self.sync_to(world, 0, version) {
                self.replayed()
            } else {
                SetValue::empty()
            };
        }
        let mut behind = None;
        for i in 0..self.watched.len() {
            let (target, from) = (self.target(i, versions), self.replayed_version(i));
            self.sync_to(world, i, target);
            let at = self.replayed_version(i);
            let coll = self.watched[i].coll;
            if at != Some(target) || (at > from && behind.is_some()) {
                self.unexplained.push(format!(
                    "a union read {coll} at version {target}, no state of the union \
                     (replayed to {from:?}, then {at:?}; {behind:?} had changes left)"
                ));
            }
            if behind.is_none() && at < Some(self.watched[i].latest) {
                behind = Some(coll);
            }
        }
        self.replayed()
    }

    /// Marks the start of an invocation: mutations already applied at this
    /// instant must precede the invocation's linearization point. Iterator
    /// implementations call this on entry to `next`.
    pub fn mark_invocation_start(&mut self, world: &StoreRt) {
        self.look(world);
        for w in &mut self.watched {
            w.window_floor = w.window_floor.max(w.latest);
        }
    }

    /// Records one completed invocation with its outcome and evidence.
    /// `versions` are the membership versions it acted on (its
    /// linearization point), one per watched collection in order; empty
    /// means each collection's current version at recording time.
    pub fn record_step(
        &mut self,
        world: &StoreRt,
        outcome: Outcome,
        versions: &[u64],
        evidence: &StepEvidence,
    ) {
        self.look(world);
        if !self.initialized {
            // Observation starts here; earlier history (workload setup)
            // is outside the computation.
            for i in 0..self.watched.len() {
                self.watched[i].seen_version = self.target(i, versions);
            }
            self.initialized = true;
        }
        let pre = State {
            members: self.pre_members(world, versions),
            accessible: self.sample_accessible(world, evidence),
        };
        let rec = self
            .recorder
            .get_or_insert_with(|| Recorder::new(pre.clone()));
        rec.observe_state(pre.clone());
        if !rec.run_open() {
            // First invocation: its linearization state, just pushed, is
            // the run's first-state, where begin_run anchors.
            rec.begin_run();
        }
        rec.record_invocation(pre, outcome);
        // A terminal outcome closes the run; a later record_step then
        // opens a fresh run in the SAME computation, so one observer can
        // witness several uses of the iterator — needed to check the
        // relaxed §3.1/§3.3 per-run constraints and the §3.2 advice to
        // "run the iterator again and hope to catch discrepancies".
        if outcome.is_terminal() {
            rec.end_run();
        }
        for w in &mut self.watched {
            w.window_floor = w.latest;
        }
    }

    /// Ends observation, returning the recorded computation.
    pub fn finish(mut self, world: &StoreRt) -> Computation {
        if self.initialized {
            self.look(world);
            self.start_replays(world);
            for i in 0..self.watched.len() {
                let latest = self.watched[i].latest;
                if latest > self.watched[i].seen_version {
                    self.sync_to(world, i, latest);
                }
            }
        }
        match self.recorder.take() {
            Some(r) => r.finish(),
            None => Computation::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_spec::checker::{check_computation, Figure};
    use weakset_store::prelude::StoreWorld;
    use weakset_store::prelude::{CollectionRef, StoreClient};

    fn setup() -> (StoreWorld, NodeId, NodeId, CollectionRef, StoreClient) {
        let mut t = Topology::new();
        let client_node = t.add_node("client", 0);
        let home = t.add_node("home", 1);
        let mut w = StoreWorld::new(1, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        w.install_service(home, Box::new(StoreServer::new()));
        let cref = CollectionRef::unreplicated(CollectionId(1), home);
        let client = StoreClient::new(client_node, SimDuration::from_millis(50));
        client.create_collection(&mut w, &cref).unwrap();
        (w, client_node, home, cref, client)
    }

    fn entry(id: u64, home: NodeId) -> MemberEntry {
        MemberEntry {
            elem: ObjectId(id),
            home,
        }
    }

    #[test]
    fn records_a_clean_run() {
        let (mut w, cn, home, cref, client) = setup();
        client.add_member(&mut w, &cref, entry(1, home)).unwrap();
        client.add_member(&mut w, &cref, entry(2, home)).unwrap();
        let mut obs = RunObserver::new(cref.id, home, cn);
        // Simulate an iterator yielding 1 then 2 at version 2, then
        // returning.
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(1)),
            &[2],
            &StepEvidence::default(),
        );
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(2)),
            &[2],
            &StepEvidence::default(),
        );
        obs.record_step(&w, Outcome::Returned, &[2], &StepEvidence::default());
        let comp = obs.finish(&w);
        assert_eq!(comp.runs.len(), 1);
        check_computation(Figure::Fig4, &comp).assert_ok();
        check_computation(Figure::Fig5, &comp).assert_ok();
        check_computation(Figure::Fig6, &comp).assert_ok();
    }

    #[test]
    fn mutation_mid_run_is_in_the_history() {
        let (mut w, cn, home, cref, client) = setup();
        client.add_member(&mut w, &cref, entry(1, home)).unwrap();
        let mut obs = RunObserver::new(cref.id, home, cn);
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(1)),
            &[1],
            &StepEvidence::default(),
        );
        // Growth between invocations.
        client.add_member(&mut w, &cref, entry(2, home)).unwrap();
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(2)),
            &[2],
            &StepEvidence::default(),
        );
        obs.record_step(&w, Outcome::Returned, &[2], &StepEvidence::default());
        let comp = obs.finish(&w);
        // Grow-only constraint holds across the recorded history.
        check_computation(Figure::Fig5, &comp).assert_ok();
        // Figure 4 flags the yield of an element outside s_first.
        assert!(!check_computation(Figure::Fig4, &comp).is_ok());
    }

    #[test]
    fn accessibility_sampling_respects_partitions() {
        let (mut w, cn, home, cref, client) = setup();
        let far = w.topology_mut().add_node("far", 2);
        w.install_service(far, Box::new(StoreServer::new()));
        client.add_member(&mut w, &cref, entry(1, home)).unwrap();
        client.add_member(&mut w, &cref, entry(2, far)).unwrap();
        w.topology_mut().partition(&[far]);
        let mut obs = RunObserver::new(cref.id, home, cn);
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(1)),
            &[2],
            &StepEvidence::default(),
        );
        // Failing now (elem 2 unreachable) conforms to Fig 4/5; the
        // sampled accessibility shows 2 inaccessible.
        obs.record_step(&w, Outcome::Failed, &[2], &StepEvidence::default());
        let comp = obs.finish(&w);
        check_computation(Figure::Fig4, &comp).assert_ok();
        check_computation(Figure::Fig5, &comp).assert_ok();
        // Fig 6 never fails.
        assert!(!check_computation(Figure::Fig6, &comp).is_ok());
    }

    #[test]
    fn evidence_overrides_sampling() {
        let (mut w, cn, home, cref, client) = setup();
        client.add_member(&mut w, &cref, entry(1, home)).unwrap();
        let mut obs = RunObserver::new(cref.id, home, cn);
        // Claim 1 was observed unreachable even though topology says
        // reachable: a failure outcome then conforms.
        let ev = StepEvidence {
            confirmed_unreachable: vec![ObjectId(1)],
            ..Default::default()
        };
        obs.record_step(&w, Outcome::Failed, &[1], &ev);
        let comp = obs.finish(&w);
        check_computation(Figure::Fig4, &comp).assert_ok();
    }

    #[test]
    fn membership_unreachable_empties_accessibility() {
        let (mut w, cn, home, cref, client) = setup();
        client.add_member(&mut w, &cref, entry(1, home)).unwrap();
        let mut obs = RunObserver::new(cref.id, home, cn);
        let ev = StepEvidence {
            membership_unreachable: true,
            ..Default::default()
        };
        // Blocked with membership unreachable conforms to Fig 6.
        obs.record_step(&w, Outcome::Blocked, &[1], &ev);
        let comp = obs.finish(&w);
        check_computation(Figure::Fig6, &comp).assert_ok();
    }

    #[test]
    fn empty_observation_yields_empty_computation() {
        let (w, cn, home, cref, _client) = setup();
        let obs = RunObserver::new(cref.id, home, cn);
        let comp = obs.finish(&w);
        assert!(comp.runs.is_empty());
    }
}
