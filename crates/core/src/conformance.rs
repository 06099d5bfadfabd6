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
//! the membership version the implementation actually acted on
//! ([`StepEvidence::members_version`], verified to be a real logged state)
//! — and evaluates the spec's pre-state there. Accessibility is sampled
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
use weakset_store::collection::{CollectionState, MemberEntry, Membership};
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::{StoreRt, StoreServer};

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

    /// The default: the home node runs a bare [`StoreServer`].
    fn plain_store() -> Self {
        HistorySource::new(|world, home, coll, visit| {
            world.with_service(home, |s: &StoreServer| {
                if let Some(state) = s.collection(coll) {
                    visit(state);
                }
            });
        })
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

impl Default for HistorySource {
    fn default() -> Self {
        HistorySource::plain_store()
    }
}

impl fmt::Debug for HistorySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HistorySource(..)")
    }
}

/// What one invocation observed, reported by the iterator implementation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepEvidence {
    /// The membership version this invocation acted on (its linearization
    /// point). `None` means "the current primary state at recording time".
    pub members_version: Option<u64>,
    /// Elements proven reachable during the invocation (successful fetch).
    pub confirmed_reachable: Vec<ObjectId>,
    /// Elements proven unreachable during the invocation (failed fetch).
    pub confirmed_unreachable: Vec<ObjectId>,
    /// The membership list itself could not be read: the collection object
    /// was inaccessible, so no element was accessible through it.
    pub membership_unreachable: bool,
}

impl StepEvidence {
    /// Evidence for an invocation that acted on membership version `v`.
    pub fn at_version(v: u64) -> Self {
        StepEvidence {
            members_version: Some(v),
            ..Default::default()
        }
    }
}

/// The home's membership as the observer last replayed it from the
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

/// Observes one iterator run and produces a checkable [`Computation`].
#[derive(Debug)]
pub struct RunObserver {
    recorder: Option<Recorder>,
    coll: CollectionId,
    home: NodeId,
    client_node: NodeId,
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
    /// Observation starts at the first recorded invocation; history from
    /// before that (workload setup) is not part of the computation.
    initialized: bool,
    /// Homes of every element ever listed in the log (for accessibility
    /// sampling), and how many log entries they were learned from.
    homes: BTreeMap<ObjectId, NodeId>,
    homes_commits: usize,
    finished: Option<Computation>,
    source: HistorySource,
}

fn to_set(members: &[MemberEntry]) -> SetValue {
    members.iter().map(|m| ElemId(m.elem.0)).collect()
}

impl RunObserver {
    /// Starts observing a run of an iterator owned by a client on
    /// `client_node` over the collection whose primary is `home`.
    pub fn new(coll: CollectionId, home: NodeId, client_node: NodeId) -> Self {
        RunObserver {
            recorder: None,
            coll,
            home,
            client_node,
            seen_version: 0,
            replay: None,
            window_floor: 0,
            initialized: false,
            homes: BTreeMap::new(),
            homes_commits: 0,
            finished: None,
            source: HistorySource::default(),
        }
    }

    /// Replaces the history accessor — required when the home node's
    /// service is not a bare [`StoreServer`] (e.g. a gossip replica
    /// wrapping one).
    #[must_use]
    pub fn with_history_source(mut self, source: HistorySource) -> Self {
        self.source = source;
        self
    }

    fn log_members(&self, world: &StoreRt, version: u64) -> Option<Membership> {
        self.source
            .inspect(world, self.home, self.coll, |coll| coll.members_at(version))
            .flatten()
    }

    fn latest_version(&self, world: &StoreRt) -> u64 {
        self.source
            .inspect(world, self.home, self.coll, CollectionState::version)
            .unwrap_or(0)
    }

    /// Takes in the entries listed by commits logged since the last call.
    fn learn_homes(&mut self, world: &StoreRt) {
        let (homes, learned) = (&mut self.homes, &mut self.homes_commits);
        self.source.inspect(world, self.home, self.coll, |coll| {
            let log = coll.log();
            // A log shorter than what was learned from is another
            // state's (the home's service was replaced): start over.
            for change in log.get(*learned..).unwrap_or(log) {
                for m in change.listed() {
                    homes.insert(m.elem, m.home);
                }
            }
            *learned = log.len();
        });
    }

    /// Starts the replay at the last version logged at or below
    /// `seen_version`.
    fn start_replay(&mut self, world: &StoreRt) {
        let at = self.seen_version;
        self.replay = self.source.inspect(world, self.home, self.coll, |coll| {
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

    /// Applies the next logged change to the replay when its version is
    /// at most `upto`; false when there is none.
    fn step_replay(&mut self, world: &StoreRt, upto: u64) -> bool {
        let Some(replay) = &mut self.replay else {
            return false;
        };
        self.source
            .inspect(world, self.home, self.coll, |coll| replay.step(coll, upto))
            .unwrap_or(false)
    }

    fn sample_accessible(&self, world: &StoreRt, evidence: &StepEvidence) -> SetValue {
        if evidence.membership_unreachable {
            return SetValue::empty();
        }
        let mut acc: SetValue = self
            .homes
            .iter()
            .filter(|&(_, &h)| world.reachable(self.client_node, h))
            .map(|(&e, _)| ElemId(e.0))
            .collect();
        for e in &evidence.confirmed_reachable {
            acc.insert(ElemId(e.0));
        }
        for e in &evidence.confirmed_unreachable {
            acc.remove(ElemId(e.0));
        }
        acc
    }

    /// Feeds all primary-log states in `(seen, upto]` to the recorder as
    /// mutation states — one logged change applied at a time, never a
    /// membership rebuilt per version. True when the replay then stands
    /// at a version committed in `[seen, upto]`, false when there is none.
    fn sync_to(&mut self, world: &StoreRt, upto: u64) -> bool {
        self.learn_homes(world);
        let from = self.seen_version;
        if self.replay.is_none() {
            self.start_replay(world);
        }
        // The state at `seen` itself opens the computation when nothing
        // has yet, provided `seen` is a version the home committed.
        let mut opening = self.recorder.is_none() && self.replayed_version() == Some(from);
        while opening || self.step_replay(world, upto) {
            opening = false;
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
        if upto > self.seen_version {
            self.seen_version = upto;
        }
        self.replayed_version() >= Some(from)
    }

    /// The version the replay stands at.
    fn replayed_version(&self) -> Option<u64> {
        self.replay.as_ref().map(|r| r.version)
    }

    /// The replayed membership as a spec value (empty before any replay).
    fn replayed(&self) -> SetValue {
        self.replay
            .as_ref()
            .map_or_else(SetValue::empty, |r| to_set(&r.members))
    }

    /// Marks the start of an invocation: mutations already applied at this
    /// instant must precede the invocation's linearization point. Iterator
    /// implementations call this on entry to `next`.
    pub fn mark_invocation_start(&mut self, world: &StoreRt) {
        let latest = self.latest_version(world);
        if latest > self.window_floor {
            self.window_floor = latest;
        }
    }

    /// Records one completed invocation with its outcome and evidence.
    ///
    /// # Panics
    ///
    /// Panics if called after [`RunObserver::finish`].
    pub fn record_step(&mut self, world: &StoreRt, outcome: Outcome, evidence: &StepEvidence) {
        assert!(self.finished.is_none(), "observer already finished");
        let claimed = evidence
            .members_version
            .unwrap_or_else(|| self.latest_version(world));
        // The linearization point must fall inside this invocation's
        // window; stale claims (including a stale *first* read, when the
        // iterator marked its start) are clamped up to the window floor.
        let version = claimed.max(self.window_floor);
        if !self.initialized {
            // Observation starts here; earlier history (workload setup)
            // is outside the computation.
            self.seen_version = version;
            self.initialized = true;
        }
        let members = if version < self.seen_version {
            self.learn_homes(world);
            to_set(&self.log_members(world, version).unwrap_or_default())
        } else if self.sync_to(world, version) {
            self.replayed()
        } else {
            SetValue::empty()
        };
        let pre = State {
            members,
            accessible: self.sample_accessible(world, evidence),
        };
        let rec = match &mut self.recorder {
            Some(r) => r,
            None => {
                self.recorder = Some(Recorder::new(pre.clone()));
                self.recorder.as_mut().expect("just installed")
            }
        };
        if !rec.run_open() {
            // First invocation: its linearization state is the run's
            // first-state. Push it so begin_run anchors there.
            rec.observe_state(pre.clone());
            rec.begin_run();
        } else {
            rec.observe_state(pre.clone());
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
        self.window_floor = self.latest_version(world);
    }

    /// Ends observation, returning the recorded computation.
    pub fn finish(mut self, world: &StoreRt) -> Computation {
        let latest = self.latest_version(world);
        if self.initialized && latest > self.seen_version {
            self.sync_to(world, latest);
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
            &StepEvidence::at_version(2),
        );
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(2)),
            &StepEvidence::at_version(2),
        );
        obs.record_step(&w, Outcome::Returned, &StepEvidence::at_version(2));
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
            &StepEvidence::at_version(1),
        );
        // Growth between invocations.
        client.add_member(&mut w, &cref, entry(2, home)).unwrap();
        obs.record_step(
            &w,
            Outcome::Yielded(ElemId(2)),
            &StepEvidence::at_version(2),
        );
        obs.record_step(&w, Outcome::Returned, &StepEvidence::at_version(2));
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
            &StepEvidence::at_version(2),
        );
        // Failing now (elem 2 unreachable) conforms to Fig 4/5; the
        // sampled accessibility shows 2 inaccessible.
        obs.record_step(&w, Outcome::Failed, &StepEvidence::at_version(2));
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
            members_version: Some(1),
            confirmed_unreachable: vec![ObjectId(1)],
            ..Default::default()
        };
        obs.record_step(&w, Outcome::Failed, &ev);
        let comp = obs.finish(&w);
        check_computation(Figure::Fig4, &comp).assert_ok();
    }

    #[test]
    fn membership_unreachable_empties_accessibility() {
        let (mut w, cn, home, cref, client) = setup();
        client.add_member(&mut w, &cref, entry(1, home)).unwrap();
        let mut obs = RunObserver::new(cref.id, home, cn);
        let ev = StepEvidence {
            members_version: Some(1),
            membership_unreachable: true,
            ..Default::default()
        };
        // Blocked with membership unreachable conforms to Fig 6.
        obs.record_step(&w, Outcome::Blocked, &ev);
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
