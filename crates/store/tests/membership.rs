//! [`Membership`] as a value: its set algebra against the sort-and-dedup
//! oracle it replaced, its writes against a set model (where the array
//! stays and where it is rebuilt), copy-on-write (a held version never
//! changes, and an idle write shifts each replica's own array in place,
//! observed across a threaded fleet), and the version log of changes — on a
//! primary and on replicas replaying its steps — against the log of full
//! copies it replaced.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::prelude::*;

/// Entries drawn from a small pool, so runs overlap often: identical
/// entries, and the same element listed under different homes.
fn entries() -> impl Strategy<Value = Vec<MemberEntry>> {
    proptest::collection::vec((1u64..12, 0u32..3), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(elem, home)| MemberEntry {
                elem: ObjectId(elem),
                home: NodeId(home),
            })
            .collect()
    })
}

/// What `ReadFold` did before: concatenate, sort, dedup.
fn oracle(a: &[MemberEntry], b: &[MemberEntry]) -> Vec<MemberEntry> {
    let mut all = [a, b].concat();
    all.sort_unstable();
    all.dedup();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever goes in comes out strictly ascending, holding exactly
    /// the distinct inputs.
    #[test]
    fn constructors_sort_and_dedup(raw in entries()) {
        let m = Membership::from(raw.clone());
        prop_assert!(m.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(m.to_vec(), oracle(&raw, &[]));
        prop_assert_eq!(raw.into_iter().collect::<Membership>(), m);
    }

    /// The linear merge is the old concat → sort → dedup, and a
    /// semilattice join.
    #[test]
    fn union_matches_the_oracle_and_is_a_join(
        ra in entries(), rb in entries(), rc in entries()
    ) {
        let [a, b, c] = [ra, rb, rc].map(Membership::from);
        prop_assert_eq!(a.union(&b).to_vec(), oracle(&a, &b));
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.union(&Membership::new()), a.clone());
        prop_assert_eq!(Membership::new().union(&a), a.clone());
        // Disjoint runs: shift `b` past every element of `a`.
        let far: Membership = b
            .iter()
            .map(|m| MemberEntry { elem: ObjectId(m.elem.0 + 100), ..*m })
            .collect();
        prop_assert_eq!(a.union(&far).to_vec(), [a.to_vec(), far.to_vec()].concat());
    }
}

/// The copying write where its copies are empty: an add at either end,
/// a removal of the first, last, only and a multi-home element — each
/// while a clone holds the version, so the write builds a new array —
/// against the sort-and-dedup oracle.
#[test]
fn copying_writes_at_the_edges() {
    let raw = [e(6, 0), e(4, 1), e(2, 0), e(4, 0)];
    let held = |write: &dyn Fn(&mut CollectionState) -> bool| {
        let mut state = CollectionState::new();
        state.sync_to(1, raw.to_vec().into());
        let before = state.members().clone();
        assert!(write(&mut state));
        assert_eq!(before.to_vec(), oracle(&raw, &[]), "a held version");
        state.members().to_vec()
    };
    // Before the first entry, after the last.
    for entry in [e(1, 0), e(7, 0)] {
        let listed = held(&|state| state.add(entry));
        assert_eq!(listed, oracle(&raw, &[entry]), "add {entry:?}");
    }
    // The first, the last, and one listed under two homes.
    for gone in [2, 6, 4] {
        let kept: Vec<MemberEntry> = raw.iter().filter(|x| x.elem.0 != gone).copied().collect();
        let listed = held(&|state| state.remove(ObjectId(gone)));
        assert_eq!(listed, oracle(&kept, &[]), "remove {gone}");
    }
    let mut one = CollectionState::new();
    one.add(e(3, 1));
    let before = one.members().clone();
    assert!(one.remove(ObjectId(3)));
    assert_eq!(one.members().holders(), 0, "the empty membership");
    assert_eq!(before.to_vec(), [e(3, 1)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random adds before the first entry, after the last or between,
    /// and removals of the first, the last or any entry, through the
    /// empty set, with a clone of the state's membership taken and
    /// dropped at random steps. After each write the state lists what a
    /// `BTreeSet` model lists, in its order; a held clone lists what it
    /// listed when taken; `holders()` counts the state and a clone that
    /// still shares its array; and the state keeps its array exactly
    /// when it held it alone and the array had room on either side (a
    /// removal always has). Otherwise the write builds an array of the
    /// model's size: `len / 8` spare slots past its `len` entries, or
    /// none at all for the empty set.
    #[test]
    fn writes_anywhere_match_a_set_model(
        ops in proptest::collection::vec((0u8..6, any::<u16>(), 0u8..4), 0..300)
    ) {
        let mut state = CollectionState::new();
        let mut model: BTreeSet<MemberEntry> = BTreeSet::new();
        // The slots of the state's array, and whether the held clone
        // still shares it.
        let (mut slots, mut shared) = (0, false);
        let mut held: Option<(Membership, Vec<MemberEntry>)> = None;
        for (kind, pick, clone) in ops {
            match clone {
                0 if held.is_none() => {
                    let members = state.members().clone();
                    shared = slots > 0;
                    held = Some((members.clone(), members.to_vec()));
                }
                1 => (held, shared) = (None, false),
                _ => {}
            }
            let ids: Vec<u64> = model.iter().map(|m| m.elem.0).collect();
            let (first, last) = match ids[..] {
                [] => (1 << 20, 1 << 20),
                [first, .., last] => (first, last),
                [one] => (one, one),
            };
            let pick = u64::from(pick);
            let elem = match kind {
                0 => first - 1 - pick % 4,
                1 => last + 1 + pick % 4,
                // Between the ends, or on an entry: then nothing is new.
                2 => first + pick % (last - first + 2),
                3 => first,
                4 => last,
                _ => ids.get(pick as usize % ids.len().max(1)).copied().unwrap_or(first),
            };
            let entry = e(elem, (elem % 3) as u32);
            let (len, array) = (model.len(), state.members().array_ptr());
            let adding = kind < 3;
            let wrote = if adding {
                let new = !model.iter().any(|m| m.elem == entry.elem);
                if new {
                    model.insert(entry);
                }
                prop_assert_eq!(state.add(entry), new);
                new
            } else {
                let present = model.remove(&entry);
                prop_assert_eq!(state.remove(entry.elem), present);
                present
            };
            let members = state.members();
            prop_assert_eq!(members.to_vec(), model.iter().copied().collect::<Vec<_>>());
            if wrote {
                // A removal always fits; an add fits while a slot is spare.
                let in_place = !shared && (!adding || len < slots);
                prop_assert_eq!(
                    members.array_ptr() == array,
                    in_place,
                    "{} of {:?} at {}",
                    kind,
                    entry,
                    len
                );
                if !in_place {
                    let next = model.len();
                    slots = if next == 0 { 0 } else { next + next / 8 };
                }
                shared = false;
            } else {
                prop_assert_eq!(members.array_ptr(), array);
            }
            prop_assert_eq!(members.holders(), usize::from(slots > 0) + usize::from(shared));
            if let Some((clone, listed)) = &held {
                prop_assert_eq!(&clone.to_vec(), listed);
            }
        }
    }
}

/// What `CollectionState` was before its log held changes: the same
/// five operations, with one full copy of the membership per committed
/// version. Kept here as the reference the delta log is checked against.
#[derive(Default)]
struct FullCopyLog {
    members: Vec<MemberEntry>,
    version: u64,
    log: Vec<(u64, Vec<MemberEntry>)>,
    deferred: BTreeSet<ObjectId>,
}

impl FullCopyLog {
    fn new() -> Self {
        FullCopyLog {
            log: vec![(0, Vec::new())],
            ..Default::default()
        }
    }

    fn commit(&mut self, version: u64, mut members: Vec<MemberEntry>) {
        members.sort_unstable();
        members.dedup();
        self.version = version;
        self.log.push((version, members.clone()));
        self.members = members;
    }

    fn contains(&self, elem: ObjectId) -> bool {
        self.members.iter().any(|m| m.elem == elem)
    }

    fn add(&mut self, entry: MemberEntry) -> bool {
        let new = !self.contains(entry.elem);
        if new {
            let mut next = self.members.clone();
            next.push(entry);
            self.commit(self.version + 1, next);
        }
        new
    }

    fn remove(&mut self, elem: ObjectId) -> bool {
        let present = self.contains(elem);
        if present {
            let next = self.members.iter().filter(|m| m.elem != elem).copied();
            self.commit(self.version + 1, next.collect());
        }
        present
    }

    fn sync_to(&mut self, version: u64, members: Vec<MemberEntry>) -> bool {
        let newer = version > self.version;
        if newer {
            self.commit(version, members);
        }
        newer
    }

    /// `CollectionState::sync`: a step is replayed one version behind,
    /// a full membership taken from any older one.
    fn sync(&mut self, version: u64, step: &SyncStep) -> bool {
        let next = self.version + 1 == version;
        match step {
            SyncStep::Add(entry) if next => {
                self.add(*entry);
            }
            SyncStep::Remove(elem) if next => {
                self.remove(*elem);
            }
            SyncStep::Full(members) => {
                self.sync_to(version, members.to_vec());
            }
            SyncStep::Add(_) | SyncStep::Remove(_) => {}
        }
        self.version >= version
    }

    fn defer_remove(&mut self, elem: ObjectId) -> bool {
        let present = self.contains(elem);
        if present {
            self.deferred.insert(elem);
        }
        present
    }

    fn apply_deferred(&mut self) -> usize {
        let pending = std::mem::take(&mut self.deferred);
        pending.into_iter().filter(|&e| self.remove(e)).count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random add / remove / sync (a step stale, equal, next or
    /// skipping; a full membership at any of those) / defer /
    /// apply-deferred sequences: every operation answers as the
    /// full-copy reference does, and after each one the version sequence,
    /// `members_at` at every version (and at versions never committed),
    /// `history`, the deferred set and the set of every `(elem, home)`
    /// ever listed agree with it. A twin takes each step `state` replays
    /// as the full membership it led to, and logs the same.
    #[test]
    fn the_delta_log_is_the_full_copy_log(
        ops in proptest::collection::vec(
            (0u8..10, 1u64..10, 0u32..3, 0u64..8, entries()),
            0..40,
        )
    ) {
        let mut state = CollectionState::new();
        let mut twin = CollectionState::new();
        let mut model = FullCopyLog::new();
        for (kind, elem, home, ahead, synced) in ops {
            let (elem, home) = (ObjectId(elem), NodeId(home));
            let entry = MemberEntry { elem, home };
            match kind {
                0 | 1 => {
                    twin.add(entry);
                    prop_assert_eq!(state.add(entry), model.add(entry));
                }
                2 => {
                    twin.remove(elem);
                    prop_assert_eq!(state.remove(elem), model.remove(elem));
                }
                3 => {
                    twin.defer_remove(elem);
                    prop_assert_eq!(state.defer_remove(elem), model.defer_remove(elem));
                }
                4 => {
                    twin.apply_deferred();
                    prop_assert_eq!(state.apply_deferred(), model.apply_deferred());
                }
                _ => {
                    let version = match kind {
                        // The next version, as an idle primary's
                        // replication carries it.
                        5..=7 => state.version() + 1,
                        // Stale, equal, or skipping: -2..=5 from the
                        // current one.
                        _ => (state.version() + ahead).saturating_sub(2),
                    };
                    let step = match kind {
                        5 | 8 => SyncStep::Add(entry),
                        6 => SyncStep::Remove(elem),
                        // An array this replica never held.
                        _ => SyncStep::Full(synced.into()),
                    };
                    let before = state.version();
                    prop_assert_eq!(state.sync(version, step.clone()), model.sync(version, &step));
                    if state.version() != before {
                        twin.sync_to(state.version(), state.members().to_vec().into());
                    }
                }
            }
            prop_assert_eq!(state.log(), twin.log());
            prop_assert_eq!(state.version(), model.version);
            prop_assert_eq!(state.members().to_vec(), model.members.clone());
            prop_assert_eq!(state.deferred().collect::<BTreeSet<_>>(), model.deferred.clone());
            let versions: Vec<u64> =
                std::iter::once(0).chain(state.commits().map(|(v, _)| v)).collect();
            let logged: Vec<u64> = model.log.iter().map(|(v, _)| *v).collect();
            prop_assert_eq!(&versions, &logged);
            let history: Vec<(u64, Vec<MemberEntry>)> =
                state.history().map(|mv| (mv.version, mv.members.to_vec())).collect();
            prop_assert_eq!(&history, &model.log);
            for v in 0..=model.version + 1 {
                let want = model.log.iter().find(|(at, _)| *at == v).map(|(_, m)| m.clone());
                prop_assert_eq!(state.members_at(v).map(|m| m.to_vec()), want, "at v{}", v);
            }
            let listed: BTreeSet<MemberEntry> =
                state.log().iter().flat_map(Change::listed).copied().collect();
            let ever: BTreeSet<MemberEntry> =
                model.log.iter().flat_map(|(_, m)| m).copied().collect();
            prop_assert_eq!(listed, ever);
        }
    }
}

/// N writes at 512 members leave N small log entries and no array: each
/// version's array is dropped by the state the moment its successor
/// commits — on the primary and on a replica replaying its steps — and
/// the entries themselves hold nothing on the heap. The test holds each
/// of the primary's versions across its write, so every write copies
/// there: the held-snapshot case. The replica's array is its own, and it
/// shifts in place.
#[test]
fn a_long_history_pins_no_array() {
    let entry = |id: u64| MemberEntry {
        elem: ObjectId(id),
        home: NodeId(id as u32 % 3),
    };
    let (mut primary, mut replica) = (CollectionState::new(), CollectionState::new());
    for id in 0..512 {
        primary.add(entry(id));
        assert!(replica.sync(primary.version(), SyncStep::Add(entry(id))));
    }
    let preload = primary.log().len();
    let mut copied = 0;
    for round in 0..200u64 {
        for add in [true, false] {
            let before = primary.members().clone();
            assert_eq!(before.holders(), 2, "the primary and this test");
            let at = replica.members().array_ptr();
            let id = 1_000 + round;
            let step = if add {
                assert!(primary.add(entry(id)));
                SyncStep::Add(entry(id))
            } else {
                assert!(primary.remove(ObjectId(id)));
                SyncStep::Remove(ObjectId(id))
            };
            assert_eq!(
                before.holders(),
                1,
                "no logged array outlives its successor"
            );
            assert!(replica.sync(primary.version(), step));
            assert_eq!(replica.members().holders(), 1, "the replica owns its array");
            copied += usize::from(replica.members().array_ptr() != at);
        }
    }
    assert!(copied <= 1, "the replica copied {copied} times");
    assert_eq!(replica.members(), primary.members());
    for state in [&primary, &replica] {
        assert_eq!(state.len(), 512);
        let writes = &state.log()[state.log().len() - 400..];
        assert!(writes
            .iter()
            .all(|c| matches!(c, Change::Added(_) | Change::Removed(_))));
    }
    assert_eq!(primary.log().len(), preload + 400);
    assert_eq!(replica.log(), primary.log());
    assert!(std::mem::size_of::<Change>() <= 3 * std::mem::size_of::<u64>());
    // Every reply carries one: the mark may not quietly grow it, nor
    // take the niche that keeps the enums around it as small.
    assert!(std::mem::size_of::<Membership>() <= 24);
    assert_eq!(
        std::mem::size_of::<Option<Membership>>(),
        std::mem::size_of::<Membership>()
    );
}

/// An entry with a small id, on a small node.
fn e(elem: u64, home: u32) -> MemberEntry {
    MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(home),
    }
}

/// A replica one version behind replays the primary's step on its own
/// array, in place, and logs what the primary logged; one further
/// behind refuses a step until a full sync, which takes the primary's
/// array.
#[test]
fn a_replica_replays_the_primarys_step_on_its_own_array() {
    let (mut p, mut r) = (CollectionState::new(), CollectionState::new());
    for id in [1, 2, 3] {
        p.add(e(id, 0));
        assert!(r.sync(p.version(), SyncStep::Add(e(id, 0))));
    }
    assert_eq!(r.members(), p.members());
    assert_ne!(
        r.members().array_ptr(),
        p.members().array_ptr(),
        "each owns its array"
    );
    // A removal always fits, and so does an add after it: both states
    // shift in place, through the empty set.
    let at = (p.members().array_ptr(), r.members().array_ptr());
    for id in [1, 2, 3] {
        p.remove(ObjectId(id));
        assert!(r.sync(p.version(), SyncStep::Remove(ObjectId(id))));
    }
    p.add(e(4, 0));
    assert!(r.sync(7, SyncStep::Add(e(4, 0))));
    assert_eq!((p.members().array_ptr(), r.members().array_ptr()), at);
    assert_eq!(
        (r.members().to_vec(), r.members().holders()),
        (vec![e(4, 0)], 1)
    );
    assert_eq!(r.log(), p.log());
    // A step it already took changes nothing; one past the next is owed.
    assert!(r.sync(7, SyncStep::Add(e(9, 0))));
    p.add(e(5, 0));
    p.add(e(6, 0));
    assert!(!r.sync(9, SyncStep::Add(e(6, 0))));
    assert_eq!((r.version(), r.log()), (7, &p.log()[..7]));
    // A full sync takes the primary's array and logs the gap.
    assert!(r.sync(9, SyncStep::Full(p.members().clone())));
    assert_eq!(r.members().array_ptr(), p.members().array_ptr());
    assert_eq!(
        (r.log()[7].listed(), r.log()[7].span()),
        (&[e(5, 0), e(6, 0)][..], 2)
    );
}

/// What a state holds is marked primary-serialized, whichever way it got
/// there; a value built any other way is not.
#[test]
fn only_a_states_membership_is_marked_serialized() {
    let mut c = CollectionState::new();
    assert!(c.members().is_serialized());
    c.add(e(1, 0));
    let read = c.members().clone();
    assert!(read.is_serialized());
    let built = Membership::from(vec![e(2, 0)]);
    assert!(!built.is_serialized() && !read.union(&built).is_serialized());
    c.sync_to(3, built);
    assert!(c.members().is_serialized());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Writes shift arrays in place, so nothing but the holder count
    /// keeps a reader's version still. A primary (first synced to a
    /// membership that lists some elements under several homes, so some
    /// removals are multi-home) runs random adds and removals, and each
    /// one it commits queues its step for each of two replicas, with the
    /// membership it led to, as the client sends them. Queued syncs are
    /// delivered newest or oldest first, delivered again, or lost; a
    /// replica that cannot take a step is sent the membership instead.
    /// Meanwhile clones of any state's membership are taken and dropped.
    /// After every step: each held clone lists what it listed when
    /// taken, each state is its full-copy reference, and any two marked
    /// values at one version list the same entries.
    #[test]
    fn a_held_version_never_changes(
        first in entries(),
        ops in proptest::collection::vec((0u8..9, 1u64..12, 0u32..3, 0usize..3), 0..64)
    ) {
        let mut states: [CollectionState; 3] = Default::default();
        let mut models = [FullCopyLog::new(), FullCopyLog::new(), FullCopyLog::new()];
        states[0].sync_to(1, first.clone().into());
        models[0].sync_to(1, Membership::from(first).to_vec());
        // Syncs sent to each replica and not yet delivered.
        let mut queued: [Vec<(u64, SyncStep, Membership)>; 2] = Default::default();
        // Clones taken: the value, its state's version, what it listed.
        let mut held: Vec<(Membership, u64, Vec<MemberEntry>)> = Vec::new();
        for (kind, elem, home, pick) in ops {
            let (elem, home) = (ObjectId(elem), NodeId(home));
            let r = 1 + pick % 2;
            let before = states[0].version();
            let step = match kind {
                0 | 1 => {
                    let entry = MemberEntry { elem, home };
                    prop_assert_eq!(states[0].add(entry), models[0].add(entry));
                    Some(SyncStep::Add(entry))
                }
                2 => {
                    prop_assert_eq!(states[0].remove(elem), models[0].remove(elem));
                    Some(SyncStep::Remove(elem))
                }
                3..=5 => {
                    // Newest first, oldest first, or the oldest now and
                    // again later.
                    let queue = &mut queued[r - 1];
                    let sent = match kind {
                        3 => queue.pop(),
                        4 if !queue.is_empty() => Some(queue.remove(0)),
                        _ => queue.first().cloned(),
                    };
                    if let Some((version, step, members)) = sent {
                        let took = states[r].sync(version, step.clone());
                        prop_assert_eq!(took, models[r].sync(version, &step));
                        if !took {
                            let full = SyncStep::Full(members);
                            prop_assert!(states[r].sync(version, full.clone()));
                            prop_assert!(models[r].sync(version, &full));
                        }
                    }
                    None
                }
                6 => {
                    if !queued[r - 1].is_empty() {
                        queued[r - 1].remove(0);
                    }
                    None
                }
                _ if held.len() > pick => {
                    held.swap_remove(pick);
                    None
                }
                _ => {
                    let members = states[pick].members().clone();
                    let listed = members.to_vec();
                    held.push((members, states[pick].version(), listed));
                    None
                }
            };
            if let Some(step) = step.filter(|_| states[0].version() != before) {
                for queue in &mut queued {
                    let members = states[0].members().clone();
                    queue.push((states[0].version(), step.clone(), members));
                }
            }
            for (members, _, listed) in &held {
                prop_assert_eq!(&members.to_vec(), listed);
            }
            for (state, model) in states.iter().zip(&models) {
                prop_assert_eq!(state.version(), model.version);
                prop_assert_eq!(state.members().to_vec(), model.members.clone());
                let history: Vec<(u64, Vec<MemberEntry>)> =
                    state.history().map(|mv| (mv.version, mv.members.to_vec())).collect();
                prop_assert_eq!(&history, &model.log);
            }
            let live = states
                .iter()
                .map(|state| (state.version(), state.members()))
                .chain(held.iter().map(|(members, version, _)| (*version, members)))
                .chain(queued.iter().flatten().map(|(version, _, members)| (*version, members)));
            let mut at: BTreeMap<u64, &[MemberEntry]> = BTreeMap::new();
            for (version, members) in live {
                prop_assert!(members.is_serialized());
                let listed = *at.entry(version).or_insert(members);
                prop_assert_eq!(listed, &members[..], "v{}", version);
            }
        }
    }
}

/// What a replica holds of collection 1: its array's holder count and
/// address, its version, and what it lists.
fn replica_state(
    rt: &ThreadedRuntime<StoreMsg>,
    node: NodeId,
) -> (usize, usize, u64, Vec<MemberEntry>) {
    rt.with_service(node, |s: &StoreServer| {
        let coll = s.collection(CollectionId(1)).unwrap();
        let members = coll.members();
        (
            members.holders(),
            members.array_ptr() as usize,
            coll.version(),
            members.to_vec(),
        )
    })
    .unwrap()
}

/// Each replica owns its array, and an idle write shifts it in place.
/// After a preload and two idle writes: every replica's array has one
/// holder; further idle writes leave every buffer where it was; the
/// three `ListMembers` replies name one version, and the Leaderless
/// read is one of them, uncopied; and replies held across a write keep
/// listing their version while all three replicas move on.
#[test]
fn an_idle_write_shifts_each_replicas_own_array() {
    let timeout = SimDuration::from_millis(5_000);
    let mut rt = ThreadedRuntime::<StoreMsg>::new(15);
    let cn = rt.add_node("client");
    let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
    for &s in &servers {
        rt.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(cn, timeout);
    let cref = CollectionRef {
        id: CollectionId(1),
        home: servers[0],
        replicas: servers[1..].to_vec(),
    };
    let entry = |id: u64| MemberEntry {
        elem: ObjectId(id),
        home: servers[id as usize % 3],
    };
    client.create_collection(&mut rt, &cref).unwrap();
    for id in 1..=64 {
        client.add_member(&mut rt, &cref, entry(id)).unwrap();
    }
    client.add_member(&mut rt, &cref, entry(100)).unwrap();
    client.remove_member(&mut rt, &cref, ObjectId(3)).unwrap();

    let states: Vec<_> = servers.iter().map(|&s| replica_state(&rt, s)).collect();
    for (&node, (holders, _, version, listed)) in servers.iter().zip(&states) {
        assert_eq!((*holders, *version), (1, 66), "{node} owns its array");
        assert_eq!(listed, &states[0].3, "{node} lists the primary's version");
    }
    // A removal always fits, and so does an add after it: both shift
    // all three arrays in place.
    client.remove_member(&mut rt, &cref, ObjectId(5)).unwrap();
    client.add_member(&mut rt, &cref, entry(3)).unwrap();
    for (&node, before) in servers.iter().zip(&states) {
        let after = replica_state(&rt, node);
        assert_eq!((after.0, after.1, after.2), (1, before.1, 68), "{node}");
    }

    let replies: Vec<Membership> = servers
        .iter()
        .map(
            |&node| match rt.rpc(cn, node, StoreMsg::ListMembers(cref.id), timeout) {
                Ok(StoreMsg::Members {
                    version: 68,
                    entries,
                    committed: false,
                }) => entries,
                other => panic!("{node} answered {other:?}"),
            },
        )
        .collect();
    let listed = replies[0].to_vec();
    let want: Vec<MemberEntry> = (1..=64)
        .chain([100])
        .filter(|&id| id != 5)
        .map(entry)
        .collect();
    assert_eq!(listed, want);
    assert!(replies
        .iter()
        .all(|r| r.is_serialized() && *r == replies[0]));
    let read = client
        .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!((read.version, read.entries.to_vec()), (68, listed.clone()));
    assert!(
        replies.iter().any(|r| r.as_ptr() == read.entries.as_ptr()),
        "the union of one version is that version"
    );

    client.remove_member(&mut rt, &cref, ObjectId(7)).unwrap();
    for reply in &replies {
        assert_eq!(reply.to_vec(), listed, "a held reply never changes");
    }
    let now: Vec<MemberEntry> = want
        .iter()
        .filter(|m| m.elem != ObjectId(7))
        .copied()
        .collect();
    for &node in &servers {
        let (_, _, version, moved) = replica_state(&rt, node);
        assert_eq!((version, &moved), (69, &now), "{node}");
    }
    assert_eq!(read.entries.to_vec(), listed);
    let read = client
        .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!((read.version, read.entries.to_vec()), (69, now));
    assert!(
        read.entries.is_serialized(),
        "one replica's version, unmerged"
    );

    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}
