//! [`Membership`] as a value: its set algebra against the sort-and-dedup
//! oracle it replaced, copy-on-write (a held version never changes, and
//! an idle write shifts each replica's own array in place, observed
//! across a threaded fleet), and the version log of changes against the
//! log of full copies it replaced.

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

    /// Driven as `CollectionState` drives it — one home per element —
    /// `with` / `without` / `contains` track a map.
    #[test]
    fn with_and_without_agree_with_a_map(
        ops in proptest::collection::vec((0u8..3, 1u64..12, 0u32..3), 0..48)
    ) {
        let mut m = Membership::new();
        let mut model: BTreeMap<ObjectId, NodeId> = BTreeMap::new();
        for (kind, elem, home) in ops {
            let (elem, home) = (ObjectId(elem), NodeId(home));
            prop_assert_eq!(m.contains(elem), model.contains_key(&elem));
            if kind == 0 {
                m = m.without(elem);
                model.remove(&elem);
            } else if !m.contains(elem) {
                m = m.with(MemberEntry { elem, home });
                model.insert(elem, home);
            }
            let want: Vec<MemberEntry> =
                model.iter().map(|(&elem, &home)| MemberEntry { elem, home }).collect();
            prop_assert_eq!(m.to_vec(), want);
        }
    }
}

/// The bulk-copy builders where their copies are empty: `with` at either
/// end, `without` of the first, last, only and a multi-home element —
/// each against the sort-and-dedup oracle.
#[test]
fn with_and_without_at_the_edges() {
    let e = |elem: u64, home: u32| MemberEntry {
        elem: ObjectId(elem),
        home: NodeId(home),
    };
    let raw = [e(6, 0), e(4, 1), e(2, 0), e(4, 0)];
    let m = Membership::from(raw.to_vec());
    // Before the first entry, after the last.
    for entry in [e(1, 0), e(7, 0)] {
        assert_eq!(
            m.with(entry).to_vec(),
            oracle(&raw, &[entry]),
            "with {entry:?}"
        );
    }
    // The first, the last, and one listed under two homes.
    for gone in [2, 6, 4] {
        let kept: Vec<MemberEntry> = raw.iter().filter(|x| x.elem.0 != gone).copied().collect();
        assert_eq!(
            m.without(ObjectId(gone)).to_vec(),
            oracle(&kept, &[]),
            "without {gone}"
        );
    }
    let one = Membership::new().with(e(3, 1));
    assert_eq!(one.to_vec(), oracle(&[e(3, 1)], &[]));
    let none = one.without(ObjectId(3));
    assert_eq!((none.holders(), none.id()), (0, 0), "the empty membership");
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

    /// Random add / remove / sync (stale, equal, one ahead, skipping) /
    /// defer / apply-deferred sequences: every operation answers as the
    /// full-copy reference does, and after each one the version sequence,
    /// `members_at` at every version (and at versions never committed),
    /// `history`, the deferred set and the set of every `(elem, home)`
    /// ever listed agree with it. Synced arrays go in as built, so a
    /// sync one step from the held array takes the O(1) path; a twin
    /// fed a fresh copy of each diffs every sync, and logs the same.
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
        // The array `state` held before its current one.
        let mut held = Membership::new();
        for (kind, elem, home, ahead, synced) in ops {
            let (elem, home) = (ObjectId(elem), NodeId(home));
            let entry = MemberEntry { elem, home };
            let before = state.members().clone();
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
                    let next = state.version() + 1;
                    let (version, members) = match kind {
                        // A child of the held array, as the primary's
                        // replication carries it: one entry more, or
                        // fewer (several, for a multi-home element).
                        5 => (next, before.with(entry)),
                        6 => (next, before.without(elem)),
                        // A sibling: built from the array held before.
                        7 => (next, held.with(entry)),
                        // A child that is stale, equal, or skips
                        // versions: -2..=5 from the current one.
                        8 => ((state.version() + ahead).saturating_sub(2), before.with(entry)),
                        // An array this replica never held.
                        _ => ((state.version() + ahead).saturating_sub(2), synced.into()),
                    };
                    twin.sync_to(version, members.to_vec().into());
                    prop_assert_eq!(
                        state.sync_to(version, members.clone()),
                        model.sync_to(version, members.to_vec())
                    );
                }
            }
            if before.id() != state.members().id() {
                held = before;
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
/// commits — on the primary and on a replica synced to it — and the
/// entries themselves hold nothing on the heap. The test holds each
/// version across its write, so every write copies and the replica
/// shares the primary's array: the held-snapshot case.
#[test]
fn a_long_history_pins_no_array() {
    let entry = |id: u64| MemberEntry {
        elem: ObjectId(id),
        home: NodeId(id as u32 % 3),
    };
    let (mut primary, mut replica) = (CollectionState::new(), CollectionState::new());
    for id in 0..512 {
        primary.add(entry(id));
    }
    replica.sync_to(primary.version(), primary.members().clone());
    let preload = primary.log().len();
    for round in 0..200u64 {
        for add in [true, false] {
            let before = primary.members().clone();
            assert_eq!(before.holders(), 3, "primary, replica, this test");
            let id = 1_000 + round;
            assert!(if add {
                primary.add(entry(id))
            } else {
                primary.remove(ObjectId(id))
            });
            assert_eq!(before.holders(), 2, "the primary let go");
            assert!(replica.sync_to(primary.version(), primary.members().clone()));
            assert_eq!(
                before.holders(),
                1,
                "no logged array outlives its successor"
            );
            assert_eq!(primary.members().holders(), 2, "the replica shares it");
        }
    }
    for state in [&primary, &replica] {
        assert_eq!(state.len(), 512);
        let writes = &state.log()[state.log().len() - 400..];
        assert!(writes
            .iter()
            .all(|c| matches!(c, Change::Added(_) | Change::Removed(_))));
    }
    assert_eq!(primary.log().len(), preload + 400);
    assert!(std::mem::size_of::<Change>() <= 3 * std::mem::size_of::<u64>());
    // Every reply carries one: provenance may not quietly grow it, nor
    // take the niche that keeps the enums around it as small.
    assert!(std::mem::size_of::<Membership>() <= 40);
    assert_eq!(
        std::mem::size_of::<Option<Membership>>(),
        std::mem::size_of::<Membership>()
    );
    assert_eq!(
        replica.members_at(primary.version() - 1),
        primary.members_at(primary.version() - 1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Writes shift arrays in place, so nothing but the holder count
    /// keeps a reader's version still. A primary (first synced to a
    /// membership that lists some elements under several homes, so some
    /// removals are multi-home) and two replicas run random adds,
    /// removals and syncs — sent now or queued and delivered oldest or
    /// newest first, so in order, skipping, or stale — while clones of
    /// any state's membership are taken and dropped. After every step:
    /// each held clone lists what it listed when taken, each state is
    /// its full-copy reference, and any two live values with one id list
    /// the same entries.
    #[test]
    fn a_held_version_never_changes(
        first in entries(),
        ops in proptest::collection::vec((0u8..8, 1u64..12, 0u32..3, 0usize..3), 0..64)
    ) {
        let mut states: [CollectionState; 3] = Default::default();
        let mut models = [FullCopyLog::new(), FullCopyLog::new(), FullCopyLog::new()];
        states[0].sync_to(1, first.clone().into());
        models[0].sync_to(1, Membership::from(first).to_vec());
        // Syncs sent to each replica and not yet delivered.
        let mut queued: [Vec<(u64, Membership)>; 2] = Default::default();
        let mut held: Vec<(Membership, Vec<MemberEntry>)> = Vec::new();
        for (kind, elem, home, pick) in ops {
            let (elem, home) = (ObjectId(elem), NodeId(home));
            let r = 1 + pick % 2;
            match kind {
                0 | 1 => {
                    let entry = MemberEntry { elem, home };
                    prop_assert_eq!(states[0].add(entry), models[0].add(entry));
                }
                2 => prop_assert_eq!(states[0].remove(elem), models[0].remove(elem)),
                3 | 4 => {
                    let (version, members) = if kind == 3 {
                        (states[0].version(), states[0].members().clone())
                    } else {
                        match queued[r - 1].pop() {
                            Some(sent) => sent,
                            None => continue,
                        }
                    };
                    let want = members.to_vec();
                    prop_assert_eq!(
                        states[r].sync_to(version, members),
                        models[r].sync_to(version, want)
                    );
                }
                5 => queued[r - 1].push((states[0].version(), states[0].members().clone())),
                6 if !queued[r - 1].is_empty() => {
                    let (version, members) = queued[r - 1].remove(0);
                    let want = members.to_vec();
                    prop_assert_eq!(
                        states[r].sync_to(version, members),
                        models[r].sync_to(version, want)
                    );
                }
                6 => {}
                _ if held.len() > pick => {
                    held.swap_remove(pick);
                }
                _ => {
                    let members = states[pick].members().clone();
                    let listed = members.to_vec();
                    held.push((members, listed));
                }
            }
            for (members, listed) in &held {
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
                .map(CollectionState::members)
                .chain(held.iter().map(|(members, _)| members))
                .chain(queued.iter().flatten().map(|(_, members)| members));
            let mut named: BTreeMap<u64, &[MemberEntry]> = BTreeMap::new();
            for members in live {
                let listed = *named.entry(members.id()).or_insert(members);
                prop_assert_eq!(listed, &members[..], "id {}", members.id());
            }
        }
    }
}

/// What a replica holds of collection 1: its array's holder count and
/// address, its version, and its membership's id.
fn replica_state(rt: &ThreadedRuntime<StoreMsg>, node: NodeId) -> (usize, usize, u64, u64) {
    rt.with_service(node, |s: &StoreServer| {
        let coll = s.collection(CollectionId(1)).unwrap();
        let members = coll.members();
        (
            members.holders(),
            members.as_ptr() as usize,
            coll.version(),
            members.id(),
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
    for (&node, &(holders, _, version, id)) in servers.iter().zip(&states) {
        assert_eq!((holders, version), (1, 66), "{node} owns its array");
        assert_eq!(id, states[0].3, "{node} names the primary's version");
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
    assert!(replies.iter().all(|r| r.id() == replies[0].id()));
    let read = client
        .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!((read.version, read.entries.id()), (68, replies[0].id()));
    assert!(
        replies.iter().any(|r| r.as_ptr() == read.entries.as_ptr()),
        "the union of one version is that version"
    );

    client.remove_member(&mut rt, &cref, ObjectId(7)).unwrap();
    for reply in &replies {
        assert_eq!(reply.to_vec(), listed, "a held reply never changes");
    }
    let moved: Vec<_> = servers.iter().map(|&s| replica_state(&rt, s)).collect();
    for (&node, &(_, _, version, id)) in servers.iter().zip(&moved) {
        assert_eq!(version, 69, "{node}");
        assert_ne!(id, replies[0].id(), "{node}");
        assert_eq!(id, moved[0].3, "{node}");
    }
    assert_eq!(read.entries.to_vec(), listed);
    let now = client
        .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!(
        now.entries.to_vec(),
        want.iter()
            .filter(|m| m.elem != ObjectId(7))
            .copied()
            .collect::<Vec<_>>()
    );
    assert_eq!(now.entries.id(), moved[0].3);

    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}
