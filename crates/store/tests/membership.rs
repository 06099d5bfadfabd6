//! [`Membership`] as a value: its set algebra against the sort-and-dedup
//! oracle it replaced, the one-array-per-version sharing it exists for,
//! observed across a threaded fleet, and the version log of changes
//! against the log of full copies it replaced.

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
    assert!(Membership::ptr_eq(
        &one.without(ObjectId(3)),
        &Membership::new()
    ));
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
            if !Membership::ptr_eq(&before, state.members()) {
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
/// entries themselves hold nothing on the heap.
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
            assert_eq!(primary.members().holders(), 2, "one array per version");
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
    // Every reply carries one: provenance may not quietly grow it.
    assert!(std::mem::size_of::<Membership>() <= 40);
    assert_eq!(
        replica.members_at(primary.version() - 1),
        primary.members_at(primary.version() - 1)
    );
}

/// One allocation per version across the fleet: after `add_member`, the
/// three replicas' live states, all three `ListMembers` replies and the
/// Leaderless union are the same array — and nothing else holds it.
#[test]
fn a_version_is_one_array_across_a_threaded_fleet() {
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
    client.create_collection(&mut rt, &cref).unwrap();
    for id in [7, 3, 5] {
        let entry = MemberEntry {
            elem: ObjectId(id),
            home: servers[id as usize % 3],
        };
        client.add_member(&mut rt, &cref, entry).unwrap();
    }

    let logged = rt
        .with_service(cref.home, |s: &StoreServer| {
            let coll = s.collection(cref.id).unwrap();
            assert_eq!(coll.members().holders(), 3, "one per replica, no log");
            coll.members().clone()
        })
        .unwrap();
    assert_eq!(logged.len(), 3);
    for &node in &servers {
        match rt.rpc(cn, node, StoreMsg::ListMembers(cref.id), timeout) {
            Ok(StoreMsg::Members {
                version: 3,
                entries,
            }) => assert!(Membership::ptr_eq(&entries, &logged), "reply of {node}"),
            other => panic!("{node} answered {other:?}"),
        }
    }
    let read = client
        .read_members(&mut rt, &cref, ReadPolicy::Leaderless)
        .unwrap();
    assert_eq!(read.version, 3);
    assert!(Membership::ptr_eq(&read.entries, &logged));

    rt.shutdown(Duration::from_secs(10))
        .expect("no node thread should hang at shutdown");
}
