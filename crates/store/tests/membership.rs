//! [`Membership`] as a value: its set algebra against the sort-and-dedup
//! oracle it replaced, and the one-array-per-version sharing it exists
//! for, observed across a threaded fleet.

use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// One allocation per version across the fleet: after `add_member`, the
/// primary's log entry, all three `ListMembers` replies and the
/// Leaderless union are the same array.
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
            assert!(Membership::ptr_eq(
                coll.members(),
                &coll.log().last().unwrap().members
            ));
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
