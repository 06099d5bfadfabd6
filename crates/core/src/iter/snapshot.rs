//! Snapshot semantics (Figures 1/3/4): iterate the membership as it was at
//! the first invocation.

use super::{fetch_first_reachable, order_candidates, IterConfig, ObserverSlot};
use crate::conformance::{RunObserver, StepEvidence};
use crate::error::{Failure, IterStep};
use std::collections::BTreeSet;
use weakset_spec::prelude::Computation;
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::object::ObjectId;
use weakset_store::prelude::{CollectionRef, StoreClient, StoreRt};

/// The snapshot `elements` iterator.
///
/// The membership list is read once — atomically, at the primary — on the
/// first invocation; the run then drains that snapshot. Additions after
/// the first invocation are missed and removals may still be yielded
/// ("loss of mutations", Figure 4). Failures are handled pessimistically:
/// when every unyielded snapshot member is unreachable the iterator
/// signals failure.
#[derive(Debug)]
pub struct SnapshotElements {
    client: StoreClient,
    cref: CollectionRef,
    config: IterConfig,
    snapshot: Option<(u64, Membership)>,
    yielded: BTreeSet<ObjectId>,
    terminated: bool,
    cache: Option<weakset_store::cache::ObjectCache>,
    observer: ObserverSlot,
    /// Causal context of the computation's trace root (the first
    /// invocation's span); later invocations parent under it.
    pub(crate) trace: Option<weakset_sim::metrics::TraceContext>,
}

impl SnapshotElements {
    /// Creates the iterator; nothing is read until the first `next`.
    pub fn new(client: StoreClient, cref: CollectionRef, config: IterConfig) -> Self {
        let cache = super::cache_from(&config);
        SnapshotElements {
            client,
            cref,
            config,
            snapshot: None,
            yielded: BTreeSet::new(),
            terminated: false,
            cache,
            observer: ObserverSlot::default(),
            trace: None,
        }
    }

    /// Attaches a conformance observer to this run.
    pub fn observe(&mut self, observer: RunObserver) {
        self.observer.attach(observer);
    }

    /// Finishes observation (if any) and returns the recorded computation.
    pub fn take_computation(&mut self, world: &StoreRt) -> Option<Computation> {
        self.observer.take_computation(world)
    }

    /// Detaches the live observer for hand-off to another run (keeps the
    /// computation growing across runs).
    pub fn take_observer(&mut self) -> Option<RunObserver> {
        self.observer.take_observer()
    }

    /// Hands the warm object cache to a subsequent run (the paper's
    /// history-object-as-cache, persisted across uses of the iterator).
    pub fn take_cache(&mut self) -> Option<weakset_store::cache::ObjectCache> {
        self.cache.take()
    }

    /// Installs a (possibly pre-warmed) object cache.
    pub fn set_cache(&mut self, cache: weakset_store::cache::ObjectCache) {
        self.cache = Some(cache);
    }

    /// Elements yielded so far.
    pub fn yielded(&self) -> &BTreeSet<ObjectId> {
        &self.yielded
    }

    /// One invocation: yield an unyielded snapshot member, terminate, or
    /// fail. Calling again after termination returns [`IterStep::Done`].
    pub fn next(&mut self, world: &mut StoreRt) -> IterStep {
        if self.terminated {
            return IterStep::Done;
        }
        self.observer.mark_start(world);
        // First invocation: take the atomic snapshot.
        if self.snapshot.is_none() {
            match self
                .client
                .read_members(world, &self.cref, self.config.read_policy)
            {
                Ok(read) => self.snapshot = Some((read.version, read.entries)),
                Err(e) => {
                    let step = IterStep::Failed(Failure::MembershipUnavailable(e));
                    self.terminated = true;
                    let ev = StepEvidence {
                        membership_unreachable: true,
                        ..Default::default()
                    };
                    self.observer.record(world, &step, &ev);
                    return step;
                }
            }
        }
        let (version, members) = self.snapshot.clone().expect("snapshot just taken");
        let mut candidates: Vec<MemberEntry> = members
            .iter()
            .filter(|m| !self.yielded.contains(&m.elem))
            .copied()
            .collect();
        if candidates.is_empty() {
            let step = IterStep::Done;
            self.terminated = true;
            self.observer
                .record(world, &step, &StepEvidence::at_version(version));
            return step;
        }
        order_candidates(
            world,
            self.client.node(),
            &mut candidates,
            self.config.fetch_order,
        );
        let (found, unreachable) =
            fetch_first_reachable(world, &self.client, &candidates, &mut self.cache);
        match found {
            Some(rec) => {
                self.yielded.insert(rec.id);
                let step = IterStep::Yielded(rec);
                let ev = StepEvidence {
                    members_version: Some(version),
                    confirmed_reachable: step.elem().into_iter().collect(),
                    confirmed_unreachable: unreachable,
                    membership_unreachable: false,
                };
                self.observer.record(world, &step, &ev);
                step
            }
            None => {
                let step = IterStep::Failed(Failure::MembersUnreachable {
                    remaining: candidates.len(),
                });
                self.terminated = true;
                let ev = StepEvidence {
                    members_version: Some(version),
                    confirmed_unreachable: unreachable,
                    ..Default::default()
                };
                self.observer.record(world, &step, &ev);
                step
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::RunObserver;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_sim::world::WorldConfig;
    use weakset_spec::checker::{check_computation, Figure};
    use weakset_store::object::{CollectionId, ObjectRecord};
    use weakset_store::prelude::StoreServer;
    use weakset_store::prelude::StoreWorld;

    fn setup(
        n_servers: usize,
    ) -> (
        StoreWorld,
        StoreClient,
        CollectionRef,
        Vec<weakset_sim::node::NodeId>,
    ) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n_servers);
        let mut w = StoreWorld::new(
            WorldConfig::seeded(11),
            t,
            LatencyModel::Constant(SimDuration::from_millis(1)),
        );
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(50));
        let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        (w, client, cref, servers)
    }

    fn add(
        w: &mut StoreWorld,
        client: &StoreClient,
        cref: &CollectionRef,
        id: u64,
        home: weakset_sim::node::NodeId,
    ) {
        client
            .put_object(
                w,
                home,
                ObjectRecord::new(ObjectId(id), format!("o{id}"), &b"x"[..]),
            )
            .unwrap();
        client
            .add_member(
                w,
                cref,
                MemberEntry {
                    elem: ObjectId(id),
                    home,
                },
            )
            .unwrap();
    }

    #[test]
    fn drains_the_set_and_returns() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = SnapshotElements::new(client, cref.clone(), IterConfig::default());
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
        let mut it = SnapshotElements::new(client.clone(), cref.clone(), IterConfig::default());
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
        let mut it = SnapshotElements::new(
            client.clone(),
            cref.clone(),
            IterConfig {
                fetch_order: super::super::FetchOrder::IdOrder,
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
        let mut it = SnapshotElements::new(client.clone(), cref.clone(), IterConfig::default());
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
        let mut it = SnapshotElements::new(client.clone(), cref.clone(), IterConfig::default());
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
        let mut it = SnapshotElements::new(client, cref, IterConfig::default());
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert!(it.yielded().is_empty());
    }

    #[test]
    fn heal_mid_run_lets_it_finish() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = SnapshotElements::new(client.clone(), cref.clone(), IterConfig::default());
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        w.topology_mut().partition(&[servers[1]]);
        w.topology_mut().heal_partition();
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        assert_eq!(it.next(&mut w), IterStep::Done);
    }
}
