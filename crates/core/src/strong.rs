//! The strongly-consistent baseline: read-locked iteration.
//!
//! Section 3.1 observes that the stringent specifications force
//! implementations to lock: "typical implementations would use locks to
//! synchronize access to the set and its elements", and that mobile or
//! disconnected clients "may extend the period a lock is held
//! indefinitely". [`LockedElements`] is that implementation, built so the
//! experiments can measure exactly the costs the paper warns about.

use crate::conformance::{RunObserver, StepEvidence};
use crate::error::{Failure, IterStep};
use crate::iter::{fetch_first_reachable, order_candidates, IterConfig, ObserverSlot};
use std::collections::BTreeSet;
use weakset_spec::prelude::Computation;
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::object::ObjectId;
use weakset_store::prelude::{CollectionRef, StoreClient, StoreRt};

/// A strongly-consistent `elements` iterator.
///
/// On the first invocation it acquires a read lock on the collection's
/// primary — blocking all membership mutations — then reads the
/// membership; the lock is held until the run terminates, making the set
/// immutable *for the duration of the run* (the relaxed §3.1 constraint).
/// Failures are signalled pessimistically, like Figure 3.
///
/// Call [`LockedElements::next`] to completion, or call
/// [`LockedElements::abort`] to release the lock early; dropping the
/// iterator mid-run leaks the lock (exactly the disconnection hazard §3.1
/// describes — and measurable in the experiments).
#[derive(Debug)]
pub struct LockedElements {
    client: StoreClient,
    cref: CollectionRef,
    config: IterConfig,
    members: Option<Membership>,
    version: u64,
    yielded: BTreeSet<ObjectId>,
    terminated: bool,
    lock_held: bool,
    cache: Option<weakset_store::cache::ObjectCache>,
    observer: ObserverSlot,
    /// Causal context of the computation's trace root (the first
    /// invocation's span); later invocations parent under it.
    pub(crate) trace: Option<weakset_sim::metrics::TraceContext>,
}

impl LockedElements {
    /// Creates the iterator; the lock is taken on the first `next`.
    pub fn new(client: StoreClient, cref: CollectionRef, config: IterConfig) -> Self {
        let cache = crate::iter::cache_from(&config);
        LockedElements {
            client,
            cref,
            config,
            members: None,
            version: 0,
            yielded: BTreeSet::new(),
            terminated: false,
            lock_held: false,
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

    /// Whether this run currently holds the read lock.
    pub fn holds_lock(&self) -> bool {
        self.lock_held
    }

    /// Releases the lock and terminates the run without consuming the
    /// remaining elements.
    pub fn abort(&mut self, world: &mut StoreRt) {
        self.release(world);
        self.terminated = true;
    }

    fn release(&mut self, world: &mut StoreRt) {
        if self.lock_held {
            // Best effort: if the primary is unreachable the lock leaks
            // until the run's owner reconnects (§3.1's hazard).
            let _ = self.client.release_read_lock(world, &self.cref);
            self.lock_held = false;
        }
    }

    /// One invocation under the read lock.
    pub fn next(&mut self, world: &mut StoreRt) -> IterStep {
        if self.terminated {
            return IterStep::Done;
        }
        self.observer.mark_start(world);
        if self.members.is_none() {
            if let Err(e) = self.client.acquire_read_lock(world, &self.cref) {
                let step = IterStep::Failed(Failure::Store(e));
                self.terminated = true;
                let ev = StepEvidence {
                    membership_unreachable: true,
                    ..Default::default()
                };
                self.observer.record(world, &step, &ev);
                return step;
            }
            self.lock_held = true;
            match self
                .client
                .read_members(world, &self.cref, self.config.read_policy)
            {
                Ok(read) => {
                    self.version = read.version;
                    self.members = Some(read.entries);
                }
                Err(e) => {
                    self.release(world);
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
        let members = self.members.clone().expect("membership read under lock");
        let mut candidates: Vec<MemberEntry> = members
            .iter()
            .filter(|m| !self.yielded.contains(&m.elem))
            .copied()
            .collect();
        if candidates.is_empty() {
            self.release(world);
            let step = IterStep::Done;
            self.terminated = true;
            self.observer
                .record(world, &step, &StepEvidence::at_version(self.version));
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
                    members_version: Some(self.version),
                    confirmed_reachable: step.elem().into_iter().collect(),
                    confirmed_unreachable: unreachable,
                    membership_unreachable: false,
                };
                self.observer.record(world, &step, &ev);
                step
            }
            None => {
                self.release(world);
                let step = IterStep::Failed(Failure::MembersUnreachable {
                    remaining: candidates.len(),
                });
                self.terminated = true;
                let ev = StepEvidence {
                    members_version: Some(self.version),
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
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_sim::world::WorldConfig;
    use weakset_spec::checker::{Checker, Figure};
    use weakset_spec::constraint::ConstraintKind;
    use weakset_store::object::{CollectionId, ObjectRecord};
    use weakset_store::prelude::StoreWorld;
    use weakset_store::prelude::{StoreError, StoreServer};

    fn setup(
        n: usize,
    ) -> (
        StoreWorld,
        StoreClient,
        CollectionRef,
        Vec<weakset_sim::node::NodeId>,
    ) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n);
        let mut w = StoreWorld::new(
            WorldConfig::seeded(23),
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
    fn iterates_under_lock_and_releases() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = LockedElements::new(client.clone(), cref.clone(), IterConfig::default());
        it.observe(RunObserver::new(cref.id, cref.home, client.node()));
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        assert!(it.holds_lock());
        // A writer is refused while the run is live.
        let writer = StoreClient::new(client.node(), SimDuration::from_millis(50));
        assert_eq!(
            writer.add_member(
                &mut w,
                &cref,
                MemberEntry {
                    elem: ObjectId(9),
                    home: servers[0]
                }
            ),
            Err(StoreError::Locked)
        );
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        assert_eq!(it.next(&mut w), IterStep::Done);
        assert!(!it.holds_lock());
        // Writer succeeds after release.
        assert!(writer
            .add_member(
                &mut w,
                &cref,
                MemberEntry {
                    elem: ObjectId(9),
                    home: servers[0]
                }
            )
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
        let mut it = LockedElements::new(client, cref, IterConfig::default());
        assert!(matches!(
            it.next(&mut w),
            IterStep::Failed(Failure::Store(_))
        ));
        assert!(!it.holds_lock());
    }

    #[test]
    fn abort_releases_early() {
        let (mut w, client, cref, servers) = setup(1);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[0]);
        let mut it = LockedElements::new(client.clone(), cref.clone(), IterConfig::default());
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        it.abort(&mut w);
        assert!(!it.holds_lock());
        assert_eq!(it.next(&mut w), IterStep::Done);
        let writer = StoreClient::new(client.node(), SimDuration::from_millis(50));
        assert!(writer
            .add_member(
                &mut w,
                &cref,
                MemberEntry {
                    elem: ObjectId(9),
                    home: servers[0]
                }
            )
            .is_ok());
    }

    #[test]
    fn disconnection_leaks_lock_and_stalls_writers() {
        let (mut w, client, cref, servers) = setup(2);
        add(&mut w, &client, &cref, 1, servers[0]);
        add(&mut w, &client, &cref, 2, servers[1]);
        let mut it = LockedElements::new(client.clone(), cref.clone(), IterConfig::default());
        assert!(matches!(it.next(&mut w), IterStep::Yielded(_)));
        // Element 2's node vanishes: the run fails... and releases. To
        // model a *client* disconnection leaking the lock, partition the
        // client right before release: the release RPC fails silently.
        w.topology_mut().partition(&[client.node()]);
        let step = it.next(&mut w);
        assert!(matches!(step, IterStep::Failed(_)));
        assert!(!it.holds_lock()); // client *thinks* it released
        w.topology_mut().heal_partition();
        // But the primary never heard the release: writers still stall.
        let writer = StoreClient::new(servers[1], SimDuration::from_millis(50));
        assert_eq!(
            writer.add_member(
                &mut w,
                &cref,
                MemberEntry {
                    elem: ObjectId(9),
                    home: servers[0]
                }
            ),
            Err(StoreError::Locked)
        );
    }
}
