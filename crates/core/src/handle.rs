//! The `WeakSet` handle: the paper's set interface (`create`, `add`,
//! `remove`, `size`, `elements`) bound to a distributed collection.

use crate::conformance::HistorySource;
use crate::error::{Failure, IterStep};
use crate::iter::{Elements, IterConfig, COLLECT_MAX_BLOCKS};
use crate::semantics::Semantics;
use weakset_sim::node::NodeId;
use weakset_store::collection::MemberEntry;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreRt};

/// A weak set: a distributed collection plus the client operating on it.
///
/// Mutations (`add`, `remove`) are serialized at the collection's primary;
/// membership queries (`size`, `contains`) read under the configured
/// policy; and [`WeakSet::elements`] opens an iterator at any point of the
/// paper's design space.
#[derive(Clone, Debug)]
pub struct WeakSet {
    client: StoreClient,
    cref: CollectionRef,
    config: IterConfig,
}

impl WeakSet {
    /// Binds a client to an existing collection with default iteration
    /// config.
    pub fn new(client: StoreClient, cref: CollectionRef) -> Self {
        WeakSet {
            client,
            cref,
            config: IterConfig::default(),
        }
    }

    /// Overrides the iteration configuration.
    #[must_use]
    pub fn with_config(mut self, config: IterConfig) -> Self {
        self.config = config;
        self
    }

    /// The collection this set is bound to.
    pub fn cref(&self) -> &CollectionRef {
        &self.cref
    }

    /// The client this set operates through.
    pub fn client(&self) -> &StoreClient {
        &self.client
    }

    /// The iteration configuration.
    pub fn config(&self) -> &IterConfig {
        &self.config
    }

    /// Stores `rec` on `home` and adds it to the set.
    ///
    /// # Errors
    ///
    /// [`Failure::Store`] when the object cannot be stored or the primary
    /// refuses/misses the membership update.
    pub fn add(&self, world: &mut StoreRt, rec: ObjectRecord, home: NodeId) -> Result<(), Failure> {
        let elem = rec.id;
        self.client.put_object(world, home, rec)?;
        self.client
            .add_member(world, &self.cref, MemberEntry { elem, home })?;
        Ok(())
    }

    /// Removes an element from the set (the stored object is left in
    /// place; item mutation is modelled as remove-then-add, per §3).
    ///
    /// # Errors
    ///
    /// [`Failure::Store`] when the primary is unreachable or locked.
    pub fn remove(&self, world: &mut StoreRt, elem: ObjectId) -> Result<(), Failure> {
        self.client.remove_member(world, &self.cref, elem)?;
        Ok(())
    }

    /// `size`: the current membership count under the configured read
    /// policy.
    ///
    /// # Errors
    ///
    /// [`Failure::MembershipUnavailable`] when membership cannot be read.
    pub fn size(&self, world: &mut StoreRt) -> Result<usize, Failure> {
        self.client
            .read_members(world, &self.cref, self.config.read_policy)
            .map(|r| r.entries.len())
            .map_err(Failure::MembershipUnavailable)
    }

    /// Membership test under the configured read policy.
    ///
    /// # Errors
    ///
    /// [`Failure::MembershipUnavailable`] when membership cannot be read.
    pub fn contains(&self, world: &mut StoreRt, elem: ObjectId) -> Result<bool, Failure> {
        self.client
            .read_members(world, &self.cref, self.config.read_policy)
            .map(|r| r.entries.contains(elem))
            .map_err(Failure::MembershipUnavailable)
    }

    /// Opens an `elements` iterator with the chosen semantics.
    pub fn elements(&self, semantics: Semantics) -> Elements {
        Elements::new(
            semantics,
            self.client.clone(),
            self.cref.clone(),
            self.config.clone(),
        )
    }

    /// Opens an iterator with a conformance observer already attached
    /// (see [`Elements::observed`] for another history source).
    pub fn elements_observed(&self, semantics: Semantics) -> Elements {
        self.elements(semantics).observed(HistorySource::default())
    }

    /// Convenience: drives a fresh iterator to its terminal step,
    /// returning everything yielded plus the terminal step.
    pub fn collect(
        &self,
        world: &mut StoreRt,
        semantics: Semantics,
    ) -> (Vec<ObjectRecord>, IterStep) {
        self.elements(semantics)
            .drain(world, COLLECT_MAX_BLOCKS, self.config.retry_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_sim::traits::ServiceHost;
    use weakset_spec::checker::check_computation;
    use weakset_store::object::CollectionId;
    use weakset_store::prelude::StoreServer;
    use weakset_store::prelude::StoreWorld;

    fn setup(n: usize) -> (StoreWorld, WeakSet, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("s", n);
        let mut w = StoreWorld::new(29, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        let client = StoreClient::new(cn, SimDuration::from_millis(50));
        let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
        client.create_collection(&mut w, &cref).unwrap();
        (w, WeakSet::new(client, cref), servers)
    }

    #[test]
    fn set_interface_round_trip() {
        let (mut w, set, servers) = setup(2);
        assert_eq!(set.size(&mut w).unwrap(), 0);
        set.add(
            &mut w,
            ObjectRecord::new(ObjectId(1), "a", &b"1"[..]),
            servers[0],
        )
        .unwrap();
        set.add(
            &mut w,
            ObjectRecord::new(ObjectId(2), "b", &b"2"[..]),
            servers[1],
        )
        .unwrap();
        assert_eq!(set.size(&mut w).unwrap(), 2);
        assert!(set.contains(&mut w, ObjectId(1)).unwrap());
        set.remove(&mut w, ObjectId(1)).unwrap();
        assert!(!set.contains(&mut w, ObjectId(1)).unwrap());
        assert_eq!(set.size(&mut w).unwrap(), 1);
    }

    #[test]
    fn collect_works_for_every_semantics() {
        let (mut w, set, servers) = setup(3);
        for i in 0..6u64 {
            set.add(
                &mut w,
                ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
                servers[(i % 3) as usize],
            )
            .unwrap();
        }
        for sem in Semantics::ALL {
            let (got, end) = set.collect(&mut w, sem);
            assert_eq!(end, IterStep::Done, "{sem}");
            assert_eq!(got.len(), 6, "{sem}");
        }
    }

    #[test]
    fn observed_iteration_conforms_to_its_figure() {
        let (mut w, set, servers) = setup(2);
        for i in 0..4u64 {
            set.add(
                &mut w,
                ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
                servers[(i % 2) as usize],
            )
            .unwrap();
        }
        for sem in Semantics::ALL {
            let mut it = set.elements_observed(sem);
            assert_eq!(it.semantics(), sem);
            loop {
                match it.next(&mut w) {
                    IterStep::Yielded(_) => {}
                    IterStep::Done => break,
                    other => panic!("{sem}: {other:?}"),
                }
            }
            let comp = it.take_computation(&w).expect("observer attached");
            check_computation(sem.figure(), &comp).assert_ok();
        }
    }

    #[test]
    fn add_fails_when_primary_down() {
        let (mut w, set, servers) = setup(1);
        w.topology_mut().crash(servers[0]);
        let r = set.add(
            &mut w,
            ObjectRecord::new(ObjectId(1), "a", &b""[..]),
            servers[0],
        );
        assert!(matches!(r, Err(Failure::Store(_))));
        assert!(matches!(
            set.size(&mut w),
            Err(Failure::MembershipUnavailable(_))
        ));
    }

    #[test]
    fn with_config_applies() {
        let (_w, set, _servers) = setup(1);
        let set = set.with_config(IterConfig {
            block_attempts: 9,
            ..Default::default()
        });
        assert_eq!(set.config().block_attempts, 9);
        assert!(set.cref().replicas.is_empty());
        assert_eq!(set.client().node(), NodeId(0));
    }
}
