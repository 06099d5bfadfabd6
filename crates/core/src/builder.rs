//! Builder for configuring and creating weak sets.

use crate::error::Failure;
use crate::handle::WeakSet;
use crate::iter::{FetchOrder, IterConfig};
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::object::CollectionId;
use weakset_store::prelude::{CollectionRef, ReadPolicy, StoreClient, StoreRt};

/// Configures a [`WeakSet`]: where the collection lives, who operates on
/// it, and how iteration behaves.
///
/// ```no_run
/// # use weakset::builder::WeakSetBuilder;
/// # use weakset_store::prelude::*;
/// # use weakset_sim::prelude::*;
/// # fn demo(world: &mut StoreRt, client_node: NodeId, home: NodeId, replica: NodeId)
/// #     -> Result<(), weakset::error::Failure> {
/// let set = WeakSetBuilder::new(CollectionId(1), home)
///     .client_node(client_node)
///     .replica(replica)
///     .read_policy(ReadPolicy::Quorum)
///     .timeout(SimDuration::from_millis(200))
///     .create(world)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WeakSetBuilder {
    id: CollectionId,
    home: NodeId,
    replicas: Vec<NodeId>,
    client_node: Option<NodeId>,
    timeout: SimDuration,
    config: IterConfig,
}

impl WeakSetBuilder {
    /// Starts a builder for a collection with the given primary.
    pub fn new(id: CollectionId, home: NodeId) -> Self {
        WeakSetBuilder {
            id,
            home,
            replicas: Vec::new(),
            client_node: None,
            timeout: SimDuration::from_millis(100),
            config: IterConfig::default(),
        }
    }

    /// Adds a secondary replica of the membership list.
    #[must_use]
    pub fn replica(mut self, node: NodeId) -> Self {
        self.replicas.push(node);
        self
    }

    /// Sets the node the client runs on (defaults to the home node).
    #[must_use]
    pub fn client_node(mut self, node: NodeId) -> Self {
        self.client_node = Some(node);
        self
    }

    /// Sets the client's RPC timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the membership read policy.
    #[must_use]
    pub fn read_policy(mut self, policy: ReadPolicy) -> Self {
        self.config.read_policy = policy;
        self
    }

    /// Sets the fetch ordering.
    #[must_use]
    pub fn fetch_order(mut self, order: FetchOrder) -> Self {
        self.config.fetch_order = order;
        self
    }

    /// Sets the optimistic iterator's retry budget and interval.
    #[must_use]
    pub fn blocking(mut self, attempts: usize, interval: SimDuration) -> Self {
        self.config.block_attempts = attempts;
        self.config.retry_interval = interval;
        self
    }

    /// Makes grow-only iterations hold a §3.3 grow guard: concurrent
    /// removals are deferred until the run ends.
    #[must_use]
    pub fn guard_growth(mut self) -> Self {
        self.config.guard_growth = true;
        self
    }

    /// The collection reference this builder describes.
    pub fn collection_ref(&self) -> CollectionRef {
        CollectionRef {
            id: self.id,
            home: self.home,
            replicas: self.replicas.clone(),
        }
    }

    /// Creates the collection on its home and replicas, returning the
    /// bound set.
    ///
    /// # Errors
    ///
    /// [`Failure::Store`] when any replica cannot be created.
    pub fn create(self, world: &mut StoreRt) -> Result<WeakSet, Failure> {
        let cref = self.collection_ref();
        let client = StoreClient::new(self.client_node.unwrap_or(self.home), self.timeout);
        client.create_collection(world, &cref)?;
        Ok(WeakSet::new(client, cref).with_config(self.config))
    }

    /// Binds to an *existing* collection without creating anything.
    pub fn attach(self) -> WeakSet {
        let cref = self.collection_ref();
        let client = StoreClient::new(self.client_node.unwrap_or(self.home), self.timeout);
        WeakSet::new(client, cref).with_config(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::topology::Topology;
    use weakset_store::prelude::StoreServer;
    use weakset_store::prelude::StoreWorld;

    #[test]
    fn builds_and_creates() {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let home = t.add_node("home", 1);
        let rep = t.add_node("rep", 2);
        let mut w = StoreWorld::new(1, t, LatencyModel::default());
        w.install_service(home, Box::new(StoreServer::new()));
        w.install_service(rep, Box::new(StoreServer::new()));
        let set = WeakSetBuilder::new(CollectionId(5), home)
            .client_node(cn)
            .replica(rep)
            .read_policy(ReadPolicy::Quorum)
            .fetch_order(FetchOrder::IdOrder)
            .blocking(7, SimDuration::from_millis(5))
            .timeout(SimDuration::from_millis(75))
            .create(&mut w)
            .unwrap();
        assert_eq!(set.cref().id, CollectionId(5));
        assert_eq!(set.cref().replicas, vec![rep]);
        assert_eq!(set.client().node(), cn);
        assert_eq!(set.client().timeout(), SimDuration::from_millis(75));
        assert_eq!(set.config().block_attempts, 7);
        assert_eq!(set.config().read_policy, ReadPolicy::Quorum);
        assert_eq!(set.config().fetch_order, FetchOrder::IdOrder);
    }

    #[test]
    fn attach_does_not_touch_world() {
        let set = WeakSetBuilder::new(CollectionId(9), NodeId(3)).attach();
        assert_eq!(set.cref().home, NodeId(3));
        assert_eq!(set.client().node(), NodeId(3)); // defaults to home
    }

    #[test]
    fn create_fails_against_missing_service() {
        let mut t = Topology::new();
        let home = t.add_node("home", 0);
        let mut w = StoreWorld::new(1, t, LatencyModel::default());
        // No service installed: CreateCollection times out.
        let r = WeakSetBuilder::new(CollectionId(1), home)
            .timeout(SimDuration::from_millis(10))
            .create(&mut w);
        assert!(r.is_err());
    }
}
