//! Client-side object caching with TTL staleness.
//!
//! The paper notes that an iterator "might keep a cached version, which is
//! a way to implement a history object", and that "cached data may be
//! stale". This cache serves both roles: iterators keep fetched objects,
//! and the TTL bounds how stale a hit can be.

use crate::object::{ObjectId, ObjectRecord};
use std::collections::hash_map::Entry;
use weakset_sim::idmap::IdMap;
use weakset_sim::time::{SimDuration, SimTime};

/// A TTL cache of object records.
#[derive(Clone, Debug)]
pub struct ObjectCache {
    ttl: SimDuration,
    entries: IdMap<ObjectId, (SimTime, ObjectRecord)>,
    hits: u64,
    misses: u64,
}

impl ObjectCache {
    /// A cache whose entries expire `ttl` after insertion.
    pub fn new(ttl: SimDuration) -> Self {
        ObjectCache {
            ttl,
            entries: IdMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up an unexpired entry, and evicts an expired one, in one
    /// lookup. A miss on an absent id may grow a full table: `entry`
    /// makes room for the insert it expects, which the `put` that
    /// follows a miss would make anyway.
    pub fn get(&mut self, now: SimTime, id: ObjectId) -> Option<&ObjectRecord> {
        match self.entries.entry(id) {
            Entry::Occupied(e) if now.saturating_since(e.get().0) <= self.ttl => {
                self.hits += 1;
                Some(&e.into_mut().1)
            }
            Entry::Occupied(e) => {
                self.misses += 1;
                e.remove();
                None
            }
            Entry::Vacant(_) => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry.
    pub fn put(&mut self, now: SimTime, rec: ObjectRecord) {
        self.entries.insert(rec.id, (now, rec));
    }

    /// Removes an entry.
    pub fn invalidate(&mut self, id: ObjectId) {
        self.entries.remove(&id);
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of resident entries (including possibly-expired ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> ObjectRecord {
        ObjectRecord::new(ObjectId(id), format!("o{id}"), &b""[..])
    }

    /// A fresh hit (the TTL bound is inclusive), a stale hit and an
    /// absent id: what each returns, counts and leaves resident.
    #[test]
    fn get_hits_fresh_evicts_stale_and_misses_absent() {
        let mut c = ObjectCache::new(SimDuration::from_millis(10));
        c.put(SimTime::ZERO, rec(1));
        c.put(SimTime::from_millis(5), rec(2));
        assert_eq!(c.get(SimTime::from_millis(10), ObjectId(1)), Some(&rec(1)));
        assert_eq!((c.len(), c.stats()), (2, (1, 0)));
        assert_eq!(c.get(SimTime::from_millis(11), ObjectId(1)), None);
        assert_eq!((c.len(), c.stats()), (1, (1, 1)));
        assert_eq!(c.get(SimTime::from_millis(11), ObjectId(9)), None);
        assert_eq!(c.get(SimTime::from_millis(11), ObjectId(1)), None);
        assert_eq!((c.len(), c.stats()), (1, (1, 3)));
        assert_eq!(c.get(SimTime::from_millis(15), ObjectId(2)), Some(&rec(2)));
        assert_eq!((c.len(), c.stats()), (1, (2, 3)));
    }

    #[test]
    fn put_refreshes_age() {
        let mut c = ObjectCache::new(SimDuration::from_millis(10));
        c.put(SimTime::ZERO, rec(1));
        c.put(SimTime::from_millis(8), rec(1));
        assert!(c.get(SimTime::from_millis(15), ObjectId(1)).is_some());
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = ObjectCache::new(SimDuration::MAX);
        c.put(SimTime::ZERO, rec(1));
        c.put(SimTime::ZERO, rec(2));
        c.invalidate(ObjectId(1));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn unbounded_never_expires() {
        let mut c = ObjectCache::new(SimDuration::MAX);
        c.put(SimTime::ZERO, rec(1));
        assert!(c.get(SimTime::from_secs(1_000_000), ObjectId(1)).is_some());
    }
}
