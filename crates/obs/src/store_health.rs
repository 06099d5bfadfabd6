//! Well-known metric names for the store client's health counters.
//!
//! `weakset-store`'s client records these on both backends, and the
//! checked-in `BENCH_*.json` baselines carry them — so the spellings
//! live here (rather than as string literals in the client) where
//! snapshot baselines and tests agree on them.

/// Counter: object fetches that returned the record.
pub const FETCH_OK: &str = "store.fetch.ok";

/// Counter: object fetches that failed on every candidate.
pub const FETCH_ERR: &str = "store.fetch.err";

/// Counter: writes acknowledged by the home node.
pub const WRITE_OK: &str = "store.write.ok";

/// Counter: writes that failed.
pub const WRITE_ERR: &str = "store.write.err";

/// Counter: replica syncs a replica acknowledged, which then held the
/// synced version.
pub const REPLICA_SYNC_SENT: &str = "store.replica_sync.sent";

/// Counter: replica syncs that were lost or refused.
pub const REPLICA_SYNC_FAILED: &str = "store.replica_sync.failed";

/// Counter: replica syncs that carried the whole membership, because
/// the replica had missed an earlier write's step.
pub const REPLICA_SYNC_FULL: &str = "store.replica_sync.full";
