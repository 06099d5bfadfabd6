//! Per-shard metric naming and roll-up.
//!
//! Sharded deployments record one metric family per shard under the
//! `shard.<index>.` prefix (read latency, read outcomes, envelope queue
//! depth). This module owns the naming convention — so producers and
//! dashboards cannot drift apart — and folds a registry's per-shard
//! families back into [`ShardStats`] rows for reports and objectives.

use crate::latency::LatencyRecorder;
use crate::registry::MetricsRegistry;

/// The canonical metric name for `name` scoped to one shard:
/// `shard.<index>.<name>`.
pub fn shard_key(shard: usize, name: &str) -> String {
    format!("shard.{shard}.{name}")
}

/// Splits a `shard.<index>.<rest>` metric name back into its shard
/// index and unscoped name. Returns `None` for names outside the
/// per-shard namespace.
pub fn parse_shard_key(key: &str) -> Option<(usize, &str)> {
    let rest = key.strip_prefix("shard.")?;
    let (idx, name) = rest.split_once('.')?;
    // Reject non-canonical indices ("007") so parse∘format is identity.
    let shard: usize = idx.parse().ok()?;
    if shard_key(shard, name) != key {
        return None;
    }
    Some((shard, name))
}

/// One shard's read-path health, rolled up from a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Successful membership reads (`shard.<i>.read.ok`).
    pub reads_ok: u64,
    /// Failed membership reads (`shard.<i>.read.err`).
    pub reads_err: u64,
    /// Median read latency in microseconds (`shard.<i>.read.us`), if
    /// any reads were observed.
    pub read_p50_us: Option<u64>,
    /// Peak number of this shard's requests queued in one batch
    /// envelope flush (`shard.<i>.queue.depth.max`).
    pub queue_depth_max: u64,
}

/// Rolls a registry's `shard.*` families up into one [`ShardStats`] per
/// shard index, in index order. Shards that recorded nothing are
/// absent.
pub fn per_shard_stats(m: &MetricsRegistry) -> Vec<ShardStats> {
    let mut out: Vec<ShardStats> = Vec::new();
    let slot = |out: &mut Vec<ShardStats>, shard: usize| -> usize {
        match out.binary_search_by_key(&shard, |s| s.shard) {
            Ok(i) => i,
            Err(i) => {
                out.insert(
                    i,
                    ShardStats {
                        shard,
                        ..ShardStats::default()
                    },
                );
                i
            }
        }
    };
    for (key, value) in m.counters() {
        if let Some((shard, name)) = parse_shard_key(key) {
            let i = slot(&mut out, shard);
            match name {
                "read.ok" => out[i].reads_ok = value,
                "read.err" => out[i].reads_err = value,
                _ => {}
            }
        }
    }
    for (key, value) in m.gauges() {
        if let Some((shard, "queue.depth.max")) = parse_shard_key(key) {
            let i = slot(&mut out, shard);
            out[i].queue_depth_max = value;
        }
    }
    for (key, rec) in m.latencies() {
        if let Some((shard, "read.us")) = parse_shard_key(key) {
            let i = slot(&mut out, shard);
            out[i].read_p50_us = rec.p50();
        }
    }
    out
}

/// Total latency observations across every shard's `read.us` family —
/// a cheap "how many sharded reads happened" roll-up.
pub fn total_shard_reads(m: &MetricsRegistry) -> u64 {
    m.latencies()
        .filter(|(key, _)| matches!(parse_shard_key(key), Some((_, "read.us"))))
        .map(|(_, rec)| LatencyRecorder::len(rec) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_format_round_trips() {
        assert_eq!(shard_key(3, "read.us"), "shard.3.read.us");
        assert_eq!(parse_shard_key("shard.3.read.us"), Some((3, "read.us")));
        assert_eq!(
            parse_shard_key("shard.12.queue.depth.max"),
            Some((12, "queue.depth.max"))
        );
        assert_eq!(parse_shard_key("store.read.us"), None);
        assert_eq!(parse_shard_key("shard.x.read.us"), None);
        assert_eq!(
            parse_shard_key("shard.007.read.us"),
            None,
            "non-canonical index"
        );
        assert_eq!(parse_shard_key("shard.3"), None, "no trailing name");
    }

    #[test]
    fn stats_roll_up_per_shard_families() {
        let mut m = MetricsRegistry::new();
        m.add(&shard_key(0, "read.ok"), 5);
        m.add(&shard_key(0, "read.err"), 1);
        m.observe(&shard_key(0, "read.us"), 200);
        m.observe(&shard_key(0, "read.us"), 400);
        m.gauge_max(&shard_key(0, "queue.depth.max"), 7);
        m.add(&shard_key(2, "read.ok"), 3);
        // Unrelated metrics must not leak in.
        m.add("store.read.quorum.contacts", 99);
        m.gauge_max("sim.queue.depth.max", 50);

        let stats = per_shard_stats(&m);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].shard, 0);
        assert_eq!(stats[0].reads_ok, 5);
        assert_eq!(stats[0].reads_err, 1);
        assert_eq!(stats[0].read_p50_us, Some(200));
        assert_eq!(stats[0].queue_depth_max, 7);
        assert_eq!(stats[1].shard, 2);
        assert_eq!(stats[1].reads_ok, 3);
        assert_eq!(stats[1].read_p50_us, None);
        assert_eq!(total_shard_reads(&m), 2);
    }
}
