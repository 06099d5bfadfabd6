//! The three workloads on the threaded runtime: one `ThreadedRuntime`,
//! three `StoreServer` replicas, one client node.
//!
//! * `rt-read-fanout` / `rt-read-large`: `read_members(Leaderless)` at
//!   64 / 4096 members.
//! * `rt-mixed-rw`: a `WeakSet` handle (Primary reads) at 512 members,
//!   cycling `add`, `contains`, `size`, `remove`, `contains`, `size`.
//!
//! Every read is checked for length and an id/home checksum; in the
//! mixed cycle `contains` must see the preceding `add` / `remove`
//! (read-your-write) and `size` must move by exactly one.

use super::{mix, Size, SplitMix};
use crate::harness::{flanked, Report, Workload};
use crate::host;
use crate::stats;
use crate::trace::{SpanStore, TracedRt, TracedService};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use weakset::prelude::WeakSet;
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{
    CollectionRef, MembershipRead, ReadPolicy, StoreClient, StoreError, StoreRt, StoreServer,
};

const COLL: CollectionId = CollectionId(1);
const REPLICAS: usize = 3;
const PAYLOAD_BYTES: usize = 32;
/// Client rpc timeout: far above any op, so a host stall is a slow op,
/// not a failed one.
const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(5_000);
/// Ops in one read/write cycle of the mixed workload.
const CYCLE: u64 = 6;
/// The mixed workload rebuilds its fleet every this many windows: the
/// membership log grows by one full copy per write per replica.
const EPOCH_WINDOWS: usize = 20;
/// Ops in a side burst.
const BURST_OPS: usize = 2048;

/// Victim ids have the top bit set, member ids never do.
const VICTIM_BIT: u64 = 1 << 63;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// `read_members(Leaderless)`.
    Read,
    /// The six-op `WeakSet` cycle.
    Mixed,
}

/// One preloaded member: id, index of its home server, payload.
struct Member {
    id: u64,
    home: usize,
    payload: [u8; PAYLOAD_BYTES],
}

fn payload(rng: &mut SplitMix) -> [u8; PAYLOAD_BYTES] {
    let mut bytes = [0u8; PAYLOAD_BYTES];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next().to_le_bytes());
    }
    bytes
}

/// Fixed-width object name, so allocation sizes do not depend on the id.
fn object_name(id: u64) -> String {
    format!("m{id:016x}")
}

fn checksum(entries: &[MemberEntry]) -> u64 {
    entries.iter().fold(0u64, |acc, e| {
        acc.wrapping_add(mix(e.elem.0 ^ (e.home.0 as u64) << 32))
    })
}

/// A running fleet and the handles into it.
struct Fleet {
    rt: TracedRt,
    servers: Vec<NodeId>,
    client: StoreClient,
    cref: CollectionRef,
    set: WeakSet,
    /// Checksum of the preloaded membership as the servers name it.
    expected: u64,
    /// RSS when the preload finished, and writes issued since.
    rss_kb_at_start: f64,
    writes: u64,
}

/// What a correct read of the preloaded membership looks like.
#[derive(Clone, Copy)]
struct Expect {
    len: usize,
    checksum: u64,
}

impl Expect {
    fn met_by(self, read: Result<MembershipRead, StoreError>) -> bool {
        read.is_ok_and(|r| r.entries.len() == self.len && checksum(&r.entries) == self.checksum)
    }
}

impl Fleet {
    /// What reads of this fleet must return; `wrong` (test-only) shifts
    /// both numbers by one.
    fn expect(&self, members: usize, wrong: bool) -> Expect {
        Expect {
            len: members + usize::from(wrong),
            checksum: self.expected.wrapping_add(u64::from(wrong)),
        }
    }

    /// Step `i % 6` of write cycle `i / 6`; `members` is the size the
    /// set is expected to have between cycles.
    fn mixed_op(&mut self, seed: u64, members: usize, i: u64) -> bool {
        let h = mix(seed ^ mix(i / CYCLE));
        let victim = ObjectId(h | VICTIM_BIT);
        let world: &mut StoreRt = &mut self.rt;
        match i % CYCLE {
            0 => {
                let home = self.servers[(h >> 8) as usize % REPLICAS];
                let bytes = payload(&mut SplitMix(h));
                let rec = ObjectRecord::new(victim, object_name(victim.0), &bytes[..]);
                self.writes += 1;
                self.set.add(world, rec, home).is_ok()
            }
            1 => self.set.contains(world, victim) == Ok(true),
            2 => self.set.size(world) == Ok(members + 1),
            3 => {
                self.writes += 1;
                self.set.remove(world, victim).is_ok()
            }
            4 => self.set.contains(world, victim) == Ok(false),
            _ => self.set.size(world) == Ok(members),
        }
    }
}

/// A workload on the threaded runtime.
pub struct RtWorkload {
    seed: u64,
    mode: Mode,
    members: Vec<Member>,
    ops_per_window: usize,
    count_ops: usize,
    side_bursts: bool,
    store: Option<Arc<SpanStore>>,
    fleet: Option<Fleet>,
    log_kb_per_write: Option<f64>,
    /// Test-only: expect a wrong checksum, so every read "fails".
    wrong_expectation: bool,
}

impl RtWorkload {
    fn new(
        seed: u64,
        mode: Mode,
        members: usize,
        ops_per_window: usize,
        count_ops: usize,
        store: Option<Arc<SpanStore>>,
    ) -> Self {
        let mut rng = SplitMix(mix(seed ^ 0x6c65_6467_6572)); // "ledger"
        let mut list: Vec<Member> = Vec::with_capacity(members);
        let mut taken = HashSet::with_capacity(members);
        while list.len() < members {
            let id = rng.next() & !VICTIM_BIT;
            if taken.insert(id) {
                list.push(Member {
                    id,
                    home: (rng.next() % REPLICAS as u64) as usize,
                    payload: payload(&mut rng),
                });
            }
        }
        RtWorkload {
            seed,
            mode,
            members: list,
            ops_per_window,
            count_ops,
            side_bursts: false,
            store,
            fleet: None,
            log_kb_per_write: None,
            wrong_expectation: false,
        }
    }

    /// `rt-read-fanout`: 64 members.
    pub fn read_fanout(seed: u64, size: Size, store: Option<Arc<SpanStore>>) -> Self {
        let mut w = match size {
            Size::Full => Self::new(seed, Mode::Read, 64, 3_300, 4_096, store),
            Size::Smoke => Self::new(seed, Mode::Read, 8, 40, 32, store),
        };
        w.side_bursts = true;
        w
    }

    /// `rt-read-large`: 4096 members.
    pub fn read_large(seed: u64, size: Size, store: Option<Arc<SpanStore>>) -> Self {
        match size {
            Size::Full => Self::new(seed, Mode::Read, 4_096, 330, 1_024, store),
            Size::Smoke => Self::new(seed, Mode::Read, 96, 40, 32, store),
        }
    }

    /// `rt-mixed-rw`: 512 members, six-op cycle.
    pub fn mixed_rw(seed: u64, size: Size, store: Option<Arc<SpanStore>>) -> Self {
        match size {
            Size::Full => Self::new(seed, Mode::Mixed, 512, 4_200, 4_098, store),
            Size::Smoke => Self::new(seed, Mode::Mixed, 16, 36, 30, store),
        }
    }

    /// Test-only: makes every correctness check expect the wrong answer.
    #[cfg(test)]
    pub fn expect_wrong_results(&mut self) {
        self.wrong_expectation = true;
    }

    fn build_fleet(&self) -> Option<Fleet> {
        let mut inner = ThreadedRuntime::<StoreMsg>::new(self.seed);
        let servers: Vec<NodeId> = (0..REPLICAS)
            .map(|i| inner.add_node(format!("s{i}")))
            .collect();
        for (i, &s) in servers.iter().enumerate() {
            match &self.store {
                Some(store) => inner
                    .install_service(s, Box::new(TracedService::new(store.clone(), i as u8 + 1))),
                None => inner.install_service(s, Box::new(StoreServer::new())),
            }
        }
        let client_node = inner.add_node("client");
        let mut rt = TracedRt::new(inner, self.store.clone());
        let client = StoreClient::new(client_node, RPC_TIMEOUT);
        let cref = CollectionRef {
            id: COLL,
            home: servers[0],
            replicas: servers[1..].to_vec(),
        };
        let set = WeakSet::new(client.clone(), cref.clone());

        // Preload through the public client API. A traced run records
        // its set-up, so the write handlers get spans.
        let mut expected_entries = Vec::with_capacity(self.members.len());
        client.create_collection(&mut rt, &cref).ok()?;
        for m in &self.members {
            let home = servers[m.home];
            let rec = ObjectRecord::new(ObjectId(m.id), object_name(m.id), &m.payload[..]);
            set.add(&mut rt, rec, home).ok()?;
            expected_entries.push(MemberEntry {
                elem: ObjectId(m.id),
                home,
            });
        }
        Some(Fleet {
            rt,
            servers,
            client,
            cref,
            set,
            expected: checksum(&expected_entries),
            rss_kb_at_start: host::rss_kb(),
            writes: 0,
        })
    }

    /// RSS growth per write since the current fleet was preloaded.
    fn measure_log_growth(&mut self) {
        if let Some(fleet) = &self.fleet {
            if self.log_kb_per_write.is_none() && fleet.writes > 0 {
                let grown = (host::rss_kb() - fleet.rss_kb_at_start).max(0.0);
                self.log_kb_per_write = Some(grown / fleet.writes as f64);
            }
        }
    }

    /// One flanked burst of reads under `policy`; normalised p50 in µs.
    fn burst_p50_us(&mut self, policy: ReadPolicy) -> f64 {
        let Some(fleet) = self.fleet.as_mut() else {
            return 0.0;
        };
        let want = fleet.expect(self.members.len(), false);
        let client = match policy {
            ReadPolicy::CausalSession => fleet.client.clone().with_session(),
            _ => fleet.client.clone(),
        };
        let (lat, factor) = flanked(|| {
            let mut lat = Vec::with_capacity(BURST_OPS);
            for _ in 0..BURST_OPS {
                let t0 = Instant::now();
                let ok = want.met_by(client.read_members(&mut fleet.rt, &fleet.cref, policy));
                lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
                assert!(ok, "side burst under {policy:?} read a wrong membership");
            }
            lat
        });
        stats::median(&lat) * factor
    }
}

impl Workload for RtWorkload {
    fn set_up(&mut self) -> bool {
        self.fleet = self.build_fleet();
        let Some(fleet) = self.fleet.as_mut() else {
            return false;
        };
        // Verify: a Leaderless read unions all three replicas, so it
        // checks every copy of the preload at once.
        let want = fleet.expect(self.members.len(), false);
        want.met_by(
            fleet
                .client
                .read_members(&mut fleet.rt, &fleet.cref, ReadPolicy::Leaderless),
        )
    }

    fn tear_down(&mut self) {
        if let Some(mut fleet) = self.fleet.take() {
            let _ = fleet.rt.shutdown(Duration::from_secs(5));
            drop(fleet);
            host::release_freed_memory();
        }
    }

    fn ops_per_window(&self) -> usize {
        self.ops_per_window
    }

    fn count_ops(&self) -> usize {
        self.count_ops
    }

    fn before_window(&mut self, window: usize) -> bool {
        let rebuild = self.mode == Mode::Mixed && window > 0 && window % EPOCH_WINDOWS == 0;
        if rebuild {
            self.measure_log_growth();
            self.tear_down();
            let rebuilt = self.set_up();
            assert!(rebuilt, "fleet rebuild failed before window {window}");
        }
        rebuild
    }

    fn op(&mut self, i: u64) -> bool {
        let Some(fleet) = self.fleet.as_mut() else {
            return false;
        };
        let want = fleet.expect(self.members.len(), self.wrong_expectation);
        match self.mode {
            Mode::Read => want.met_by(fleet.client.read_members(
                &mut fleet.rt,
                &fleet.cref,
                ReadPolicy::Leaderless,
            )),
            Mode::Mixed => fleet.mixed_op(self.seed, want.len, i),
        }
    }

    fn messages(&self) -> u64 {
        self.fleet
            .as_ref()
            .map_or(0, |f| f.rt.metrics().counter("rpc.sent"))
    }

    fn threaded(&self) -> bool {
        true
    }

    fn classes(&self) -> &'static [&'static str] {
        match self.mode {
            Mode::Read => &[],
            Mode::Mixed => &[
                "core_handle.add_p50_us",
                "core_handle.contains_p50_us",
                "core_handle.size_p50_us",
                "core_handle.remove_p50_us",
            ],
        }
    }

    fn class_of(&self, i: u64) -> usize {
        // add, contains, size, remove, contains, size
        [0, 1, 2, 3, 1, 2][(i % CYCLE) as usize]
    }

    fn extras(&mut self, report: &mut Report) {
        if self.mode == Mode::Mixed {
            self.measure_log_growth();
            report.put(
                "store_collection.log_kb_per_write",
                self.log_kb_per_write.unwrap_or(0.0),
            );
        }
        if self.side_bursts {
            for (name, policy) in [
                ("store_client.read.primary_p50_us", ReadPolicy::Primary),
                ("store_client.read.quorum_p50_us", ReadPolicy::Quorum),
                (
                    "store_client.read.leaderless_p50_us",
                    ReadPolicy::Leaderless,
                ),
                (
                    "store_client.read.causal_session_p50_us",
                    ReadPolicy::CausalSession,
                ),
            ] {
                let p50 = self.burst_p50_us(policy);
                report.put(name, p50);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_end_to_end, SETUP_REPS};

    const WINDOWS: usize = 3;

    #[test]
    fn inputs_follow_the_seed() {
        let ids = |seed| -> Vec<(u64, usize)> {
            RtWorkload::read_fanout(seed, Size::Smoke, None)
                .members
                .iter()
                .map(|m| (m.id, m.home))
                .collect()
        };
        assert_eq!(ids(5), ids(5));
        assert_ne!(ids(5), ids(6));
        assert!(ids(5)
            .iter()
            .all(|(id, home)| id & VICTIM_BIT == 0 && *home < REPLICAS));
    }

    #[test]
    fn mixed_cycle_costs_eleven_messages() {
        let mut w = RtWorkload::mixed_rw(3, Size::Smoke, None);
        let report = run_end_to_end(&mut w, WINDOWS);
        assert_eq!(report.failed, 0);
        // add = put + add_member + 2 syncs, remove = 1 + 2 syncs, four
        // Primary reads: 11 rpcs per 6 ops.
        let msgs = report.get("msgs_per_op").unwrap();
        assert!((msgs - 11.0 / 6.0).abs() < 1e-9, "{msgs}");
    }

    #[test]
    fn leaderless_read_costs_three_messages() {
        let mut w = RtWorkload::read_fanout(3, Size::Smoke, None);
        let report = run_end_to_end(&mut w, WINDOWS);
        assert_eq!(report.failed, 0);
        assert_eq!(report.get("msgs_per_op"), Some(3.0));
    }

    #[test]
    fn a_wrong_expectation_fails_every_read() {
        let mut w = RtWorkload::read_fanout(3, Size::Smoke, None);
        w.expect_wrong_results();
        let report = run_end_to_end(&mut w, WINDOWS);
        // Set-ups verify against the true checksum and still pass.
        assert_eq!(report.failed, report.attempted - SETUP_REPS as u64);
        assert!(report.get("success_share").unwrap() < 0.1);

        let mut w = RtWorkload::mixed_rw(3, Size::Smoke, None);
        w.expect_wrong_results();
        let report = run_end_to_end(&mut w, WINDOWS);
        // Only the two `size` steps of each cycle carry the expectation.
        assert!(report.failed > 0 && report.failed < report.attempted);
    }
}
