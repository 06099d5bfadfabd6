//! E9 — §3.1's warning made measurable: what strong consistency costs.
//!
//! While a locked iteration runs, writers are refused. Sweeps the set
//! size (which stretches the lock hold time) and compares writer success
//! against the same workload under snapshot iteration (no locks). Also
//! reproduces the disconnection hazard: a client that vanishes mid-run
//! leaves the lock stuck until repair.

use crate::report::{ms, pct, Table};
use crate::scenarios::{populated_set, wan, Wan};
use crate::snapshot::{snapshot_with_trace, with_yield_objective, world_events};
use weakset::prelude::*;
use weakset_obs::ObsSnapshot;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::object::{ObjectId, ObjectRecord};
use weakset_store::prelude::{StoreClient, StoreError};

/// One sweep point.
pub struct Point {
    /// Set size.
    pub n: usize,
    /// Iteration semantics.
    pub semantics: Semantics,
    /// Simulated lock hold / iteration time.
    pub run_time: SimDuration,
    /// Writer attempts during the run.
    pub writer_attempts: usize,
    /// Writer attempts refused with `Locked`.
    pub writer_stalled: usize,
}

fn writer_task(wan: &mut Wan, set: &WeakSet, count: usize, interval: SimDuration) {
    let cref = set.cref().clone();
    let home = wan.servers[1];
    for k in 0..count {
        let at = wan.world.now() + interval.saturating_mul(k as u64 + 1);
        let cref = cref.clone();
        // Loopback environment action (see scenarios::schedule_churn_over):
        // the lock check still happens at the primary.
        wan.world
            .spawn_at(at, move |w: &mut weakset_store::prelude::StoreWorld| {
                let id = ObjectId(50_000 + k as u64);
                let rec = ObjectRecord::new(id, format!("w{k}"), &b"w"[..]);
                if let Some(srv) = w.service_mut::<weakset_store::prelude::StoreServer>(home) {
                    srv.apply(weakset_store::msg::StoreMsg::PutObject(rec));
                }
                let result = w
                    .service_mut::<weakset_store::prelude::StoreServer>(cref.home)
                    .map(|primary| {
                        primary.apply(weakset_store::msg::StoreMsg::AddMember {
                            coll: cref.id,
                            entry: MemberEntry { elem: id, home },
                        })
                    });
                let name = match result {
                    Some(weakset_store::msg::StoreMsg::Members { .. }) => "writer.ok",
                    Some(weakset_store::msg::StoreMsg::Locked) => "writer.stalled",
                    _ => "writer.failed",
                };
                w.metrics_mut().incr(name);
            });
    }
}

/// Runs the sweep.
pub fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for &n in &[8usize, 32, 128] {
        for semantics in [Semantics::Locked, Semantics::Snapshot] {
            let mut w = wan(900 + n as u64, 4, SimDuration::from_millis(5));
            let set = populated_set(&mut w, n, SimDuration::from_millis(200));
            // One writer op per expected yield (~10ms each), so every
            // attempt lands while the iteration is still running.
            let attempts = n;
            writer_task(&mut w, &set, attempts, SimDuration::from_millis(10));
            let start = w.world.now();
            let mut it = set.elements(semantics);
            loop {
                match it.next(&mut w.world) {
                    IterStep::Yielded(_) => {}
                    IterStep::Done => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            let run_time = w.world.now().saturating_since(start);
            // Let stragglers land.
            w.world.run_to_quiescence();
            let stalled = w.world.metrics().counter("writer.stalled") as usize;
            let ok = w.world.metrics().counter("writer.ok") as usize;
            out.push(Point {
                n,
                semantics,
                run_time,
                writer_attempts: stalled + ok,
                writer_stalled: stalled,
            });
        }
    }
    out
}

/// Outcome of the disconnection hazard scenario.
pub struct HazardOutcome {
    /// Writer result while the lock was stuck.
    pub stalled_while_stuck: bool,
    /// Writer result after the disconnected reader returned and
    /// released.
    pub recovered: bool,
}

/// The §3.1 hazard: a reader's disconnection extends the lock
/// indefinitely.
fn hazard() -> HazardOutcome {
    let mut w = wan(910, 3, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 8, SimDuration::from_millis(200));
    let mut it = set.elements(Semantics::Locked);
    // Take the lock and yield a couple of elements.
    assert!(matches!(it.next(&mut w.world), IterStep::Yielded(_)));
    assert!(matches!(it.next(&mut w.world), IterStep::Yielded(_)));
    // The reader's laptop drops off the network mid-run.
    let reader_node = set.client().node();
    w.world.topology_mut().partition(&[reader_node]);
    // Its next invocation fails and its release RPC is lost silently.
    let step = it.next(&mut w.world);
    assert!(matches!(step, IterStep::Failed(_)));
    // A writer elsewhere in the connected majority still stalls.
    let writer = StoreClient::new(w.servers[1], SimDuration::from_millis(100));
    let home = w.servers[0];
    let stalled_while_stuck = matches!(
        writer.add_member(
            &mut w.world,
            set.cref(),
            MemberEntry {
                elem: ObjectId(99_999),
                home
            }
        ),
        Err(StoreError::Locked)
    );
    // The laptop reconnects and releases (modelled by re-running release
    // through a reconnected abort).
    w.world.topology_mut().heal_partition();
    let releaser = StoreClient::new(reader_node, SimDuration::from_millis(100));
    releaser
        .release_read_lock(&mut w.world, set.cref())
        .expect("release after reconnect");
    let recovered = writer
        .add_member(
            &mut w.world,
            set.cref(),
            MemberEntry {
                elem: ObjectId(99_999),
                home,
            },
        )
        .is_ok();
    HazardOutcome {
        stalled_while_stuck,
        recovered,
    }
}

/// Formats the sweep + hazard as the E9 tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E9a (§3.1): writer stalls under locked vs snapshot iteration",
        &[
            "n",
            "semantics",
            "iteration time (ms)",
            "writer attempts",
            "stalled",
            "stall rate",
        ],
    );
    for p in points() {
        t.row(&[
            p.n.to_string(),
            p.semantics.to_string(),
            ms(p.run_time),
            p.writer_attempts.to_string(),
            p.writer_stalled.to_string(),
            pct(p.writer_stalled, p.writer_attempts),
        ]);
    }
    t.note("expected: locked iteration stalls ~all concurrent writers, and the stall");
    t.note("window grows linearly with n; snapshot iteration stalls none");

    let h = hazard();
    let mut t2 = Table::new(
        "E9b (§3.1): disconnection extends the lock indefinitely",
        &["phase", "writer outcome"],
    );
    t2.row(&[
        "reader disconnected, lock stuck".to_string(),
        if h.stalled_while_stuck {
            "stalled"
        } else {
            "ok"
        }
        .to_string(),
    ]);
    t2.row(&[
        "reader reconnected, lock released".to_string(),
        if h.recovered { "ok" } else { "stalled" }.to_string(),
    ]);
    vec![t, t2]
}

/// `BENCH_e9.json`: client writes interleaved with a locked iteration
/// of 10 elements bounce off the read lock (`store.write.err`) until the
/// iterator returns.
pub fn snapshot(seed: u64) -> ObsSnapshot {
    let mut w = wan(seed, 2, SimDuration::from_millis(5));
    let set = populated_set(&mut w, 10, SimDuration::from_millis(100));
    let mut it = set.elements(Semantics::Locked);
    for i in 0..10u64 {
        it.next(&mut w.world);
        let _ = set.add(
            &mut w.world,
            ObjectRecord::new(ObjectId(100 + i), format!("late-{i}"), vec![b'z'; 16]),
            w.servers[0],
        );
    }
    it.drain(&mut w.world, 3, SimDuration::from_millis(10));
    let events = world_events(&mut w.world);
    with_yield_objective(snapshot_with_trace(
        w.world.metrics_mut(),
        &events,
        "e9",
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_iteration_stalls_writers_snapshot_does_not() {
        for p in points() {
            match p.semantics {
                Semantics::Locked => {
                    assert!(
                        p.writer_stalled * 10 >= p.writer_attempts * 8,
                        "n={} stalled {}/{}",
                        p.n,
                        p.writer_stalled,
                        p.writer_attempts
                    );
                }
                Semantics::Snapshot => {
                    assert_eq!(p.writer_stalled, 0, "n={}", p.n);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn lock_hold_time_grows_with_set_size() {
        let ps = points();
        let locked: Vec<_> = ps
            .iter()
            .filter(|p| p.semantics == Semantics::Locked)
            .collect();
        assert!(locked[0].run_time < locked[1].run_time);
        assert!(locked[1].run_time < locked[2].run_time);
    }

    #[test]
    fn disconnection_hazard_reproduces() {
        let h = hazard();
        assert!(h.stalled_while_stuck);
        assert!(h.recovered);
    }
}
