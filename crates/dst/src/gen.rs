//! Scenario generation: one seed, one scenario, always the same one.
//!
//! The generator samples the design space — deployment, semantics, read
//! policy, workload, fault schedule — but stays inside the *soundness
//! envelope*: the set of configurations whose runs the figures accept
//! whenever the implementation is correct. Outside that envelope the
//! conformance monitor truthfully reports violations that are properties
//! of the configuration (e.g. stale quorum reads under concurrent faults
//! and mutations), not implementation bugs, which would drown the fuzzer
//! in noise. The envelope:
//!
//! - **Plain** deployments read `Primary` or `Quorum`; `Quorum` scenarios
//!   carry mutations or faults, never both (a quorum that excludes the
//!   primary may serve stale membership while it diverges).
//! - **Gossip** deployments read `Primary` or `Leaderless`, mutate by
//!   adds only, and schedule every add well before iteration starts so
//!   anti-entropy has converged the replicas (stale replicas would make
//!   leaderless union reads time-travel). Locked semantics is not
//!   deployed over gossip.
//! - Removals never drain the set: at most `setup.len() - 1` distinct
//!   victims, so a pessimistic first-invocation failure always has an
//!   unyielded member to justify it.
//! - Grow-only iteration over a shrinking workload always holds the §3.3
//!   grow guard, so the relaxed per-run grow-only constraint is sound.
//! - Every fault heals itself (outage restarts, partition window heals,
//!   flap ends up), so optimistic runs can always be driven to
//!   termination.

use crate::scenario::{Chaos, Deployment, FaultSpec, Link, Op, Scenario};
use weakset::prelude::{FetchOrder, Semantics};
use weakset_sim::rng::SimRng;
use weakset_store::prelude::ReadPolicy;

/// Derives an independent scenario seed from a base seed and an
/// iteration index (splitmix64 finalizer).
pub fn mix(seed: u64, iter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(iter.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One fuzz leg: the name `weakset-dst --leg` takes, and its generator.
/// Each leg is one set of runs the gate judges.
pub type Leg = (&'static str, fn(u64) -> Scenario);

/// Every fuzz leg, one row per generator.
pub const LEGS: [Leg; 5] = [
    ("plain", generate),
    ("sharded", generate_sharded),
    ("causal", generate_causal),
    ("merkle", generate_merkle),
    ("window", generate_window),
];

/// Generates the scenario for `seed`. Pure: the same seed always yields
/// the same scenario, and the generated scenario never sets
/// [`Chaos::PhantomYield`].
pub fn generate(seed: u64) -> Scenario {
    let mut rng = SimRng::for_label(seed, "dst.gen");
    if rng.chance(0.35) {
        gen_gossip(seed, &mut rng, &CONVERGED_GOSSIP, false)
    } else {
        gen_plain(seed, &mut rng)
    }
}

fn pick_fetch_order(rng: &mut SimRng) -> FetchOrder {
    if rng.chance(0.5) {
        FetchOrder::ClosestFirst
    } else {
        FetchOrder::IdOrder
    }
}

fn gen_setup(rng: &mut SimRng, servers: usize, max: u64) -> Vec<(u64, usize)> {
    let n = rng.range_u64(1, max + 1);
    (1..=n).map(|id| (id, rng.index(servers))).collect()
}

fn gen_faults(
    rng: &mut SimRng,
    servers: usize,
    max_faults: u64,
    lo_ms: u64,
    hi_ms: u64,
) -> Vec<FaultSpec> {
    let n = rng.range_u64(0, max_faults + 1);
    (0..n)
        .map(|_| {
            let at_ms = rng.range_u64(lo_ms, hi_ms);
            match rng.index(3) {
                0 => FaultSpec::Outage {
                    at_ms,
                    node: rng.index(servers),
                    for_ms: rng.range_u64(10, 41),
                },
                1 => {
                    // A nonempty proper subset of the servers; the client
                    // always stays on the majority side.
                    let size = rng.range_u64(1, servers as u64) as usize;
                    let mut idx: Vec<usize> = (0..servers).collect();
                    rng.shuffle(&mut idx);
                    let mut side: Vec<usize> = idx.into_iter().take(size).collect();
                    side.sort_unstable();
                    FaultSpec::Partition {
                        at_ms,
                        side,
                        for_ms: rng.range_u64(10, 41),
                    }
                }
                _ => {
                    let a = rng.index(servers);
                    let mut b = rng.index(servers);
                    if b == a {
                        b = (a + 1) % servers;
                    }
                    FaultSpec::Flap {
                        at_ms,
                        a,
                        b,
                        down_ms: rng.range_u64(1, 5),
                        up_ms: rng.range_u64(3, 9),
                        cycles: rng.range_u64(1, 4) as usize,
                    }
                }
            }
        })
        .collect()
}

/// Up to `n` workload mutations over the first 110 ms: removals of
/// distinct setup members — always leaving one un-removed, so a
/// pessimistic failure can point at an unyielded member — and adds of
/// fresh ids, sorted by due time.
fn gen_churn(rng: &mut SimRng, setup: &[(u64, usize)], servers: usize, n: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut victims: Vec<u64> = setup.iter().map(|&(e, _)| e).collect();
    let mut next_id = 100;
    for _ in 0..n {
        let at_ms = rng.range_u64(2, 111);
        if victims.len() > 1 && rng.chance(0.4) {
            let v = victims.remove(rng.index(victims.len()));
            ops.push(Op::Remove { at_ms, elem: v });
        } else {
            ops.push(Op::Add {
                at_ms,
                elem: next_id,
                home: rng.index(servers),
            });
            next_id += 1;
        }
    }
    ops.sort_by_key(Op::at_ms);
    ops
}

/// What a generator decides for itself; [`Draft::finish`] draws the
/// client-side tail every generator shares.
struct Draft {
    servers: usize,
    deployment: Deployment,
    semantics: Semantics,
    read_policy: ReadPolicy,
    start_ms: u64,
    setup: Vec<(u64, usize)>,
    ops: Vec<Op>,
    faults: Vec<FaultSpec>,
}

impl Draft {
    fn finish(self, seed: u64, rng: &mut SimRng) -> Scenario {
        Scenario {
            seed,
            servers: self.servers,
            deployment: self.deployment,
            semantics: self.semantics,
            read_policy: self.read_policy,
            // Grow-only iteration over a shrinking workload holds the
            // §3.3 guard, so the relaxed per-run constraint is sound.
            guard_growth: self.semantics == Semantics::GrowOnly
                && self.ops.iter().any(|o| matches!(o, Op::Remove { .. })),
            fetch_order: pick_fetch_order(rng),
            window: 1,
            link: Link::DEFAULT,
            bandwidth: None,
            file_size: None,
            think_ms: rng.range_u64(1, 5),
            budget: rng.range_u64(24, 41) as usize,
            start_ms: self.start_ms,
            setup: self.setup,
            ops: self.ops,
            faults: self.faults,
            chaos: Chaos::None,
        }
    }
}

fn gen_plain(seed: u64, rng: &mut SimRng) -> Scenario {
    let servers = rng.range_u64(2, 5) as usize;
    let semantics = Semantics::ALL[rng.index(Semantics::ALL.len())];
    let read_policy = if rng.chance(0.3) {
        ReadPolicy::Quorum
    } else {
        ReadPolicy::Primary
    };
    let start_ms = rng.range_u64(10, 31);
    let setup = gen_setup(rng, servers, 6);
    let n_ops = rng.range_u64(0, 6);
    let ops = gen_churn(rng, &setup, servers, n_ops);
    let mut faults = gen_faults(rng, servers, 3, 5, 101);
    if read_policy == ReadPolicy::Quorum && !ops.is_empty() {
        // Quorum reads are only fresh while either replicas stay in sync
        // (no faults) or membership stays put (no ops).
        faults.clear();
    }
    Draft {
        servers,
        deployment: Deployment::Plain,
        semantics,
        read_policy,
        start_ms,
        setup,
        ops,
        faults,
    }
    .finish(seed, rng)
}

/// Generates a sharded-deployment scenario for `seed`. Pure, like
/// [`generate`], but always deploys a `ShardedWeakSet`, so the fuzzer
/// exercises ring routing and runs over the union of the shards. A
/// separate entry point — not a new [`generate`] branch —
/// so every pre-sharding seed keeps producing the identical scenario
/// (checked-in traces and bench baselines replay byte-for-byte).
///
/// The sharded envelope, on top of the plain one:
///
/// - Server count is `shards * group_size`, split round-robin, so every
///   shard group has the same size and `Quorum` means the same thing in
///   every group.
/// - Faults are scheduled only under optimistic semantics. The rule
///   dates from when each shard was judged as its own run, where a
///   pessimistic run failing with no unyielded member of *its own* shard
///   was a violation the configuration caused; a run over the union is
///   judged as one set, so the rule now only keeps the leg's draws (and
///   every pinned scenario) as they were.
pub fn generate_sharded(seed: u64) -> Scenario {
    let rng = &mut SimRng::for_label(seed, "dst.gen.sharded");
    let shards = rng.range_u64(2, 4) as usize;
    let group_size = rng.range_u64(1, 4) as usize;
    let servers = shards * group_size;
    let semantics = Semantics::ALL[rng.index(Semantics::ALL.len())];
    let read_policy = if group_size >= 2 && rng.chance(0.4) {
        ReadPolicy::Quorum
    } else {
        ReadPolicy::Primary
    };
    let start_ms = rng.range_u64(10, 31);
    let setup = gen_setup(rng, servers, 8);
    let n_ops = rng.range_u64(0, 6);
    let ops = gen_churn(rng, &setup, servers, n_ops);
    let mut faults = if semantics == Semantics::Optimistic {
        gen_faults(rng, servers, 2, 5, 101)
    } else {
        Vec::new()
    };
    if read_policy == ReadPolicy::Quorum && !ops.is_empty() {
        // Same freshness rule as plain quorum scenarios, per group.
        faults.clear();
    }
    Draft {
        servers,
        deployment: Deployment::Sharded { shards },
        semantics,
        read_policy,
        start_ms,
        setup,
        ops,
        faults,
    }
    .finish(seed, rng)
}

/// Generates a [`ReadPolicy::CausalSession`] scenario for `seed`. Pure,
/// and a separate entry point like [`generate_sharded`], so every
/// existing seed stream is untouched.
///
/// The causal envelope differs from the plain/gossip ones in exactly the
/// way the session token changes the soundness argument:
///
/// - **Gossip** adds no longer need the 40 ms anti-entropy margin before
///   iteration starts — reads may race convergence lag, because the
///   session token is what keeps them from time-travelling. That racing
///   window is the point of the leg.
/// - Faults never overlap a mutation's commit window (plain scenarios
///   carry ops or faults, never both; gossip ops land ≥ 10 ms before the
///   first fault can fire). The oracle's session floor is read from the
///   primaries, so a mutation whose *reply* a fault eats would commit
///   without entering the session — and the floor would over-demand.
pub fn generate_causal(seed: u64) -> Scenario {
    let mut rng = SimRng::for_label(seed, "dst.gen.causal");
    if rng.chance(0.5) {
        gen_gossip(seed, &mut rng, &CAUSAL_GOSSIP, false)
    } else {
        causal_plain(seed, &mut rng)
    }
}

fn causal_plain(seed: u64, rng: &mut SimRng) -> Scenario {
    let servers = rng.range_u64(2, 5) as usize;
    let semantics = Semantics::ALL[rng.index(Semantics::ALL.len())];
    let start_ms = rng.range_u64(10, 31);
    let setup = gen_setup(rng, servers, 6);
    // Ops or faults, never both: every mutation's reply must reach the
    // session (see [`generate_causal`]).
    let (ops, faults) = if rng.chance(0.5) {
        let n_ops = rng.range_u64(1, 6);
        (gen_churn(rng, &setup, servers, n_ops), Vec::new())
    } else {
        (Vec::new(), gen_faults(rng, servers, 3, 5, 101))
    };
    Draft {
        servers,
        deployment: Deployment::Plain,
        semantics,
        read_policy: ReadPolicy::CausalSession,
        start_ms,
        setup,
        ops,
        faults,
    }
    .finish(seed, rng)
}

/// Where a gossip leg's windows sit relative to each other.
struct GossipWindows {
    /// The read policy, or `None` to draw `Leaderless`/`Primary`.
    policy: Option<ReadPolicy>,
    /// Iteration starts somewhere in `[start.0, start.1)` ms.
    start: (u64, u64),
    /// Adds land in `[2, add_end(start_ms))` ms.
    add_end: fn(u64) -> u64,
    /// The first fault fires no earlier than this long after the start.
    fault_lead_ms: u64,
}

/// Adds land by 20 ms; anti-entropy (5 ms rounds) has ≥ 40 ms to
/// converge every replica before iteration starts.
const CONVERGED_GOSSIP: GossipWindows = GossipWindows {
    policy: None,
    start: (60, 81),
    add_end: |_| 21,
    fault_lead_ms: 0,
};

/// Iteration starts hot on the heels of the last add — anti-entropy may
/// not have converged a single replica yet; the session token, not a
/// convergence margin, keeps the union reads sound. The first fault
/// fires ≥ 10 ms after the last possible add commit.
const CAUSAL_GOSSIP: GossipWindows = GossipWindows {
    policy: Some(ReadPolicy::CausalSession),
    start: (20, 41),
    add_end: |start_ms| start_ms.saturating_sub(11),
    fault_lead_ms: 5,
};

fn gen_gossip(seed: u64, rng: &mut SimRng, win: &GossipWindows, merkle: bool) -> Scenario {
    let servers = rng.range_u64(3, 5) as usize;
    let semantics = [
        Semantics::Snapshot,
        Semantics::GrowOnly,
        Semantics::Optimistic,
    ][rng.index(3)];
    let read_policy = win.policy.unwrap_or_else(|| {
        if rng.chance(0.5) {
            ReadPolicy::Leaderless
        } else {
            ReadPolicy::Primary
        }
    });
    let start_ms = rng.range_u64(win.start.0, win.start.1);
    let setup = gen_setup(rng, servers, 5);
    let n_ops = rng.range_u64(0, 5);
    let mut ops: Vec<Op> = (0..n_ops)
        .map(|i| Op::Add {
            at_ms: rng.range_u64(2, (win.add_end)(start_ms)),
            elem: 100 + i,
            home: rng.index(servers),
        })
        .collect();
    ops.sort_by_key(Op::at_ms);
    let faults = gen_faults(rng, servers, 2, start_ms + win.fault_lead_ms, start_ms + 51);
    Draft {
        servers,
        deployment: Deployment::Gossip {
            grow_only: rng.chance(0.5),
            merkle,
        },
        semantics,
        read_policy,
        start_ms,
        setup,
        ops,
        faults,
    }
    .finish(seed, rng)
}

/// Generates [`generate`]'s scenario for `seed` with a fetch window
/// drawn from {1, 2, 8} under its own RNG label, so every semantics runs
/// with fetches in flight across its invocations. Yield order is
/// unconstrained by every figure, so the plain envelope stays sound.
fn generate_window(seed: u64) -> Scenario {
    let mut rng = SimRng::for_label(seed, "dst.gen.window");
    Scenario {
        window: [1, 2, 8][rng.index(3)],
        link: Link::DEFAULT,
        bandwidth: None,
        file_size: None,
        ..generate(seed)
    }
}

/// Generates a gossip scenario that samples *both* digest modes for
/// `seed`. Pure, and a separate entry point like [`generate_sharded`],
/// so every existing seed stream is untouched.
///
/// Half the seeds deploy `merkle: true` (the Merkle-range descent), half
/// `merkle: false` (the classic full-digest exchange), over the same
/// gossip envelope as [`generate`]'s gossip branch — so the fuzz leg
/// checks that the two reconciliation paths satisfy the same figures
/// under the same faults.
pub fn generate_merkle(seed: u64) -> Scenario {
    let mut rng = SimRng::for_label(seed, "dst.gen.merkle");
    let merkle = rng.chance(0.5);
    gen_gossip(seed, &mut rng, &CONVERGED_GOSSIP, merkle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn generated_scenarios_respect_the_envelope() {
        for i in 0..300 {
            let s = generate(mix(7, i));
            assert!(!s.setup.is_empty());
            assert_eq!(s.chaos, Chaos::None);
            let removals = s
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Remove { .. }))
                .count();
            assert!(removals < s.setup.len().max(1));
            match s.deployment {
                Deployment::Plain => {
                    assert!(matches!(
                        s.read_policy,
                        ReadPolicy::Primary | ReadPolicy::Quorum
                    ));
                    if s.read_policy == ReadPolicy::Quorum && !s.ops.is_empty() {
                        assert!(s.faults.is_empty());
                    }
                    if s.semantics == Semantics::GrowOnly && removals > 0 {
                        assert!(s.guard_growth);
                    }
                }
                Deployment::Sharded { .. } => {
                    panic!("generate() never produces sharded deployments (seed stability)")
                }
                Deployment::Gossip { .. } => {
                    assert_ne!(s.semantics, Semantics::Locked);
                    assert!(matches!(
                        s.read_policy,
                        ReadPolicy::Primary | ReadPolicy::Leaderless
                    ));
                    for op in &s.ops {
                        assert!(matches!(op, Op::Add { .. }));
                        assert!(op.at_ms() + 40 <= s.start_ms);
                    }
                    for f in &s.faults {
                        let at = match f {
                            FaultSpec::Outage { at_ms, .. }
                            | FaultSpec::Partition { at_ms, .. }
                            | FaultSpec::Flap { at_ms, .. } => *at_ms,
                        };
                        assert!(at >= s.start_ms);
                    }
                }
            }
            for f in &s.faults {
                if let FaultSpec::Partition { side, .. } = f {
                    assert!(!side.is_empty() && side.len() < s.servers);
                }
                if let FaultSpec::Flap { a, b, .. } = f {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn sharded_generation_is_deterministic_and_stays_in_the_envelope() {
        for i in 0..200 {
            let seed = mix(13, i);
            let s = generate_sharded(seed);
            assert_eq!(s, generate_sharded(seed), "seed {seed}");
            let Deployment::Sharded { shards } = s.deployment else {
                panic!("seed {seed}: not a sharded deployment");
            };
            assert!(shards >= 2);
            assert_eq!(s.servers % shards, 0, "equal-size shard groups");
            assert!(!s.setup.is_empty());
            assert_eq!(s.chaos, Chaos::None);
            assert!(matches!(
                s.read_policy,
                ReadPolicy::Primary | ReadPolicy::Quorum
            ));
            if s.read_policy == ReadPolicy::Quorum {
                assert!(s.servers / shards >= 2, "quorum needs replicated groups");
                if !s.ops.is_empty() {
                    assert!(s.faults.is_empty());
                }
            }
            if s.semantics != Semantics::Optimistic {
                assert!(s.faults.is_empty(), "faults are optimistic-only");
            }
            let removals = s
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Remove { .. }))
                .count();
            assert!(removals < s.setup.len().max(1));
            if s.semantics == Semantics::GrowOnly && removals > 0 {
                assert!(s.guard_growth);
            }
        }
    }

    #[test]
    fn causal_generation_is_deterministic_and_stays_in_the_envelope() {
        for i in 0..200 {
            let seed = mix(17, i);
            let s = generate_causal(seed);
            assert_eq!(s, generate_causal(seed), "seed {seed}");
            assert_eq!(s.read_policy, ReadPolicy::CausalSession);
            assert!(!s.setup.is_empty());
            assert_eq!(s.chaos, Chaos::None);
            match s.deployment {
                Deployment::Plain => {
                    // Ops or faults, never both: the oracle floor assumes
                    // every mutation's reply reached the session.
                    assert!(s.ops.is_empty() || s.faults.is_empty());
                }
                Deployment::Gossip { .. } => {
                    assert_ne!(s.semantics, Semantics::Locked);
                    for op in &s.ops {
                        assert!(matches!(op, Op::Add { .. }));
                        // Commits well before the first fault can fire,
                        // but with no convergence margin before start.
                        assert!(op.at_ms() + 11 < s.start_ms);
                    }
                    for f in &s.faults {
                        let at = match f {
                            FaultSpec::Outage { at_ms, .. }
                            | FaultSpec::Partition { at_ms, .. }
                            | FaultSpec::Flap { at_ms, .. } => *at_ms,
                        };
                        assert!(at >= s.start_ms + 5);
                    }
                }
                Deployment::Sharded { .. } => {
                    panic!("generate_causal() never produces sharded deployments")
                }
            }
        }
    }

    #[test]
    fn merkle_generation_is_deterministic_and_samples_both_modes() {
        let mut saw = [false, false];
        for i in 0..200 {
            let seed = mix(19, i);
            let s = generate_merkle(seed);
            assert_eq!(s, generate_merkle(seed), "seed {seed}");
            let Deployment::Gossip { merkle, .. } = s.deployment else {
                panic!("seed {seed}: not a gossip deployment");
            };
            saw[merkle as usize] = true;
            // Same envelope as the classic gossip branch.
            assert_ne!(s.semantics, Semantics::Locked);
            for op in &s.ops {
                assert!(matches!(op, Op::Add { .. }));
                assert!(op.at_ms() + 40 <= s.start_ms);
            }
        }
        assert!(saw[0] && saw[1], "both digest modes must be sampled");
    }

    #[test]
    fn mix_separates_iterations() {
        let a = mix(42, 0);
        let b = mix(42, 1);
        let c = mix(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
