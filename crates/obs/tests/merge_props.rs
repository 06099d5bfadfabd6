//! Property tests for registry and latency merging.
//!
//! The fuzz snapshot (`BENCH_fuzz.json`) folds the DST corpus's
//! per-scenario registries into one, and a threaded fleet-wide reading
//! folds its views' registries, in whatever order the parts happen to
//! finish. That is
//! only sound if `MetricsRegistry::merge` behaves like a commutative,
//! associative fold: counters are sums, gauges are maxima, and latency
//! populations are multiset unions whose quantiles do not depend on
//! concatenation order. These tests pin exactly that, on the raw
//! registries and on their snapshots (the form `BENCH_*.json` holds).

use proptest::prelude::*;
use weakset_obs::{LatencyRecorder, MetricsRegistry};

/// One registry mutation: `kind % 3` picks counter-add / gauge-max /
/// latency-observe. Names are drawn from a pool of four so distinct
/// registries collide on names often (the interesting case for merge).
type Op = (u8, u8, u64);

const NAMES: [&str; 4] = ["rpc.sent", "rt.read.us", "queue.depth", "gossip.rounds"];

fn registry_of(ops: &[Op]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for &(kind, name, value) in ops {
        let name = NAMES[(name % 4) as usize];
        match kind % 3 {
            0 => m.add(name, value),
            1 => m.gauge_max(name, value),
            _ => m.observe(name, value),
        }
    }
    m
}

fn merged(regs: &[MetricsRegistry]) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for r in regs {
        out.merge(r);
    }
    out
}

fn canon(m: &MetricsRegistry) -> String {
    m.snapshot("merge-props", 0).to_json()
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..10_000), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) and merge(b, a) are equal and serve identical snapshots.
    #[test]
    fn registry_merge_is_commutative(oa in ops(), ob in ops()) {
        let a = registry_of(&oa);
        let b = registry_of(&ob);
        let (ab, ba) = (merged(&[a.clone(), b.clone()]), merged(&[b, a]));
        prop_assert_eq!(canon(&ab), canon(&ba));
        prop_assert_eq!(ab, ba);
    }

    /// (a ⊔ b) ⊔ c and a ⊔ (b ⊔ c) are equal and serve identical snapshots.
    #[test]
    fn registry_merge_is_associative(oa in ops(), ob in ops(), oc in ops()) {
        let a = registry_of(&oa);
        let b = registry_of(&ob);
        let c = registry_of(&oc);
        let mut left = MetricsRegistry::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        let mut bc = MetricsRegistry::new();
        bc.merge(&b);
        bc.merge(&c);
        let mut right = MetricsRegistry::new();
        right.merge(&a);
        right.merge(&bc);
        prop_assert_eq!(canon(&left), canon(&right));
        prop_assert_eq!(left, right);
    }

    /// Merging an empty registry changes nothing (identity element).
    #[test]
    fn empty_registry_is_the_merge_identity(oa in ops()) {
        let a = registry_of(&oa);
        let mut with_empty = a.clone();
        with_empty.merge(&MetricsRegistry::new());
        prop_assert_eq!(canon(&with_empty), canon(&a));
    }

    /// Many views merged in arbitrary order — the hub's exact situation
    /// — always build the same registry and serve the same quantiles.
    /// The permutation is derived from a seed via repeated rotation+swap
    /// so proptest shrinks it.
    #[test]
    fn quantiles_are_stable_under_any_merge_order(
        all in proptest::collection::vec(ops(), 2..6),
        perm_seed in any::<u64>(),
    ) {
        let regs: Vec<MetricsRegistry> = all.iter().map(|o| registry_of(o)).collect();
        let baseline = merged(&regs);
        let mut shuffled = regs;
        let mut s = perm_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let reordered = merged(&shuffled);
        prop_assert_eq!(canon(&reordered), canon(&baseline));
        prop_assert_eq!(reordered, baseline);
    }

    /// LatencyRecorder::merge is a multiset union: count, sum, and
    /// every quantile agree regardless of merge direction, and merging
    /// equals recording the combined population directly.
    #[test]
    fn latency_merge_is_a_multiset_union(
        xs in proptest::collection::vec(0u64..100_000, 0..32),
        ys in proptest::collection::vec(0u64..100_000, 0..32),
    ) {
        let rec = |samples: &[u64]| {
            let mut r = LatencyRecorder::new();
            for &s in samples {
                r.record(s);
            }
            r
        };
        let mut ab = rec(&xs);
        ab.merge(&rec(&ys));
        let mut ba = rec(&ys);
        ba.merge(&rec(&xs));
        let combined: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        let direct = rec(&combined);
        prop_assert_eq!(ab.summary(), ba.summary());
        prop_assert_eq!(ab.summary(), direct.summary());
        prop_assert_eq!(ab.sum(), direct.sum());
        prop_assert_eq!(&ab, &direct);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ab.quantile(q), ba.quantile(q));
        }
    }
}
