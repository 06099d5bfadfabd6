//! The oracle must reject. A scenario with [`Chaos::PhantomYield`] forges
//! a yield of an element that was never a member into its recorded run,
//! which every figure forbids. The campaign pins count 0 failures whether
//! the oracle looks or not, so this is the gate's test that a run which
//! breaks its specification is reported: with the oracle blinded, it
//! fails.

use weakset_dst::prelude::*;

/// Generated scenarios per leg.
const PER_LEG: u64 = 100;

#[test]
fn a_forged_yield_is_reported_on_every_leg() {
    for &(name, generate) in &LEGS {
        let missed: Vec<u64> = (0..PER_LEG)
            .map(|i| Scenario {
                chaos: Chaos::PhantomYield,
                ..generate(mix(2026, i))
            })
            .filter(|s| execute(s).violations.is_empty())
            .map(|s| s.seed)
            .collect();
        assert!(
            missed.is_empty(),
            "{name}: {} of {PER_LEG} forged yields went unreported, first at seeds {:?}",
            missed.len(),
            &missed[..missed.len().min(3)]
        );
    }
}
