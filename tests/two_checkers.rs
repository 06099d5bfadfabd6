//! Two checkers, one verdict, on real runs: every computation the fuzz
//! legs record is judged by the literal per-figure checker and by the
//! visibility checker the DST oracle uses, and the two must agree.
//!
//! The visibility checker may add §3.4 `PhantomYield` violations, which the
//! per-figure checker cannot express; they are filtered exactly as the
//! spec crate's exhaustive differential test filters them. Nothing else
//! is. Both checkers run without a session floor.

use weakset_dst::prelude::*;
use weakset_spec::prelude::*;

/// Scenarios executed per [`LEGS`] row, the `i`-th drawn from
/// `mix(1, i)` as the fuzz campaign draws them.
const PER_LEG: u64 = 200;

#[test]
fn both_checkers_agree_on_every_fuzz_leg() {
    let mut compared = 0usize;
    let mut disagreements = Vec::new();
    for &(leg, generate) in &LEGS {
        for i in 0..PER_LEG {
            let s = generate(mix(1, i));
            let (figure, constraint) = spec_for(&s);
            for comp in &execute(&s).computations {
                let literal = check_computation_with(figure, constraint, comp);
                let mut visibility = check_execution(&axioms_for(&s), comp);
                visibility
                    .violations
                    .retain(|v| !matches!(v, Violation::PhantomYield { .. }));
                compared += 1;
                if literal != visibility {
                    disagreements.push(format!(
                        "{leg} seed {}: {figure} {constraint:?}\n  checker: {}\n  visibility: {}\n{}",
                        s.seed,
                        literal.summary(),
                        visibility.summary(),
                        render(comp)
                    ));
                }
            }
        }
    }
    assert!(
        compared >= LEGS.len() * PER_LEG as usize,
        "only {compared} computations"
    );
    assert!(
        disagreements.is_empty(),
        "{} of {compared} computations judged differently:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}
