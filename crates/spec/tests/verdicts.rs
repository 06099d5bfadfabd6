//! Verdict pin for both conformance checkers.
//!
//! Every small computation [`enumerate`] produces is checked against every
//! figure under six constraint readings (the figure's own and the five
//! [`ConstraintKind`]s), by the literal per-figure checker in both
//! strictness modes and by the visibility checker. Each verdict's
//! [`Conformance::summary`] text is folded into one FNV-1a digest per
//! checker, so any change to a verdict, to the order of its violations or
//! to their wording moves a constant below.

use weakset_spec::prelude::*;

const READINGS: [Option<ConstraintKind>; 6] = [
    None,
    Some(ConstraintKind::None),
    Some(ConstraintKind::Immutable),
    Some(ConstraintKind::GrowOnly),
    Some(ConstraintKind::ImmutableDuringRuns),
    Some(ConstraintKind::GrowOnlyDuringRuns),
];

/// FNV-1a over every verdict's summary line, and the number of verdicts.
fn digest(check: impl Fn(Figure, ConstraintKind, &Computation) -> Conformance) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for comp in &enumerate(Bounds::default()) {
        for fig in Figure::ALL {
            for reading in READINGS {
                let constraint = reading.unwrap_or_else(|| fig.constraint());
                let line = check(fig, constraint, comp).summary() + "\n";
                for b in line.bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                n += 1;
            }
        }
    }
    (h, n)
}

#[test]
fn verdicts_are_pinned() {
    let liberal = digest(|f, c, comp| Checker::new(f).with_constraint(c).check(comp));
    let literal = digest(|f, c, comp| Checker::new(f).literal().with_constraint(c).check(comp));
    let visibility =
        digest(|f, c, comp| check_execution(&AxiomSet::for_figure(f).with_arbitration(c), comp));
    assert_eq!(
        liberal,
        (0xa5d5_f261_0b59_7741, 464_640),
        "Checker (liberal)"
    );
    assert_eq!(
        literal,
        (0xe734_0bba_4f2b_1c01, 464_640),
        "Checker::literal"
    );
    assert_eq!(
        visibility,
        (0x979f_e833_7651_9191, 464_640),
        "check_execution"
    );
}
