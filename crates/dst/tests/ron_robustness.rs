//! `obs::ron` on hostile input, through both artifacts written in it: no
//! truncation of a checked-in scenario repro or of a threaded recording
//! panics or parses as something else, a long string literal tokenizes,
//! and a scenario no stage could run is an `Err`, not a panic or a fleet
//! of a hundred thousand threads.

use std::path::Path;
use weakset::prelude::{FetchOrder, Semantics};
use weakset_dst::gen::LEGS;
use weakset_dst::prelude::*;
use weakset_obs::ron::{push_str_lit, Parser};
use weakset_runtime::Recording;
use weakset_store::prelude::ReadPolicy;

/// Parses every char-boundary prefix of `text` with `parse`: each is an
/// `Err`, or `full` itself when only whitespace was cut.
fn every_truncation<T: PartialEq + std::fmt::Debug>(
    what: &str,
    text: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) {
    let full = parse(text).unwrap_or_else(|e| panic!("{what} parses whole: {e}"));
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let (kept, lost) = text.split_at(cut);
        match parse(kept) {
            Ok(v) => {
                assert!(lost.trim().is_empty(), "{what} cut at {cut} parsed");
                assert_eq!(v, full, "{what} cut at {cut}");
            }
            Err(_) => assert!(!lost.trim().is_empty(), "{what} cut at {cut}"),
        }
    }
}

#[test]
fn no_truncation_of_the_checked_in_repro_panics_or_misparses() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../dst/repro-chaos-example.ron");
    let text = std::fs::read_to_string(path).expect("checked-in repro");
    every_truncation("repro", &text, Scenario::from_ron);
}

#[test]
fn no_truncation_of_a_threaded_recording_panics_or_misparses() {
    let s = Scenario {
        seed: 0x70,
        servers: 1,
        deployment: Deployment::Plain,
        semantics: Semantics::Snapshot,
        read_policy: ReadPolicy::Primary,
        guard_growth: false,
        fetch_order: FetchOrder::IdOrder,
        window: 1,
        think_ms: 1,
        budget: 2,
        start_ms: 1,
        setup: vec![(1, 0)],
        ops: vec![Op::Remove { at_ms: 2, elem: 1 }],
        faults: vec![],
        chaos: Chaos::None,
    };
    let text = record_scenario(&s).expect("record").recording.to_ron();
    // Every event kind the run produced, every outcome, the embedded
    // workload's escapes: all of it is cut somewhere.
    assert!(text.contains("Rpc(") && text.contains("\\n"), "{text}");
    every_truncation("recording", &text, Recording::from_ron);
}

#[test]
fn a_one_mebibyte_string_literal_tokenizes() {
    let unit = "weak sets \"yield\" \\ members\n\tacross é and 中\r";
    let raw: String = unit.repeat((1 << 20) / unit.len() + 1);
    assert!(raw.len() >= 1 << 20);
    let mut lit = String::new();
    push_str_lit(&mut lit, &raw);
    let mut p = Parser::new(&lit).expect("tokenizes");
    assert_eq!(p.string(), Ok(raw));
    p.expect_end().expect("one token");
}

#[test]
fn out_of_range_scenarios_are_errors() {
    let s = Scenario {
        seed: 1,
        servers: 3,
        deployment: Deployment::Plain,
        semantics: Semantics::GrowOnly,
        read_policy: ReadPolicy::Primary,
        guard_growth: false,
        fetch_order: FetchOrder::IdOrder,
        window: 8,
        think_ms: 1,
        budget: 8,
        start_ms: 10,
        setup: vec![(1, 0)],
        ops: vec![],
        faults: vec![
            FaultSpec::Outage {
                at_ms: 12,
                node: 1,
                for_ms: 20,
            },
            FaultSpec::Flap {
                at_ms: 15,
                a: 0,
                b: 2,
                down_ms: 2,
                up_ms: 3,
                cycles: 2,
            },
        ],
        chaos: Chaos::None,
    };
    let text = s.to_ron();
    assert_eq!(Scenario::from_ron(&text), Ok(s));
    for (from, to) in [
        ("servers: 3", "servers: 100000"),
        ("window: 8", "window: 65"),
        ("cycles: 2", "cycles: 18446744073709551615"),
        ("for_ms: 20", "for_ms: 18446744073709551615"),
    ] {
        assert!(text.contains(from), "{from}");
        let err = Scenario::from_ron(&text.replace(from, to)).expect_err(to);
        assert!(err.contains("out of range"), "{to}: {err}");
    }
    assert!(Scenario::from_ron(&text.replace("window: 8", "window: 0")).is_err());
}

#[test]
fn every_generated_scenario_round_trips() {
    for (leg, generate) in LEGS {
        for seed in 0..2_000 {
            let s = generate(seed);
            assert_eq!(Scenario::from_ron(&s.to_ron()), Ok(s), "{leg} seed {seed}");
        }
    }
}
