//! `obs::json` on hostile input: deep nesting is an `Err`, not a stack
//! overflow; a long string parses in time linear in its length; and no
//! truncation of a checked-in snapshot panics or parses as something
//! else.

use std::path::Path;
use weakset_obs::json::MAX_DEPTH;
use weakset_obs::Json;

/// Runs `f` on a thread with a 2 MiB stack, the default for spawned
/// threads, so an unbounded recursion shows up as an abort here too.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    on_small_stack(|| {
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(1_000_000);
            let err = Json::parse(&deep).expect_err("a million levels");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // The bound itself still parses; one level more does not.
        let nest = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    });
}

#[test]
fn a_one_mebibyte_string_round_trips() {
    // Plain runs, every escape the writer emits, and multi-byte chars.
    let unit = "weak sets \"yield\" \\ members\n\tacross é and 中 \u{1}";
    let text: String = unit.repeat((1 << 20) / unit.len() + 1);
    assert!(text.len() >= 1 << 20);
    let v = Json::Str(text);
    assert_eq!(Json::parse(&v.to_pretty()), Ok(v));
}

#[test]
fn no_truncation_of_a_checked_in_snapshot_panics_or_misparses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = 0;
    for entry in std::fs::read_dir(&root).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        files += 1;
        let text = std::fs::read_to_string(&path).expect("readable snapshot");
        let full = Json::parse(&text).expect("checked-in snapshot parses");
        assert_eq!(full.to_pretty(), text, "{name} is canonical");
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let (kept, lost) = text.split_at(cut);
            match Json::parse(kept) {
                Ok(doc) => {
                    assert!(lost.trim().is_empty(), "{name} cut at {cut} parsed");
                    assert_eq!(doc, full, "{name} cut at {cut}");
                }
                Err(_) => assert!(!lost.trim().is_empty(), "{name} cut at {cut}"),
            }
        }
    }
    assert_eq!(files, 13, "every BENCH_*.json at the repository root");
}
