//! The fuzz gate binary: run one leg's campaign of N scenarios, shrink
//! and persist any violation, exit nonzero if anything failed.
//!
//! ```text
//! weakset-dst [--leg NAME] [--iters N] [--seed S | --seed-from-env] [--out DIR]
//! weakset-dst --record SEED [--out DIR]   # threaded run → dst/rec-SEED.ron
//! weakset-dst --replay PATH [--out DIR]   # recording → sim + oracles
//! ```
//!
//! `--leg` names the row of [`weakset_dst::gen::LEGS`] whose generator
//! draws every scenario (default `plain`); [`weakset_dst::run::campaign`]
//! runs it.
//!
//! `--seed-from-env` reads the base seed from `$DST_SEED` (decimal, or
//! any string — non-numeric values are hashed), so CI can vary coverage
//! per run while every failure stays replayable from the printed seed.
//!
//! Every failure goes through one pipeline, `ship`: shrink, then write
//! the shrunk repro (`repro-<seed>.ron`, or `rec-<seed>-min.ron` for a
//! recording), the visibility-checker counterexample (`vis-`), the
//! causal post-mortem (`explain-`) and a Perfetto-loadable trace of the
//! shrunk run (`trace-`).
//!
//! `--record` generates seed `SEED`'s scenario (forced to the plain
//! deployment), runs it on the *threaded* runtime with a recorder
//! attached, writes the recording, then replays it twice to certify
//! determinism and agreement with the live run. `--replay` loads a
//! previously captured recording (e.g. from a production incident) and
//! re-drives it through the simulator: oracle violations shrink (over
//! the recording) and ship like any other failure, and any log/sim
//! divergence fails the run loudly.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use weakset_dst::prelude::*;
use weakset_runtime::record::Recording;
use weakset_sim::trace::fnv1a;

struct Args {
    leg: &'static Leg,
    iters: u64,
    seed: u64,
    out: PathBuf,
    record: Option<u64>,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        leg: &LEGS[0],
        iters: 200,
        seed: 1,
        out: PathBuf::from("dst"),
        record: None,
        replay: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{arg}: {e}"));
        match arg.as_str() {
            "--leg" => {
                let name = value()?;
                args.leg = LEGS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or(format!("--leg: unknown leg '{name}'"))?;
            }
            "--iters" => args.iters = number(value()?)?,
            "--seed" => args.seed = number(value()?)?,
            "--seed-from-env" => {
                let raw = std::env::var("DST_SEED").unwrap_or_default();
                args.seed = raw.parse().unwrap_or_else(|_| fnv1a(raw.as_bytes()));
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--record" => args.record = Some(number(value()?)?),
            "--replay" => args.replay = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err("weakset-dst: the fuzz gate".into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.record.is_some() && args.replay.is_some() {
        return Err("--record and --replay are mutually exclusive".into());
    }
    Ok(args)
}

/// Where a failure pipeline starts.
enum Failing<'a> {
    /// A generated scenario the oracles rejected.
    Scenario(&'a Scenario),
    /// A recording whose replay the oracles rejected.
    Recording(&'a Recording),
}

/// The failure pipeline, for a generated scenario and a recording alike:
/// shrink it, write the shrunk repro, then the shrunk run's visibility
/// counterexample, causal post-mortem and Perfetto trace. A recording's
/// files are tagged `rec-<seed>` where a scenario's are tagged `<seed>`.
fn ship(out: &Path, failing: Failing<'_>) {
    let (tag, small, report) = match failing {
        Failing::Scenario(s) => {
            let (small, execs) = shrink(s);
            let report = execute(&small);
            eprintln!(
                "  shrunk in {execs} executions to {} setup / {} ops / {} faults ({})",
                small.setup.len(),
                small.ops.len(),
                small.faults.len(),
                report.violations.join("; ")
            );
            match write_artifact(out, &small, &report.violations) {
                Ok(path) => eprintln!("  repro artifact: {}", path.display()),
                Err(e) => eprintln!("  could not write repro artifact: {e}"),
            }
            (small.seed.to_string(), small, report)
        }
        Failing::Recording(rec) => {
            let (small, execs) = shrink_recording(rec);
            eprintln!(
                "  recording shrunk in {execs} replay(s): {} -> {} log entries",
                rec.entries.len(),
                small.entries.len()
            );
            let name = format!("rec-{}-min.ron", rec.seed);
            save(out, &name, &small.to_ron(), "shrunk recording");
            let Ok(min) = replay_recording(&small) else {
                return;
            };
            let workload = Scenario::from_ron(&small.workload)
                .expect("a recording that replays has a workload");
            (format!("rec-{}", rec.seed), workload, min.report)
        }
    };
    // Every leg is judged by the visibility checker, so every failure
    // ships the axiom set, what it violated and the recorded
    // computations: enough to re-judge the run by hand.
    let mut vis = format!(
        "scenario seed {}\naxioms: {:?}\nviolations:\n",
        small.seed,
        axioms_for(&small)
    );
    for v in &report.violations {
        let _ = writeln!(vis, "  - {v}");
    }
    for (ci, comp) in report.computations.iter().enumerate() {
        let _ = writeln!(vis, "computation {ci}: {comp:?}");
    }
    let name = format!("vis-{tag}.txt");
    save(out, &name, &vis, "visibility counterexample");
    if let Some(text) = explain(&report) {
        eprintln!("{text}");
        save(out, &format!("explain-{tag}.txt"), &text, "explanation");
        let trace = weakset_sim::metrics::chrome_trace(&report.events);
        save(out, &format!("trace-{tag}.json"), &trace, "perfetto trace");
    }
}

/// Writes `text` to `out/name`, creating `out`, and says where it went.
fn save(out: &Path, name: &str, text: &str, what: &str) {
    let path = out.join(name);
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("  {what}: {}", path.display()),
        Err(e) => eprintln!("  could not write {what}: {e}"),
    }
}

/// Replays `rec` twice and prints the verdict. Divergence or
/// nondeterminism is an infrastructure failure (exit code 1); a
/// reproduced oracle violation is a successful repro (0) and ships
/// through `ship`. Returns the code and the first replay.
fn run_replay(rec: &Recording, out: &Path) -> (i32, Option<ReplayReport>) {
    let (a, b) = match (replay_recording(rec), replay_recording(rec)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("replay failed: {e}");
            return (1, None);
        }
    };

    let mut code = 0;
    if a.report.trace_hash != b.report.trace_hash {
        eprintln!(
            "NONDETERMINISTIC REPLAY: trace hashes {:016x} vs {:016x}",
            a.report.trace_hash, b.report.trace_hash
        );
        code = 1;
    }
    // Both replays must track the log: a divergence only the second one
    // hits is just as much an infrastructure failure as one in the first.
    for (label, divs) in [("first", &a.divergences), ("second", &b.divergences)] {
        if !divs.is_empty() {
            eprintln!(
                "replay diverged from the recording ({label} replay, {} divergence(s)):",
                divs.len()
            );
            for d in divs {
                eprintln!("  - {d}");
            }
            code = 1;
        }
    }
    println!(
        "replay: seed {} trace {:016x}, {} step(s), yielded {:?}, membership {:?}",
        rec.seed, a.report.trace_hash, a.report.steps, a.report.yielded, a.membership
    );

    if !a.report.violations.is_empty() {
        eprintln!(
            "replay reproduced {} violation(s): {}",
            a.report.violations.len(),
            a.report.violations.join("; ")
        );
        ship(out, Failing::Recording(rec));
    }
    (code, Some(a))
}

/// `--record SEED`: one threaded run, recorded, written, then replayed
/// twice and compared against the live outcome.
fn run_record(seed: u64, out: &Path) -> i32 {
    let mut scenario = generate(seed);
    scenario.deployment = Deployment::Plain; // replay v1 does not drive Gossip
    let live = match record_scenario(&scenario) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("record failed: {e}");
            return 1;
        }
    };
    let path = match write_recording(out, &live.recording) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("could not write recording: {e}");
            return 1;
        }
    };
    println!(
        "recorded: seed {seed}, {} entries{} -> {}",
        live.recording.entries.len(),
        if live.recording.truncated {
            " (truncated)"
        } else {
            ""
        },
        path.display()
    );
    println!(
        "live: {} step(s), yielded {:?}, membership {:?}, {} violation(s)",
        live.report.steps,
        live.report.yielded,
        live.membership,
        live.report.violations.len()
    );

    // Live violations (oracle objections to the real run) are exactly
    // what recording is for — reproduce them under the sim. Only
    // divergence/nondeterminism fails the record gate.
    let (mut code, first) = run_replay(&live.recording, out);
    if let (false, Some(a)) = (live.recording.truncated, first) {
        if a.report.yielded != live.report.yielded
            || a.membership != live.membership
            || a.report.violations != live.report.violations
        {
            eprintln!(
                "REPLAY DISAGREES with the live run:\n  live   yielded {:?} membership {:?} violations {:?}\n  replay yielded {:?} membership {:?} violations {:?}",
                live.report.yielded,
                live.membership,
                live.report.violations,
                a.report.yielded,
                a.membership,
                a.report.violations
            );
            code = 1;
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            let legs = LEGS.map(|(name, _)| name).join("|");
            eprintln!("{msg}\nusage: weakset-dst [--leg {legs}] [--iters N] [--seed S | --seed-from-env] [--out DIR]\n       weakset-dst --record SEED [--out DIR]\n       weakset-dst --replay PATH [--out DIR]");
            std::process::exit(2);
        }
    };

    if let Some(seed) = args.record {
        std::process::exit(run_record(seed, &args.out));
    }
    if let Some(path) = &args.replay {
        let rec = match load_recording(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("could not load recording: {e}");
                std::process::exit(2);
            }
        };
        std::process::exit(run_replay(&rec, &args.out).0);
    }

    let (combined, failures) = campaign(args.leg, args.seed, args.iters);
    for f in &failures {
        eprintln!(
            "FAIL seed {} (iter {}): {}",
            f.scenario.seed,
            f.iter,
            f.violations.join("; ")
        );
        ship(&args.out, Failing::Scenario(&f.scenario));
    }
    println!(
        "weakset-dst: {} scenario(s) from seed {}, combined trace hash {combined:016x}, {} failure(s)",
        args.iters,
        args.seed,
        failures.len()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
