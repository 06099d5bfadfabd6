//! The fuzz gate binary: generate and execute N scenarios, shrink and
//! persist any violation, exit nonzero if anything failed. Each failure
//! also ships its causal post-mortem (`explain-<seed>.txt`) and a
//! Perfetto-loadable trace of the shrunk run (`trace-<seed>.json`).
//!
//! ```text
//! weakset-dst [--iters N] [--seed S | --seed-from-env] [--out DIR]
//!             [--sharded | --policies causal-session | --digest-mode merkle]
//! ```
//!
//! `--sharded` draws every scenario from the sharded-deployment
//! generator (hash-ring routing, batched membership reads, fan-out
//! iteration) instead of the plain/gossip mix.
//!
//! `--digest-mode merkle` draws every scenario from the merkle-gossip
//! generator: gossip deployments that sample *both* digest modes, so
//! half the runs reconcile by Merkle-range descent and half by the
//! classic full-digest exchange, judged against the same figures.
//!
//! `--policies causal-session` draws from the causal-session generator:
//! every scenario reads with `ReadPolicy::CausalSession` over plain and
//! gossip deployments (including gossip iteration racing anti-entropy
//! lag), and the oracle additionally enforces the session floor through
//! the visibility checker. Failures ship a `vis-<seed>.txt`
//! counterexample (the violated axioms plus the recorded computations)
//! next to the usual repro artifact.
//!
//! `--seed-from-env` reads the base seed from `$DST_SEED` (decimal, or
//! any string — non-numeric values are hashed), so CI can vary coverage
//! per run while every failure stays replayable from the printed seed.
//!
//! Two further modes bridge to the real runtime:
//!
//! ```text
//! weakset-dst --record SEED [--out DIR]   # threaded run → dst/rec-SEED.ron
//! weakset-dst --replay PATH [--out DIR]   # recording → sim + oracles
//! ```
//!
//! `--record` generates seed `SEED`'s scenario (forced to the plain
//! deployment), runs it on the *threaded* runtime with a recorder
//! attached, writes the recording, then immediately replays it twice to
//! certify determinism and agreement with the live run. `--replay`
//! loads a previously captured recording (e.g. from a production
//! incident) and re-drives it through the simulator: oracle violations
//! shrink (over the recording) and ship with a causal post-mortem, and
//! any log/sim divergence fails the run loudly.

use std::path::{Path, PathBuf};
use weakset_dst::prelude::*;
use weakset_sim::trace::fnv1a;

struct Args {
    iters: u64,
    seed: u64,
    out: PathBuf,
    sharded: bool,
    causal: bool,
    merkle: bool,
    record: Option<u64>,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut iters = 200u64;
    let mut seed = 1u64;
    let mut out = PathBuf::from("dst");
    let mut sharded = false;
    let mut causal = false;
    let mut merkle = false;
    let mut record = None;
    let mut replay = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--iters" => {
                iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seed-from-env" => {
                let raw = std::env::var("DST_SEED").unwrap_or_default();
                seed = raw.parse().unwrap_or_else(|_| fnv1a(raw.as_bytes()));
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--sharded" => sharded = true,
            "--policies" => match value("--policies")?.as_str() {
                "causal-session" => causal = true,
                other => return Err(format!("--policies: unknown policy set '{other}'")),
            },
            "--digest-mode" => match value("--digest-mode")?.as_str() {
                "merkle" => merkle = true,
                other => return Err(format!("--digest-mode: unknown mode '{other}'")),
            },
            "--record" => {
                record = Some(
                    value("--record")?
                        .parse()
                        .map_err(|e| format!("--record: {e}"))?,
                );
            }
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: weakset-dst [--iters N] [--seed S | --seed-from-env] [--out DIR] [--sharded | --policies causal-session | --digest-mode merkle]\n       weakset-dst --record SEED [--out DIR]\n       weakset-dst --replay PATH [--out DIR]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if record.is_some() && replay.is_some() {
        return Err("--record and --replay are mutually exclusive".into());
    }
    if (sharded as u8) + (causal as u8) + (merkle as u8) > 1 {
        return Err(
            "--sharded, --policies causal-session, and --digest-mode merkle are mutually exclusive"
                .into(),
        );
    }
    Ok(Args {
        iters,
        seed,
        out,
        sharded,
        causal,
        merkle,
        record,
        replay,
    })
}

/// Replays `rec` twice, prints both verdicts, and ships the failure
/// pipeline (shrink-the-recording, explain, perfetto trace) when the
/// oracles object. Returns the process exit code: divergence or
/// nondeterminism is an infrastructure failure (1); a reproduced oracle
/// violation is a *successful* repro (0) unless `violations_fail`.
fn run_replay(rec: &weakset_runtime::record::Recording, out: &Path, violations_fail: bool) -> i32 {
    let a = match replay_recording(rec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return 1;
        }
    };
    let b = match replay_recording(rec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("second replay failed: {e}");
            return 1;
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
        let (small, execs) = shrink_recording(rec);
        eprintln!(
            "  recording shrunk in {execs} replay(s): {} -> {} log entries",
            rec.entries.len(),
            small.entries.len()
        );
        let min_path = out.join(format!("rec-{}-min.ron", rec.seed));
        if std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&min_path, small.to_ron()))
            .is_ok()
        {
            eprintln!("  shrunk recording: {}", min_path.display());
        }
        if let Ok(min) = replay_recording(&small) {
            if let Some(text) = explain(&min.report) {
                eprintln!("{text}");
                let explain_path = out.join(format!("explain-rec-{}.txt", rec.seed));
                if std::fs::write(&explain_path, &text).is_ok() {
                    eprintln!("  explanation: {}", explain_path.display());
                }
                let trace_path = out.join(format!("trace-rec-{}.json", rec.seed));
                let trace = weakset_sim::metrics::chrome_trace(&min.report.events);
                if std::fs::write(&trace_path, trace).is_ok() {
                    eprintln!("  perfetto trace: {}", trace_path.display());
                }
            }
        }
        if violations_fail {
            code = 1;
        }
    }
    code
}

/// `--record SEED`: one threaded run, recorded, written, then replayed
/// twice and compared against the live outcome.
fn run_record(seed: u64, out: &Path) -> i32 {
    let mut scenario = generate(seed);
    scenario.deployment = Deployment::Plain; // replay v1 drives Plain only
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
    let mut code = run_replay(&live.recording, out, false);
    if !live.recording.truncated {
        let a = replay_recording(&live.recording);
        if let Ok(a) = a {
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
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
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
        std::process::exit(run_replay(&rec, &args.out, false));
    }

    let mut combined: u64 = 0;
    let mut failures = 0u64;
    for i in 0..args.iters {
        let scenario = if args.sharded {
            generate_sharded(mix(args.seed, i))
        } else if args.causal {
            generate_causal(mix(args.seed, i))
        } else if args.merkle {
            generate_merkle(mix(args.seed, i))
        } else {
            generate(mix(args.seed, i))
        };
        let report = execute(&scenario);
        combined = combined.rotate_left(1) ^ report.trace_hash;
        if report.violations.is_empty() {
            continue;
        }
        failures += 1;
        eprintln!(
            "FAIL seed {} (iter {i}): {}",
            scenario.seed,
            report.violations.join("; ")
        );
        let (small, execs) = shrink(&scenario);
        let small_report = execute(&small);
        eprintln!(
            "  shrunk in {execs} executions to {} setup / {} ops / {} faults ({})",
            small.setup.len(),
            small.ops.len(),
            small.faults.len(),
            small_report.violations.join("; ")
        );
        match write_artifact(&args.out, &small, &small_report.violations) {
            Ok(path) => eprintln!("  repro artifact: {}", path.display()),
            Err(e) => eprintln!("  could not write repro artifact: {e}"),
        }
        if args.causal {
            // Visibility-checker counterexample: the axiom set the run
            // was judged against, what it violated, and the recorded
            // computation(s) — enough to re-judge the run by hand.
            let mut vis = String::new();
            vis.push_str(&format!(
                "scenario seed {}\naxioms: {:?}\n",
                small.seed,
                axioms_for(&small)
            ));
            vis.push_str("violations:\n");
            for v in &small_report.violations {
                vis.push_str(&format!("  - {v}\n"));
            }
            for (ci, comp) in small_report.computations.iter().enumerate() {
                vis.push_str(&format!("computation {ci}: {comp:?}\n"));
            }
            let vis_path = args.out.join(format!("vis-{}.txt", small.seed));
            if let Err(e) = std::fs::write(&vis_path, &vis) {
                eprintln!("  could not write visibility counterexample: {e}");
            } else {
                eprintln!("  visibility counterexample: {}", vis_path.display());
            }
        }
        // Explain mode: walk the shrunk run's causal DAG backwards and
        // ship the post-mortem (plus a Perfetto-loadable trace of the
        // whole run) next to the repro artifact.
        if let Some(text) = explain(&small_report) {
            eprintln!("{text}");
            let explain_path = args.out.join(format!("explain-{}.txt", small.seed));
            if let Err(e) = std::fs::write(&explain_path, &text) {
                eprintln!("  could not write explanation: {e}");
            } else {
                eprintln!("  explanation: {}", explain_path.display());
            }
            let trace_path = args.out.join(format!("trace-{}.json", small.seed));
            let trace = weakset_sim::metrics::chrome_trace(&small_report.events);
            if let Err(e) = std::fs::write(&trace_path, trace) {
                eprintln!("  could not write trace: {e}");
            } else {
                eprintln!("  perfetto trace: {}", trace_path.display());
            }
        }
    }

    println!(
        "weakset-dst: {} scenario(s) from seed {}, combined trace hash {combined:016x}, {failures} failure(s)",
        args.iters, args.seed
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
