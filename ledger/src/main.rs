//! `ledger` — the cost ledger of the weak-sets reproduction.
//!
//! ```text
//! ledger run       --workload NAME --seed S [--seconds N]        end-to-end metrics, tracing off
//! ledger trace     --workload NAME --seed S [--seconds N] [--out FILE]
//!                                                                per-layer metrics + Chrome trace
//! ledger bench     --workload NAME --seed S --seconds N --trace 0|1
//!                                                                the driver's entry point: runs
//!                                                                `run`/`trace` in a child process,
//!                                                                prints one JSON result line
//! ledger sweep     --runs N --out FILE [--seed-base S]           N untraced full-length runs of every
//!                                                                workload, seeds S..S+N -> result set
//! ledger compare   A.json B.json [--aa]                          apply the bounds to two result sets
//! ledger catalogue [--json]                                      the metric catalogue / BENCHMARK.json
//! ```
//!
//! `run` and `trace` print `name value unit` lines and exit non-zero on
//! a wrong result. See `README.md` for the protocol.

mod alloc;
mod catalogue;
mod compare;
mod harness;
mod host;
mod stats;
mod trace;
mod workloads;

use harness::Report;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::SpanStore;
use workloads::Size;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: ledger <run|trace|bench|sweep|compare|catalogue> [options]; see ledger/README.md";

/// `--key value` options after the subcommand, plus bare arguments.
struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            options: HashMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.contains(&name) => args.flags.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.insert(name.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.text(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} must be a whole number, got {v:?}")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        let name = self.text("workload").ok_or("--workload is required")?;
        if catalogue::is_workload(name) {
            Ok(name)
        } else {
            Err(format!("unknown workload {name:?}"))
        }
    }
}

/// Timed windows of a `seconds`-long run: the catalogued count at
/// `RUN_SECONDS`, in proportion otherwise.
fn windows_for(workload: &str, seconds: u64) -> usize {
    let windows = workloads::windows_per_run(workload) as u64 * seconds / catalogue::RUN_SECONDS;
    windows.max(2) as usize
}

/// Prints the report; the exit code says whether every result was right.
fn finish(report: &Report) -> ExitCode {
    print!("{}", report.render());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ledger: {} of {} ops returned a wrong result",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// Pins the process and marks the driver thread — before any runtime
/// exists, so node threads inherit the affinity mask.
fn prepare_process() {
    alloc::mark_driver_thread();
    if host::pin_to_highest_cpu().is_none() {
        eprintln!("ledger: could not pin to one CPU; timings will be noisier");
    }
}

/// Builds a full-size workload and checks its windows are long enough
/// for the percentile the ledger gates on.
fn build_full(
    name: &str,
    seed: u64,
    store: Option<std::sync::Arc<SpanStore>>,
) -> Result<Box<dyn harness::Workload>, String> {
    let workload = workloads::build(name, seed, Size::Full, store).expect("checked by workload()");
    if stats::percentile_supported(workload.ops_per_window(), 0.9) {
        Ok(workload)
    } else {
        Err(format!(
            "{name}: {} ops per window leave fewer than {} beyond p90",
            workload.ops_per_window(),
            stats::MIN_TAIL_SAMPLES
        ))
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload()?;
    let seed = args.number("seed", 1)?;
    let windows = windows_for(name, args.number("seconds", catalogue::RUN_SECONDS)?);
    prepare_process();
    let mut workload = build_full(name, seed, None)?;
    let report = harness::run_end_to_end(workload.as_mut(), windows);
    Ok(finish(&report))
}

fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload()?;
    let seed = args.number("seed", 1)?;
    let windows = windows_for(name, args.number("seconds", catalogue::RUN_SECONDS)?);
    let out = match args.text("out") {
        Some(path) => PathBuf::from(path),
        // Beside the binary, i.e. inside the (git-ignored) target dir.
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name(format!("ledger-trace-{name}.json")),
    };
    prepare_process();
    // Room for every span of the run: an op has at most 8 (mixed add),
    // reads have 7; allocate once, up front, outside the timed windows.
    let store = SpanStore::new();
    let mut workload = build_full(name, seed, Some(store.clone()))?;
    store.reserve(harness::trace_pairs(windows) * workload.ops_per_window() * 8 + (1 << 16));
    let (report, spans) = harness::run_traced(name, workload.as_mut(), windows, &store);
    std::fs::write(&out, trace::chrome_trace(&spans, name))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!(
        "ledger: {} spans recorded, first {} written to {}",
        spans.len(),
        spans.len().min(trace::CHROME_SPAN_LIMIT),
        out.display()
    );
    Ok(finish(&report))
}

/// One finished child run, as the driver wants it.
struct BenchResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value as printed, unit)` in catalogue order.
    metrics: Vec<(String, String, String)>,
}

impl BenchResult {
    fn json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .unwrap();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let comma = if i > 0 { ", " } else { "" };
            write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

/// Runs `ledger run|trace` in a fresh child process and folds its
/// `name value unit` lines into a [`BenchResult`].
fn bench_once(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<BenchResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .arg(if traced { "trace" } else { "run" })
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the measuring child: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut printed: HashMap<&str, (&str, &str)> = HashMap::new();
    for line in stdout.lines() {
        let mut parts = line.split(' ');
        if let (Some(name), Some(value), Some(unit)) = (parts.next(), parts.next(), parts.next()) {
            printed.insert(name, (value, unit));
        }
    }
    let count = |name: &str| printed.get(name).and_then(|(v, _)| v.parse::<u64>().ok());
    let wanted: Vec<&str> = if traced {
        catalogue::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalogue::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for name in &wanted {
        match printed.get(name) {
            Some((value, unit)) if value.parse::<f64>().is_ok_and(f64::is_finite) => {
                metrics.push((name.to_string(), value.to_string(), unit.to_string()));
            }
            _ => return Err(format!("the child printed no usable {name}")),
        }
    }
    let attempted = count("ops.attempted").ok_or("the child printed no ops.attempted")?;
    let failed = count("ops.failed").ok_or("the child printed no ops.failed")?;
    Ok(BenchResult {
        correct: child.status.success() && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload()?;
    let traced = match args.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let result = bench_once(
        name,
        args.number("seed", 1)?,
        args.number("seconds", catalogue::RUN_SECONDS)?,
        traced,
    )?;
    println!("{}", result.json());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A result set for `compare`: `--runs` untraced runs of every workload
/// at the catalogued length, run `r` with seed `--seed-base + r`.
fn cmd_sweep(args: &Args) -> Result<ExitCode, String> {
    let runs = args.number("runs", 5)?;
    let seed_base = args.number("seed-base", 1)?;
    let out = args.text("out").ok_or("--out FILE is required")?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    // Workloads interleaved, so every workload sees the whole stretch of
    // host time the sweep covers.
    for seed in seed_base..seed_base + runs {
        for w in catalogue::WORKLOADS {
            let name = w.name;
            let result = bench_once(name, seed, catalogue::RUN_SECONDS, false)?;
            eprintln!(
                "ledger: {name} seed {seed}: {}",
                if result.correct { "ok" } else { "WRONG RESULT" }
            );
            all_correct &= result.correct;
            entries.push(format!(
                "  {{\"workload\": \"{name}\", \"seed\": {seed}, \"result\": {}}}",
                result.json()
            ));
        }
    }
    let doc = format!("{{\"runs\": [\n{}\n]}}\n", entries.join(",\n"));
    std::fs::write(out, doc).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes exactly two result sets".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let aa = args.flags.iter().any(|f| f == "aa");
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows, aa));
    Ok(if compare::passes(&rows, aa) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_catalogue(args: &Args) -> Result<ExitCode, String> {
    if args.flags.iter().any(|f| f == "json") {
        print!("{}", catalogue::benchmark_json());
    } else {
        print!("{}", catalogue::text());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest, &["aa", "json"]).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "bench" => cmd_bench(&args),
        "sweep" => cmd_sweep(&args),
        "compare" => cmd_compare(&args),
        "catalogue" => cmd_catalogue(&args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_obs::Json;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let raw = strings(&[
            "--workload",
            "sim-dst",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        let args = Args::parse(&raw, &["aa", "json"]).unwrap();
        assert_eq!(args.workload(), Ok("sim-dst"));
        assert_eq!(args.number("seed", 1), Ok(9));
        assert_eq!(args.number("trace", 0), Ok(1));
        assert_eq!(args.number("absent", 4), Ok(4));
        assert!(Args::parse(&strings(&["--seed"]), &[]).is_err());
        let bad = Args::parse(&strings(&["--workload", "nope", "--seed", "x"]), &[]).unwrap();
        assert!(bad.workload().is_err() && bad.number("seed", 1).is_err());
        let cmp = Args::parse(&strings(&["a.json", "--aa", "b.json"]), &["aa"]).unwrap();
        assert_eq!((cmp.positional.len(), cmp.flags.len()), (2, 1));
    }

    #[test]
    fn run_seconds_gives_the_catalogued_window_counts() {
        for w in catalogue::WORKLOADS {
            let full = windows_for(w.name, catalogue::RUN_SECONDS);
            assert_eq!(full, workloads::windows_per_run(w.name));
            assert!(full >= 150);
            assert!(windows_for(w.name, 1) >= 2);
        }
    }

    #[test]
    fn exit_code_follows_the_tally() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        assert_eq!(finish(&report), ExitCode::SUCCESS);
        report.failed = 1;
        assert_eq!(finish(&report), ExitCode::FAILURE);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let result = BenchResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("op_p50_us".into(), "28.5".into(), "us".into()),
                ("setup_s".into(), "0.004217".into(), "s".into()),
            ],
        };
        let line = result.json();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.004217));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
