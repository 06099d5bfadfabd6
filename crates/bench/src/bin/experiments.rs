//! The bench front-end: prints experiment tables, or writes the
//! `BENCH_<id>.json` snapshots.
//!
//! ```text
//! cargo run --release -p weakset-bench --bin experiments              # every table
//! cargo run --release -p weakset-bench --bin experiments e5 e6
//! cargo run --release -p weakset-bench --bin experiments -- snapshot --out .
//! cargo run --release -p weakset-bench --bin experiments -- snapshot --seed 7 e1 e10
//! ```
//!
//! Both are deterministic: the same seed produces byte-identical
//! output. Bad input is a usage message on stderr and exit status 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use weakset_bench::experiments::{find, Experiment, ALL};
use weakset_bench::snapshot::DEFAULT_SEED;

/// A parsed command line.
enum Cmd {
    Help,
    Tables(Vec<&'static Experiment>),
    Snapshot {
        out: PathBuf,
        seed: u64,
        rows: Vec<&'static Experiment>,
    },
}

fn usage() -> String {
    let ids = |keep: fn(&&Experiment) -> bool| {
        let ids: Vec<&str> = ALL.iter().filter(keep).map(|e| e.id).collect();
        ids.join(" ")
    };
    format!(
        "usage: experiments [id…]\n       experiments snapshot [--out DIR] [--seed N] [id…]\n\
         ids: {} (snapshot only: {})",
        ids(|_| true),
        ids(|e| e.tables.is_none())
    )
}

/// Parses the arguments after the program name. No ids means every id
/// the subcommand has.
fn parse(args: &[String]) -> Result<Cmd, String> {
    let snapshot = args.first().is_some_and(|a| a == "snapshot");
    let mut out = PathBuf::from(".");
    let mut seed = DEFAULT_SEED;
    let mut rows = Vec::new();
    let mut args = args.iter().skip(usize::from(snapshot));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" => return Ok(Cmd::Help),
            "--out" if snapshot => {
                out = PathBuf::from(args.next().ok_or("--out needs a directory")?)
            }
            "--seed" if snapshot => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            id => match find(id) {
                Some(row) if snapshot || row.tables.is_some() => rows.push(row),
                Some(_) => return Err(format!("{id:?} has a snapshot but no table")),
                None => return Err(format!("unknown experiment id {id:?}")),
            },
        }
    }
    if rows.is_empty() {
        rows = ALL
            .iter()
            .filter(|e| snapshot || e.tables.is_some())
            .collect();
    }
    Ok(if snapshot {
        Cmd::Snapshot { out, seed, rows }
    } else {
        Cmd::Tables(rows)
    })
}

fn write_snapshots(out: &Path, seed: u64, rows: &[&Experiment]) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    for row in rows {
        let snap = (row.snapshot)(seed);
        let path = out.join(snap.file_name());
        std::fs::write(&path, snap.to_json())?;
        println!(
            "{} ({} counters, {} latencies, {} objectives)",
            path.display(),
            snap.counters.len(),
            snap.latencies.len(),
            snap.objectives.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cmd::Help) => println!("{}", usage()),
        Ok(Cmd::Tables(rows)) => {
            for table in rows.iter().filter_map(|row| row.tables).flat_map(|f| f()) {
                println!("{table}");
            }
        }
        Ok(Cmd::Snapshot { out, seed, rows }) => {
            if let Err(e) = write_snapshots(&out, seed, &rows) {
                eprintln!("{}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn ids(rows: &[&Experiment]) -> Vec<&'static str> {
        rows.iter().map(|r| r.id).collect()
    }

    #[test]
    fn tables_take_ids_or_default_to_every_id_with_a_table() {
        let Ok(Cmd::Tables(rows)) = parse(&args("e5 e10")) else {
            panic!("not a tables command");
        };
        assert_eq!(ids(&rows), ["e5", "e10"]);
        let Ok(Cmd::Tables(rows)) = parse(&[]) else {
            panic!("not a tables command");
        };
        assert_eq!(rows.len(), 11);
        assert!(rows.iter().all(|r| r.tables.is_some()));
    }

    #[test]
    fn snapshot_takes_out_seed_and_ids_or_defaults_to_every_row() {
        let Ok(Cmd::Snapshot { out, seed, rows }) =
            parse(&args("snapshot --out target/bench --seed 7 e1 fuzz"))
        else {
            panic!("not a snapshot command");
        };
        assert_eq!((out, seed), (PathBuf::from("target/bench"), 7));
        assert_eq!(ids(&rows), ["e1", "fuzz"]);
        let Ok(Cmd::Snapshot { out, seed, rows }) = parse(&args("snapshot")) else {
            panic!("not a snapshot command");
        };
        assert_eq!((out, seed), (PathBuf::from("."), DEFAULT_SEED));
        assert_eq!(rows.len(), ALL.len());
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for line in [
            "e13",
            "snapshot e13",
            "--tolerance 0.25",
            "snapshot --threads 4",
            "snapshot --out",
            "snapshot --seed",
            "snapshot --seed x",
            "--seed 7",
            "e12",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} was accepted");
        }
        assert!(matches!(parse(&args("snapshot --help")), Ok(Cmd::Help)));
    }
}
