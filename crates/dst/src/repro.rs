//! Repro artifacts: self-contained `.ron` files a failing fuzz run
//! writes, and that any later session (or a checked-in `#[test]`) can
//! replay byte-for-byte.

use crate::run::{self, RunReport};
use crate::scenario::Scenario;
use std::path::{Path, PathBuf};

/// Where the artifact for `seed` lives under `dir`.
fn artifact_path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("repro-{seed}.ron"))
}

/// Writes a shrunk scenario (plus the violations it reproduces, as
/// comments) to `dir/repro-<seed>.ron`, creating `dir` if needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifact(
    dir: &Path,
    scenario: &Scenario,
    violations: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = artifact_path(dir, scenario.seed);
    let mut text = String::from(
        "// weakset-dst repro artifact.\n\
         // Replay: weakset_dst::repro::replay(path), or `Scenario::from_ron` + `run::execute`.\n",
    );
    for v in violations {
        text.push_str(&format!("// violation: {}\n", v.replace('\n', " ")));
    }
    text.push_str(&scenario.to_ron());
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Loads a scenario back from an artifact file.
///
/// # Errors
///
/// Describes the I/O or parse problem.
pub fn load(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scenario::from_ron(&text)
}

/// Loads and re-executes an artifact, returning the (deterministic)
/// report.
///
/// # Errors
///
/// Describes the I/O or parse problem; execution itself cannot fail.
pub fn replay(path: &Path) -> Result<RunReport, String> {
    Ok(run::execute(&load(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn artifacts_round_trip() {
        let dir = std::env::temp_dir().join("weakset-dst-selftest");
        let s = generate(5);
        let path = write_artifact(&dir, &s, &["demo violation\nwith newline".into()]).unwrap();
        assert_eq!(path, artifact_path(&dir, s.seed));
        assert_eq!(load(&path).unwrap(), s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_missing_files() {
        let err = load(Path::new("/nonexistent/weakset-dst.ron")).unwrap_err();
        assert!(err.contains("weakset-dst.ron"));
    }
}
